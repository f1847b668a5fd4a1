"""Loading and normalizing compiler artifacts into a CompilationUnit.

Two input layouts are accepted:
  A. a Solidity-compiler standard-JSON output file, and
  B. a directory with ``<name>.bin-runtime``, ``<name>.srcmap-runtime``,
     ``<name>.ast.json`` and ``<name>.sol``.

The deployed (runtime) bytecode and its source map are used throughout; the
defect-bearing functions live in runtime code, not the constructor.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from sleepscan.errors import MalformedItem, MissingArtifact, VersionUnparseable

Version = tuple[int, int, int]
Span = tuple[int, int, int]  # (start, length, file); file -1 for compiler-generated code


@dataclass
class AstNode:
    node_kind: str
    src_span: Span
    children: list["AstNode"] = field(default_factory=list)
    attributes: dict = field(default_factory=dict)

    def by_kind(self) -> dict[str, list["AstNode"]]:
        """This node and its descendants grouped by kind, each group in
        document (pre-)order: one iterative walk, nothing kept on the node."""
        index: dict[str, list[AstNode]] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            index.setdefault(node.node_kind, []).append(node)
            stack.extend(reversed(node.children))
        return index

    def get(self, key, default=None):
        return self.attributes.get(key, default)


@dataclass
class CompilationUnit:
    contract_name: str
    runtime_bytecode: bytes
    source_map: list[Span]  # one per instruction
    ast: AstNode
    sources: dict[int, str]  # file id -> source text
    compiler_version: Version
    _ast_index: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def ast_index(self) -> dict[str, list[AstNode]]:
        """The AST's nodes by kind, built on first use.

        Kept on the unit, not on the root node: an index held by the root
        would refer back to the root, and that cycle would leave every AST to
        the cyclic garbage collector.
        """
        if self._ast_index is None:
            self._ast_index = self.ast.by_kind()
        return self._ast_index

    def snippet(self, span: Span) -> str:
        start, length, file_id = span
        return self.sources.get(file_id, "")[start:start + length]


# --------------------------------------------------------------------------
# source map codec

def decode_source_map(encoded: str) -> list[Span]:
    """Decode the compiler's delta-compressed source map into one span per item.

    Items are ``s:l:f:j:m``; the jump and modifier-depth fields are ignored.
    A map has far fewer distinct items than items, so each distinct
    (previous span, item) pair is parsed once.
    """
    if encoded == "":
        return []
    spans: list[Span] = []
    decoded: dict[tuple[Span, str], Span] = {}
    span: Span = (0, 0, -1)
    for item in encoded.split(";"):
        if item:  # an empty item repeats the previous span
            key = (span, item)
            span = decoded.get(key)
            if span is None:
                span = decoded[key] = _apply_item(*key)
        spans.append(span)
    return spans


def _apply_item(previous: Span, item: str) -> Span:
    """The span of ``item``: an empty or missing field keeps ``previous``'s."""
    values = list(previous)
    for i, raw in enumerate(item.split(":")[:3]):
        if raw == "":
            continue
        try:
            values[i] = int(raw)
        except ValueError as exc:
            raise MalformedItem(f"non-integer field {raw!r} in item {item!r}") from exc
    return (values[0], values[1], values[2])


# --------------------------------------------------------------------------
# metadata trailer

def strip_metadata(bytecode: bytes) -> bytes:
    """Drop the CBOR metadata trailer the compiler appends to runtime code.

    Best-effort: the input is returned unchanged whenever the trailing two
    bytes do not describe a well-formed CBOR map of the right length.
    """
    if len(bytecode) < 2:
        return bytecode
    trailer_len = int.from_bytes(bytecode[-2:], "big")
    if trailer_len == 0 or trailer_len + 2 > len(bytecode):
        return bytecode
    trailer = bytecode[-(trailer_len + 2):-2]
    if _is_cbor_map(trailer):
        return bytecode[:-(trailer_len + 2)]
    return bytecode


def _is_cbor_map(data: bytes) -> bool:
    try:
        end = _cbor_item_end(data, 0)
    except (ValueError, IndexError):
        return False
    return end == len(data) and data and (data[0] >> 5) == 5


def _cbor_item_end(data: bytes, pos: int) -> int:
    initial = data[pos]
    major, info = initial >> 5, initial & 0x1F
    pos += 1
    if info < 24:
        arg = info
    elif info == 24:
        arg = data[pos]
        pos += 1
    elif info == 25:
        arg = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
    elif info == 26:
        arg = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
    elif info == 27:
        arg = int.from_bytes(data[pos:pos + 8], "big")
        pos += 8
    else:
        raise ValueError("indefinite-length or reserved CBOR item")
    if major in (0, 1, 7):  # ints, simple values
        return pos
    if major in (2, 3):  # byte/text string
        end = pos + arg
        if end > len(data):
            raise ValueError("string runs past end")
        return end
    if major == 4:  # array
        for _ in range(arg):
            pos = _cbor_item_end(data, pos)
        return pos
    if major == 5:  # map
        for _ in range(2 * arg):
            pos = _cbor_item_end(data, pos)
        return pos
    raise ValueError("tagged item")  # major 6, not produced by the compiler


# --------------------------------------------------------------------------
# AST normalization (modern nodeType-based and legacy name/children JSON)

_SCALARS = (str, int, float, bool, type(None))


def ast_from_json(doc: dict) -> AstNode:
    if "nodeType" in doc:
        return _modern_node(doc)
    if "name" in doc and ("children" in doc or "attributes" in doc):
        return _legacy_node(doc)
    raise MissingArtifact("unrecognized AST JSON shape")


def _parse_src(src) -> Span:
    if not isinstance(src, str):
        return (-1, 0, -1)
    parts = src.split(":")
    try:
        return (int(parts[0]), int(parts[1]), int(parts[2]) if len(parts) > 2 else -1)
    except (ValueError, IndexError):
        return (-1, 0, -1)


def _modern_node(doc: dict) -> AstNode:
    attributes: dict = {}
    children: list[AstNode] = []
    for key, value in doc.items():
        if key in ("src", "nodeType"):
            continue
        if isinstance(value, dict):
            if "nodeType" in value:
                child = _modern_node(value)
                child.attributes.setdefault("_field", key)
                children.append(child)
            else:
                # e.g. typeDescriptions: hoist its scalar members
                for sub_key, sub_value in value.items():
                    if isinstance(sub_value, _SCALARS) and sub_key not in attributes:
                        attributes[sub_key] = sub_value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict) and "nodeType" in item:
                    child = _modern_node(item)
                    child.attributes.setdefault("_field", key)
                    children.append(child)
        elif isinstance(value, _SCALARS):
            attributes[key] = value
    return AstNode(doc["nodeType"], _parse_src(doc.get("src")), children, attributes)


def _legacy_node(doc: dict) -> AstNode:
    name = _json_string(doc.get("name"), "legacy AST node name")
    raw_attributes = _json_object(doc.get("attributes") or {},
                                  f"attributes of AST node {name}")
    attributes = {k: v for k, v in raw_attributes.items() if isinstance(v, _SCALARS)}
    children = doc.get("children") or []
    if not isinstance(children, list):
        raise MissingArtifact(f"children of AST node {name} is not a JSON list")
    children = [_legacy_node(_json_object(child, f"child of AST node {name}"))
                for child in children]
    return AstNode(name, _parse_src(doc.get("src")), children, attributes)


# --------------------------------------------------------------------------
# version resolution

_SEMVER_RE = re.compile(r"(\d+)\.(\d+)\.(\d+)")
_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+);")
_COMPARATOR_RE = re.compile(r"(\^|~|>=|<=|>|<|=)?\s*v?(\d+)(?:\.(\d+))?(?:\.(\d+))?")


def parse_version(text: str) -> Version:
    match = _SEMVER_RE.search(text)
    if not match:
        raise VersionUnparseable(f"no semantic version in {text!r}")
    return (int(match.group(1)), int(match.group(2)), int(match.group(3)))


def version_from_pragma(source: str) -> Version:
    """Minimum version satisfying the pragma's lower bounds (deterministic)."""
    match = _PRAGMA_RE.search(source)
    if not match:
        raise VersionUnparseable("no solidity pragma found")
    constraint = match.group(1).split("||")[0]
    best: Version | None = None
    for m in _COMPARATOR_RE.finditer(constraint):
        op = m.group(1) or "="
        if op in ("<", "<="):
            continue
        version = (int(m.group(2)), int(m.group(3) or 0), int(m.group(4) or 0))
        if op == ">":
            version = (version[0], version[1], version[2] + 1)
        if best is None or version > best:
            best = version
    if best is None:
        raise VersionUnparseable(f"no lower bound in pragma {constraint!r}")
    return best


def resolve_version(metadata_text: str | None, sources: dict[int, str]) -> Version:
    if metadata_text:
        try:
            meta = json.loads(metadata_text)
            # metadata not shaped {"compiler": {"version": str}} falls back to the pragma
            compiler = meta.get("compiler") if isinstance(meta, dict) else None
            raw = compiler.get("version") if isinstance(compiler, dict) else None
            if isinstance(raw, str):
                return parse_version(raw)
        except (json.JSONDecodeError, VersionUnparseable):
            pass
    for text in sources.values():
        try:
            return version_from_pragma(text)
        except VersionUnparseable:
            continue
    raise VersionUnparseable("no compiler version in metadata or pragma")


# --------------------------------------------------------------------------
# loading

def load_compilation(artifact_path) -> CompilationUnit:
    """Load one contract's artifacts; raises when the path holds none or many."""
    units = load_all(artifact_path)
    if len(units) > 1:
        names = ", ".join(u.contract_name for u in units)
        raise MissingArtifact(f"multiple contracts ({names}); use load_all")
    return units[0]


def load_all(artifact_path) -> list[CompilationUnit]:
    """Every contract under the path; raises when it holds none."""
    path = Path(artifact_path)
    if path.is_dir():
        units = _load_directory(path)
    elif path.is_file():
        units = _load_standard_json(path)
    else:
        raise MissingArtifact(f"{path} does not exist")
    if not units:
        raise MissingArtifact(f"no contract artifacts under {path}")
    return units


def _load_directory(path: Path) -> list[CompilationUnit]:
    units = []
    for bin_path in sorted(path.glob("*.bin-runtime")):
        name = bin_path.name[:-len(".bin-runtime")]
        ast_path = path / f"{name}.ast.json"
        srcmap_path = path / f"{name}.srcmap-runtime"
        sol_path = path / f"{name}.sol"
        if not ast_path.exists():
            raise MissingArtifact(f"{ast_path} missing")
        if not srcmap_path.exists():
            raise MissingArtifact(f"{srcmap_path} missing")
        raw_hex = bin_path.read_text().strip().removeprefix("0x")
        bytecode = strip_metadata(bytes.fromhex(raw_hex))
        ast = ast_from_json(_json_object(json.loads(ast_path.read_text()),
                                        f"{ast_path}: top level"))
        source_map = decode_source_map(srcmap_path.read_text().strip())
        sources = {0: sol_path.read_text()} if sol_path.exists() else {}
        version = resolve_version(None, sources)
        units.append(CompilationUnit(name, bytecode, source_map, ast, sources, version))
    return units


def _json_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise MissingArtifact(f"{what} is not a JSON object")
    return value


def _json_string(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise MissingArtifact(f"{what} is not a JSON string")
    return value


def _json_int(value: object, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, and not a JSON integer
        raise MissingArtifact(f"{what} is not a JSON integer")
    return value


def _load_standard_json(path: Path) -> list[CompilationUnit]:
    doc = _json_object(json.loads(path.read_text()), f"{path}: top level")
    contracts = _json_object(doc.get("contracts", {}), f"{path}: contracts")
    source_docs = _json_object(doc.get("sources", {}), f"{path}: sources")
    sources: dict[int, str] = {}
    asts: dict[str, AstNode] = {}
    for file_name, entry in source_docs.items():
        entry = _json_object(entry, f"{path}: sources entry {file_name}")
        fid = _json_int(entry.get("id", len(sources)), f"{path}: id of {file_name}")
        if "content" in entry:
            if fid in sources:
                raise MissingArtifact(f"{path}: source id {fid} of {file_name} is used twice")
            sources[fid] = _json_string(entry["content"], f"{path}: content of {file_name}")
        if "ast" in entry:
            asts[file_name] = ast_from_json(
                _json_object(entry["ast"], f"{path}: AST of {file_name}"))
    units = []
    for file_name, per_file in contracts.items():
        per_file = _json_object(per_file, f"{path}: contracts entry {file_name}")
        for contract_name, contract in per_file.items():
            contract = _json_object(contract, f"{contract_name}: contract entry")
            evm = _json_object(contract.get("evm", {}), f"{contract_name}: evm")
            deployed = _json_object(evm.get("deployedBytecode", {}),
                                    f"{contract_name}: deployedBytecode")
            hex_code = _json_string(deployed.get("object") or "",
                                    f"{contract_name}: deployedBytecode.object"
                                    ).removeprefix("0x")
            ast = asts.get(file_name)
            if ast is None:
                raise MissingArtifact(f"no AST for source file {file_name}")
            bytecode = strip_metadata(bytes.fromhex(hex_code))
            source_map = decode_source_map(_json_string(
                deployed.get("sourceMap", ""), f"{contract_name}: deployedBytecode.sourceMap"))
            metadata = contract.get("metadata")
            if metadata is not None:
                _json_string(metadata, f"{contract_name}: metadata")
            version = resolve_version(metadata, sources)
            units.append(CompilationUnit(
                contract_name, bytecode, source_map, ast, sources, version))
    return units
