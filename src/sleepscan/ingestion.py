"""Loading compiler artifacts into a CompilationUnit.

Two input layouts are accepted:
  A. a Solidity-compiler standard-JSON output file, and
  B. a directory with ``<name>.bin-runtime``, ``<name>.srcmap-runtime``,
     ``<name>.ast.json`` and ``<name>.sol``.

The deployed (runtime) bytecode and its source map are used throughout; the
defect-bearing functions live in runtime code, not the constructor. Inputs are
made uniform here: ``Ast`` rewrites a legacy AST into the modern shape and reads
it once into a function table (a row's parameters and span when asked; no other
module knows AST nodes), and source text is kept as the UTF-8 bytes spans count.
Each contract loads in one guarded step, ``_unit``: a fault in what it reads, map
spans included, fails it alone; only the artifact's own structure fails the file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

from sleepscan.errors import MalformedItem, MissingArtifact, VersionUnparseable

Version = tuple[int, int, int]
Span = tuple[int, int, int]  # (start, length, file) in UTF-8 bytes; file -1 for generated code


@dataclass
class CompilationUnit:
    contract_name: str
    runtime_bytecode: bytes
    source_map: list[Span]  # one per instruction
    ast: Ast | None  # shared by every unit of one source file
    sources: dict[int, bytes]  # file id -> source text, as the UTF-8 bytes spans count
    compiler_version: Version
    error: Exception | None = None  # why the code, map or AST did not load; each is then empty

    def snippet(self, span: Span) -> str:
        start, length, file_id = span
        return self.sources.get(file_id, b"")[start:start + length].decode(errors="replace")


# --------------------------------------------------------------------------
# source map codec

# "start:length[:file[:...]]" of a source-map item or an AST "src": a field is
# an optional "-" and ASCII digits, nothing else int() accepts
_SPAN = re.compile(r"(-?[0-9]+):(-?[0-9]+)(?::(-?[0-9]+)(?::|\Z)|\Z)")


def decode_source_map(encoded: str) -> list[Span]:
    """Decode the compiler's delta-compressed source map into one span per item.

    Items are ``s:l:f:j:m``; the jump and modifier-depth fields are ignored.
    A map has far fewer distinct items than items. An item that sets start,
    length and file gives one span whatever came before it, so it is parsed
    once; any other item once per distinct (previous span, item) pair.
    """
    return _decode_source_map(encoded)[0]


def _decode_source_map(encoded: str) -> tuple[list[Span], tuple[Span, ...]]:
    """The map's spans, and its distinct spans into source files in order of
    first use: each first appears where an item is parsed."""
    if encoded == "":
        return [], ()
    spans: list[Span] = []
    known: dict[str | tuple[Span, str], Span] = {}  # filled by _apply_item
    span: Span = (0, 0, -1)
    for item in encoded.split(";"):
        if item:  # an empty item repeats the previous span
            span = known.get(item) or known.get((span, item)) or _apply_item(span, item, known)
        spans.append(span)
    return spans, tuple(dict.fromkeys(span for span in known.values() if span[2] >= 0))


def _apply_item(previous: Span, item: str, known: dict) -> Span:
    """Parse ``item`` into ``known``: an empty or missing field keeps ``previous``'s."""
    complete = _SPAN.match(item)
    if complete and complete[3] is not None:
        span = known[item] = (int(complete[1]), int(complete[2]), int(complete[3]))
        return span
    values = list(previous)
    for i, raw in enumerate(item.split(":")[:3]):
        if raw != "":
            digits = raw[1:] if raw[0] == "-" else raw
            if not (digits.isascii() and digits.isdigit()):
                raise MalformedItem(f"non-integer field {raw!r} in item {item!r}")
            values[i] = int(raw)
    # not complete, so its span depends on the previous one
    span = known[(previous, item)] = (values[0], values[1], values[2])
    return span


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
    """Whether ``data`` is exactly one CBOR map of definite-length, untagged
    items. A loop over the count of items still to read, so no nesting
    depth recurses."""
    if not data or data[0] >> 5 != 5:
        return False
    pos, pending = 0, 1
    while pending:
        if pos >= len(data):
            return False
        major, info = data[pos] >> 5, data[pos] & 0x1F
        pos += 1
        if info < 24:
            arg = info
        elif info < 28:  # the argument follows in 1, 2, 4 or 8 bytes
            width = 1 << (info - 24)
            arg = int.from_bytes(data[pos:pos + width], "big")
            pos += width
        else:  # indefinite-length or reserved
            return False
        pending -= 1
        if major in (2, 3):  # byte/text string
            pos += arg
        elif major == 4:  # array
            pending += arg
        elif major == 5:  # map
            pending += 2 * arg
        elif major == 6:  # tagged, not produced by the compiler
            return False
        # majors 0, 1 and 7 (ints, simple values) are their header alone
    return pos == len(data)


# --------------------------------------------------------------------------
# the AST, read once into a function table; a legacy document is first
# rewritten into the modern shape

# kind -> the string attributes the walk reads from it, checked at load
_READS = {
    "FunctionDefinition": ("name", "visibility"),
    "VariableDeclaration": ("name", "typeString"),
    "Identifier": ("name",),
    "MemberAccess": ("memberName",),
}
_CALLEE_NAMES = {"Identifier": "name", "MemberAccess": "memberName"}  # callee kind -> name key


class FunctionRow(NamedTuple):
    """One function definition as read at load; its parameters and span are read when asked."""

    name: str  # "" for a constructor, fallback or receive
    visibility: str | None
    calls: frozenset[tuple[str, int]]  # (callee name or "", argument count)
    parameter_list: object  # the definition's "parameters" value
    src: object  # the definition's "src" value

    @property
    def parameters(self) -> tuple[tuple[str, str], ...]:  # (name, type string), "" where absent
        return tuple(map(_declaration, _parameters(self.parameter_list)))

    @property
    def span(self) -> Span:  # of the whole definition
        return _span(self.src)


class Ast:
    """One source file's AST, read by one checking walk at load into a function
    table that keeps of the JSON only each function's ``parameters`` and ``src``
    values. Only this module knows AST nodes. The walk reads the modern (``nodeType``)
    shape; ``_from_legacy`` first rewrites a legacy document (``name``/
    ``children``, solc before 0.5) into it, so no reader branches on the era.

    ``functions``: a row per function definition, in document (pre-)order; a
    row's body ends at a nested definition. ``state_variables``: the (name,
    type string) of each variable a contract declares, "" where absent.
    """

    __slots__ = ("functions", "state_variables")

    def __init__(self, doc: dict):
        if "nodeType" not in doc:
            doc = _from_legacy(doc)
        visit, get, call = self._visit, _get, self._call
        functions: list[tuple[dict, list[dict]]] = []  # node, its calls
        declared: list[dict] = []  # the variables every contract declares
        body = None  # of the function being walked; functions do not nest
        stack: list[dict | None] = [doc]
        push = stack.append
        while stack:
            node = stack.pop()
            if node is None:  # past the function's last descendant
                body = None
                continue
            kind = visit(node, push)
            if kind == "FunctionCall":
                if body is not None:
                    body.append(node)
            elif kind == "FunctionDefinition":
                body = []
                functions.append((node, body))
            elif kind == "ContractDefinition":
                declared += _declarations(node)
        # every node is checked by now, so reading the table cannot fail
        self.functions = [
            FunctionRow(get(fn, "name") or "", get(fn, "visibility"), frozenset(map(call, body)),
                        fn.get("parameters"), fn.get("src"))
            for fn, body in functions]
        self.state_variables = [_declaration(node) for node in declared
                                if node.get("stateVariable") is not False]

    def _visit(self, node: dict, push) -> str:
        """Check a node, push its child nodes last first (a function
        definition's above a None) and return its kind. A node's children are
        the nodes among its values and in its list values, in key order."""
        kind = node["nodeType"]
        if type(kind) is not str:
            _json_string(kind, "nodeType of an AST node")
        for key in _READS.get(kind, ()):
            value = _get(node, key)
            if not (value is None or isinstance(value, str)):
                _json_string(value, f"{key} of AST node {kind}")
        if kind == "FunctionDefinition":
            push(None)
        for value in reversed(node.values()):
            if type(value) is dict:
                if "nodeType" in value:
                    push(value)
            elif type(value) is list:
                for item in reversed(value):
                    if type(item) is dict and "nodeType" in item:
                        push(item)
        return kind

    def _call(self, node: dict) -> tuple[str, int]:
        """A call's callee name (an identifier's or member's, else "") and argument count."""
        callee, args = node.get("expression"), node.get("arguments")
        key = isinstance(callee, dict) and _CALLEE_NAMES.get(callee.get("nodeType"))
        return (key and callee.get(key)) or "", len(args) if isinstance(args, list) else 0


def _get(node: dict, key: str):
    if key == "typeString":
        node = node.get("typeDescriptions")
        if not isinstance(node, dict):
            return None
    return node.get(key)


def _declaration(decl: dict) -> tuple[str, str]:
    return _get(decl, "name") or "", _get(decl, "typeString") or ""


def _parameters(plist) -> list[dict]:
    """The variables of a function's ``parameters`` value, if a parameter list."""
    is_list = isinstance(plist, dict) and plist.get("nodeType") == "ParameterList"
    return _declarations(plist) if is_list else []


def _declarations(node: dict) -> list[dict]:
    """A contract's or parameter list's variables (at load, read before the walk checks them)."""
    return [child for value in node.values()
            for child in (value if type(value) is list else (value,))
            if type(child) is dict and child.get("nodeType") == "VariableDeclaration"]


def _from_legacy(doc: dict) -> dict:
    """A legacy AST (a node's kind is its ``name``, its attributes are under
    ``attributes`` and its child nodes are the list ``children``) in the
    modern shape, with only what the walk reads. Each node is checked as it
    is copied, in document pre-order, so the first bad node is the one named."""
    if not ("name" in doc and ("children" in doc or "attributes" in doc)):
        raise MissingArtifact("unrecognized AST JSON shape")
    renamed = {("Identifier", "name"): "value", ("MemberAccess", "memberName"): "member_name",
               ("VariableDeclaration", "typeString"): "type"}  # (kind, key) -> legacy key
    root: dict = {}
    stack = [(doc, root)]
    while stack:
        node, out = stack.pop()
        kind = out["nodeType"] = _json_string(node.get("name"), "legacy AST node name")
        if isinstance(node.get("src"), str):  # an object or list would be walked as nodes
            out["src"] = node["src"]
        attributes = _json_object(node.get("attributes") or {}, f"attributes of AST node {kind}")
        for key in _READS.get(kind, ()):
            value = attributes.get(renamed.get((kind, key), key))
            if value is not None:
                out[key] = _json_string(value, f"{key} of AST node {kind}")
        if kind == "VariableDeclaration":  # the type string moves to where the walk reads it
            out["typeDescriptions"] = {"typeString": out.pop("typeString", None)}
            out["stateVariable"] = attributes.get("stateVariable") is not False
        children = node.get("children") or []
        if not isinstance(children, list):
            raise MissingArtifact(f"children of AST node {kind} is not a JSON list")
        for child in children:
            _json_object(child, f"child of AST node {kind}")
        copies = [{} for _ in children]
        stack += reversed(list(zip(children, copies)))
        if kind == "FunctionCall" and copies:
            out["expression"], out["arguments"] = copies[0], copies[1:]  # the callee first
            continue
        if kind == "FunctionDefinition":
            lists = [i for i, child in enumerate(children) if child.get("name") == "ParameterList"]
            if lists:
                out["parameters"] = copies.pop(lists[0])
        out["nodes"] = copies
    return root


def _span(src: object) -> Span:
    """A "start:length:file" ``src`` as a span; no span when absent or not that."""
    match = _SPAN.match(src) if isinstance(src, str) else None
    if match is None:
        return (-1, 0, -1)
    start, length, file_id = match.groups()
    return (int(start), int(length), -1 if file_id is None else int(file_id))


# --------------------------------------------------------------------------
# version resolution

_SEMVER_RE = re.compile(r"(\d+)\.(\d+)\.(\d+)")
_PRAGMA_RE = re.compile(r"pragma\s+solidity\s+([^;]+);")
_HYPHEN_RE = re.compile(r"\s+-\s+")  # npm's range "a - b"
_COMPARATOR_RE = re.compile(r"(\^|~|>=|<=|>|<|=)?\s*v?(\d+)(?:\.(\d+))?(?:\.(\d+))?")


def parse_version(text: str) -> Version:
    match = _SEMVER_RE.search(text)
    if not match:
        raise VersionUnparseable(f"no semantic version in {text!r}")
    return (int(match.group(1)), int(match.group(2)), int(match.group(3)))


def version_from_pragma(source: str) -> Version:
    """The minimum version the pragma admits: the lowest over its ``||``
    alternatives of each one's greatest lower bound, ``a - b`` read as
    ``>=a <=b``; an alternative with no lower bound is passed over."""
    match = _PRAGMA_RE.search(source)
    if not match:
        raise VersionUnparseable("no solidity pragma found")
    bounds = []
    for alternative in match.group(1).split("||"):
        lower = [_lower_bound(m)
                 for m in _COMPARATOR_RE.finditer(_HYPHEN_RE.sub(" <=", alternative))
                 if m.group(1) not in ("<", "<=")]
        if lower:
            bounds.append(max(lower))
    if not bounds:
        raise VersionUnparseable(f"no lower bound in pragma {match.group(1)!r}")
    return min(bounds)


def _lower_bound(comparator: re.Match) -> Version:
    major, minor, patch = (int(part or 0) for part in comparator.groups()[1:])
    return (major, minor, patch + (comparator.group(1) == ">"))


def resolve_version(metadata_text: str | None, sources: dict[int, bytes],
                    own: int | None = None) -> Version:
    """The metadata's compiler version, else the first parseable pragma:
    the ``own`` source's first, then the others in order."""
    if metadata_text:
        try:
            meta = json.loads(metadata_text)
            # metadata not shaped {"compiler": {"version": str}} falls back to the pragma
            compiler = meta.get("compiler") if isinstance(meta, dict) else None
            raw = compiler.get("version") if isinstance(compiler, dict) else None
            if isinstance(raw, str):
                return parse_version(raw)
        except (json.JSONDecodeError, RecursionError, VersionUnparseable):
            pass
    for fid in sorted(sources, key=lambda fid: fid != own):
        try:
            return version_from_pragma(sources[fid].decode(errors="replace"))
        except VersionUnparseable:
            continue
    raise VersionUnparseable("no compiler version in metadata or pragma")


# --------------------------------------------------------------------------
# loading

def load_compilation(artifact_path) -> CompilationUnit:
    """Load one contract; raises when the path holds none or many, or it does not decode."""
    units = load_all(artifact_path)
    if len(units) > 1:
        names = ", ".join(u.contract_name for u in units)
        raise MissingArtifact(f"multiple contracts ({names}); use load_all")
    if units[0].error is not None:
        raise units[0].error
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
        for needed in (ast_path, srcmap_path):
            if not needed.exists():
                raise MissingArtifact(f"{needed} missing")
        sources = {0: sol_path.read_bytes()} if sol_path.exists() else {}
        units.append(_unit(name, sources, partial(_read_files, ast_path, bin_path, srcmap_path)))
    return units


def _read_files(ast_path: Path, bin_path: Path, srcmap_path: Path, sources: dict[int, bytes]):
    hex_code, source_map = (p.read_bytes().decode().strip() for p in (bin_path, srcmap_path))
    return None, hex_code, source_map, Ast(_parse_json(ast_path)), sources  # and no metadata


# an unlinked library's address, ``__$<34 hex digits>$__``: 40 characters where a
# PUSH20's immediate goes, so the zero address keeps every instruction in place
_LIBRARY_PLACEHOLDER = re.compile(r"__\$[0-9a-fA-F]{34}\$__")


def _unit(name: str, sources: dict[int, bytes], read, own: int | None = None) -> CompilationUnit:
    """A contract's unit from ``read(sources)``'s (metadata, hex code, encoded map, AST,
    the contract's sources), each unlinked library placeholder in the code read as the
    zero address. A fault in what it reads, a version that does not resolve, code or a
    map that does not decode, or a span outside a known source (the first in map order
    is named) fails it alone."""
    version = (0, 0, 0)
    try:
        metadata, hex_code, encoded_map, ast, sources = read(sources)
        version = resolve_version(metadata, sources, own)
        hex_code = _LIBRARY_PLACEHOLDER.sub("0" * 40, hex_code.removeprefix("0x"))
        code = strip_metadata(bytes.fromhex(hex_code))
        spans, distinct = _decode_source_map(encoded_map)
        for start, length, file_id in distinct:
            text = sources.get(file_id)
            if text is None:
                raise MissingArtifact(f"{name}: source-map entry refers to unknown file {file_id}")
            if start < 0 or length < 0 or start + length > len(text):
                raise MissingArtifact(f"{name}: source-map span {start}:{length} "
                                      f"out of bounds for file {file_id}")
        return CompilationUnit(name, code, spans, ast, sources, version)
    except (MissingArtifact, MalformedItem, ValueError, VersionUnparseable) as exc:
        return CompilationUnit(name, b"", [], None, sources, version, exc)


def _parse_json(path: Path) -> dict:
    try:  # nesting too deep to parse makes a bad artifact, as a syntax error does
        doc = json.loads(path.read_bytes().decode())
    except RecursionError:
        raise MissingArtifact(f"{path} is nested too deeply to parse") from None
    return _json_object(doc, f"{path}: top level")


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
    doc = _parse_json(path)
    contracts = _json_object(doc.get("contracts", {}), f"{path}: contracts")
    source_docs = _json_object(doc.get("sources", {}), f"{path}: sources")
    sources: dict[int, bytes] = {}
    ids: dict[str, int] = {}
    for file_name, entry in source_docs.items():
        entry = _json_object(entry, f"{path}: sources entry {file_name}")
        fid = ids[file_name] = _json_int(entry.get("id", len(sources)),
                                         f"{path}: id of {file_name}")
        if "content" in entry:
            if fid in sources:
                raise MissingArtifact(f"{path}: source id {fid} of {file_name} is used twice")
            content = _json_string(entry["content"], f"{path}: content of {file_name}")
            sources[fid] = content.encode(errors="surrogatepass")  # JSON can hold lone surrogates
    asts: dict[str, Ast | MissingArtifact] = {}  # file name -> its AST, or why it has none
    units = []
    for file_name, per_file in contracts.items():
        per_file = _json_object(per_file, f"{path}: contracts entry {file_name}")
        for name, contract in per_file.items():
            read = partial(_read_entry, path, source_docs, asts, file_name, name, contract)
            units.append(_unit(name, sources, read, ids.get(file_name)))
    return units


def _read_entry(path: Path, source_docs: dict, asts: dict[str, Ast | MissingArtifact],
                file_name: str, name: str, contract: object, sources: dict[int, bytes]):
    """A contract's (metadata, code, map, AST, sources): the file's ``sources`` and its
    own generated Yul sources. ``asts`` keeps its file's AST, or the fault that left
    it without one, for the others."""
    contract = _json_object(contract, f"{name}: contract entry")
    evm = _json_object(contract.get("evm", {}), f"{name}: evm")
    deployed = _json_object(evm.get("deployedBytecode", {}), f"{name}: deployedBytecode")
    hex_code = _json_string(deployed.get("object") or "", f"{name}: deployedBytecode.object")
    source_map = _json_string(deployed.get("sourceMap", ""), f"{name}: deployedBytecode.sourceMap")
    if (metadata := contract.get("metadata")) is not None:
        _json_string(metadata, f"{name}: metadata")
    if not isinstance(generated := deployed.get("generatedSources", []), list):
        raise MissingArtifact(f"{name}: generatedSources is not a JSON array")
    for entry in generated:  # solc 0.7.2 and later: Yul helpers that the map may name
        entry = _json_object(entry, f"{name}: generated source")
        fid = _json_int(entry.get("id"), f"{name}: id of a generated source")
        if fid in sources:
            raise MissingArtifact(f"{name}: generated source id {fid} is used twice")
        text = _json_string(entry.get("contents"), f"{name}: contents of generated source {fid}")
        sources = {**sources, fid: text.encode(errors="surrogatepass")}
    if file_name not in asts:
        try:
            if "ast" not in source_docs.get(file_name, {}):
                raise MissingArtifact(f"no AST for source file {file_name}")
            asts[file_name] = Ast(_json_object(source_docs[file_name]["ast"],
                                               f"{path}: AST of {file_name}"))
        except MissingArtifact as exc:
            asts[file_name] = exc
    if isinstance(ast := asts[file_name], MissingArtifact):
        raise MissingArtifact(*ast.args)  # a copy each, so no traceback is shared
    return metadata, hex_code, source_map, ast, sources
