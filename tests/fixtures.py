"""Hand-assembled contract artifacts for the test corpus.

No Solidity compiler is available in the test environment, so each fixture
carries real EVM runtime bytecode assembled by hand, a per-instruction source
map, a solc-shaped AST and matching source text — the same four artifacts a
compiler run would produce, in the directory layout the loader accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import astbuild as ab
import evmasm
from evmasm import Asm

from sleepscan.keccak import TRANSFER_TOPIC, keccak256

GEN = evmasm.GENERATED


@dataclass
class Fixture:
    name: str
    sol: str
    ast: dict
    bytecode: bytes
    srcmap: str

    def write(self, directory: Path) -> Path:
        d = Path(directory) / self.name
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{self.name}.bin-runtime").write_text(self.bytecode.hex())
        (d / f"{self.name}.srcmap-runtime").write_text(self.srcmap)
        (d / f"{self.name}.ast.json").write_text(json.dumps(self.ast, indent=1))
        (d / f"{self.name}.sol").write_text(self.sol, encoding="utf-8")
        return d


class Source:
    """Builds source text block by block, returning the span of each block."""

    def __init__(self):
        self.text = ""

    def add(self, block: str) -> tuple[int, int, int]:
        start = len(self.text)
        self.text += block
        return (start, len(block), 0)

    def span(self, snippet: str, occurrence: int = 0) -> tuple[int, int, int]:
        start = -1
        for _ in range(occurrence + 1):
            start = self.text.index(snippet, start + 1)
        return (start, len(snippet), 0)


# --------------------------------------------------------------------------
# assembler snippets


def _zero(a: Asm, span, use_push0: bool):
    if use_push0:
        a.op("PUSH0", span)
    else:
        a.push(0, span, width=1)


def _hashed_slot(a: Asm, key_dup: int, slot: int, span, use_push0: bool):
    """keccak(key . slot) for a mapping access; key comes from DUP{key_dup}.

    Net stack effect: +1 (the hashed slot on top).
    """
    a.op(f"DUP{key_dup}", span)
    _zero(a, span, use_push0)
    a.op("MSTORE", span)
    if slot == 0:
        _zero(a, span, use_push0)
    else:
        a.push(slot, span)
    a.push(0x20, span)
    a.op("MSTORE", span)
    a.push(0x40, span)
    _zero(a, span, use_push0)
    a.op("SHA3", span)


def _emit_transfer_log4(a: Asm, span, use_push0: bool):
    """LOG4 assuming stack top..down is from, to, tokenId."""
    a.push(TRANSFER_TOPIC, span, width=32)
    _zero(a, span, use_push0)
    _zero(a, span, use_push0)
    a.op("LOG4", span)


def _dispatcher_entry(a: Asm, selector: int, label: str):
    a.op("DUP1", GEN)
    a.push(selector, GEN, width=4)
    a.op("EQ", GEN)
    a.push_label(label, GEN)
    a.op("JUMPI", GEN)


def _dispatcher_head(a: Asm, use_push0: bool, legacy_div: bool = False):
    _zero(a, GEN, use_push0)
    a.op("CALLDATALOAD", GEN)
    if legacy_div:
        a.push(1 << 224, GEN, width=29)
        a.op("SWAP1", GEN)
        a.op("DIV", GEN)
    else:
        a.push(0xE0, GEN)
        a.op("SHR", GEN)


def _dispatcher_fallback(a: Asm, use_push0: bool):
    _zero(a, GEN, use_push0)
    _zero(a, GEN, use_push0)
    a.op("REVERT", GEN)


def _revert_block(a: Asm, span, use_push0: bool):
    a.jumpdest("rev", span)
    _zero(a, span, use_push0)
    _zero(a, span, use_push0)
    a.op("REVERT", span)


def _owner_of_body(a: Asm, label: str, slot: int, body_span, ret_span,
                   use_push0: bool):
    """Standalone ownerOf body for direct external calls (never a target)."""
    a.jumpdest(label, body_span)
    a.push(4, body_span)
    a.op("CALLDATALOAD", body_span)
    _zero(a, body_span, use_push0)
    a.op("MSTORE", body_span)
    if slot == 0:
        _zero(a, body_span, use_push0)
    else:
        a.push(slot, body_span)
    a.push(0x20, body_span)
    a.op("MSTORE", body_span)
    a.push(0x40, body_span)
    _zero(a, body_span, use_push0)
    a.op("SHA3", body_span)
    a.op("SLOAD", ret_span)
    _zero(a, body_span, use_push0)
    a.op("MSTORE", body_span)
    a.push(0x20, body_span)
    _zero(a, body_span, use_push0)
    a.op("RETURN", body_span)


def selector_of(signature: str) -> int:
    """The selector of ``signature``: the first 4 bytes of its Keccak-256 hash."""
    return int.from_bytes(keccak256(signature.encode("ascii"))[:4], "big")


SEL_TRANSFER_FROM = selector_of("transferFrom(address,address,uint256)")
SEL_OWNER_OF = selector_of("ownerOf(uint256)")


# --------------------------------------------------------------------------
# the fig.1 family: transferFrom guarded by an or-chain of caller checks


def transfer_family(name: str, *, pragma: str = "^0.8.17",
                    slot0_name: str = "_curator",
                    secret_disjunct: bool = False,
                    owner_check: bool = True,
                    pause_guard: bool = False,
                    use_push0: bool = False,
                    legacy_div: bool = False,
                    internal_call: bool = False,
                    owner_helper: bool = False,
                    inline_owner: bool = False,
                    library_push: bool = False) -> Fixture:
    """transferFrom guarded by ``msg.sender == owner`` or an approval.

    ``owner_helper``: ``ownerOf`` and the transfer read the owner through an
    internal ``_ownerOf``, as OpenZeppelin 5 does. ``inline_owner``: the
    transfer reads ``_owners[tokenId]`` itself, as solmate does.
    ``library_push``: ``transferFrom`` starts by pushing a library's address,
    the zero address as if unlinked, with a ``PUSH20`` and dropping it.
    """
    src = Source()
    src.add(f"// SPDX-License-Identifier: MIT\npragma solidity {pragma};\n\n")
    contract_span_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var0_span = src.add(f"    address private {slot0_name};")
    src.add("\n")
    var1_span = src.add("    mapping(uint256 => address) private _owners;")
    src.add("\n")
    var2_span = src.add("    mapping(uint256 => address) private _tokenApprovals;")
    src.add("\n\n")

    if owner_helper:
        owner_fn_span = src.add(
            "    function ownerOf(uint256 tokenId) public view returns (address) {\n"
            "        return _ownerOf(tokenId);\n"
            "    }\n")
        src.add("\n")
        helper_span = src.add(
            "    function _ownerOf(uint256 tokenId) internal view returns (address) {\n"
            "        return _owners[tokenId];\n"
            "    }\n")
    else:
        owner_fn_span = src.add(
            "    function ownerOf(uint256 tokenId) public view returns (address) {\n"
            "        address owner = _owners[tokenId];\n"
            "        return owner;\n"
            "    }\n")
    src.add("\n")
    owner_read = ("_ownerOf(tokenId)" if owner_helper else
                  "_owners[tokenId]" if inline_owner else "ownerOf(tokenId)")

    guard = (f'        require(msg.sender == {slot0_name}, "paused");\n'
             if pause_guard else "")
    check = ('        require(owner == from, "wrong from");\n'
             if owner_check else "")
    secret = (f" ||\n                msg.sender == {slot0_name}"
              if secret_disjunct else "")
    body_text = (
        f"{guard}"
        '        require(from != address(0), "zero from");\n'
        '        require(to != address(0), "zero to");\n'
        f"        address owner = {owner_read};\n"
        f"{check}"
        "        require(\n"
        "            msg.sender == owner ||\n"
        f"                _tokenApprovals[tokenId] == msg.sender{secret},\n"
        '            "not allowed"\n'
        "        );\n"
        "        _owners[tokenId] = to;\n"
        "        emit Transfer(from, to, tokenId);\n")
    if internal_call:
        tf_span = src.add(
            "    function transferFrom(address from, address to,"
            " uint256 tokenId) external {\n"
            "        _transfer(from, to, tokenId);\n"
            "    }\n")
        src.add("\n")
        tr_span = src.add(
            "    function _transfer(address from, address to,"
            " uint256 tokenId) internal {\n"
            + body_text +
            "    }\n")
    else:
        tf_span = src.add(
            "    function transferFrom(address from, address to,"
            " uint256 tokenId) external {\n"
            + body_text +
            "    }\n")
        tr_span = tf_span
    src.add("}\n")
    contract_span = (contract_span_start, len(src.text) - contract_span_start, 0)
    unit_span = (0, len(src.text), 0)

    ret_span = src.span("return _owners[tokenId];" if owner_helper else "return owner;")
    # the owner load: ownerOf's (or _ownerOf's) body inlined, or the transfer's own read
    owner_expr_span = src.span("_owners[tokenId]", occurrence=int(inline_owner))
    owner_load_span = owner_expr_span if inline_owner else ret_span
    store_span = src.span("_owners[tokenId] = to;")
    emit_span = src.span("emit Transfer(from, to, tokenId);")

    # -- AST ---------------------------------------------------------------
    addr_params = [ab.parameter("from", "address", tf_span),
                   ab.parameter("to", "address", tf_span),
                   ab.parameter("tokenId", "uint256", tf_span)]
    if owner_helper:
        owner_return = ab.return_statement(src.span("return _ownerOf(tokenId);"),
                                           ab.call("_ownerOf", src.span("_ownerOf(tokenId)")))
    else:
        owner_return = ab.return_statement(ret_span, "owner")
    owner_fn_ast = ab.function(
        "ownerOf", "public",
        [ab.parameter("tokenId", "uint256", owner_fn_span)],
        [owner_return],
        owner_fn_span, owner_fn_span,
        returns=[ab.parameter("", "address", owner_fn_span)])
    body_statements = [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                     emit_span)]
    contract_nodes = [
        ab.state_var(slot0_name, "address", var0_span),
        ab.state_var("_owners", "mapping(uint256 => address)", var1_span),
        ab.state_var("_tokenApprovals", "mapping(uint256 => address)", var2_span),
        owner_fn_ast,
    ]
    if owner_helper:
        contract_nodes.append(ab.function(
            "_ownerOf", "internal", [ab.parameter("tokenId", "uint256", helper_span)],
            [ab.return_statement(ret_span, "_owners")], helper_span, helper_span,
            returns=[ab.parameter("", "address", helper_span)]))
    if internal_call:
        contract_nodes.append(ab.function(
            "transferFrom", "external", addr_params,
            [ab.call_statement("_transfer", tf_span)], tf_span, tf_span))
        contract_nodes.append(ab.function(
            "_transfer", "internal",
            [ab.parameter("from", "address", tr_span),
             ab.parameter("to", "address", tr_span),
             ab.parameter("tokenId", "uint256", tr_span)],
            body_statements, tr_span, tr_span))
    else:
        contract_nodes.append(ab.function(
            "transferFrom", "external", addr_params,
            body_statements, tf_span, tf_span))
    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span,
                                                 contract_nodes)])

    # -- bytecode ----------------------------------------------------------
    a = Asm()
    z = lambda span: _zero(a, span, use_push0)
    _dispatcher_head(a, use_push0, legacy_div)
    _dispatcher_entry(a, SEL_TRANSFER_FROM, "tf")
    _dispatcher_entry(a, SEL_OWNER_OF, "oo")
    _dispatcher_fallback(a, use_push0)

    a.jumpdest("tf", tf_span)
    if library_push:
        a.push(0, tf_span, width=20).op("POP", tf_span)
    if internal_call:
        a.push_label("after", tf_span)  # return address for _transfer
    a.push(4, tf_span).op("CALLDATALOAD", tf_span)       # from
    a.push(0x24, tf_span).op("CALLDATALOAD", tf_span)    # to
    a.push(0x44, tf_span).op("CALLDATALOAD", tf_span)    # tokenId
    if internal_call:
        a.push_label("tr", tf_span).op("JUMP", tf_span)
        a.jumpdest("after", tf_span)
        a.op("STOP", tf_span)
        a.jumpdest("tr", tr_span)
    # stack (top..down): tokenId, to, from[, retaddr]

    if pause_guard:
        span = src.span(f"msg.sender == {slot0_name}")
        z(span)
        a.op("SLOAD", span)
        a.op("CALLER", span)
        a.op("EQ", span)
        a.op("ISZERO", span)
        a.push_label("rev", span).op("JUMPI", span)

    span = src.span("from != address(0)")
    a.op("DUP3", span).op("ISZERO", span)
    a.push_label("rev", span).op("JUMPI", span)
    span = src.span("to != address(0)")
    a.op("DUP2", span).op("ISZERO", span)
    a.push_label("rev", span).op("JUMPI", span)

    a.op("DUP1", owner_expr_span)
    z(owner_expr_span)
    a.op("MSTORE", owner_expr_span)
    a.push(1, owner_expr_span).push(0x20, owner_expr_span)
    a.op("MSTORE", owner_expr_span)
    a.push(0x40, owner_expr_span)
    z(owner_expr_span)
    a.op("SHA3", owner_expr_span)
    a.op("SLOAD", owner_load_span)  # owner
    # stack: owner, tokenId, to, from[, ra]

    if owner_check:
        span = src.span("owner == from")
        a.op("DUP1", span).op("DUP5", span).op("EQ", span).op("ISZERO", span)
        a.push_label("rev", span).op("JUMPI", span)

    span = src.span("msg.sender == owner")
    a.op("CALLER", span).op("DUP2", span).op("EQ", span)
    a.push_label("ok", span).op("JUMPI", span)

    span = src.span("_tokenApprovals[tokenId] == msg.sender")
    _hashed_slot(a, 2, 2, span, use_push0)
    a.op("SLOAD", span).op("CALLER", span).op("EQ", span)
    a.push_label("ok", span).op("JUMPI", span)

    if secret_disjunct:
        span = src.span(f"msg.sender == {slot0_name}")
        z(span)
        a.op("SLOAD", span).op("CALLER", span).op("EQ", span)
        a.push_label("ok", span).op("JUMPI", span)

    a.push_label("rev", tr_span).op("JUMP", tr_span)

    a.jumpdest("ok", store_span)
    _hashed_slot(a, 2, 1, store_span, use_push0)
    a.op("DUP4", store_span).op("SWAP1", store_span).op("SSTORE", store_span)
    # stack: owner, tokenId, to, from[, ra]
    a.op("POP", emit_span)
    a.op("SWAP2", emit_span)  # -> from, to, tokenId[, ra]
    _emit_transfer_log4(a, emit_span, use_push0)
    if internal_call:
        a.op("JUMP", tr_span)  # back to the dispatcher-pushed return address
    else:
        a.op("STOP", tf_span)

    _owner_of_body(a, "oo", 1, owner_fn_span, ret_span, use_push0)
    _revert_block(a, tr_span, use_push0)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


def hidden_approver() -> Fixture:
    """Transfer guard satisfiable by a hardcoded privileged address."""
    return transfer_family("HiddenApprover", slot0_name="_secretSigner",
                           secret_disjunct=True, internal_call=True)


def free_mintable(variant: str = "modern") -> Fixture:
    """transferFrom with no owner-vs-from check at all."""
    if variant == "modern":
        return transfer_family("FreeMintable", owner_check=False)
    if variant == "legacy":
        return transfer_family("FreeMintable04", pragma="^0.4.24",
                               owner_check=False, legacy_div=True)
    if variant == "push0":
        return transfer_family("FreeMintableShanghai", pragma="^0.8.21",
                               owner_check=False, use_push0=True)
    raise ValueError(variant)


def guarded_gallery() -> Fixture:
    """Clean: owner check present, no privileged disjunct."""
    return transfer_family("GuardedGallery", slot0_name="_beneficiary")


def pausable_gallery() -> Fixture:
    """Administrative pause guard: flagged as a privileged address on purpose
    (the rule cannot tell a backdoor from an owner-only pause switch)."""
    return transfer_family("PausableGallery", slot0_name="_operator",
                           pause_guard=True)


# --------------------------------------------------------------------------
# fig.3 analog: two ownerOf definitions disagreeing about the owner


def chubby_bunny() -> Fixture:
    name = "ChubbyBunny"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    base_start = len(src.text)
    src.add("contract ERC721 {\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    base_var_span = src.add("    mapping(uint256 => address) internal _owners;")
    src.add("\n\n")
    base_owner_span = src.add(
        "    function ownerOf(uint256 tokenId) public view virtual"
        " returns (address) {\n"
        "        address owner = _owners[tokenId];\n"
        "        return owner;\n"
        "    }\n")
    src.add("}\n\n")
    base_span = (base_start, len(src.text) - base_start, 0)

    derived_start = len(src.text)
    src.add(f"contract {name} is ERC721 {{\n"
            "    struct Punk {\n        address holder;\n    }\n\n")
    punks_var_span = src.add("    mapping(uint256 => Punk) private punks;")
    src.add("\n\n")
    derived_owner_span = src.add(
        "    function ownerOf(uint256 tokenId) public view override"
        " returns (address) {\n"
        "        address punkHolder = punks[tokenId].holder;\n"
        "        return punkHolder;\n"
        "    }\n")
    src.add("\n")
    tf_span = src.add(
        "    function transferFrom(address from, address to,"
        " uint256 tokenId) external {\n"
        '        require(ownerOf(tokenId) == from, "not holder");\n'
        '        require(ERC721.ownerOf(tokenId) == msg.sender,'
        ' "not authorized");\n'
        "        punks[tokenId].holder = to;\n"
        "        emit Transfer(from, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    derived_span = (derived_start, len(src.text) - derived_start, 0)
    unit_span = (0, len(src.text), 0)

    base_ret = src.span("return owner;")
    derived_ret = src.span("return punkHolder;")
    punk_check_span = src.span("ownerOf(tokenId) == from")
    base_check_span = src.span("ERC721.ownerOf(tokenId) == msg.sender")
    store_span = src.span("punks[tokenId].holder = to;")
    emit_span = src.span("emit Transfer(from, to, tokenId);")

    base_contract = ab.contract("ERC721", base_span, [
        ab.state_var("_owners", "mapping(uint256 => address)", base_var_span),
        ab.function("ownerOf", "public",
                    [ab.parameter("tokenId", "uint256", base_owner_span)],
                    [ab.return_statement(base_ret, "owner")],
                    base_owner_span, base_owner_span,
                    returns=[ab.parameter("", "address", base_owner_span)]),
    ])
    derived_contract = ab.contract(name, derived_span, [
        ab.state_var("punks", "mapping(uint256 => struct ChubbyBunny.Punk)",
                     punks_var_span),
        ab.function("ownerOf", "public",
                    [ab.parameter("tokenId", "uint256", derived_owner_span)],
                    [ab.return_statement(derived_ret, "punkHolder")],
                    derived_owner_span, derived_owner_span,
                    returns=[ab.parameter("", "address", derived_owner_span)]),
        ab.function("transferFrom", "external",
                    [ab.parameter("from", "address", tf_span),
                     ab.parameter("to", "address", tf_span),
                     ab.parameter("tokenId", "uint256", tf_span)],
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                   emit_span)],
                    tf_span, tf_span),
    ])
    ast = ab.source_unit(unit_span, [base_contract, derived_contract])

    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, SEL_TRANSFER_FROM, "tf")
    _dispatcher_entry(a, SEL_OWNER_OF, "oo")
    _dispatcher_fallback(a, False)

    a.jumpdest("tf", tf_span)
    a.push(4, tf_span).op("CALLDATALOAD", tf_span)
    a.push(0x24, tf_span).op("CALLDATALOAD", tf_span)
    a.push(0x44, tf_span).op("CALLDATALOAD", tf_span)
    # stack: tokenId, to, from

    # require(ownerOf(tokenId) == from) — the overriding punks lookup
    _hashed_slot(a, 1, 1, punk_check_span, False)
    a.op("SLOAD", derived_ret)  # punk holder -> owner trace
    span = punk_check_span
    a.op("DUP1", span).op("DUP5", span).op("EQ", span).op("ISZERO", span)
    a.push_label("rev", span).op("JUMPI", span)
    # stack: punkHolder, tokenId, to, from

    # require(ERC721.ownerOf(tokenId) == msg.sender) — the base lookup
    _hashed_slot(a, 2, 0, base_check_span, False)
    a.op("SLOAD", base_ret)  # base-contract owner -> second owner trace entry
    span = base_check_span
    a.op("CALLER", span).op("EQ", span).op("ISZERO", span)
    a.push_label("rev", span).op("JUMPI", span)
    # stack: punkHolder, tokenId, to, from

    _hashed_slot(a, 2, 1, store_span, False)
    a.op("DUP4", store_span).op("SWAP1", store_span).op("SSTORE", store_span)
    a.op("POP", emit_span)
    a.op("SWAP2", emit_span)
    _emit_transfer_log4(a, emit_span, False)
    a.op("STOP", tf_span)

    _owner_of_body(a, "oo", 1, derived_owner_span, derived_ret, False)
    _revert_block(a, tf_span, False)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# fig.4 analog: conditional Transfer emissions in a loop, no storage writes


def batch_airdrop() -> Fixture:
    name = "BatchAirdrop"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var_span = src.add("    mapping(uint256 => address) private _owners;")
    src.add("\n\n")
    fn_span = src.add(
        "    function batchTransfer(uint256 count, address from, address to)"
        " external {\n"
        "        for (uint256 i = 0; i < count; i++) {\n"
        "            if (_owners[i] == address(0)) {\n"
        "                emit Transfer(from, to, i);\n"
        "            }\n"
        "        }\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    cond_span = src.span("i < count")
    if_span = src.span("_owners[i] == address(0)")
    emit_span = src.span("emit Transfer(from, to, i);")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_owners", "mapping(uint256 => address)", var_span),
        ab.function("batchTransfer", "external",
                    [ab.parameter("count", "uint256", fn_span),
                     ab.parameter("from", "address", fn_span),
                     ab.parameter("to", "address", fn_span)],
                    [ab.emit_event("Transfer", ["from", "to", "i"], emit_span)],
                    fn_span, fn_span),
    ])])

    selector = selector_of("batchTransfer(uint256,address,address)")
    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, selector, "bt")
    _dispatcher_fallback(a, False)

    a.jumpdest("bt", fn_span)
    a.push(4, fn_span).op("CALLDATALOAD", fn_span)  # count
    _zero(a, fn_span, False)                        # i = 0
    a.jumpdest("loop", cond_span)
    # stack: i, count
    a.op("DUP2", cond_span).op("DUP2", cond_span)
    a.op("LT", cond_span).op("ISZERO", cond_span)
    a.push_label("end", cond_span).op("JUMPI", cond_span)

    _hashed_slot(a, 1, 0, if_span, False)
    a.op("SLOAD", if_span)
    a.op("ISZERO", if_span).op("ISZERO", if_span)
    a.push_label("skip", if_span).op("JUMPI", if_span)

    a.op("DUP1", emit_span)                                  # tokenId = i
    a.push(0x44, emit_span).op("CALLDATALOAD", emit_span)    # to
    a.push(0x24, emit_span).op("CALLDATALOAD", emit_span)    # from
    _emit_transfer_log4(a, emit_span, False)

    a.jumpdest("skip", cond_span)
    a.push(1, cond_span).op("ADD", cond_span)  # i++
    a.push_label("loop", cond_span).op("JUMP", cond_span)
    a.jumpdest("end", fn_span)
    a.op("STOP", fn_span)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# the second clean contract: operator-flag authorization, two stores


def orderly_museum() -> Fixture:
    name = "OrderlyMuseum"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var0_span = src.add("    mapping(uint256 => address) private _owners;")
    src.add("\n")
    var1_span = src.add("    mapping(uint256 => address) private _tokenApprovals;")
    src.add("\n")
    var2_span = src.add("    mapping(address => uint256) private _operatorFlags;")
    src.add("\n\n")
    owner_fn_span = src.add(
        "    function ownerOf(uint256 tokenId) public view returns (address) {\n"
        "        address owner = _owners[tokenId];\n"
        "        return owner;\n"
        "    }\n")
    src.add("\n")
    tf_span = src.add(
        "    function transferFrom(address from, address to, uint256 tokenId)"
        " external {\n"
        "        address owner = ownerOf(tokenId);\n"
        '        require(owner == from, "wrong from");\n'
        "        require(msg.sender == owner ||"
        ' _operatorFlags[msg.sender] != 0, "not allowed");\n'
        "        _owners[tokenId] = to;\n"
        "        delete _tokenApprovals[tokenId];\n"
        "        emit Transfer(from, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    ret_span = src.span("return owner;")
    owner_expr_span = src.span("_owners[tokenId]")
    check_span = src.span("owner == from")
    d1_span = src.span("msg.sender == owner")
    d2_span = src.span("_operatorFlags[msg.sender] != 0")
    store_span = src.span("_owners[tokenId] = to;")
    clear_span = src.span("delete _tokenApprovals[tokenId];")
    emit_span = src.span("emit Transfer(from, to, tokenId);")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_owners", "mapping(uint256 => address)", var0_span),
        ab.state_var("_tokenApprovals", "mapping(uint256 => address)", var1_span),
        ab.state_var("_operatorFlags", "mapping(address => uint256)", var2_span),
        ab.function("ownerOf", "public",
                    [ab.parameter("tokenId", "uint256", owner_fn_span)],
                    [ab.return_statement(ret_span, "owner")],
                    owner_fn_span, owner_fn_span,
                    returns=[ab.parameter("", "address", owner_fn_span)]),
        ab.function("transferFrom", "external",
                    [ab.parameter("from", "address", tf_span),
                     ab.parameter("to", "address", tf_span),
                     ab.parameter("tokenId", "uint256", tf_span)],
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                   emit_span)],
                    tf_span, tf_span),
    ])])

    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, SEL_TRANSFER_FROM, "tf")
    _dispatcher_entry(a, SEL_OWNER_OF, "oo")
    _dispatcher_fallback(a, False)

    a.jumpdest("tf", tf_span)
    a.push(4, tf_span).op("CALLDATALOAD", tf_span)
    a.push(0x24, tf_span).op("CALLDATALOAD", tf_span)
    a.push(0x44, tf_span).op("CALLDATALOAD", tf_span)
    # stack: tokenId, to, from

    _hashed_slot(a, 1, 0, owner_expr_span, False)
    a.op("SLOAD", ret_span)
    # stack: owner, tokenId, to, from
    a.op("DUP1", check_span).op("DUP5", check_span)
    a.op("EQ", check_span).op("ISZERO", check_span)
    a.push_label("rev", check_span).op("JUMPI", check_span)

    a.op("CALLER", d1_span).op("DUP2", d1_span).op("EQ", d1_span)
    a.push_label("ok", d1_span).op("JUMPI", d1_span)

    a.op("CALLER", d2_span)
    _zero(a, d2_span, False)
    a.op("MSTORE", d2_span)
    a.push(2, d2_span).push(0x20, d2_span).op("MSTORE", d2_span)
    a.push(0x40, d2_span)
    _zero(a, d2_span, False)
    a.op("SHA3", d2_span)
    a.op("SLOAD", d2_span)
    a.push_label("ok", d2_span).op("JUMPI", d2_span)
    a.push_label("rev", tf_span).op("JUMP", tf_span)

    a.jumpdest("ok", store_span)
    _hashed_slot(a, 2, 0, store_span, False)
    a.op("DUP4", store_span).op("SWAP1", store_span).op("SSTORE", store_span)
    _hashed_slot(a, 2, 1, clear_span, False)
    _zero(a, clear_span, False)
    a.op("SWAP1", clear_span).op("SSTORE", clear_span)
    a.op("POP", emit_span)
    a.op("SWAP2", emit_span)
    _emit_transfer_log4(a, emit_span, False)
    a.op("STOP", tf_span)

    _owner_of_body(a, "oo", 0, owner_fn_span, ret_span, False)
    _revert_block(a, tf_span, False)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# known-false-positive texture: `from` overwritten by the looked-up owner


def relisted_art() -> Fixture:
    name = "RelistedArt"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var_span = src.add("    mapping(uint256 => address) private _owners;")
    src.add("\n\n")
    owner_fn_span = src.add(
        "    function ownerOf(uint256 tokenId) public view returns (address) {\n"
        "        address owner = _owners[tokenId];\n"
        "        return owner;\n"
        "    }\n")
    src.add("\n")
    tf_span = src.add(
        "    function transferFrom(address from, address to, uint256 tokenId)"
        " external {\n"
        "        from = ownerOf(tokenId);\n"
        '        require(msg.sender == from, "not owner");\n'
        "        _owners[tokenId] = to;\n"
        "        emit Transfer(from, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    ret_span = src.span("return owner;")
    rebind_span = src.span("from = ownerOf(tokenId);")
    check_span = src.span("msg.sender == from")
    store_span = src.span("_owners[tokenId] = to;")
    emit_span = src.span("emit Transfer(from, to, tokenId);")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_owners", "mapping(uint256 => address)", var_span),
        ab.function("ownerOf", "public",
                    [ab.parameter("tokenId", "uint256", owner_fn_span)],
                    [ab.return_statement(ret_span, "owner")],
                    owner_fn_span, owner_fn_span,
                    returns=[ab.parameter("", "address", owner_fn_span)]),
        ab.function("transferFrom", "external",
                    [ab.parameter("from", "address", tf_span),
                     ab.parameter("to", "address", tf_span),
                     ab.parameter("tokenId", "uint256", tf_span)],
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                   emit_span)],
                    tf_span, tf_span),
    ])])

    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, SEL_TRANSFER_FROM, "tf")
    _dispatcher_entry(a, SEL_OWNER_OF, "oo")
    _dispatcher_fallback(a, False)

    a.jumpdest("tf", tf_span)
    a.push(4, tf_span).op("CALLDATALOAD", tf_span)
    a.op("POP", rebind_span)  # the from argument is discarded immediately
    a.push(0x24, tf_span).op("CALLDATALOAD", tf_span)
    a.push(0x44, tf_span).op("CALLDATALOAD", tf_span)
    # stack: tokenId, to

    _hashed_slot(a, 1, 0, rebind_span, False)
    a.op("SLOAD", ret_span)
    # stack: owner, tokenId, to
    a.op("DUP1", check_span).op("CALLER", check_span).op("EQ", check_span)
    a.op("ISZERO", check_span)
    a.push_label("rev", check_span).op("JUMPI", check_span)

    _hashed_slot(a, 2, 0, store_span, False)
    a.op("DUP4", store_span).op("SWAP1", store_span).op("SSTORE", store_span)
    # stack: owner, tokenId, to — emit Transfer(owner, to, tokenId)
    a.op("SWAP1", emit_span)   # tokenId, owner, to
    a.op("SWAP2", emit_span)   # to, owner, tokenId
    a.op("SWAP1", emit_span)   # owner, to, tokenId
    _emit_transfer_log4(a, emit_span, False)
    a.op("STOP", tf_span)

    _owner_of_body(a, "oo", 0, owner_fn_span, ret_span, False)
    _revert_block(a, tf_span, False)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# known-false-positive texture: vault transfer through an external call


def bridge_relay() -> Fixture:
    name = "BridgeRelay"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var_span = src.add("    address private _vault;")
    src.add("\n\n")
    fn_span = src.add(
        "    function bridgeTransfer(address from, address to, uint256 tokenId)"
        " external {\n"
        "        (bool ok, ) = _vault.call(\n"
        '            abi.encodeWithSignature("move(address,address,uint256)",'
        " from, to, tokenId)\n"
        "        );\n"
        '        require(ok, "bridge failed");\n'
        "        emit Transfer(from, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    call_span = src.span("_vault.call")
    check_span = src.span('require(ok, "bridge failed");')
    emit_span = src.span("emit Transfer(from, to, tokenId);")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_vault", "address", var_span),
        ab.function("bridgeTransfer", "external",
                    [ab.parameter("from", "address", fn_span),
                     ab.parameter("to", "address", fn_span),
                     ab.parameter("tokenId", "uint256", fn_span)],
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                   emit_span)],
                    fn_span, fn_span),
    ])])

    selector = selector_of("bridgeTransfer(address,address,uint256)")
    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, selector, "bt")
    _dispatcher_fallback(a, False)

    a.jumpdest("bt", fn_span)
    a.push(4, fn_span).op("CALLDATALOAD", fn_span)
    a.push(0x24, fn_span).op("CALLDATALOAD", fn_span)
    a.push(0x44, fn_span).op("CALLDATALOAD", fn_span)
    # stack: tokenId, to, from

    # CALL(gas, vault, 0, 0, 0x64, 0, 0)
    _zero(a, call_span, False)       # out size
    _zero(a, call_span, False)       # out offset
    a.push(0x64, call_span)          # in size
    _zero(a, call_span, False)       # in offset
    _zero(a, call_span, False)       # value
    _zero(a, call_span, False)
    a.op("SLOAD", call_span)         # vault address
    a.push(100_000, call_span)       # gas
    a.op("CALL", call_span)
    a.op("ISZERO", check_span)
    a.push_label("rev", check_span).op("JUMPI", check_span)

    a.op("SWAP2", emit_span)  # from, to, tokenId
    _emit_transfer_log4(a, emit_span, False)
    a.op("STOP", fn_span)

    _revert_block(a, fn_span, False)
    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# known-miss texture: double emission inside a storing mint


def steady_mint() -> Fixture:
    name = "SteadyMint"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var0_span = src.add("    address private _treasury;")
    src.add("\n")
    var1_span = src.add("    mapping(uint256 => address) private _owners;")
    src.add("\n")
    var2_span = src.add("    mapping(address => uint256) private _balances;")
    src.add("\n\n")
    fn_span = src.add(
        "    function mint(address to, uint256 tokenId) external {\n"
        "        _owners[tokenId] = to;\n"
        "        _balances[to] += 1;\n"
        "        emit Transfer(address(0), _treasury, tokenId);\n"
        "        emit Transfer(_treasury, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    store_span = src.span("_owners[tokenId] = to;")
    balance_span = src.span("_balances[to] += 1;")
    emit1_span = src.span("emit Transfer(address(0), _treasury, tokenId);")
    emit2_span = src.span("emit Transfer(_treasury, to, tokenId);")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_treasury", "address", var0_span),
        ab.state_var("_owners", "mapping(uint256 => address)", var1_span),
        ab.state_var("_balances", "mapping(address => uint256)", var2_span),
        ab.function("mint", "external",
                    [ab.parameter("to", "address", fn_span),
                     ab.parameter("tokenId", "uint256", fn_span)],
                    [ab.emit_event("Transfer",
                                   ["address(0)", "_treasury", "tokenId"],
                                   emit1_span),
                     ab.emit_event("Transfer", ["_treasury", "to", "tokenId"],
                                   emit2_span)],
                    fn_span, fn_span),
    ])])

    selector = selector_of("mint(address,uint256)")
    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, selector, "m")
    _dispatcher_fallback(a, False)

    a.jumpdest("m", fn_span)
    a.push(4, fn_span).op("CALLDATALOAD", fn_span)     # to
    a.push(0x24, fn_span).op("CALLDATALOAD", fn_span)  # tokenId
    # stack: tokenId, to

    _hashed_slot(a, 1, 1, store_span, False)
    a.op("DUP3", store_span).op("SWAP1", store_span).op("SSTORE", store_span)

    _hashed_slot(a, 2, 2, balance_span, False)
    a.op("DUP1", balance_span).op("SLOAD", balance_span)
    a.push(1, balance_span).op("ADD", balance_span)
    a.op("SWAP1", balance_span).op("SSTORE", balance_span)

    # emit Transfer(0, _treasury, tokenId)
    a.op("DUP1", emit1_span)               # tokenId
    _zero(a, emit1_span, False)
    a.op("SLOAD", emit1_span)              # _treasury
    _zero(a, emit1_span, False)            # from = 0
    _emit_transfer_log4(a, emit1_span, False)

    # emit Transfer(_treasury, to, tokenId)
    a.op("DUP1", emit2_span)               # tokenId
    a.op("DUP3", emit2_span)               # to
    _zero(a, emit2_span, False)
    a.op("SLOAD", emit2_span)              # _treasury
    _emit_transfer_log4(a, emit2_span, False)
    a.op("STOP", fn_span)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# known-miss texture: Transfer event without indexed topics (LOG1)


def quiet_islands() -> Fixture:
    name = "QuietIslands"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address from, address to, uint256 tokenId);\n\n")
    var_span = src.add("    mapping(uint256 => address) private _holders;")
    src.add("\n\n")
    fn_span = src.add(
        "    function transferFrom(address from, address to, uint256 tokenId)"
        " external {\n"
        '        require(_holders[tokenId] == from, "not holder");\n'
        '        require(msg.sender == from, "not authorized");\n'
        "        _holders[tokenId] = to;\n"
        "        emit Transfer(from, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    check1_span = src.span("_holders[tokenId] == from")
    check2_span = src.span("msg.sender == from")
    store_span = src.span("_holders[tokenId] = to;")
    emit_span = src.span("emit Transfer(from, to, tokenId);")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_holders", "mapping(uint256 => address)", var_span),
        ab.function("transferFrom", "external",
                    [ab.parameter("from", "address", fn_span),
                     ab.parameter("to", "address", fn_span),
                     ab.parameter("tokenId", "uint256", fn_span)],
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                   emit_span)],
                    fn_span, fn_span),
    ])])

    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, SEL_TRANSFER_FROM, "tf")
    _dispatcher_fallback(a, False)

    a.jumpdest("tf", fn_span)
    a.push(4, fn_span).op("CALLDATALOAD", fn_span)
    a.push(0x24, fn_span).op("CALLDATALOAD", fn_span)
    a.push(0x44, fn_span).op("CALLDATALOAD", fn_span)
    # stack: tokenId, to, from

    _hashed_slot(a, 1, 0, check1_span, False)
    a.op("SLOAD", check1_span)
    a.op("DUP4", check1_span).op("EQ", check1_span).op("ISZERO", check1_span)
    a.push_label("rev", check1_span).op("JUMPI", check1_span)

    a.op("DUP3", check2_span).op("CALLER", check2_span).op("EQ", check2_span)
    a.op("ISZERO", check2_span)
    a.push_label("rev", check2_span).op("JUMPI", check2_span)

    _hashed_slot(a, 1, 0, store_span, False)
    a.op("DUP3", store_span).op("SWAP1", store_span).op("SSTORE", store_span)

    # ABI-encode the event payload into memory and emit with the hash topic only
    a.op("DUP3", emit_span)
    _zero(a, emit_span, False)
    a.op("MSTORE", emit_span)                                  # mem[0] = from
    a.op("DUP2", emit_span)
    a.push(0x20, emit_span).op("MSTORE", emit_span)            # mem[32] = to
    a.op("DUP1", emit_span)
    a.push(0x40, emit_span).op("MSTORE", emit_span)            # mem[64] = tokenId
    a.push(TRANSFER_TOPIC, emit_span, width=32)
    a.push(0x60, emit_span)
    _zero(a, emit_span, False)
    a.op("LOG1", emit_span)
    a.op("STOP", fn_span)

    _revert_block(a, fn_span, False)
    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# pruning benchmark: 20 external functions, 2 of which emit Transfer


def market_hub(heavy_branches: int = 12, heavy_count: int = 18) -> Fixture:
    name = "MarketHub"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    var_span = src.add("    mapping(uint256 => address) private _owners;")
    src.add("\n\n")

    heavy_spans = []
    for k in range(heavy_count):
        heavy_spans.append(src.add(
            f"    function quote{k}(uint256 basis) external {{\n"
            f"        // tier walk {k}\n"
            "    }\n"))
        src.add("\n")
    light_spans = []
    for tag in ("A", "B"):
        light_spans.append(src.add(
            f"    function transfer{tag}(address to, uint256 tokenId)"
            " external {\n"
            "        _owners[tokenId] = to;\n"
            "        emit Transfer(msg.sender, to, tokenId);\n"
            "    }\n"))
        src.add("\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    nodes = [ab.state_var("_owners", "mapping(uint256 => address)", var_span)]
    for k in range(heavy_count):
        nodes.append(ab.function(
            f"quote{k}", "external",
            [ab.parameter("basis", "uint256", heavy_spans[k])],
            [], heavy_spans[k], heavy_spans[k]))
    for tag, span in zip(("A", "B"), light_spans):
        nodes.append(ab.function(
            f"transfer{tag}", "external",
            [ab.parameter("to", "address", span),
             ab.parameter("tokenId", "uint256", span)],
            [ab.emit_event("Transfer", ["msg.sender", "to", "tokenId"], span)],
            span, span))
    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, nodes)])

    a = Asm()
    _dispatcher_head(a, False)
    for k in range(heavy_count):
        _dispatcher_entry(a, selector_of(f"quote{k}(uint256)"), f"q{k}")
    for tag in ("A", "B"):
        _dispatcher_entry(a, selector_of(f"transfer{tag}(address,uint256)"),
                          f"t{tag}")
    _dispatcher_fallback(a, False)

    for k in range(heavy_count):
        span = heavy_spans[k]
        a.jumpdest(f"q{k}", span)
        for b in range(heavy_branches):
            a.push(4 + 32 * b, span).op("CALLDATALOAD", span)
            a.push_label(f"q{k}b{b}", span).op("JUMPI", span)
            a.jumpdest(f"q{k}b{b}", span)
        a.op("STOP", span)

    for tag, span in zip(("A", "B"), light_spans):
        a.jumpdest(f"t{tag}", span)
        a.push(4, span).op("CALLDATALOAD", span)     # to
        a.push(0x24, span).op("CALLDATALOAD", span)  # tokenId
        # stack: tokenId, to
        _hashed_slot(a, 1, 0, span, False)
        a.op("DUP3", span).op("SWAP1", span).op("SSTORE", span)
        a.op("DUP1", span)        # tokenId
        a.op("DUP3", span)        # to
        a.op("CALLER", span)      # from = msg.sender
        _emit_transfer_log4(a, span, False)
        a.op("STOP", span)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# a value of any depth


def deep_chain(length: int, consumer: str) -> Fixture:
    """transferFrom over ``length`` chained ``ADD``s of 1 onto ``from``, read
    by ``consumer``: ``SLOAD``, ``JUMPI`` (both ways join), ``SHA3`` (of the
    word stored at 0, then loaded) or ``LOG4`` (the chain is the Transfer's
    ``from`` topic). A Transfer emission ends the function."""
    name = "DeepChain"
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n"
            "    event Transfer(address indexed from, address indexed to,"
            " uint256 indexed tokenId);\n\n")
    fn_span = src.add(
        "    function transferFrom(address from, address to, uint256 tokenId)"
        " external {\n"
        "        emit Transfer(from, to, tokenId);\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    ast = ab.source_unit((0, len(src.text), 0), [ab.contract(name, contract_span, [
        ab.function("transferFrom", "external",
                    [ab.parameter(param, abi_type, fn_span) for param, abi_type in
                     (("from", "address"), ("to", "address"), ("tokenId", "uint256"))],
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"],
                                   src.span("emit Transfer(from, to, tokenId);"))],
                    fn_span, fn_span),
    ])])

    a = Asm(fn_span)
    _dispatcher_head(a, False)
    _dispatcher_entry(a, SEL_TRANSFER_FROM, "tf")
    _dispatcher_fallback(a, False)
    a.jumpdest("tf")
    a.push(0x44).op("CALLDATALOAD").push(0x24).op("CALLDATALOAD")  # tokenId, to
    a.push(4).op("CALLDATALOAD").op("DUP1")                         # from, the chain's start
    for _ in range(length):
        a.push(1).op("ADD")
    if consumer == "SLOAD":
        a.op("SLOAD").op("POP")
    elif consumer == "JUMPI":
        a.push_label("join").op("JUMPI").jumpdest("join")
    elif consumer == "SHA3":
        a.push(0).op("MSTORE").push(0x20).push(0).op("SHA3").op("SLOAD").op("POP")
    elif consumer == "LOG4":
        a.op("SWAP1").op("POP")
    else:
        raise ValueError(consumer)
    _emit_transfer_log4(a, fn_span, False)  # stack (top..down): from, to, tokenId
    a.op("STOP")
    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))


# --------------------------------------------------------------------------
# corpus assembly


def build_corpus() -> list[Fixture]:
    return [
        hidden_approver(),
        free_mintable("modern"),
        free_mintable("legacy"),
        free_mintable("push0"),
        chubby_bunny(),
        batch_airdrop(),
        guarded_gallery(),
        orderly_museum(),
        pausable_gallery(),
        relisted_art(),
        bridge_relay(),
        steady_mint(),
        quiet_islands(),
        market_hub(),
    ]


def write_corpus(directory: Path) -> dict[str, Path]:
    return {f.name: f.write(directory) for f in build_corpus()}


# --------------------------------------------------------------------------
# a standard-JSON (single-file) artifact wrapping one fixture, with the CBOR
# metadata trailer the compiler would append


def cbor_trailer() -> bytes:
    body = bytes.fromhex("a164736f6c6343000811")  # {"solc": 0x000811}
    return body + len(body).to_bytes(2, "big")


def nested_cbor_trailer(depth: int) -> bytes:
    """A well-formed trailer whose map holds ``depth`` nested arrays:
    {"solc": [[...[0]...]]}."""
    body = bytes.fromhex("a164736f6c63") + b"\x81" * depth + b"\x00"
    return body + len(body).to_bytes(2, "big")


# a compiler-generated Yul helper, as solc 0.7.2 and later lists under
# ``evm.deployedBytecode.generatedSources``
UTILITY_YUL = "{ function cleanup_t_uint256(value) -> cleaned { cleaned := value } }"


def standard_json_artifact(fixture: Fixture, generated_source: bool = False) -> dict:
    """``generated_source``: the generated-code items (file -1) of the map
    point at the function in ``UTILITY_YUL``, listed as generated source 1,
    as solc 0.7.2 and later writes them."""
    deployed = {"object": (fixture.bytecode + cbor_trailer()).hex(), "sourceMap": fixture.srcmap}
    if generated_source:
        spans = evmasm.decode_source_map_reference(fixture.srcmap)
        deployed["sourceMap"] = evmasm.encode_source_map(
            [(2, len(UTILITY_YUL) - 4, 1) if span[2] == -1 else span for span in spans])
        deployed["generatedSources"] = [{
            "ast": {"nodeType": "YulBlock", "src": f"0:{len(UTILITY_YUL)}:1", "statements": []},
            "contents": UTILITY_YUL, "id": 1, "language": "Yul", "name": "#utility.yul"}]
    return {
        "contracts": {
            f"{fixture.name}.sol": {
                fixture.name: {
                    "metadata": json.dumps(
                        {"compiler": {"version": "0.8.17+commit.8df45f5f"}}),
                    "evm": {"deployedBytecode": deployed},
                }
            }
        },
        "sources": {
            f"{fixture.name}.sol": {
                "id": 0,
                "content": fixture.sol,
                "ast": fixture.ast,
            }
        },
    }
