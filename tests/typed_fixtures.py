"""Fixtures kept out of the corpus: a Transfer function whose parameter's
ABI type is not its type string, a struct or a user-defined value type, so
only the selector the compiler wrote finds its dispatcher entry.

They live apart from ``fixtures`` so that the benchmark, which imports that
module, compiles none of this.
"""

from __future__ import annotations

import astbuild as ab
import evmasm
from evmasm import Asm
from fixtures import (
    SEL_OWNER_OF,
    Fixture,
    Source,
    _dispatcher_entry,
    _dispatcher_fallback,
    _dispatcher_head,
    _emit_transfer_log4,
    _hashed_slot,
    _owner_of_body,
    _revert_block,
    selector_of,
)


def typed_transfer(kind: str) -> Fixture:
    """A Transfer-emitting function with no owner-vs-from check (so UF), whose
    parameter's ABI type needs its type's definition: ``"struct"``'s
    ``move(Move m)`` is ``move((address,address,uint256))`` and
    ``"value-type"``'s ``transferFrom(address, address, TokenId)``, where
    ``type TokenId is uint256``, is ``transferFrom(address,address,uint256)``.
    Either reads the same three calldata words."""
    if kind == "struct":
        name, fn_name, abi_signature = "StructMove", "move", "move((address,address,uint256))"
        declaration = "    struct Move {\n        address from;\n        address to;\n" \
                      "        uint256 tokenId;\n    }\n\n"
        header, args = "move(Move calldata m)", ("m.from", "m.to", "m.tokenId")
        params = [("m", f"struct {name}.Move")]
    elif kind == "value-type":
        name, fn_name = "TypedTokenIds", "transferFrom"
        abi_signature = "transferFrom(address,address,uint256)"
        declaration = ""
        header = "transferFrom(address from, address to, TokenId id)"
        args = ("from", "to", "TokenId.unwrap(id)")
        params = [("from", "address"), ("to", "address"), ("id", "TokenId")]
    else:
        raise ValueError(kind)
    selector = selector_of(abi_signature)
    from_arg, to_arg, token_arg = args
    src = Source()
    src.add("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.17;\n\n")
    if kind == "value-type":
        src.add("type TokenId is uint256;\n\n")
    contract_start = len(src.text)
    src.add(f"contract {name} {{\n{declaration}"
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
    fn_span = src.add(
        f"    function {header} external {{\n"
        f"        address owner = ownerOf({token_arg});\n"
        '        require(msg.sender == owner, "not owner");\n'
        f"        _owners[{token_arg}] = {to_arg};\n"
        f"        emit Transfer({from_arg}, {to_arg}, {token_arg});\n"
        "    }\n")
    src.add("}\n")
    contract_span = (contract_start, len(src.text) - contract_start, 0)
    unit_span = (0, len(src.text), 0)

    ret_span = src.span("return owner;")
    owner_expr_span = src.span(f"ownerOf({token_arg})")
    check_span = src.span("msg.sender == owner")
    store_span = src.span(f"_owners[{token_arg}] = {to_arg};")
    emit_span = src.span(f"emit Transfer({from_arg}, {to_arg}, {token_arg});")

    ast = ab.source_unit(unit_span, [ab.contract(name, contract_span, [
        ab.state_var("_owners", "mapping(uint256 => address)", var_span),
        ab.function("ownerOf", "public",
                    [ab.parameter("tokenId", "uint256", owner_fn_span)],
                    [ab.return_statement(ret_span, "owner")],
                    owner_fn_span, owner_fn_span,
                    returns=[ab.parameter("", "address", owner_fn_span)],
                    selector=SEL_OWNER_OF),
        ab.function(fn_name, "external",
                    [ab.parameter(param, type_string, fn_span) for param, type_string in params],
                    [ab.call_statement("ownerOf", owner_expr_span),
                     ab.emit_event("Transfer", list(args), emit_span)],
                    fn_span, fn_span, selector=selector),
    ])])

    a = Asm()
    _dispatcher_head(a, False)
    _dispatcher_entry(a, selector, "fn")
    _dispatcher_entry(a, SEL_OWNER_OF, "oo")
    _dispatcher_fallback(a, False)

    a.jumpdest("fn", fn_span)
    a.push(4, fn_span).op("CALLDATALOAD", fn_span)     # from
    a.push(0x24, fn_span).op("CALLDATALOAD", fn_span)  # to
    a.push(0x44, fn_span).op("CALLDATALOAD", fn_span)  # tokenId
    # stack: tokenId, to, from
    _hashed_slot(a, 1, 0, owner_expr_span, False)
    a.op("SLOAD", ret_span)  # ownerOf's load: the owner trace
    # stack: owner, tokenId, to, from
    a.op("CALLER", check_span).op("DUP2", check_span).op("EQ", check_span)
    a.op("ISZERO", check_span)
    a.push_label("rev", check_span).op("JUMPI", check_span)
    _hashed_slot(a, 2, 0, store_span, False)
    a.op("DUP4", store_span).op("SWAP1", store_span).op("SSTORE", store_span)
    a.op("POP", emit_span)
    a.op("SWAP2", emit_span)  # -> from, to, tokenId
    _emit_transfer_log4(a, emit_span, False)
    a.op("STOP", fn_span)

    _owner_of_body(a, "oo", 0, owner_fn_span, ret_span, False)
    _revert_block(a, fn_span, False)

    code, spans = a.assemble()
    return Fixture(name, src.text, ast, code, evmasm.srcmap_text(spans))
