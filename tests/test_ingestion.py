"""Artifact loading: source-map codec, metadata trailer, AST, versions."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import astbuild as ab
import fixtures as corpus
import reference_cbor
from evmasm import decode_source_map_reference, encode_source_map

from sleepscan import ingestion
from sleepscan.detectors import UNRESTRICTED_FROM
from sleepscan.disasm import disassemble
from sleepscan.errors import MalformedItem, MissingArtifact, VersionUnparseable
from sleepscan.keccak import keccak256
from sleepscan.ingestion import (
    Ast,
    _is_cbor_map,
    _span,
    _unit,
    decode_source_map,
    load_all,
    load_compilation,
    parse_version,
    resolve_version,
    strip_metadata,
    version_from_pragma,
)
from sleepscan.pipeline import RunConfig, _check_unit, analyze_path

# --------------------------------------------------------------------------
# source-map codec


def test_decode_repeated_inherited_items():
    entries = decode_source_map("0:78:0:-;:;")
    assert entries == [(0, 78, 0)] * 3


def test_decode_partial_item_overrides_only_given_fields():
    entries = decode_source_map("0:10:0:-;5::1")
    assert entries[1] == (5, 10, 1)


def test_decode_length_is_semicolons_plus_one():
    encoded = "1:2:0:-;;3;:4;;"
    assert len(decode_source_map(encoded)) == encoded.count(";") + 1
    assert decode_source_map("") == []


def test_jump_and_modifier_depth_fields_are_ignored():
    entries = decode_source_map("0:5:0:i:1;1;2::1:o;3")
    assert entries == [(0, 5, 0), (1, 5, 0), (2, 5, 1), (3, 5, 1)]


def test_generated_code_file_minus_one():
    entries = decode_source_map("10:2:-1:-")
    assert entries[0][2] == -1


def test_malformed_item_raises():
    with pytest.raises(MalformedItem):
        decode_source_map("0:xyz:0:-")


entry_strategy = st.tuples(
    st.integers(min_value=-1, max_value=4000),
    st.integers(min_value=0, max_value=4000),
    st.integers(min_value=-1, max_value=3),
)


@settings(max_examples=150)
@given(st.lists(entry_strategy, min_size=1, max_size=40))
def test_codec_round_trip(entries):
    assert decode_source_map(encode_source_map(entries)) == entries


# maps drawn from a few distinct items, so most items repeat; an item has 0-5
# fields (fewer than three included), and any of the first three may be empty
_FIELD = st.one_of(st.just(""), st.integers(min_value=-1, max_value=40).map(str))
_ITEM = st.builds(lambda fields, jump, depth, count: ":".join((*fields, jump, depth)[:count]),
                  st.tuples(_FIELD, _FIELD, _FIELD), st.sampled_from(["", "i", "o", "-"]),
                  _FIELD, st.integers(min_value=0, max_value=5))
_ITEMS = st.lists(_ITEM, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80))


@settings(max_examples=300)
@given(_ITEMS)
def test_decoder_matches_the_reference(items):
    encoded = ";".join(items)
    assert decode_source_map(encoded) == decode_source_map_reference(encoded)


@settings(max_examples=150)
@given(_ITEMS, st.sampled_from(["x", "1:y", "::z:i", "0x10:2"]),
       st.integers(min_value=0), st.integers(min_value=1, max_value=3))
def test_malformed_item_raises_the_reference_message(items, bad, at, copies):
    at %= len(items) + 1  # 0: the malformed item comes first
    encoded = ";".join(items[:at] + [bad] * copies + items[at:])
    with pytest.raises(MalformedItem) as expected:
        decode_source_map_reference(encoded)
    with pytest.raises(MalformedItem) as raised:
        decode_source_map(encoded)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("encoded,expected", [
    # a complete item gives its own span after any partial item
    ("1:2:0;5;1:2:0;:7;1:2:0", [(1, 2, 0), (5, 2, 0), (1, 2, 0), (1, 7, 0), (1, 2, 0)]),
    # a partial item inherits the fields it leaves out from the complete one before it
    ("1:2:0;5;3:4:1;5;::2", [(1, 2, 0), (5, 2, 0), (3, 4, 1), (5, 4, 1), (5, 4, 2)]),
], ids=["complete-after-partials", "partial-after-completes"])
def test_decoder_parses_complete_items_once_and_partial_items_per_previous(encoded, expected):
    assert decode_source_map(encoded) == expected == decode_source_map_reference(encoded)


@pytest.mark.parametrize("encoded", ["1:2:x", "0:1:0;;1:2:x;1:2:x", "1:2:0;5;1:2:x"])
def test_complete_malformed_item_raises_the_reference_message_where_it_first_appears(encoded):
    with pytest.raises(MalformedItem) as expected:
        decode_source_map_reference(encoded)
    with pytest.raises(MalformedItem) as raised:
        decode_source_map(encoded)
    assert str(raised.value) == str(expected.value) == "non-integer field 'x' in item '1:2:x'"



@pytest.mark.parametrize("encoded,bad", [
    ("1_0:5:0", "1_0"),  # an underscore
    ("0:5:0;+3:4:0", "+3"),  # a plus sign
    ("0:5:0; 4 ", " 4 "),  # white space, in a partial item
    ("0:5:0;\u0663:1:0", "\u0663"),  # a digit that is not ASCII
    ("0:5:0;1:2:-", "-"),  # a sign without digits
], ids=["underscore", "plus", "space", "arabic-indic-digit", "bare-minus"])
def test_a_field_is_an_optional_minus_and_ascii_digits(encoded, bad):
    with pytest.raises(MalformedItem) as expected:
        decode_source_map_reference(encoded)
    with pytest.raises(MalformedItem) as raised:
        decode_source_map(encoded)
    assert str(raised.value) == str(expected.value)
    assert f"non-integer field {bad!r} in item" in str(raised.value)
    assert decode_source_map("-1:007:-0;;2") == [(-1, 7, 0)] * 2 + [(2, 7, 0)]


@pytest.mark.parametrize("src,span", [
    ("1_0:\u0663:0", (-1, 0, -1)),
    ("+1:2:0", (-1, 0, -1)),
    ("1: 2:0", (-1, 0, -1)),
    ("1:2:x", (-1, 0, -1)),
    ("1", (-1, 0, -1)),
    ("1:2", (1, 2, -1)),
    ("-1:-1:-1", (-1, -1, -1)),
    ("1:2:3:4", (1, 2, 3)),
], ids=["underscore-and-arabic-indic-digit", "plus", "space", "letter", "one-part",
        "two-parts", "negative", "four-parts"])
def test_an_ast_src_is_minus_and_ascii_digits_or_no_span(src, span):
    assert _span(src) == span


def _check(encoded: str, source_bytes: int = 100) -> None:
    """The per-contract checks of a unit of STOPs, one per map item."""
    metadata = '{"compiler": {"version": "0.8.17"}}'
    unit = _unit("C", {0: b"x" * source_bytes},
                 lambda sources: (metadata, "00" * (encoded.count(";") + 1), encoded, None,
                                  sources))
    _check_unit(unit, len(unit.source_map))


def test_the_first_out_of_bounds_span_in_map_order_is_named():
    with pytest.raises(MissingArtifact) as raised:
        _check("1:2:0;;950:60:0;3:4:0;2:1000:0;950:60:0")
    assert str(raised.value) == "C: source-map span 950:60 out of bounds for file 0"


@pytest.mark.parametrize("encoded,error", [
    ("5:2:0;:900", "C: source-map span 5:900 out of bounds for file 0"),  # a partial item's
    ("5:2:0;::4", "C: source-map entry refers to unknown file 4"),
    (";1:2:0", None),  # the span before the first item is generated code
    ("1:2:0;;:98;-1:5000:-1", None),
], ids=["partial-length", "partial-file", "leading-empty-item", "in-bounds"])
def test_every_span_a_partial_item_reaches_is_checked(encoded, error):
    if error is None:
        _check(encoded)
        return
    with pytest.raises(MissingArtifact) as raised:
        _check(encoded)
    assert str(raised.value) == error

def test_encode_compresses_repeats():
    entries = [(0, 78, 0)] * 3
    assert encode_source_map(entries) == "0:78:0;;"


# --------------------------------------------------------------------------
# metadata trailer


def test_strip_real_style_trailer():
    code = bytes.fromhex("6001600201")
    assert strip_metadata(code + corpus.cbor_trailer()) == code


def test_strip_leaves_garbage_alone():
    code = bytes.fromhex("600160020100ff")
    assert strip_metadata(code) == code
    # declared length runs past the start of the code
    assert strip_metadata(b"\x00\xff\xff") == b"\x00\xff\xff"
    assert strip_metadata(b"\x01") == b"\x01"


def test_strip_requires_wellformed_cbor_map():
    code = bytes.fromhex("6001600201")
    bogus = bytes(10) + (10).to_bytes(2, "big")  # right length, not a map
    assert strip_metadata(code + bogus) == code + bogus


def test_strip_leaves_an_indefinite_length_map_in_place():
    code = bytes.fromhex("6001600201")
    indefinite = b"\xbf\x61a\x01\xff"  # {"a": 1}, closed by a break byte
    trailer = indefinite + len(indefinite).to_bytes(2, "big")
    assert strip_metadata(code + trailer) == code + trailer


@pytest.mark.parametrize("depth", [1, 3000])
def test_strip_a_trailer_nested_to_any_depth(depth):
    code = bytes.fromhex("6001600201")
    trailer = corpus.nested_cbor_trailer(depth)
    assert strip_metadata(code + trailer) == code
    # the innermost item missing: not a map of the declared length
    unclosed = trailer[:-3] + (len(trailer) - 3).to_bytes(2, "big")
    assert strip_metadata(code + unclosed) == code + unclosed


def _cbor_head(major: int, arg: int) -> bytes:
    if arg < 24:
        return bytes([major << 5 | arg])
    for info, width in ((24, 1), (25, 2), (26, 4), (27, 8)):
        if arg < 1 << (8 * width):
            return bytes([major << 5 | info]) + arg.to_bytes(width, "big")
    raise ValueError(arg)


_CBOR_ITEMS = st.recursive(
    st.one_of(
        st.builds(_cbor_head, st.sampled_from([0, 1, 7]), st.integers(0, 2**64 - 1)),
        st.binary(max_size=30).map(lambda raw: _cbor_head(2, len(raw)) + raw),
        st.integers(0, 255).map(lambda tag: _cbor_head(6, tag) + b"\x00"),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(
            lambda items: _cbor_head(4, len(items)) + b"".join(items)),
        st.lists(st.tuples(inner, inner), max_size=3).map(
            lambda pairs: _cbor_head(5, len(pairs)) + b"".join(k + v for k, v in pairs)),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@example(bytes.fromhex("a1" "00" "1b0000000100000000"), 0, 0, "as is")  # {0: 2**32}
@example(bytes.fromhex("a1" "00" "1a00010000"), 0, 0, "as is")  # {0: 2**16}
@given(_CBOR_ITEMS, st.integers(0, 400), st.integers(0, 255), st.sampled_from(
    ["as is", "replace", "truncate", "insert"]))
def test_the_cbor_loop_agrees_with_the_recursive_walker(item, index, byte, edit):
    """Well-formed items, and items with one byte changed, cut short or
    grown, get one answer from the loop and from the recursive walker."""
    index %= len(item) + 1
    data = {"as is": item,
            "replace": item[:index] + bytes([byte]) + item[index + 1:],
            "truncate": item[:index],
            "insert": item[:index] + bytes([byte]) + item[index:]}[edit]
    assert _is_cbor_map(data) == reference_cbor.is_cbor_map(data)


@settings(max_examples=100)
@given(st.binary(max_size=64))
def test_strip_is_idempotent(data):
    once = strip_metadata(data)
    assert strip_metadata(once) == once


# --------------------------------------------------------------------------
# the AST, read into a function table


def test_modern_ast_shape():
    decl_doc = {
        "nodeType": "VariableDeclaration",
        "src": "10:20:0",
        "name": "owner",
        "stateVariable": True,
        "typeDescriptions": {"typeString": "address"},
    }
    doc = {
        "nodeType": "SourceUnit",
        "src": "0:100:0",
        "nodes": [{"nodeType": "ContractDefinition", "src": "0:90:0", "name": "C",
                   "nodes": [decl_doc]}],
    }
    ast = Ast(doc)
    assert ast.functions == []
    assert ast.state_variables == [("owner", "address")]  # type from typeDescriptions


@pytest.mark.parametrize("descriptions", ["address", ["address"], None])
def test_type_descriptions_that_are_not_an_object_give_no_type(descriptions):
    decl = ab.state_var("owner", "address", (10, 20, 0))
    decl["typeDescriptions"] = descriptions
    ast = Ast({"nodeType": "SourceUnit", "src": "0:100:0",
               "nodes": [ab.contract("C", (0, 90, 0), [decl])]})
    assert ast.state_variables == [("owner", "")]


def test_legacy_ast_shape():
    ast = Ast({
        "name": "SourceUnit",
        "src": "0:100:0",
        "children": [{
            "name": "ContractDefinition",
            "src": "0:90:0",
            "attributes": {"name": "C"},
            "children": [{"name": "VariableDeclaration", "src": "10:20:0",
                          "attributes": {"name": "owner", "type": "address"}}],
        }],
    })
    assert ast.functions == []
    assert ast.state_variables == [("owner", "address")]  # legacy "type"


def test_calls_are_read_by_field_in_either_key_order():
    call = {"nodeType": "FunctionCall", "src": "0:1:0",
            "arguments": [{"nodeType": "Identifier", "src": "0:1:0", "name": "a"}],
            "expression": {"nodeType": "MemberAccess", "src": "0:1:0",
                           "memberName": "_transfer"}}
    ast = Ast({"nodeType": "FunctionDefinition", "src": "0:1:0", "name": "f",
               "body": {"nodeType": "ExpressionStatement", "src": "0:1:0",
                        "expression": call}})
    (fn,) = ast.functions
    assert fn.calls == {("_transfer", 1)}


def test_function_bodies_are_grouped_at_load():
    fn = {"nodeType": "FunctionDefinition", "src": "0:9:0", "name": "f",
          "body": ab.call_statement("g", (1, 2, 0))}
    ast = Ast({"nodeType": "SourceUnit", "src": "0:20:0",
               "nodes": [fn, ab.call_statement("h", (15, 1, 0))]})
    assert _rows(ast) == [("f", None, (), frozenset({("g", 0)}), (0, 9, 0))]


def _rows(ast: Ast) -> list[tuple]:
    """Each function row's (name, visibility, parameters, calls, span), read
    through its public accessors: a row keeps JSON values, which differ
    between renderings."""
    return [(fn.name, fn.visibility, fn.parameters, fn.calls, fn.span) for fn in ast.functions]


def _table(ast: Ast):
    return _rows(ast), ast.state_variables


@pytest.mark.parametrize("fixture", corpus.build_corpus(), ids=lambda f: f.name)
def test_every_rendering_gives_one_function_table(fixture):
    """The modern, sorted-key and legacy forms of a fixture's AST give the
    same rows."""
    table = _table(Ast(fixture.ast))
    assert table[0] and table[1]
    assert _table(Ast(json.loads(json.dumps(fixture.ast, sort_keys=True)))) == table
    assert _table(Ast(ab.legacy(fixture.ast))) == table


_NAMES = st.sampled_from(["", "f", "transferFrom", "_transfer", "ownerOf", "Transfer", "from"])
_TYPES = st.sampled_from(["uint256", "address", "address payable", "uint256[]", "string memory"])
_SPANS = st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(-1, 1))
_ARGUMENTS = st.lists(st.sampled_from(["from", "to", "tokenId"]), max_size=3)
_VARIABLES = st.lists(st.builds(ab.parameter, _NAMES, _TYPES, _SPANS), max_size=3)
_STATEMENTS = st.one_of(
    st.builds(ab.emit_event, st.just("Transfer"), st.just(["from", "to", "tokenId"]), _SPANS),
    st.builds(ab.emit_event, _NAMES, _ARGUMENTS, _SPANS),
    st.builds(ab.call_statement, _NAMES, _SPANS),
    st.builds(ab.member_call_statement, _NAMES, st.sampled_from(["super", "token"]),
              _ARGUMENTS, _SPANS))
_FUNCTIONS = st.builds(ab.function, _NAMES,
                       st.sampled_from(["public", "external", "internal", "private"]),
                       _VARIABLES, st.lists(_STATEMENTS, max_size=4), _SPANS, _SPANS,
                       returns=_VARIABLES)
# a parameter at contract level is a declaration with stateVariable false
_CONTRACT_NODES = st.one_of(_FUNCTIONS, st.builds(ab.state_var, _NAMES, _TYPES, _SPANS),
                            st.builds(ab.parameter, _NAMES, _TYPES, _SPANS))
_DOCUMENTS = st.builds(ab.source_unit, _SPANS, st.lists(
    st.builds(ab.contract, _NAMES, _SPANS, st.lists(_CONTRACT_NODES, max_size=5)), max_size=3))


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_every_rendering_of_a_random_document_gives_one_function_table(doc):
    """As for the fixtures, on documents with any mix of contracts, functions,
    parameters, ``Transfer`` emissions, plain and member calls, and state and
    non-state declarations."""
    table = _table(Ast(doc))
    assert _table(Ast(json.loads(json.dumps(doc, sort_keys=True)))) == table
    assert _table(Ast(ab.legacy(doc))) == table


def _two_functions(bad_type_first: bool) -> dict:
    """A contract whose functions carry one malformed attribute each: a
    parameter typed 5, and a function named 7."""
    span = (0, 0, 0)
    typed = ab.function("f", "public", [ab.parameter("a", 5, span)], [], span, span)
    named = ab.function(7, "public", [], [], span, span)
    functions = [typed, named] if bad_type_first else [named, typed]
    return ab.source_unit(span, [ab.contract("C", span, functions)])


def _legacy_child_and_name(bad_child_first: bool) -> dict:
    """A legacy contract whose functions carry one fault each of two kinds: a
    body holding a child that is not an object, and a function named 7."""
    span = (0, 0, 0)
    doc = ab.legacy(ab.source_unit(span, [ab.contract("C", span, [
        ab.function("f", "public", [], [], span, span),
        ab.function(7, "public", [], [], span, span)])]))
    (contract,) = doc["children"]
    holder, _ = contract["children"]
    holder["children"][-1]["children"].append("x")  # the body, a Block
    if not bad_child_first:
        contract["children"].reverse()
    return doc


_TYPE_FIRST = "typeString of AST node VariableDeclaration is not a JSON string"
_NAME_FIRST = "name of AST node FunctionDefinition is not a JSON string"


@pytest.mark.parametrize("doc,message", [
    (_two_functions(True), _TYPE_FIRST),
    (ab.legacy(_two_functions(True)), _TYPE_FIRST),
    (_two_functions(False), _NAME_FIRST),
    (ab.legacy(_two_functions(False)), _NAME_FIRST),
    (_legacy_child_and_name(True), "child of AST node Block is not a JSON object"),
    (_legacy_child_and_name(False), _NAME_FIRST),
], ids=["type-first-modern", "type-first-legacy", "name-first-modern", "name-first-legacy",
        "child-first-legacy", "name-before-child-legacy"])
def test_ast_error_names_the_first_bad_node_in_document_order(doc, message):
    with pytest.raises(MissingArtifact) as raised:
        Ast(doc)
    assert str(raised.value) == message


def test_unrecognized_ast_raises():
    with pytest.raises(MissingArtifact):
        Ast({"neither": 1})


# --------------------------------------------------------------------------
# version resolution


def test_parse_version_from_compiler_string():
    assert parse_version("0.8.17+commit.8df45f5f.Linux.g++") == (0, 8, 17)
    with pytest.raises(VersionUnparseable):
        parse_version("nightly")


@pytest.mark.parametrize("pragma,expected", [
    ("pragma solidity ^0.8.17;", (0, 8, 17)),
    ("pragma solidity >=0.6.0 <0.8.0;", (0, 6, 0)),
    ("pragma solidity >0.4.13;", (0, 4, 14)),
    ("pragma solidity 0.8.21;", (0, 8, 21)),
    ("pragma solidity ~0.5.2;", (0, 5, 2)),
    ("pragma solidity ^0.6.0 || ^0.7.0;", (0, 6, 0)),
    ("pragma solidity ^0.8.0 || ^0.7.0;", (0, 7, 0)),
    ("pragma solidity 0.5.0 - 0.6.0;", (0, 5, 0)),
])
def test_version_from_pragma(pragma, expected):
    assert version_from_pragma(f"// hi\n{pragma}\ncontract C {{}}") == expected


def test_metadata_wins_over_pragma():
    meta = json.dumps({"compiler": {"version": "0.8.19+commit.abc"}})
    assert resolve_version(meta, {0: b"pragma solidity ^0.6.0;"}) == (0, 8, 19)
    assert resolve_version(None, {0: b"pragma solidity ^0.6.0;"}) == (0, 6, 0)


@pytest.mark.parametrize("own_pragma,expected", [(True, "0.8.17"), (False, "0.6.2")],
                         ids=["own", "imported"])
def test_without_metadata_a_contract_gets_its_own_files_pragma(tmp_path, own_pragma,
                                                               expected):
    """The contract's own source is tried first, then the others in order,
    even when an imported file comes first in ``sources``."""
    fig = corpus.free_mintable()
    doc = corpus.standard_json_artifact(fig)
    del doc["contracts"][f"{fig.name}.sol"][fig.name]["metadata"]
    if not own_pragma:  # commented out, keeping every span in bounds
        own = doc["sources"][f"{fig.name}.sol"]
        own["content"] = own["content"].replace("pragma", "//agma")
    doc["sources"] = {"lib/Old.sol": {"id": 1, "content": "pragma solidity ^0.6.2;"},
                      **doc["sources"]}
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    (report,) = analyze_path(str(path), RunConfig())
    assert report["compiler_version"] == expected


def test_a_pragma_without_a_lower_bound_and_no_metadata_gives_no_version(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.sol").write_text("pragma solidity <0.9.0;")
    with pytest.raises(VersionUnparseable) as raised:
        load_compilation(d)
    assert str(raised.value) == "no compiler version in metadata or pragma"


# --------------------------------------------------------------------------
# loaders


def test_load_directory_format(corpus_dir):
    unit = load_compilation(corpus_dir / "HiddenApprover")
    assert unit.contract_name == "HiddenApprover"
    assert unit.compiler_version == (0, 8, 17)
    assert unit.runtime_bytecode
    assert unit.sources[0].startswith(b"// SPDX")
    snippets = {unit.snippet(span) for span in unit.source_map if span[2] >= 0}
    assert "emit Transfer(from, to, tokenId);" in snippets


def test_load_standard_json(tmp_path):
    fig = corpus.hidden_approver()
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(corpus.standard_json_artifact(fig)))
    units = load_all(path)
    assert len(units) == 1
    unit = units[0]
    assert unit.contract_name == "HiddenApprover"
    assert unit.compiler_version == (0, 8, 17)
    # the CBOR trailer was stripped, leaving exactly the mapped instructions
    assert unit.runtime_bytecode == fig.bytecode


@pytest.mark.parametrize("field,value,error", [
    ("sourceMap", "1:2:x", MalformedItem), ("object", "zz", ValueError)])
def test_load_compilation_raises_when_its_contract_does_not_decode(tmp_path, field, value,
                                                                   error):
    doc = corpus.standard_json_artifact(corpus.hidden_approver())
    doc["contracts"]["HiddenApprover.sol"]["HiddenApprover"]["evm"]["deployedBytecode"][
        field] = value
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error):
        load_compilation(path)
    (unit,) = load_all(path)  # the error waits for the contract's analysis
    assert isinstance(unit.error, error) and unit.source_map == []


def test_map_length_mismatch_raises(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    srcmap = d / f"{fig.name}.srcmap-runtime"
    text = srcmap.read_text()
    srcmap.write_text(text[: text.rindex(";")])  # drop the final entry
    # the count is checked where the unit is decoded, at analysis
    (report,) = analyze_path(str(d), RunConfig())
    assert report["contract"] == "GuardedGallery"
    assert report["error"].startswith("MapLengthMismatch: ")


def _with_one_bad_file(tmp_path, suffix: str, rewrite) -> list[dict]:
    """FreeMintable's report alone, then the reports of a directory holding
    FreeMintable and GuardedGallery, whose ``suffix`` file is rewritten, or
    deleted where ``rewrite`` gives None; without timings."""
    guarded, free = corpus.guarded_gallery(), corpus.free_mintable()
    d = guarded.write(tmp_path)
    for path in free.write(tmp_path / "other").iterdir():
        path.rename(d / path.name)
    bad = d / f"{guarded.name}.{suffix}"
    data = rewrite(bad.read_bytes())
    if data is None:
        bad.unlink()
    else:
        bad.write_bytes(data)
    reports = [*analyze_path(str(free.write(tmp_path / "alone")), RunConfig()),
               *analyze_path(str(d), RunConfig())]
    for report in reports:
        report.pop("timings", None)
    return reports


@pytest.mark.parametrize("suffix", ["bin-runtime", "srcmap-runtime", "ast.json"])
def test_a_file_that_is_not_utf8_fails_only_its_contract(tmp_path, suffix):
    alone, *reports = _with_one_bad_file(tmp_path, suffix, lambda data: b"\xff" + data)
    assert [r["contract"] for r in reports] == ["FreeMintable", "GuardedGallery"]
    assert reports[0] == alone
    assert reports[1]["error"].startswith(
        "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0")


@pytest.mark.parametrize("rewrite", [lambda data: data.replace(b"pragma", b"//agma"),
                                     lambda data: None], ids=["no-pragma", "no-source"])
def test_a_contract_without_a_compiler_version_fails_only_itself(tmp_path, rewrite):
    alone, *reports = _with_one_bad_file(tmp_path, "sol", rewrite)
    assert [r["contract"] for r in reports] == ["FreeMintable", "GuardedGallery"]
    assert reports[0] == alone
    assert [f["type"] for f in alone["findings"]] == [UNRESTRICTED_FROM]
    assert reports[1]["error"] == "VersionUnparseable: no compiler version in metadata or pragma"


def _no_version(doc: dict) -> None:
    del doc["contracts"]["GuardedGallery.sol"]["GuardedGallery"]["metadata"]
    for source in doc["sources"].values():
        source["content"] = source["content"].replace("pragma", "//agma")


@pytest.mark.parametrize("rewrite,error", [
    (lambda doc: doc["sources"]["GuardedGallery.sol"].pop("ast"),
     "MissingArtifact: no AST for source file GuardedGallery.sol"),
    (_no_version, "VersionUnparseable: no compiler version in metadata or pragma"),
    (lambda doc: doc["contracts"]["GuardedGallery.sol"]["GuardedGallery"].update(evm="x"),
     "MissingArtifact: GuardedGallery: evm is not a JSON object"),
    (lambda doc: doc["sources"]["GuardedGallery.sol"]["ast"]["nodes"].append({"nodeType": 5}),
     "MissingArtifact: nodeType of an AST node is not a JSON string"),
    (lambda doc: _prefix_code(doc, "__$" + "a" * 33 + "$__"),  # one hex digit short
     "ValueError: non-hexadecimal number found in fromhex() arg at position 0"),
    (lambda doc: _generate(doc, "GuardedGallery", 0),  # FreeMintable.sol's id
     "MissingArtifact: GuardedGallery: generated source id 0 is used twice"),
    (lambda doc: _generate(doc, "GuardedGallery", 2, "0:50:2"),
     "MissingArtifact: GuardedGallery: source-map span 0:50 out of bounds for file 2"),
    (lambda doc: _generate(doc, "FreeMintable", 2) or _generate(doc, "GuardedGallery", None),
     "MissingArtifact: GuardedGallery: source-map entry refers to unknown file 2"),
    (lambda doc: doc["contracts"]["GuardedGallery.sol"]["GuardedGallery"]["evm"][
        "deployedBytecode"].update(generatedSources={}),
     "MissingArtifact: GuardedGallery: generatedSources is not a JSON array"),
], ids=["no-ast", "no-version", "bad-evm", "bad-node", "bad-placeholder",
        "generated-id-taken", "generated-span-out-of-bounds", "other-contracts-generated",
        "generated-not-a-list"])
def test_a_standard_json_contract_that_does_not_load_fails_only_itself(tmp_path, rewrite,
                                                                       error):
    """One file holds GuardedGallery.sol and FreeMintable.sol; GuardedGallery
    alone loses its AST, or its version (no metadata, and no pragma in either
    source), or gets a bad entry or AST node."""
    guarded, free = corpus.guarded_gallery(), corpus.free_mintable()
    doc = corpus.standard_json_artifact(free)
    (tmp_path / "alone.json").write_text(json.dumps(doc))
    other = corpus.standard_json_artifact(guarded)
    doc["contracts"] = {**other["contracts"], **doc["contracts"]}
    doc["sources"][f"{guarded.name}.sol"] = {**other["sources"][f"{guarded.name}.sol"], "id": 1}
    rewrite(doc)
    (tmp_path / "both.json").write_text(json.dumps(doc))
    alone, *reports = (report for name in ("alone", "both")
                       for report in analyze_path(str(tmp_path / f"{name}.json"), RunConfig()))
    for report in (alone, *reports):
        report.pop("timings", None)
    assert [r["contract"] for r in reports] == ["GuardedGallery", "FreeMintable"]
    assert reports[0]["error"] == error
    assert reports[1] == alone
    assert [f["type"] for f in alone["findings"]] == [UNRESTRICTED_FROM]


def _generate(doc: dict, name: str, file_id: int | None, item: str = "0:5:2"):
    """Give contract ``name`` the generated source ``file_id`` (None: none),
    nine bytes of Yul, and point its map's first item at ``item``."""
    deployed = doc["contracts"][f"{name}.sol"][name]["evm"]["deployedBytecode"]
    if file_id is not None:
        deployed["generatedSources"] = [
            {"contents": "{ let a }", "id": file_id, "name": "#utility.yul"}]
    deployed["sourceMap"] = item + deployed["sourceMap"][deployed["sourceMap"].index(";"):]


def _prefix_code(doc: dict, prefix: str):
    deployed = doc["contracts"]["GuardedGallery.sol"]["GuardedGallery"]["evm"][
        "deployedBytecode"]
    deployed["object"] = prefix + deployed["object"]


@pytest.mark.parametrize("name,owner_check,found", [
    ("FreeMintable", False, [UNRESTRICTED_FROM]), ("GuardedGallery", True, [])])
def test_an_unlinked_library_placeholder_loads_as_the_zero_address(tmp_path, name,
                                                                  owner_check, found):
    """solc leaves ``__$<34 hex>$__`` in a PUSH20 whose library it did not link:
    the contract gets the report of its rendering with the zero address there."""
    fig = corpus.transfer_family(name, owner_check=owner_check, library_push=True)
    (push,) = (instr for instr in disassemble(fig.bytecode) if instr.name == "PUSH20")
    start = 2 * (push.pc + 1)
    placeholder = "__$" + keccak256(b"Lib.sol:Lib").hex()[:34] + "$__"
    reports = []
    for rendering in ("zero", "placeholder"):
        d = fig.write(tmp_path / rendering)
        code = d / f"{name}.bin-runtime"
        text = code.read_text()
        assert text[start:start + 40] == "0" * 40
        if rendering == "placeholder":
            code.write_text(text[:start] + placeholder + text[start + 40:])
        (report,) = analyze_path(str(d), RunConfig())
        report.pop("timings")
        reports.append(report)
    assert reports[1] == reports[0]
    assert [f["type"] for f in reports[0]["findings"]] == found


def test_a_source_that_is_not_utf8_fails_no_contract(tmp_path):
    """A directory's ``.sol`` is kept as bytes: a byte that is not UTF-8 after
    the last span costs neither its own contract nor the other one."""
    guarded, free = corpus.guarded_gallery(), corpus.free_mintable()
    alone = [analyze_path(str(fig.write(tmp_path / "alone")), RunConfig())[0]
             for fig in (free, guarded)]
    d = guarded.write(tmp_path)
    for path in free.write(tmp_path / "other").iterdir():
        path.rename(d / path.name)
    sol = d / f"{guarded.name}.sol"
    sol.write_bytes(sol.read_bytes() + b"\xff")
    reports = analyze_path(str(d), RunConfig())
    for report in (*alone, *reports):
        report.pop("timings")
    assert reports == alone
    assert [f["type"] for f in reports[0]["findings"]] == [UNRESTRICTED_FROM]


def test_a_lone_surrogate_in_standard_json_content_fails_no_contract(tmp_path):
    """JSON can escape a lone surrogate, which has no UTF-8 form; the source
    is still kept, and its contract keeps its findings."""
    fig = corpus.free_mintable()
    reports = []
    for tail in ("", "// \ud800"):
        doc = corpus.standard_json_artifact(fig)
        doc["sources"][f"{fig.name}.sol"]["content"] += tail
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(doc))
        (report,) = analyze_path(str(path), RunConfig())
        report.pop("timings")
        reports.append(report)
    assert reports[1] == reports[0]
    assert [f["type"] for f in reports[1]["findings"]] == [UNRESTRICTED_FROM]


@pytest.mark.parametrize("fixture", corpus.build_corpus(), ids=lambda f: f.name)
def test_directory_and_standard_json_load_and_analyze_alike(tmp_path, fixture):
    """Metamorphic: a fixture as an artifact directory and as a standard-JSON
    file with its CBOR trailer gives equal units and equal reports. The
    standard-JSON metadata pins 0.8.17, so the compiler version may differ."""
    directory = fixture.write(tmp_path)
    path = tmp_path / f"{fixture.name}.json"
    path.write_text(json.dumps(corpus.standard_json_artifact(fixture)))
    (unit,), (twin,) = load_all(directory), load_all(path)
    assert twin.runtime_bytecode == unit.runtime_bytecode
    assert twin.source_map == unit.source_map
    assert _table(twin.ast) == _table(unit.ast)
    reports = []
    for artifact in (directory, path):
        (report,) = analyze_path(str(artifact), RunConfig())
        report.pop("timings")
        report.pop("compiler_version")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("fixture", corpus.build_corpus(), ids=lambda f: f.name)
def test_a_map_into_a_generated_yul_source_analyzes_alike(tmp_path, fixture):
    """Metamorphic: solc 0.7.2 and later points generated code at a Yul source
    listed in ``generatedSources``; the contract gets the report of its
    rendering with those items in file -1, and the Yul text as its source 1."""
    reports = []
    for generated in (False, True):
        path = tmp_path / f"{generated}.json"
        path.write_text(json.dumps(corpus.standard_json_artifact(fixture, generated)))
        (report,) = analyze_path(str(path), RunConfig())
        report.pop("timings")
        reports.append(report)
    assert "error" not in reports[0]
    assert reports[1] == reports[0]
    (unit,) = load_all(path)
    assert unit.sources == {0: fixture.sol.encode(), 1: corpus.UTILITY_YUL.encode()}
    assert 1 in {file_id for _, _, file_id in unit.source_map}
    if fixture.name == "FreeMintable":
        (finding,) = reports[1]["findings"]
        assert (finding["type"], finding["witness"]) == (
            UNRESTRICTED_FROM, ["(_owners[...] neq from)"])


@pytest.mark.parametrize("top_level", ["5", "null"])
def test_ast_file_that_is_not_an_object_raises(tmp_path, top_level):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.ast.json").write_text(top_level)
    with pytest.raises(MissingArtifact, match="is not a JSON object"):
        load_compilation(d)


@pytest.mark.parametrize("text,error", [
    ("{not json", r"JSONDecodeError: "),
    ("[" * 100_000 + "]" * 100_000,
     r"MissingArtifact: \S+GuardedGallery\.ast\.json is nested too deeply to parse\Z"),
    ("5", r"MissingArtifact: \S+GuardedGallery\.ast\.json: top level is not a JSON object\Z"),
    ('{"nodeType": 5}', r"MissingArtifact: nodeType of an AST node is not a JSON string\Z"),
], ids=["not-json", "too-deep", "not-an-object", "bad-node"])
def test_a_bad_ast_file_fails_only_its_contract(tmp_path, text, error):
    alone, *reports = _with_one_bad_file(tmp_path, "ast.json", lambda _: text.encode())
    assert [r["contract"] for r in reports] == ["FreeMintable", "GuardedGallery"]
    assert reports[0] == alone
    assert re.match(error, reports[1]["error"])


def test_missing_artifact_raises(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.ast.json").unlink()
    with pytest.raises(MissingArtifact):
        load_all(d)
    with pytest.raises(MissingArtifact):
        load_all(tmp_path / "no-such-path")


def test_a_directory_without_a_source_map_raises(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.srcmap-runtime").unlink()
    with pytest.raises(MissingArtifact) as raised:
        load_all(d)
    assert str(raised.value) == f"{d / fig.name}.srcmap-runtime missing"


def test_load_compilation_rejects_an_artifact_of_two_contracts(tmp_path):
    doc = corpus.standard_json_artifact(corpus.guarded_gallery())
    per_file = doc["contracts"]["GuardedGallery.sol"]
    per_file["Twin"] = per_file["GuardedGallery"]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MissingArtifact) as raised:
        load_compilation(path)
    assert str(raised.value) == "multiple contracts (GuardedGallery, Twin); use load_all"


def test_each_source_file_is_walked_once(tmp_path, monkeypatch):
    """Two contracts of one source share one walk of its AST, and a source
    that no contract names is never walked, so its bad AST costs nothing."""
    doc = corpus.standard_json_artifact(corpus.guarded_gallery())
    per_file = doc["contracts"]["GuardedGallery.sol"]
    per_file["Twin"] = per_file["GuardedGallery"]
    doc["sources"]["Unused.sol"] = {"id": 1, "ast": {"nodeType": 5}}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    builds = []

    def counting(ast_doc):
        builds.append(ast_doc)
        return Ast(ast_doc)

    monkeypatch.setattr(ingestion, "Ast", counting)
    units = load_all(path)
    assert len(builds) == 1
    assert units[0].ast is units[1].ast
    assert [r.get("error") for r in analyze_path(str(path), RunConfig())] == [None, None]


def test_a_bad_source_ast_is_walked_once_for_all_its_contracts(tmp_path, monkeypatch):
    """The fault the first contract's walk finds is every contract's own."""
    doc = corpus.standard_json_artifact(corpus.guarded_gallery())
    per_file = doc["contracts"]["GuardedGallery.sol"]
    for copy in ("Copy1", "Copy2", "Copy3"):
        per_file[copy] = per_file["GuardedGallery"]
    doc["sources"]["GuardedGallery.sol"]["ast"]["nodes"].append({"nodeType": 5})
    path = tmp_path / "four.json"
    path.write_text(json.dumps(doc))
    builds = []

    def counting(ast_doc):
        builds.append(ast_doc)
        return Ast(ast_doc)

    monkeypatch.setattr(ingestion, "Ast", counting)
    units = load_all(path)
    assert len(builds) == 1
    assert [str(unit.error) for unit in units] == \
        ["nodeType of an AST node is not a JSON string"] * 4
    assert len({id(unit.error) for unit in units}) == 4  # no shared traceback


def test_out_of_bounds_span_rejected(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.sol").write_text("pragma solidity ^0.8.17;")
    # spans are checked per contract, where its unit is loaded
    (report,) = analyze_path(str(d), RunConfig())
    assert report["contract"] == "GuardedGallery"
    assert report["error"].startswith("MissingArtifact: GuardedGallery: source-map span ")


def test_a_span_of_a_file_without_source_is_rejected(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    spans = decode_source_map(fig.srcmap)
    start, length, _ = spans[0]
    spans[0] = (start, length, 3)
    (d / f"{fig.name}.srcmap-runtime").write_text(encode_source_map(spans))
    (report,) = analyze_path(str(d), RunConfig())
    assert report["error"] == \
        "MissingArtifact: GuardedGallery: source-map entry refers to unknown file 3"
