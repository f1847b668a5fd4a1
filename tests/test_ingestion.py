"""Artifact loading: source-map codec, metadata trailer, AST, versions."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as corpus
from evmasm import decode_source_map_reference, encode_source_map

from sleepscan.errors import MalformedItem, MissingArtifact, VersionUnparseable
from sleepscan.ingestion import (
    ast_from_json,
    decode_source_map,
    load_all,
    load_compilation,
    parse_version,
    resolve_version,
    strip_metadata,
    version_from_pragma,
)
from sleepscan.pipeline import RunConfig, analyze_path

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


@settings(max_examples=100)
@given(st.binary(max_size=64))
def test_strip_is_idempotent(data):
    once = strip_metadata(data)
    assert strip_metadata(once) == once


# --------------------------------------------------------------------------
# AST normalization


def test_modern_ast_shape():
    node = ast_from_json({
        "nodeType": "SourceUnit",
        "src": "0:100:0",
        "nodes": [{
            "nodeType": "ContractDefinition",
            "src": "0:90:0",
            "name": "C",
            "nodes": [{
                "nodeType": "VariableDeclaration",
                "src": "10:20:0",
                "name": "owner",
                "stateVariable": True,
                "typeDescriptions": {"typeString": "address"},
            }],
        }],
    })
    assert node.node_kind == "SourceUnit"
    assert node.src_span == (0, 100, 0)
    decl = node.by_kind()["VariableDeclaration"][0]
    assert decl.get("name") == "owner"
    assert decl.get("typeString") == "address"  # hoisted scalar


def test_legacy_ast_shape():
    node = ast_from_json({
        "name": "SourceUnit",
        "src": "0:100:0",
        "children": [{
            "name": "ContractDefinition",
            "src": "0:90:0",
            "attributes": {"name": "C"},
            "children": [],
        }],
    })
    contract = node.by_kind()["ContractDefinition"][0]
    assert contract.get("name") == "C"
    assert contract.src_span == (0, 90, 0)


def test_unrecognized_ast_raises():
    with pytest.raises(MissingArtifact):
        ast_from_json({"neither": 1})


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
])
def test_version_from_pragma(pragma, expected):
    assert version_from_pragma(f"// hi\n{pragma}\ncontract C {{}}") == expected


def test_metadata_wins_over_pragma():
    meta = json.dumps({"compiler": {"version": "0.8.19+commit.abc"}})
    assert resolve_version(meta, {0: "pragma solidity ^0.6.0;"}) == (0, 8, 19)
    assert resolve_version(None, {0: "pragma solidity ^0.6.0;"}) == (0, 6, 0)


# --------------------------------------------------------------------------
# loaders


def test_load_directory_format(corpus_dir):
    unit = load_compilation(corpus_dir / "HiddenApprover")
    assert unit.contract_name == "HiddenApprover"
    assert unit.compiler_version == (0, 8, 17)
    assert unit.runtime_bytecode
    assert unit.sources[0].startswith("// SPDX")
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


@pytest.mark.parametrize("top_level", ["5", "null"])
def test_ast_file_that_is_not_an_object_raises(tmp_path, top_level):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.ast.json").write_text(top_level)
    with pytest.raises(MissingArtifact, match="is not a JSON object"):
        load_all(d)


def test_missing_artifact_raises(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.ast.json").unlink()
    with pytest.raises(MissingArtifact):
        load_all(d)
    with pytest.raises(MissingArtifact):
        load_all(tmp_path / "no-such-path")


def test_out_of_bounds_span_rejected(tmp_path):
    fig = corpus.guarded_gallery()
    d = fig.write(tmp_path)
    (d / f"{fig.name}.sol").write_text("pragma solidity ^0.8.17;")
    # spans are checked per contract, where the unit is analyzed
    (report,) = analyze_path(str(d), RunConfig())
    assert report["contract"] == "GuardedGallery"
    assert report["error"].startswith("MissingArtifact: GuardedGallery: source-map span ")
