"""Only ``ingestion`` knows AST nodes: every other module under
``src/sleepscan`` reads the function table the load walk builds. Within
``ingestion``, only ``_from_legacy`` knows the legacy (solc before 0.5) shape:
the walk reads the modern one.

A module "names" an AST node kind or key when one of its string constants
equals it, as a lookup by kind or key would need.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sleepscan"
AST_WORDS = {"FunctionDefinition", "FunctionCall", "Return", "ContractDefinition",
             "VariableDeclaration", "ParameterList", "Identifier", "MemberAccess",
             "nodeType", "typeDescriptions", "typeString", "memberName", "stateVariable"}


def test_only_ingestion_names_ast_nodes():
    named = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "ingestion.py":
            continue
        named += [f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.value!r}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Constant) and node.value in AST_WORDS]
    assert not named, "AST node kinds or keys outside ingestion:\n  " + "\n  ".join(named)


LEGACY_WORDS = {"children", "attributes", "member_name"}


def test_only_the_legacy_rewrite_names_legacy_keys():
    tree = ast.parse((PACKAGE / "ingestion.py").read_text())
    (rewrite,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_from_legacy"]
    inside = set(map(id, ast.walk(rewrite)))
    named = [f"ingestion.py:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in LEGACY_WORDS
             and id(node) not in inside]
    assert not named, "legacy AST keys outside _from_legacy:\n  " + "\n  ".join(named)
