"""Every module- and class-level name under ``src/sleepscan`` is used somewhere.

A name counts as used when ``src/``, ``tests/``, ``pipebench/`` or the
entry points in ``pyproject.toml`` mention it anywhere but in its own
definition:
  - a module-level name: a bare name in its own module, an import of it, or
    ``alias.name`` where ``alias`` is its module;
  - any name: an attribute ``x.name`` on something that is not a sleepscan
    module, a keyword argument ``name=``, or a string constant equal to it
    (names reached through ``getattr``/``setattr``).
Dunder names are exempt, and so are functions registered by a decorator call
(``@main.command()``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sleepscan"
SCANNED = ("src", "tests", "pipebench")


def _module(path: Path) -> str:
    """``sym`` for ``sleepscan/sym.py``, ``_core`` for ``sleepscan/_core/__init__.py``."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module(path) for path in PACKAGE.rglob("*.py")}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _targets(stmt: ast.stmt) -> list[ast.Name]:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names.extend(e for e in elements if isinstance(e, ast.Name))
    return names


def _definitions(tree: ast.Module):
    """(class name or None, name, line, defining Name node or None)."""
    scopes = [(None, tree.body)]
    scopes += [(node.name, node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
    for owner, body in scopes:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                registered = not isinstance(stmt, ast.ClassDef) and any(
                    isinstance(d, ast.Call) for d in stmt.decorator_list)
                if not registered:
                    yield owner, stmt.name, stmt.lineno, None
            for target in _targets(stmt):
                yield owner, target.id, stmt.lineno, target


def _aliases(tree: ast.Module) -> dict[str, str]:
    """Local names bound to sleepscan modules (``con`` -> ``constraints``)."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "sleepscan"
            for alias in node.names if alias.name in MODULES}


def _uses(tree: ast.Module, own_module: str | None, definers: set[int]) -> set[tuple]:
    """("name", module, name) for resolved module-level uses, ("member", name) otherwise."""
    aliases = _aliases(tree)
    uses: set[tuple] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sleepscan"):
            module = node.module.removeprefix("sleepscan").removeprefix(".")
            uses.update(("name", module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                uses.add(("name", aliases[base.id], node.attr))
            else:
                uses.add(("member", node.attr))
        elif isinstance(node, ast.keyword) and node.arg:
            uses.add(("member", node.arg))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            uses.add(("member", node.value))
        elif isinstance(node, ast.Name) and own_module is not None \
                and id(node) not in definers:
            uses.add(("name", own_module, node.id))
    return uses


def _dead_names() -> list[str]:
    definitions = []
    uses: set[tuple] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            own_module = _module(path) if path.is_relative_to(PACKAGE) else None
            definers: set[int] = set()
            if own_module is not None:
                for owner, name, line, target in _definitions(tree):
                    if target is not None:
                        definers.add(id(target))
                    if not _is_dunder(name):
                        definitions.append((own_module, owner, name, path, line))
            uses |= _uses(tree, own_module, definers)
    pyproject = (ROOT / "pyproject.toml").read_text()
    for module, name in re.findall(r"\bsleepscan\.([\w.]+):(\w+)", pyproject):
        uses.add(("name", module, name))

    dead = []
    for module, owner, name, path, line in definitions:
        if ("member", name) in uses:
            continue
        if owner is None and ("name", module, name) in uses:
            continue
        qualified = ".".join(part for part in (module, owner, name) if part)
        dead.append(f"{qualified} ({path.relative_to(ROOT)}:{line})")
    return dead


def test_every_defined_name_is_used():
    dead = _dead_names()
    assert not dead, "defined but never used:\n  " + "\n  ".join(dead)
