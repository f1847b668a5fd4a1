"""Every rule in ``detectors`` names its silence: a function whose return
annotation names ``Finding`` returns a value on every ``return``, never the
``None`` constant, and ends in a ``return``. So a new early return cannot go
back to an unnamed silence.
"""

from __future__ import annotations

import ast
from pathlib import Path

DETECTORS = Path(__file__).resolve().parent.parent / "src" / "sleepscan" / "detectors.py"


def test_every_rule_returns_a_finding_or_a_named_silence():
    tree = ast.parse(DETECTORS.read_text(), str(DETECTORS))
    rules = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.returns is not None
             and any(isinstance(n, ast.Name) and n.id == "Finding" for n in ast.walk(node.returns))]
    assert "detect_privileged_address" in {rule.name for rule in rules}
    unnamed = []
    for rule in rules:
        if not isinstance(rule.body[-1], ast.Return):
            unnamed.append(f"{rule.name}:{rule.body[-1].lineno}: does not end in a return")
        unnamed += [f"{rule.name}:{ret.lineno}: returns no value or None"
                    for ret in ast.walk(rule) if isinstance(ret, ast.Return)
                    and (ret.value is None
                         or isinstance(ret.value, ast.Constant) and ret.value.value is None)]
    assert not unnamed, "rules with an unnamed silence:\n  " + "\n  ".join(unnamed)
