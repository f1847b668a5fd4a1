"""Path constraints and the solver that decides them over 256-bit vectors.

This module is only the solver: the relations, ``Constraint`` and ``solve``;
every verdict rule, and every provenance test a rule makes, lives in
``detectors``. A path condition is a plain tuple of constraints, one per
branch taken, and it is exactly the conjunction ``solve`` checks. A branch
builds a new tuple and never changes an old one, so a fork and every
emission record hold the condition they were given without a copy. The
solver is a self-contained decision procedure. Two rules give unsat answers: a
constraint contradicts an earlier one of the negated relation over the same
sides (``_structurally_unsat``), and the classes of values equal under
``eq`` and ``zero`` hold two constants, or the two sides of a ``neq``, or a
``nonzero`` side with 0 (``_equality_conflict``). A randomized concrete
witness search gives sat answers. Anything it cannot decide within its
budget is reported as ``unknown``, which callers must treat as "do not
report" (precision first).

Negation here is structural only (eq <-> neq, ult <-> uge, ...); no semantic
normalization is applied, so differing owner expressions never cancel.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from sleepscan import sym
from sleepscan.sym import Const, Op, SymValue, Var

EQ, NEQ = "eq", "neq"
ULT, UGT, ULE, UGE = "ult", "ugt", "ule", "uge"
SLT, SGT, SLE, SGE = "slt", "sgt", "sle", "sge"
NONZERO, ZERO = "nonzero", "zero"

# relation -> the sym.eval_op comparison and the result it gives when the
# relation holds; the interpreter's and the solver's semantics are one
_RELATIONS = {
    EQ: ("eq", 1), NEQ: ("eq", 0),
    ULT: ("lt", 1), UGE: ("lt", 0),
    UGT: ("gt", 1), ULE: ("gt", 0),
    SLT: ("slt", 1), SGE: ("slt", 0),
    SGT: ("sgt", 1), SLE: ("sgt", 0),
    ZERO: ("iszero", 1), NONZERO: ("iszero", 0),
}
RELATION_OF = {test: relation for relation, test in _RELATIONS.items()}
_NEGATION = {relation: RELATION_OF[op, 1 - truth]
             for relation, (op, truth) in _RELATIONS.items()}

_SYMMETRIC = frozenset([EQ, NEQ])

SAT, UNSAT, UNKNOWN = "sat", "unsat", "unknown"


@dataclass(frozen=True)
class Constraint:
    relation: str
    lhs: SymValue
    rhs: SymValue = Const(0)

    def negated(self) -> "Constraint":
        return Constraint(_NEGATION[self.relation], self.lhs, self.rhs)

    def holds(self, env: dict[Var, int]) -> bool:
        a = sym.evaluate(self.lhs, env)
        b = sym.evaluate(self.rhs, env)
        return _relation_holds(self.relation, a, b)

    def __repr__(self):
        return f"({self.lhs!r} {self.relation} {self.rhs!r})"


def _relation_holds(relation: str, a: int, b: int) -> bool:
    op, truth = _RELATIONS[relation]
    return sym.eval_op(op, (a,) if op == "iszero" else (a, b)) == truth


# --------------------------------------------------------------------------
# solving: a bit-vector conjunction decision procedure (structural unsat
# detection plus a witness search)

_WITNESS_TRIES = 48
_WITNESS_SEED = 0x5EED


def solve(path: tuple[Constraint, ...], extra: tuple[Constraint, ...] = (),
          deadline: float | None = None) -> str:
    """Satisfiability of the path's constraints plus ``extra``; the witness
    search gives up with ``unknown`` at ``deadline`` (``time.monotonic()``)."""
    simplified = []
    for constraint in (*path, *extra):
        if isinstance(constraint.lhs, Const) and isinstance(constraint.rhs, Const):
            if not _relation_holds(constraint.relation,
                                   constraint.lhs.value, constraint.rhs.value):
                return UNSAT
            continue
        simplified.append(constraint)
    if _structurally_unsat(simplified):
        return UNSAT
    if not simplified:
        return SAT
    if _find_witness(simplified, deadline):
        return SAT
    return UNKNOWN


# -- unsat side -------------------------------------------------------------

def _peeled(value: SymValue) -> SymValue:
    """``value`` without the masks that keep it: ``and(x, 2^256-1)`` is
    always ``x``, ``and(x, 2^160-1)`` only for an address-typed Var ``x``."""
    if isinstance(value, Op) and value.op == "and":
        x, mask = sorted(value.args, key=lambda arg: isinstance(arg, Const))
        x = _peeled(x)
        if mask == Const(sym.MASK256) or (mask == Const(sym.MASK160)
                                          and isinstance(x, Var) and x.is_address):
            return x
    return value


def _structurally_unsat(constraints: list[Constraint]) -> bool:
    # a constraint contradicts an earlier one of the negated relation over the
    # same sides, masks that keep a value peeled, and either way round for eq
    # and neq
    earlier: dict[str, list[tuple[SymValue, SymValue]]] = {}
    for c in constraints:
        sides = (_peeled(c.lhs), _peeled(c.rhs))
        negated = earlier.get(_NEGATION[c.relation], ())
        if sides in negated or (c.relation in _SYMMETRIC and sides[::-1] in negated):
            return True
        earlier.setdefault(c.relation, []).append(sides)
    return _equality_conflict(constraints)


def _equality_conflict(constraints: list[Constraint]) -> bool:
    # classes of values equal under the eq and zero constraints; equal
    # constants are one key, so a class holding two constants is contradictory
    parent: dict[SymValue, SymValue] = {}

    def find(x: SymValue) -> SymValue:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in constraints:
        if c.relation in (EQ, ZERO):
            parent[find(c.lhs)] = find(c.rhs if c.relation == EQ else Const(0))
    roots = [find(node) for node in parent if isinstance(node, Const)]
    if len(set(roots)) < len(roots):
        return True
    return any((c.relation == NEQ and find(c.lhs) == find(c.rhs))
               or (c.relation == NONZERO and find(c.lhs) == find(Const(0)))
               for c in constraints)


# -- sat side ---------------------------------------------------------------

def _find_witness(constraints: list[Constraint], deadline: float | None) -> bool:
    # first occurrences, sorted stably by name: same-named variables keep the
    # conjunction's order, not one that string hashing decides
    variables = sorted(dict.fromkeys(v for c in constraints for side in (c.lhs, c.rhs)
                                     for v in sym.free_vars(side)), key=lambda v: v.name)
    rng = random.Random(_WITNESS_SEED)
    for trial in range(_WITNESS_TRIES):
        if deadline is not None and time.monotonic() > deadline:
            return False
        env = _initial_assignment(variables, rng, trial)
        for _ in range(4):  # repair passes for equality chains
            changed = False
            for c in constraints:
                if c.holds(env):
                    continue
                changed |= _repair(c, env)
            if not changed:
                break
        if all(c.holds(env) for c in constraints):
            return True
    return False


def _initial_assignment(variables, rng, trial) -> dict[Var, int]:
    env = {}
    for i, var in enumerate(variables):
        if trial == 0:
            value = i + 1  # small, pairwise distinct
        elif trial == 1:
            value = 0
        else:
            width = 160 if var.is_address else 256
            value = rng.getrandbits(width)
        env[var] = value
    return env


def _repair(constraint: Constraint, env: dict[Var, int]) -> bool:
    lhs, rhs = constraint.lhs, constraint.rhs
    if constraint.relation == EQ:
        if isinstance(lhs, Var):
            env[lhs] = sym.evaluate(rhs, env)
            return True
        if isinstance(rhs, Var):
            env[rhs] = sym.evaluate(lhs, env)
            return True
    elif constraint.relation == ZERO and isinstance(lhs, Var):
        env[lhs] = 0
        return True
    elif constraint.relation == NONZERO and isinstance(lhs, Var) and env[lhs] == 0:
        env[lhs] = 1
        return True
    elif constraint.relation == NEQ:
        if isinstance(lhs, Var):
            env[lhs] = (sym.evaluate(rhs, env) + 1) & sym.MASK256
            return True
        if isinstance(rhs, Var):
            env[rhs] = (sym.evaluate(lhs, env) + 1) & sym.MASK256
            return True
    return False
