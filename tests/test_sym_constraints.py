"""Symbolic expressions, constraint structure and the internal solver."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_evm
import progs

from sleepscan import constraints as cs
from sleepscan import sym
from sleepscan.constraints import Constraint, solve
from sleepscan.detectors import is_caller, is_storage_direct_address, strip_masks
from sleepscan.sym import Const, Op, Var, free_vars, make_op

CALLER = Var("caller", sym.Environment("caller"), is_address=True)
P0 = Var("from", sym.Parameter(0), is_address=True)
P1 = Var("to", sym.Parameter(1), is_address=True)
OWNER_SLOT = Var("secretOperator", sym.Storage(Const(0)), is_address=True)
MAPPED = Var("_owners[...]", sym.Storage(Op("sha3", (P0, Const(1)))))


# --------------------------------------------------------------------------
# expression layer

def test_const_wraps_modulo_2_256():
    assert Const(-1).value == sym.MASK256
    assert Const(1 << 256).value == 0


def test_make_op_folds_constants():
    assert make_op("add", Const(2), Const(3)) == Const(5)
    assert make_op("div", Const(1), Const(0)) == Const(0)
    folded = make_op("eq", Const(7), Const(7))
    assert folded == Const(1)


def test_make_op_keeps_sha3_symbolic():
    node = make_op("sha3", Const(1), Const(2))
    assert isinstance(node, Op)  # hashes stay structural for provenance


def test_make_op_keeps_symbolic_operands():
    node = make_op("add", P0, Const(1))
    assert isinstance(node, Op) and node.args == (P0, Const(1))


def test_op_depth_is_not_compared_hashed_or_printed():
    chained = make_op("add", make_op("add", P0, Const(1)), Const(1))
    assert chained.depth == 2
    built = Op("add", (Op("add", (P0, Const(1))), Const(1)))
    assert built == chained and hash(built) == hash(chained)
    assert repr(built) == repr(chained) == "add(add(from, 1), 1)"


@settings(max_examples=300)
@given(st.data())
def test_eval_op_matches_reference_interpreter(data):
    """Differential check of the 256-bit operator table against an
    independently written reference interpreter."""
    name = data.draw(st.sampled_from(oracle_evm.SUPPORTED))
    arity = (2 if name in oracle_evm._BINARY else
             1 if name in oracle_evm._UNARY else 3)
    args = tuple(
        data.draw(st.one_of(
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=sym.MASK256),
            st.just(sym.MASK256), st.just(sym.SIGN_BIT),
        ))
        for _ in range(arity)
    )
    expected = oracle_evm.run([(name, ())], list(reversed(args)))[-1]
    assert sym.eval_op(name.lower(), args) == expected


def test_strip_masks_peels_width_masks():
    masked = Op("and", (P0, Const(sym.MASK160)))
    assert strip_masks(masked) is P0
    assert strip_masks(Op("and", (Const(sym.MASK256), P0))) is P0
    other = Op("and", (P0, Const(0xFF)))
    assert strip_masks(other) is other
    nested = Op("and", (Op("and", (P0, Const(sym.MASK160))), Const(sym.MASK256)))
    assert strip_masks(nested) is P0


def test_free_vars():
    expr = Op("add", (Op("mul", (P0, CALLER)), Const(3)))
    assert free_vars(expr) == {P0, CALLER}
    assert free_vars(Const(1)) == set()


def test_evaluate_hashes_for_real():
    h = Op("sha3", (P0, Const(1)))
    a = sym.evaluate(h, {P0: 1})
    b = sym.evaluate(h, {P0: 2})
    assert a != b  # distinct keys map to distinct slots


# --------------------------------------------------------------------------
# constraint structure

def test_negation_is_involutive():
    for relation in cs._NEGATION:
        c = Constraint(relation, P0, P1)
        assert c.negated().negated() == c
    assert Constraint(cs.ULT, P0, P1).negated().relation == cs.UGE


# each relation as the reference interpreter's comparison and the result it
# must give: the relation's meaning stated independently of sym.eval_op
_ORACLE_RELATIONS = {
    cs.EQ: ("EQ", 1), cs.NEQ: ("EQ", 0),
    cs.ULT: ("LT", 1), cs.UGE: ("LT", 0),
    cs.UGT: ("GT", 1), cs.ULE: ("GT", 0),
    cs.SLT: ("SLT", 1), cs.SGE: ("SLT", 0),
    cs.SGT: ("SGT", 1), cs.SLE: ("SGT", 0),
    cs.ZERO: ("ISZERO", 1), cs.NONZERO: ("ISZERO", 0),
}
_EDGE_VALUES = (0, 1, sym.SIGN_BIT - 1, sym.SIGN_BIT, sym.MASK256)


@pytest.mark.parametrize("relation", sorted(_ORACLE_RELATIONS))
def test_relations_match_the_reference_interpreter(relation):
    name, truth = _ORACLE_RELATIONS[relation]
    for a in _EDGE_VALUES:
        for b in _EDGE_VALUES:
            operands = [a] if name == "ISZERO" else [b, a]  # top of stack last
            expected = oracle_evm.run([(name, ())], operands)[-1] == truth
            c = Constraint(relation, P0, P1)
            env = {P0: a, P1: b}
            assert c.holds(env) is expected, (relation, a, b)
            assert c.negated().holds(env) is not expected
            concrete = (Constraint(relation, Const(a), Const(b)),)
            assert solve(concrete) == (cs.SAT if expected else cs.UNSAT)


def test_is_storage_direct_address_heuristics():
    assert is_storage_direct_address(OWNER_SLOT)  # declared address type
    assert not is_storage_direct_address(MAPPED)  # mapping loads excluded
    word = Var("raw", sym.Storage(Const(3)))
    assert not is_storage_direct_address(word)
    assert is_storage_direct_address(Op("and", (word, Const(sym.MASK160))))
    assert not is_caller(P0)
    assert is_caller(Op("and", (CALLER, Const(sym.MASK160))))


def test_a_mapping_entry_is_told_by_its_slot_not_its_name():
    named_like_an_entry = Var("owner[...]", sym.Storage(Const(0)), is_address=True)
    entry_named_plainly = Var("owner", sym.Storage(Op("sha3", (P0, Const(1)))), is_address=True)
    nested = Var("x", sym.Storage(Op("sha3", (P1, Op("sha3", (P0, Const(2)))))), is_address=True)
    assert is_storage_direct_address(named_like_an_entry)
    assert not is_storage_direct_address(entry_named_plainly)
    assert not is_storage_direct_address(nested)
    assert [sym.mapping_base(v.kind.slot)
            for v in (named_like_an_entry, entry_named_plainly, nested)] == [None, 1, 2]


# --------------------------------------------------------------------------
# solver

def _solve(*entries: Constraint) -> str:
    return solve(tuple(entries))


def test_concrete_contradiction_is_unsat():
    assert _solve(Constraint(cs.EQ, Const(1), Const(2))) == cs.UNSAT
    assert _solve(Constraint(cs.ULT, Const(5), Const(3))) == cs.UNSAT
    assert _solve(Constraint(cs.EQ, Const(2), Const(2))) == cs.SAT


def test_structural_negation_pair_is_unsat():
    assert _solve(Constraint(cs.EQ, P0, P1), Constraint(cs.NEQ, P1, P0)) == cs.UNSAT
    assert _solve(Constraint(cs.ULT, P0, P1), Constraint(cs.UGE, P0, P1)) == cs.UNSAT


def test_equality_chain_conflict_is_unsat():
    x, y = P0, P1
    assert _solve(
        Constraint(cs.EQ, x, Const(5)),
        Constraint(cs.EQ, y, Const(5)),
        Constraint(cs.NEQ, x, y),
    ) == cs.UNSAT
    assert _solve(
        Constraint(cs.EQ, x, Const(5)),
        Constraint(cs.EQ, x, Const(6)),
    ) == cs.UNSAT
    assert _solve(Constraint(cs.ZERO, x), Constraint(cs.NONZERO, x)) == cs.UNSAT


def test_transitive_equality_chain():
    x, y, z = P0, P1, CALLER
    assert _solve(
        Constraint(cs.EQ, x, y),
        Constraint(cs.EQ, y, z),
        Constraint(cs.NEQ, x, z),
    ) == cs.UNSAT


def test_satisfiable_set_finds_witness():
    assert _solve(
        Constraint(cs.EQ, CALLER, OWNER_SLOT),
        Constraint(cs.NEQ, P0, Const(0)),
        Constraint(cs.NEQ, P1, Const(0)),
        Constraint(cs.NEQ, MAPPED, P0),
    ) == cs.SAT


def test_arithmetic_relation_is_satisfiable():
    assert _solve(
        Constraint(cs.ULT, P0, Op("add", (P1, Const(1)))),
        Constraint(cs.NONZERO, P1),
    ) == cs.SAT


def test_hash_preimage_query_is_unknown():
    # forcing a keccak output to a fixed constant is beyond the witness search
    probe = Constraint(cs.EQ, Op("sha3", (P0, Const(1))), Const(42))
    assert _solve(probe) == cs.UNKNOWN


def test_extra_constraints_join_the_query():
    cset = (Constraint(cs.EQ, P0, P1),)
    assert solve(cset, extra=(Constraint(cs.NEQ, P0, P1),)) == cs.UNSAT


MASKED_P0 = Op("and", (P0, Const(sym.MASK160)))
WORD = Var("amount", sym.Parameter(2))  # a uint256, not an address
MASKED_WORD = Op("and", (WORD, Const(sym.MASK160)))


# each unsat rule of the solver by one query, beside the pairs and chains
# above: a constraint and an earlier one of the negated relation over the
# same sides (masks that keep a value peeled, either way round for eq and
# neq), and the classes of equal values (two constants in one, a nonzero in
# the class of 0)
@pytest.mark.parametrize("query", [
    (Constraint(cs.EQ, P0, Const(0)), Constraint(cs.NONZERO, P0)),
    (Constraint(cs.ZERO, P0), Constraint(cs.EQ, P0, Const(5))),
    (Constraint(cs.EQ, MASKED_P0, P1), Constraint(cs.NEQ, P0, P1)),
    (Constraint(cs.NEQ, P1, MASKED_P0), Constraint(cs.EQ, P0, P1)),
    (Constraint(cs.EQ, Op("and", (Const(sym.MASK256), WORD)), P0),
     Constraint(cs.NEQ, WORD, P0)),
], ids=["nonzero-in-class-of-0", "zero-and-5", "masked-pair", "swapped-masked-pair",
        "full-width-masked-word"])
def test_each_unsat_rule(query):
    assert solve(query) == cs.UNSAT


# a 160-bit mask keeps only an address: WORD = 2^200 + 5 satisfies both
@pytest.mark.parametrize("query", [
    (Constraint(cs.EQ, MASKED_WORD, P0), Constraint(cs.NEQ, WORD, P0)),
    (Constraint(cs.SGE, WORD, MASKED_WORD), Constraint(cs.SLT, MASKED_WORD, WORD)),
], ids=["masked-word-eq", "masked-word-slt"])
def test_a_160_bit_mask_changes_a_word(query):
    witness = {WORD: 2**200 + 5, P0: 5}
    assert all(c.holds(witness) for c in query)
    assert solve(query) == cs.SAT


def test_swapped_sides_contradict_only_for_eq_and_neq():
    assert _solve(Constraint(cs.ULT, P0, P1), Constraint(cs.UGE, P1, P0)) == cs.SAT
    assert _solve(Constraint(cs.ULT, MASKED_P0, P1), Constraint(cs.UGE, P1, P0)) == cs.SAT


CHAIN = [Var(name, sym.Parameter(index)) for index, name in enumerate("wxyz")]


# each query is sat only through one part of the witness search: the
# all-zero trial (no small distinct or random words sum to 0, and no repair
# reaches a variable inside an add), or all four repair passes (each carries
# the constant one link further up the chain)
@pytest.mark.parametrize("query", [
    (Constraint(cs.EQ, Op("add", (P0, P1)), Const(0)),),
    (Constraint(cs.EQ, CHAIN[0], CHAIN[1]), Constraint(cs.EQ, CHAIN[1], CHAIN[2]),
     Constraint(cs.EQ, CHAIN[2], CHAIN[3]), Constraint(cs.EQ, CHAIN[3], Const(5))),
], ids=["all-zero-trial", "four-repair-passes"])
def test_the_witness_search_needs_each_trial_and_pass(query):
    assert solve(query) == cs.SAT


# one case per branch of the witness search's repair step: the constraint,
# the assignment before, and the variable and value it sets (None: no change)
@pytest.mark.parametrize("constraint,before,repaired", [
    (Constraint(cs.EQ, P0, P1), {P0: 1, P1: 2}, (P0, 2)),
    (Constraint(cs.EQ, Const(5), P0), {P0: 1}, (P0, 5)),
    (Constraint(cs.ZERO, P0), {P0: 7}, (P0, 0)),
    (Constraint(cs.NONZERO, P0), {P0: 0}, (P0, 1)),
    (Constraint(cs.NEQ, P0, P1), {P0: 3, P1: 3}, (P0, 4)),
    (Constraint(cs.NEQ, Const(sym.MASK256), P0), {P0: sym.MASK256}, (P0, 0)),
    (Constraint(cs.EQ, Op("add", (P0, Const(1))), Const(3)), {P0: 1}, None),
], ids=["eq-var-left", "eq-var-right", "zero", "nonzero", "neq-var-left",
        "neq-var-right-wraps", "no-variable"])
def test_repair_sets_the_variable_it_can(constraint, before, repaired):
    env = dict(before)
    assert cs._repair(constraint, env) is (repaired is not None)
    expected = dict(before)
    if repaired is not None:
        expected[repaired[0]] = repaired[1]
    assert env == expected


_var_pool = [P0, P1, CALLER, OWNER_SLOT]
_side = st.one_of(
    st.sampled_from(_var_pool),
    st.integers(min_value=0, max_value=7).map(Const),
)
_constraint = st.builds(
    Constraint,
    relation=st.sampled_from([cs.EQ, cs.NEQ, cs.ULT, cs.ULE, cs.ZERO, cs.NONZERO]),
    lhs=_side,
    rhs=_side,
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_constraint, max_size=5), _constraint)
def test_adding_both_polarities_is_never_sat(entries, probe):
    """S + {c, not c} must never be reported satisfiable."""
    cset = tuple(entries) + (probe, probe.negated())
    assert solve(cset) in (cs.UNSAT, cs.UNKNOWN)


def test_witness_search_is_deterministic():
    query = (
        Constraint(cs.NEQ, P0, P1),
        Constraint(cs.EQ, CALLER, OWNER_SLOT),
    )
    assert {solve(query) for _ in range(5)} == {cs.SAT}


# three variables named x: their order in the witness search once followed
# string hashing, which PYTHONHASHSEED sets per process
_SAME_NAMES = """
from sleepscan import constraints as cs
from sleepscan.constraints import Constraint
from sleepscan.sym import Environment, FreshExternal, Parameter, Var

xs = [Var("x", Parameter(0)), Var("x", Environment("caller")), Var("x", FreshExternal("call"))]
orders = []
initial = cs._initial_assignment

def recording(variables, rng, trial):
    orders.append([type(v.kind).__name__ for v in variables])
    return initial(variables, rng, trial)

cs._initial_assignment = recording
found = cs._find_witness([Constraint(cs.NEQ, xs[0], xs[1]), Constraint(cs.NEQ, xs[1], xs[2]),
                          Constraint(cs.NONZERO, xs[2])], None)
print(found, orders[0])
"""


def test_witness_search_order_is_independent_of_the_hash_seed():
    outputs = set()
    for seed in ("1", "3"):  # two seeds that ordered the three apart
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(cs.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", _SAME_NAMES], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout)
    assert outputs == {"True ['Parameter', 'Environment', 'FreshExternal']\n"}
