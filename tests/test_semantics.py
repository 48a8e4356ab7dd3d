import json
import random

import pytest

from genlib import brute_sat_q, naive_sat_flat, random_flat_formula
from rpcalc.formulas import Atom, Const, Not, RApp
from rpcalc.semantics import (
    EMPTY_STRUCTURE,
    Structure,
    UnassignedAtomError,
    _eval,
    eval_formula,
    sat_pc,
    sequent_valid,
    valid_pc,
)
from rpcalc.syntax import parse_formula, parse_sequent


def test_eval_validity_example_instance():
    f = parse_formula("(R(p) & R(~p)) => (R(q) | R(~q))")
    assert eval_formula(f, Structure({"p": 1, "q": 0}, frozenset())) == 1


def test_eval_constants_and_nullary_r():
    assert eval_formula(Const(1), EMPTY_STRUCTURE) == 1
    assert eval_formula(RApp(()), Structure({}, frozenset({""}))) == 1
    assert eval_formula(RApp(()), EMPTY_STRUCTURE) == 0


def test_eval_unassigned_atom():
    with pytest.raises(UnassignedAtomError) as err:
        eval_formula(Atom("p"), EMPTY_STRUCTURE)
    assert err.value.name == "p"


def test_eval_quantifiers_range_over_bits():
    assert eval_formula(parse_formula("all x. x | ~x"), EMPTY_STRUCTURE) == 1
    assert eval_formula(parse_formula("ex x. x"), EMPTY_STRUCTURE) == 1
    assert eval_formula(parse_formula("all x. x"), EMPTY_STRUCTURE) == 0
    # bound variable shadows the structure assignment
    assert eval_formula(parse_formula("all p. (p | ~p)"), Structure({"p": 1}, frozenset())) == 1


def test_eval_nested_r():
    # R(R(p)) with p=1: the inner application queries "1" and the outer
    # queries whatever bit that produced.
    f = RApp((RApp((Atom("p"),)),))
    assert eval_formula(f, Structure({"p": 1}, frozenset({"1"}))) == 1
    assert eval_formula(f, Structure({"p": 1}, frozenset())) == 0
    assert eval_formula(f, Structure({"p": 1}, frozenset({"0"}))) == 1


def test_structure_json_roundtrip():
    s = Structure({"p": 1, "q": 0}, frozenset({"010", "", "1"}))
    data = json.loads(s.dumps())
    assert data == {"atoms": {"p": 1, "q": 0}, "oracle": ["", "010", "1"]}
    assert Structure.from_json(data) == s


def test_structure_validation():
    for bit in (2, True, False, 1.0):  # a bit is the int 0 or 1, not a bool or float
        with pytest.raises(ValueError):
            Structure({"p": bit}, frozenset())
    with pytest.raises(ValueError):
        Structure({}, frozenset({"01x"}))


@pytest.mark.parametrize(
    "data",
    [[1, 2], "01", {"atoms": []}, {"atoms": {"p": True}}, {"atoms": {"p": 1.0}}, {"atoms": None},
     {"oracle": 5}, {"oracle": "01"}, {"oracle": [1]}, {"oracle": ["1", None]}],
)
def test_structure_from_json_rejects_other_shapes(data):
    with pytest.raises(ValueError):
        Structure.from_json(data)


def test_sat_example_with_exact_witness():
    w = sat_pc(parse_formula("R(p) & ~R(1)"))
    assert w == Structure({"p": 0}, frozenset({"0"}))


def test_sat_trivia():
    assert sat_pc(Const(0)) is None
    assert sat_pc(parse_formula("~((R(p) & R(~p)) => (R(q) | R(~q)))")) is None
    with pytest.raises(ValueError, match="sat_pc expects a quantifier-free formula"):
        sat_pc(parse_formula("p & all x. R(x)"))


def test_shared_query_strings_are_consistent():
    # Both occurrences evaluate the same string, hence one unknown.
    assert sat_pc(parse_formula("R(p & q) & ~R(q & p)")) is None
    assert sat_pc(parse_formula("R(p) & ~R(~p)")) is not None


def test_valid_pc_examples():
    assert valid_pc(parse_formula("(R(p) & R(~p)) => (R(q) | R(~q))"))
    assert not valid_pc(parse_formula("R(p)"))
    assert sequent_valid(parse_sequent("R(1) |- R(1)"))
    assert not sequent_valid(parse_sequent("|-"))


def test_witnesses_always_check():
    rng = random.Random(21)
    for _ in range(150):
        f = random_flat_formula(rng)
        w = sat_pc(f)
        if w is not None:
            assert eval_formula(f, w) == 1


def test_sat_matches_naive_enumeration():
    rng = random.Random(22)
    disagreements = 0
    for _ in range(150):
        f = random_flat_formula(rng)
        fast = sat_pc(f)
        slow = naive_sat_flat(f)
        if (fast is None) != (slow is None):
            disagreements += 1
    assert disagreements == 0


def test_naive_enumeration_rejects_nested_r():
    # a ValueError, not an assert, so python -O cannot turn it into a
    # wrong answer (sat_pc finds {"1", "11"} here)
    f = parse_formula("R(R(1), 1) & R(1) & ~R(0, 1)")
    assert sat_pc(f) is not None
    with pytest.raises(ValueError, match="R arguments without R"):
        naive_sat_flat(f)


def test_sat_nested_r_against_full_enumeration():
    # Nested oracles: compare against enumerating all subsets of every
    # string of the occurring arities (1 and 2).
    import itertools

    from rpcalc.formulas import And, free_atoms

    rng = random.Random(23)
    space = [
        s for m in (1, 2) for s in ("".join(b) for b in itertools.product("01", repeat=m))
    ]
    for _ in range(30):
        inner = random_flat_formula(rng, max_r=0, depth=1)
        f = RApp((inner, Const(rng.randint(0, 1))))
        if rng.random() < 0.5:
            f = Not(f)
        formula = RApp((f,))  # arity-1 query fed by an arity-2 query
        if rng.random() < 0.5:
            formula = And(formula, f)
        atoms = sorted(free_atoms(formula))
        slow_sat = False
        for bits in itertools.product((0, 1), repeat=len(atoms)):
            env = dict(zip(atoms, bits))
            for mask in range(1 << len(space)):
                oracle = frozenset(s for j, s in enumerate(space) if mask >> j & 1)
                if eval_formula(formula, Structure(env, oracle)) == 1:
                    slow_sat = True
                    break
            if slow_sat:
                break
        fast = sat_pc(formula)
        assert (fast is not None) == slow_sat
        if fast is not None:
            assert eval_formula(formula, fast) == 1


def eval_recording(f, structure):
    """Evaluate and report the oracle strings actually queried."""
    queried = set()

    def lookup(s):
        queried.add(s)
        return 1 if s in structure.oracle else 0

    return _eval(f, dict(structure.atoms), lookup), frozenset(queried)


def test_eval_depends_only_on_queried_strings():
    rng = random.Random(24)
    for _ in range(100):
        f = random_flat_formula(rng)
        atoms = {name: rng.randint(0, 1) for name in sorted({a.name for a in _atoms(f)})}
        oracle = frozenset(
            "".join(rng.choice("01") for _ in range(rng.randint(0, 3))) for _ in range(3)
        )
        base = Structure(atoms, oracle)
        value, queried = eval_recording(f, base)
        for _ in range(5):
            extra = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
            if extra in queried:
                continue
            fuzzed = Structure(atoms, oracle | {extra})
            assert eval_formula(f, fuzzed) == value


def _atoms(f):
    from rpcalc.formulas import Atom as A, walk

    return [g for g in walk(f) if isinstance(g, A)]


def test_brute_force_validity():
    # f is valid iff its negation has no satisfying oracle
    assert brute_sat_q(Not(parse_formula("ex x. (R(x) | ~R(x))"))) is None
    assert brute_sat_q(Not(parse_formula("all x. R(x)"))) is not None
    with pytest.raises(ValueError):
        brute_sat_q(parse_formula("all x. R(x) & R(x, x)"))
    with pytest.raises(ValueError):
        brute_sat_q(parse_formula("R(p)"))
    # no oracle applications at all: plain evaluation
    assert brute_sat_q(Not(parse_formula("all x. x | ~x"))) is None
