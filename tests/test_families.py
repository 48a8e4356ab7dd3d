import random

import pytest

from genlib import brute_sat_q, classify, rapp_arities
from rpcalc.families import weak_pigeonhole
from rpcalc.formulas import Not
from rpcalc.semantics import EMPTY_STRUCTURE, Structure, all_strings, eval_formula
from rpcalc.syntax import length


def test_classification_and_arity():
    for n in (1, 2, 3):
        f = weak_pigeonhole(n)
        assert classify(f) == "sigma2"
        assert rapp_arities(f) == {3 * n}


def test_empty_oracle_satisfies():
    assert eval_formula(weak_pigeonhole(1), EMPTY_STRUCTURE) == 1


def test_n1_valid_by_exhaustive_enumeration():
    assert brute_sat_q(Not(weak_pigeonhole(1)), max_arity=3) is None


def test_n2_on_random_structures():
    f = weak_pigeonhole(2)
    rng = random.Random(71)
    space = all_strings(6)
    for _ in range(50):
        oracle = frozenset(s for s in space if rng.random() < 0.5)
        assert eval_formula(f, Structure({}, oracle)) == 1


def test_length_linear():
    sizes = [length(weak_pigeonhole(n)) for n in range(1, 6)]
    deltas = {b - a for a, b in zip(sizes, sizes[1:])}
    assert len(deltas) == 1  # a fixed template over 6n variables


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        weak_pigeonhole(0)
