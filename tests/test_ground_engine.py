"""The ground engine against a reference copy of the state-copying
solver that sat_pi1 used for its ground constraints.  sat_pc and
sat_pi1 share the engine's one branch rule, so both must agree with it
byte for byte (Structure.dumps)."""

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genlib import (
    first_symbol_one_machine,
    guess_branch_machine,
    immediate_accept_machine,
    random_flat_formula,
    reference_fold,
)
from rpcalc import semantics
from rpcalc.formulas import (
    And,
    Atom,
    Const,
    Formula,
    Not,
    Or,
    RApp,
    and_all,
    flatten_and,
    or_all,
    walk,
)
from rpcalc.semantics import SAT, UNSAT, Pi1Result, SolverLimits, Structure, sat_pc, sat_pi1
from rpcalc.syntax import format_formula, parse_formula
from rpcalc.tableau import compile_with_info

WIDE = SolverLimits(max_universal_vars=128, max_oracle_strings=1 << 16, max_structures=1 << 22)


# ---------------------------------------------------------------------------
# Reference: unit propagation that copies its whole state at every
# decision and branches on the least key of the active constraints.


def _ref_as_literal(g):
    positive = 1
    if isinstance(g, Not):
        positive = 0
        g = g.child
    if isinstance(g, Atom):
        return ("a", g.name), positive
    if isinstance(g, RApp) and all(isinstance(a, Const) for a in g.args):
        return ("s", "".join(str(a.bit) for a in g.args)), positive
    return None


def _ref_constraint_keys(g):
    keys = set()
    for h in walk(g):
        if isinstance(h, Atom):
            keys.add(("a", h.name))
        elif isinstance(h, RApp) and all(isinstance(a, Const) for a in h.args):
            keys.add(("s", "".join(str(a.bit) for a in h.args)))
    return keys


@dataclass
class _RefState:
    atoms: dict
    strings: dict
    active: dict
    watch: dict

    def copy(self):
        return _RefState(
            dict(self.atoms),
            dict(self.strings),
            dict(self.active),
            {k: set(v) for k, v in self.watch.items()},
        )

    def lookup(self, key):
        table = self.atoms if key[0] == "a" else self.strings
        return table.get(key[1])


class ReferenceSolver:
    def __init__(self, constraints, limits):
        self.limits = limits
        self.initial = list(constraints)
        self._next_id = 0

    def solve(self):
        state = _RefState({}, {}, {}, {})
        dirty = []
        for g in self.initial:
            cid = self._next_id
            self._next_id += 1
            state.active[cid] = g
            dirty.append(cid)
        return self._search(state, dirty)

    def _assign(self, state, key, bit, dirty):
        old = state.lookup(key)
        if old is not None:
            return old == bit
        if key[0] == "s":
            if len(state.strings) >= self.limits.max_oracle_strings:
                raise semantics.BudgetExceeded("solver exceeded max_oracle_strings")
            state.strings[key[1]] = bit
        else:
            state.atoms[key[1]] = bit
        dirty.extend(state.watch.pop(key, ()))
        return True

    def _propagate(self, state, dirty):
        while dirty:
            cid = dirty.pop()
            g = state.active.pop(cid, None)
            if g is None:
                continue
            g = reference_fold(g, state.atoms, state.strings)
            if isinstance(g, Const):
                if g.bit == 0:
                    return False
                continue
            for part in flatten_and(g):
                unit = _ref_as_literal(part)
                if unit is not None:
                    key, bit = unit
                    if not self._assign(state, key, bit, dirty):
                        return False
                    continue
                pid = self._next_id
                self._next_id += 1
                state.active[pid] = part
                touched = False
                for key in _ref_constraint_keys(part):
                    if state.lookup(key) is not None:
                        touched = True
                    else:
                        state.watch.setdefault(key, set()).add(pid)
                if touched:
                    dirty.append(pid)
        return True

    def _branch_key(self, state):
        best = None
        for g in state.active.values():
            for key in _ref_constraint_keys(g):
                if state.lookup(key) is not None:
                    continue
                if best is None or key < best:
                    best = key
        return best

    def _search(self, state, dirty):
        if not self._propagate(state, dirty):
            return None
        if not state.active:
            return state.atoms, state.strings
        key = self._branch_key(state)
        if key is None:
            return None
        for bit in (0, 1):
            branch = state.copy()
            dirty2 = []
            if not self._assign(branch, key, bit, dirty2):
                continue
            result = self._search(branch, dirty2)
            if result is not None:
                return result
        return None


def reference_sat_pi1(f, limits=WIDE) -> Pi1Result:
    """sat_pi1 with its ground solve done by the reference solver."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            semantics,
            "_solve_constraints",
            lambda constraints, lim, counters: ReferenceSolver(constraints, lim).solve(),
        )
        return sat_pi1(f, limits)


# ---------------------------------------------------------------------------


def dumps(witness: Optional[Structure]) -> Optional[str]:
    return None if witness is None else witness.dumps()


def assert_sat_pc_agrees(f):
    got = dumps(sat_pc(f))
    assert got == dumps(reference_sat_pi1(f).witness), format_formula(f)
    assert got == dumps(sat_pi1(f, WIDE).witness), format_formula(f)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(3, 3, 3), (2, 3, 4), (4, 2, 3)]),
    st.sampled_from(["plain", "negated", "negated_or"]),
)
def test_sat_pc_matches_reference_on_flat_formulas(seed, shape, sign):
    # negated inputs are what valid_pc and the CLI's valid hand sat_pc,
    # whose ~(A | B) parts the engine opens into ~A and ~B
    max_r, max_arity, depth = shape
    rng = random.Random(seed)
    f = random_flat_formula(rng, max_r=max_r, max_arity=max_arity, depth=depth)
    if seed % 3:
        f = And(f, Not(random_flat_formula(rng, max_r=1, depth=3)))
    if sign == "negated":
        f = Not(f)
    elif sign == "negated_or":
        f = Not(Or(f, random_flat_formula(rng, max_r=max_r, max_arity=max_arity, depth=depth)))
    assert_sat_pc_agrees(f)


LEAVES = [Atom("p"), Atom("q"), Atom("s"), Const(0), Const(1)]


@st.composite
def nested_r(draw, depth=3):
    """Quantifier-free formulas whose R arguments hold R applications."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(LEAVES))
    op = draw(st.sampled_from(["r", "r", "not", "and", "or"]))
    if op == "r":
        return RApp(tuple(draw(st.lists(nested_r(depth - 1), min_size=1, max_size=2))))
    if op == "not":
        return Not(draw(nested_r(depth - 1)))
    left, right = draw(nested_r(depth - 1)), draw(nested_r(depth - 1))
    return And(left, right) if op == "and" else Or(left, right)


@st.composite
def short_circuited_query(draw):
    """R(R(A op l, c)) and variants, alone or beside another formula.
    Evaluation queries the strings of A before the leaf l can make them
    irrelevant, so the folded formula no longer shows those queries."""
    arg = draw(st.sampled_from([And, Or]))(draw(nested_r(2)), draw(st.sampled_from(LEAVES)))
    if draw(st.booleans()):
        arg = Not(arg)
    pad = draw(st.sampled_from(LEAVES))
    outer = RApp((RApp((arg, pad) if draw(st.booleans()) else (pad, arg)),))
    if draw(st.booleans()):
        outer = Not(outer)
    kind = draw(st.sampled_from(["alone", "and", "or"]))
    if kind == "alone":
        return outer
    parts = draw(st.permutations([outer, draw(nested_r())]))
    return And(*parts) if kind == "and" else Or(*parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(nested_r(), short_circuited_query()))
# two literals of one opened part clash (both UNSAT)
@example(parse_formula("(q | p & ~p) & ~q"))
@example(parse_formula("(q | (p & ~p)) & (~q | r) & ~r"))
def test_sat_pc_matches_reference_on_nested_r_formulas(f):
    assert_sat_pc_agrees(f)


def test_nested_r_witness_is_the_least_model():
    # Atoms first: p = 0, then s = 0 folds R(p) & s to 0 before R(0) is
    # decided, so the middle string is "01".  "01" goes out, the outer
    # R then reads "0", and "0" out fails, so "0" goes in.
    f = parse_formula("R(R(R(p) & s, 1))")
    assert sat_pc(f).dumps() == '{"atoms": {"p": 0, "s": 0}, "oracle": ["0"]}'
    assert_sat_pc_agrees(f)


def pigeonhole(pigeons: int, holes: int) -> Formula:
    """Ground PHP: R(pigeon bits, hole bits) says where a pigeon sits."""
    pw, hw = max(1, (pigeons - 1).bit_length()), max(1, (holes - 1).bit_length())

    def sits(i: int, j: int) -> RApp:
        bits = [(i >> k) & 1 for k in range(pw)] + [(j >> k) & 1 for k in range(hw)]
        return RApp(tuple(Const(b) for b in bits))

    parts = [or_all(sits(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                parts.append(Not(And(sits(i, j), sits(k, j))))
    return and_all(parts)


def reparsed_compile(machine, x, t):
    formula, _ = compile_with_info(machine, x, t)
    return parse_formula(format_formula(formula))


PI1_CASES = {
    "php4_4": lambda: pigeonhole(4, 4),
    "php5_5": lambda: pigeonhole(5, 5),
    "php5_4": lambda: pigeonhole(5, 4),
    "php6_5": lambda: pigeonhole(6, 5),
    "php6_6": lambda: pigeonhole(6, 6),
    "first1_10": lambda: reparsed_compile(first_symbol_one_machine(), "10", 1),
    "first1_01": lambda: reparsed_compile(first_symbol_one_machine(), "01", 1),
    "guess_1": lambda: reparsed_compile(guess_branch_machine(), "1", 1),
    "guess_0": lambda: reparsed_compile(guess_branch_machine(), "0", 1),
    "accept": lambda: reparsed_compile(immediate_accept_machine(), "", 1),
}


@pytest.mark.parametrize("name", sorted(PI1_CASES))
def test_sat_pi1_matches_reference_solver(name):
    f = PI1_CASES[name]()
    expected = reference_sat_pi1(f)
    got = sat_pi1(f, WIDE)
    assert got.status == expected.status
    assert dumps(got.witness) == dumps(expected.witness)


@pytest.mark.parametrize("size", [(4, 4), (5, 5), (4, 3), (5, 4)])
def test_sat_pc_matches_reference_on_pigeonhole(size):
    f = pigeonhole(*size)
    witness = sat_pc(f)
    assert (witness is None) == (size[0] > size[1])
    assert dumps(witness) == dumps(reference_sat_pi1(f).witness)


def test_solver_counters():
    # PHP(3, 2): pigeon 0 tried out of hole 0, then in it.  Either way
    # five strings follow by propagation before a hole overflows.
    r = sat_pi1(pigeonhole(3, 2), WIDE)
    assert r.status == UNSAT
    assert {k: r.stats[k] for k in ("decisions", "conflicts", "units")} == {
        "decisions": 2,
        "conflicts": 2,
        "units": 10,
    }
    r = sat_pi1(pigeonhole(3, 3), WIDE)
    assert r.status == SAT
    # the counters are reported beside the answer, not part of it
    assert r == Pi1Result(r.status, r.witness, r.reason)
