import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import (
    brute_sat_q,
    first_symbol_one_machine,
    guess_branch_machine,
    immediate_accept_machine,
    naive_holds_universally,
    reference_fold,
)
from rpcalc import semantics
from rpcalc.formulas import (
    FALSE,
    And,
    Atom,
    Const,
    Forall,
    Not,
    Or,
    RApp,
    and_all,
    atom_names_fast,
    flatten_and,
    foralls,
    free_atoms,
    fold_assign,
    iff,
    implies,
)
from rpcalc.semantics import (
    BUDGET_EXCEEDED,
    SAT,
    UNSAT,
    BudgetExceeded,
    SolverLimits,
    Structure,
    UnsupportedShapeError,
    eval_formula,
    holds_universally,
    pull_universals,
    sat_pc,
    sat_pi1,
)
from rpcalc.syntax import format_formula, parse_formula
from rpcalc.tableau import compile_with_info

WIDE = SolverLimits(max_universal_vars=128, max_oracle_strings=1 << 16, max_structures=1 << 22)


def reparsed_compile(machine, x, t):
    """A compiled machine formula as the CLI solves it: printed and
    parsed back, so no structure is shared with the compiler's output."""
    formula, _ = compile_with_info(machine, x, t)
    return parse_formula(format_formula(formula))


def test_examples():
    r = sat_pi1(parse_formula("all s. ~R(s)"))
    assert r.status == SAT
    assert r.witness == Structure({}, frozenset())

    assert sat_pi1(parse_formula("(all s. ~R(s)) & R(1)")).status == UNSAT


def test_budget_exceeded_universals():
    f = foralls([f"v{i}" for i in range(30)], Atom("v0"))
    r = sat_pi1(f, SolverLimits(max_universal_vars=8))
    assert r.status == BUDGET_EXCEEDED
    assert "universal" in r.reason


def test_budget_exceeded_structures():
    f = foralls([f"v{i}" for i in range(10)], Or(RApp(tuple(Atom(f"v{i}") for i in range(10))), Atom("v0")))
    r = sat_pi1(f, SolverLimits(max_universal_vars=16, max_structures=64))
    assert r.status == BUDGET_EXCEEDED


def test_budget_exceeded_oracle_strings():
    # the expansion counts the strings its leaves name; the ground solver
    # counts the strings it assigns
    f = parse_formula("all x. all y. R(x, y) | R(y, x) | R(x, x)")
    r = sat_pi1(f, SolverLimits(max_oracle_strings=2))
    assert (r.status, r.reason) == (BUDGET_EXCEEDED, "expansion exceeded max_oracle_strings")
    f = parse_formula("R(R(p)) & R(R(q)) & ~R(R(R(p)))")
    r = sat_pi1(f, SolverLimits(max_oracle_strings=1))
    assert (r.status, r.reason) == (BUDGET_EXCEEDED, "solver exceeded max_oracle_strings")
    assert sat_pi1(f).status == SAT


def test_exact_check_raises_on_budget():
    # sat_pi1 turns the raise into BUDGET_EXCEEDED; the exact check has
    # no answer to give, so the raise is its outcome
    f = parse_formula("all x. all y. R(x, y) | ~R(y, x)")
    with pytest.raises(BudgetExceeded, match="max_structures"):
        holds_universally(f, Structure({}, frozenset()), max_structures=1)
    assert holds_universally(f, Structure({}, frozenset()))


def test_unsupported_shape():
    with pytest.raises(UnsupportedShapeError):
        sat_pi1(parse_formula("ex x. R(x)"))
    with pytest.raises(UnsupportedShapeError):
        sat_pi1(parse_formula("~(all x. R(x))"))
    # the exact check needs a closed formula: a free atom has no value
    with pytest.raises(ValueError, match="expects a closed formula"):
        holds_universally(parse_formula("p | all x. x"), Structure({"p": 1}, frozenset()))


def test_free_atoms_are_existential():
    r = sat_pi1(parse_formula("p & (all s. (R(s) => p))"))
    assert r.status == SAT
    assert r.witness.atoms == {"p": 1}


def test_pull_universals_through_connectives():
    uvars, matrix = pull_universals(parse_formula("(all x. R(x)) & (all x. ~R(x, x))"))
    assert len(uvars) == 2
    assert len(set(uvars)) == 2


def test_quantifier_free_input():
    r = sat_pi1(parse_formula("R(p) & ~R(1)"))
    assert r.status == SAT
    assert eval_formula(parse_formula("R(p) & ~R(1)"), r.witness) == 1


def _random_pi1(rng: random.Random, arity: int):
    names = ["x0", "x1", "x2"][: rng.randint(1, 3)]

    def matrix(d):
        if d == 0 or rng.random() < 0.35:
            if rng.random() < 0.6:
                args = tuple(
                    Atom(rng.choice(names)) if rng.random() < 0.7 else Const(rng.randint(0, 1))
                    for _ in range(arity)
                )
                return RApp(args)
            return Atom(rng.choice(names)) if rng.random() < 0.7 else Const(rng.randint(0, 1))
        roll = rng.random()
        if roll < 0.34:
            return Not(matrix(d - 1))
        if roll < 0.67:
            return And(matrix(d - 1), matrix(d - 1))
        return Or(matrix(d - 1), matrix(d - 1))

    return foralls(names, matrix(3))


def test_agreement_with_brute_force_suite():
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        arity = rng.randint(1, 3)
        f = _random_pi1(rng, arity)
        if free_atoms(f):
            continue
        fast = sat_pi1(f, SolverLimits(max_universal_vars=8, max_oracle_strings=512))
        slow = brute_sat_q(f, max_arity=3)
        assert fast.status in (SAT, UNSAT)
        assert (fast.status == SAT) == (slow is not None), f
        checked += 1
        if fast.status == SAT:
            # valid formulas must also come out satisfiable
            if brute_sat_q(Not(f), max_arity=3) is None:
                assert slow is not None
    assert checked >= 80


def test_validity_cross_check_via_negated_expansion():
    # For closed pi1 f with matrix M over universals x:
    # f invalid  iff  OR over assignments of ~M[x] is satisfiable.
    rng = random.Random(32)
    from rpcalc.formulas import or_all
    import itertools

    for _ in range(40):
        f = _random_pi1(rng, rng.randint(1, 2))
        if free_atoms(f):
            continue
        uvars, matrix = pull_universals(f)
        disjuncts = []
        for bits in itertools.product((0, 1), repeat=len(uvars)):
            disjuncts.append(Not(fold_assign(matrix, dict(zip(uvars, bits)))))
        negated_expansion = or_all(disjuncts)
        assert (brute_sat_q(Not(f), max_arity=3) is None) == (sat_pc(negated_expansion) is None)


def test_sat_witness_verifies_exhaustively():
    rng = random.Random(33)
    for _ in range(40):
        f = _random_pi1(rng, rng.randint(1, 2))
        r = sat_pi1(f, SolverLimits(max_universal_vars=8))
        if r.status == SAT:
            # evaluate the original formula directly (exponential but tiny)
            assert eval_formula(f, r.witness) == 1


def test_structure_budget_bounds_expansion_time():
    # without a charge per folded instance this expansion runs to its
    # 465 leaves, which took about 50 s
    f = reparsed_compile(first_symbol_one_machine(), "10", 3)
    limits = SolverLimits(max_universal_vars=128, max_oracle_strings=1 << 16, max_structures=500)
    start = time.perf_counter()
    r = sat_pi1(f, limits)
    elapsed = time.perf_counter() - start
    assert r.status == BUDGET_EXCEEDED
    assert r.reason == "expansion exceeded max_structures"
    assert r.stats["folds"] == 501
    assert elapsed < 30


def test_expansion_counters():
    r = sat_pi1(reparsed_compile(first_symbol_one_machine(), "10", 2), WIDE)
    assert r.status == SAT
    assert r.stats == {
        "folds": 207, "leaves": 113, "forced": 810, "branches": 92, "ground_constraints": 113,
        "decisions": 0, "conflicts": 0, "units": 256,
    }
    # branching on every gate and output variable took 4,369 expansion
    # calls; forcing them leaves a small fraction of that
    assert r.stats["folds"] < 4369 // 8
    assert r.stats["forced"] > r.stats["branches"] > 0
    assert 0 < r.stats["ground_constraints"] <= r.stats["leaves"] <= r.stats["folds"]
    # the counters are reported beside the answer, not part of it
    assert r == semantics.Pi1Result(r.status, r.witness, r.reason)


def split_prefix(f):
    """The leading universal variables of f, in order, and the body
    under them, with no renaming (unlike pull_universals)."""
    uvars = []
    while isinstance(f, Forall):
        uvars.append(f.var)
        f = f.body
    return uvars, f


def test_a_reversed_prefix_keeps_the_answer_at_a_higher_cost():
    # with the prefix reversed, gate and output variables come before the
    # circuit inputs, so the expansion branches on them instead of
    # forcing them: 595 folds and 387 branches, against 207 and 92 in
    # the compiler's inputs-first order
    uvars, f = split_prefix(reparsed_compile(first_symbol_one_machine(), "10", 2))
    r = sat_pi1(foralls(reversed(uvars), f), WIDE)
    assert (r.status, r.stats["folds"], r.stats["branches"]) == (SAT, 595, 387)
    assert r.witness == sat_pi1(foralls(uvars, f), WIDE).witness


def naive_expand(conjunct, uvars, limits=None, counters=None):
    """Reference expansion: branch on every universal still occurring,
    in prefix order, and drop the instances that fold to 1.  It folds
    with the tests' own reference_fold, not the library's."""
    out = []

    def rec(g, remaining):
        if isinstance(g, Const):
            if g.bit == 0:
                out.append(FALSE)
            return
        present = atom_names_fast(g)
        remaining = [v for v in remaining if v in present]
        if not remaining:
            out.append(g)
            return
        for bit in (0, 1):
            rec(reference_fold(g, {remaining[0]: bit}), remaining[1:])

    rec(reference_fold(conjunct, {}), list(uvars))
    return out


def assert_expansions_agree(f):
    uvars, matrix = pull_universals(f)
    for conjunct in flatten_and(matrix):
        counters = semantics._expansion_counters()
        fast = [format_formula(g) for g in semantics._expand(conjunct, uvars, WIDE, counters)]
        slow = [format_formula(g) for g in naive_expand(conjunct, uvars)]
        # each distinct constraint once, and exactly the reference's ones
        assert sorted(fast) == sorted(set(slow))
    expected = sat_pi1(f, WIDE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_expand", naive_expand)
        reference = sat_pi1(f, WIDE)
    assert expected.status == reference.status
    assert expected.witness == reference.witness


INPUTS = ("x0", "x1", "x2")
FREE = ("p", "q")


@st.composite
def small_formula(draw, refs, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(["ref", "free", "const", "rapp"]))
        if kind == "ref":
            return draw(st.sampled_from(refs))
        if kind == "free":
            return Atom(draw(st.sampled_from(FREE)))
        if kind == "const":
            return Const(draw(st.integers(0, 1)))
        args = draw(
            st.lists(st.sampled_from(refs + [Const(0), Const(1)]), min_size=1, max_size=2)
        )
        return RApp(tuple(args))
    op = draw(st.sampled_from(["not", "and", "or"]))
    if op == "not":
        return Not(draw(small_formula(refs, depth - 1)))
    left = draw(small_formula(refs, depth - 1))
    right = draw(small_formula(refs, depth - 1))
    return And(left, right) if op == "and" else Or(left, right)


@st.composite
def guarded(draw, tag, depth=1):
    """~(defs & extra guards) | body: the defs are gate biconditionals
    over the inputs and earlier gates, as circuit_to_formula writes them;
    the body may start with a bare literal or hold a nested guard."""
    refs = [Atom(v) for v in INPUTS]
    parts = []
    for j in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(refs)), draw(st.sampled_from(refs))
        op = draw(st.sampled_from(["not", "and", "or", "copy"]))
        expr = {"not": Not(a), "and": And(a, b), "or": Or(a, b), "copy": a}[op]
        gate = Atom(f"g{tag}_{j}")
        parts.append(iff(gate, expr))
        refs.append(gate)
    for _ in range(draw(st.integers(0, 2))):
        ref = draw(st.sampled_from(refs))
        parts.append(draw(st.one_of(st.just(ref), st.just(Not(ref)), small_formula(refs, 1))))
    parts = draw(st.permutations(parts))
    kind = draw(st.sampled_from(["plain", "bare", "nested"] if depth else ["plain", "bare"]))
    if kind == "nested":
        body = draw(guarded(f"{tag}n", depth - 1))
    else:
        body = draw(small_formula(refs))
        if kind == "bare":
            ref = draw(st.sampled_from(refs))
            body = Or(draw(st.sampled_from([ref, Not(ref)])), body)
    return implies(and_all(parts), body) if parts else body


@st.composite
def guarded_pi1(draw):
    conjuncts = [draw(guarded(str(i))) for i in range(draw(st.integers(1, 3)))]
    matrix = and_all(conjuncts)
    names = sorted(atom_names_fast(matrix) - set(FREE))
    return foralls(names, matrix)


@settings(max_examples=150)
@given(guarded_pi1())
def test_expansion_matches_naive_reference_on_guarded_formulas(f):
    assert_expansions_agree(f)


@settings(max_examples=150)
@given(guarded_pi1(), st.data())
def test_prefix_order_changes_only_the_cost(f, data):
    # the expansion branches in prefix order; any order must give each
    # conjunct the same ground instances, and so the same answer
    uvars, body = split_prefix(f)
    shuffled = foralls(data.draw(st.permutations(uvars)), body)
    (ours, matrix), (theirs, same) = pull_universals(f), pull_universals(shuffled)
    for g, h in zip(flatten_and(matrix), flatten_and(same)):
        # the pulls name the universals by prefix position, but a ground
        # instance holds none of them
        first = semantics._expand(g, ours, WIDE, semantics._expansion_counters())
        second = semantics._expand(h, theirs, WIDE, semantics._expansion_counters())
        assert set(first) == set(second)
    expected, got = sat_pi1(f, WIDE), sat_pi1(shuffled, WIDE)
    assert (got.status, got.witness) == (expected.status, expected.witness)


@pytest.mark.parametrize(
    "machine, x",
    [
        (first_symbol_one_machine, "10"),
        (first_symbol_one_machine, "01"),
        (guess_branch_machine, "1"),
        (guess_branch_machine, "0"),
        (immediate_accept_machine, ""),
    ],
)
def test_expansion_matches_naive_reference_on_compiled_machines(machine, x):
    assert_expansions_agree(reparsed_compile(machine(), x, 1))


@st.composite
def closed_pi1(draw, depth=2):
    """Closed pi1 formulas: universals under & and | with binder names
    reused across branches, over guarded or unguarded matrices, closed
    by a universal prefix over whatever is left free."""

    def spine(d):
        kind = draw(st.sampled_from(["leaf", "all", "and", "or"] if d else ["leaf"]))
        if kind == "leaf":
            if draw(st.booleans()):
                return draw(guarded(str(draw(st.integers(0, 1))), depth=0))
            return draw(small_formula([Atom(v) for v in INPUTS]))
        if kind == "all":
            return Forall(draw(st.sampled_from(INPUTS)), spine(d - 1))
        return (And if kind == "and" else Or)(spine(d - 1), spine(d - 1))

    f = spine(depth)
    return foralls(sorted(free_atoms(f)), f)


STRINGS = ["", "0", "1", "00", "01", "10", "11"]


@settings(max_examples=200)
@given(closed_pi1(), st.frozensets(st.sampled_from(STRINGS)))
def test_exact_check_matches_naive_reference(f, oracle):
    structure = Structure({}, oracle)
    assert holds_universally(f, structure, max_structures=WIDE.max_structures) == naive_holds_universally(f, structure)
