"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its criterion holds at the stated
tolerance; run with `pytest tests/test_acceptance.py -v -s` to see them.
All bounds are pinned: d = 20, e = 4, K_E = (7, 7, 9, 9), c_alpha = 4,
linearity ratio 2.2 per doubling.
"""

import itertools
import random

from genlib import (
    QUANTIFIED_SUITE,
    brute_sat_q,
    first_symbol_one_machine,
    generate_valid_sequents,
    naive_sat_flat,
    random_ast,
    random_flat_formula,
)
from rpcalc.circuits import decoder_circuit, decoder_width, evaluate, increment_circuit, index_bits
from rpcalc.constants import C_ALPHA, D_LINES, E_LINE_FACTOR, K_E
from rpcalc.families import weak_pigeonhole
from rpcalc.formulas import (
    Atom,
    Const,
    Exists,
    Forall,
    Not,
    RApp,
    cost,
    cost_sequent,
    foralls,
    sequent_free_atoms,
    walk,
)
from rpcalc.gprover import PROVED, gprove
from rpcalc.machines import normalize_machine, simulate
from rpcalc.proofs import check_g, check_pk, counted_size, derive_scheme
from rpcalc.prover import decompose, prove
from rpcalc.semantics import (
    UNSAT,
    SolverLimits,
    Structure,
    all_strings,
    eval_formula,
    holds_universally,
    sat_pc,
    valid_pc,
    validity_formula,
)
from rpcalc.syntax import format_formula, parse_formula, parse_sequent, sequent_length
from rpcalc.tableau import compile_with_info, witness_structure
from rpcalc.syntax import length


def report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS: {criterion}{suffix}")


def test_criterion_1_cost_example():
    value = cost(parse_formula("R(p & q, p & q, p, 0, 1, 1)"))
    assert value == 5
    report("criterion 1: cost of R(p&q, p&q, p, 0, 1, 1) is exactly 5")


def test_criterion_2_validity_example():
    f = parse_formula("(R(p) & R(~p)) => (R(q) | R(~q))")
    assert valid_pc(f)
    assert sat_pc(Not(f)) is None
    report("criterion 2: the R-substitution disjunction is VALID and its negation UNSAT")


def test_criterion_3_solver_oracle_equivalence():
    from rpcalc.formulas import And

    rng = random.Random(1003)
    disagreements = unsat = 0
    for i in range(500):
        f = random_flat_formula(rng, atoms=("p", "q", "r", "s"), max_r=2, max_arity=3, depth=4)
        if i % 3 == 1:
            f = And(f, random_flat_formula(rng, max_r=1, max_arity=3, depth=3))
        elif i % 3 == 2:
            f = And(f, Not(random_flat_formula(rng, max_r=1, max_arity=3, depth=3)))
        fast = sat_pc(f)
        slow = naive_sat_flat(f)
        if (fast is None) != (slow is None):
            disagreements += 1
        if fast is None:
            unsat += 1
        else:
            assert eval_formula(f, fast) == 1
    assert disagreements == 0
    assert unsat >= 25  # the suite exercises both outcomes
    report(
        "criterion 3: 500 random formulas, zero disagreements with naive enumeration",
        f"{unsat} unsatisfiable",
    )


def test_criterion_4_prover_bounds():
    suite = generate_valid_sequents(seed=1004, count=200, max_cost=10)
    assert len(suite) == 200
    r_positions = 0
    for s in suite:
        c = cost_sequent(s)
        result = prove(s)
        assert result.valid
        assert check_pk(result.proof) == []
        assert result.proof.conclusion == s
        assert result.stats.counted_sequents <= D_LINES * (1 << c)
        assert result.stats.max_line <= E_LINE_FACTOR * sequent_length(s)
        # direct premise-cost audit for every oracle-decomposable position
        for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
            for i, f in enumerate(cedent):
                if isinstance(f, RApp) and any(not isinstance(a, Const) for a in f.args):
                    premises, _ = decompose(s, side, i, {})
                    assert [cost_sequent(p) for p in premises] == [c - 1, c - 1]
                    r_positions += 1
    assert r_positions > 0
    report(
        "criterion 4: 200 valid sequents proved within "
        f"d=2^{'{'}cost{'}'}*{D_LINES} lines and e={E_LINE_FACTOR} line length",
        f"{r_positions} oracle positions audited",
    )


def test_criterion_5_scheme_size_constancy():
    rng = random.Random(1005)
    for which in ("E1", "E2", "E3", "E4"):
        sizes = set()
        for target_len in (1, 10, 25, 50):
            a = random_flat_formula(rng, max_r=1, depth=3)
            while length(a) < target_len:
                a = parse_formula(f"({format_formula(a)}) & ({format_formula(a)})")
            for ctx in (0, 1, 5, 10):
                before = tuple(Atom(f"c{i}") for i in range(ctx // 2))
                after = tuple(Atom(f"d{i}") for i in range(ctx - ctx // 2))
                proof = derive_scheme(which, a, before, after)
                assert check_pk(proof) == []
                sizes.add(counted_size(proof))
        assert sizes == {K_E[which]}, (which, sizes)
    report("criterion 5: scheme sizes constant", f"K_E = {K_E}")


def test_criterion_6_quantified_prover():
    assert len(QUANTIFIED_SUITE) == 30
    for text in QUANTIFIED_SUITE:
        s = parse_sequent(text)
        result = gprove(s)
        assert result.status == PROVED, text
        assert check_g(result.proof) == [], text
        assert result.proof.conclusion == s
        closure = foralls(sorted(sequent_free_atoms(s)), validity_formula(s))
        assert brute_sat_q(Not(closure), max_arity=3) is None, text
    report("criterion 6: 30 quantified sequents proved, checked and cross-validated")


def test_criterion_7_pigeonhole():
    assert brute_sat_q(Not(weak_pigeonhole(1)), max_arity=3) is None
    f2 = weak_pigeonhole(2)
    rng = random.Random(1007)
    space = all_strings(6)
    for _ in range(50):
        oracle = frozenset(s for s in space if rng.random() < 0.5)
        assert eval_formula(f2, Structure({}, oracle)) == 1
    report("criterion 7: pigeonhole family valid for n=1 (256 oracles) and n=2 (50 samples)")


def test_criterion_8_machine_compilation_end_to_end():
    machine = first_symbol_one_machine()
    normalized = normalize_machine(machine)

    formula, info = compile_with_info(machine, "10", 2)
    run = simulate(normalized, "10", 16)
    assert run is not None
    witness = witness_structure(normalized, "10", run, info.params)
    limits = SolverLimits(max_universal_vars=64, max_oracle_strings=1 << 16, max_structures=1 << 22)
    assert holds_universally(formula, witness, max_structures=limits.max_structures)
    mode = f"exact over {len(info.universal_vars)} universals"

    unsat_formula, _ = compile_with_info(machine, "00", 1)
    from rpcalc.semantics import sat_pi1

    outcome = sat_pi1(unsat_formula, limits)
    assert outcome.status == UNSAT
    report("criterion 8: accepted run satisfies the compiled matrix; rejected input is UNSAT", mode)


def test_criterion_9_linearity():
    machine = first_symbol_one_machine()
    sizes = []
    for n in (4, 8, 16, 32):
        x = "1" + "0" * (n - 1)
        formula, _ = compile_with_info(machine, x, n)
        sizes.append(length(formula))
    for a, b in zip(sizes, sizes[1:]):
        assert b <= 2.2 * a, sizes
    report("criterion 9: compiled length grows at most 2.2x per input doubling", str(sizes))


def test_criterion_10_circuit_oracles():
    for n in range(1, 65):
        c = decoder_circuit(n)
        k = decoder_width(n)
        for value in range(1 << k):
            expected = tuple(1 if value == i else 0 for i in range(1, n + 1))
            assert evaluate(c, index_bits(value, k))[1] == expected
    for n in itertools.chain(range(1, 257), (300, 400, 511, 512, 513, 777, 1023, 1024)):
        assert decoder_circuit(n).gate_count <= C_ALPHA * n
    for m in range(1, 11):
        c = increment_circuit(m)
        for value in range(1 << m):
            _, outs = evaluate(c, index_bits(value, m))
            assert outs[:-1] == index_bits((value + 1) % (1 << m), m)
            assert outs[-1] == (1 if value == (1 << m) - 1 else 0)
    report("criterion 10: decoder and increment circuits match integer arithmetic")


def test_criterion_11_roundtrip():
    rng = random.Random(1011)
    kinds = set()
    nullary_r = nested_quantifier = 0
    for _ in range(1000):
        f = random_ast(rng, depth=4)
        for g in walk(f):
            kinds.add(type(g).__name__)
            if isinstance(g, RApp) and not g.args:
                nullary_r += 1
            if isinstance(g, (Forall, Exists)) and any(
                isinstance(h, (Forall, Exists)) for h in walk(g.body)
            ):
                nested_quantifier += 1
        assert parse_formula(format_formula(f)) == f
    assert kinds >= {"Atom", "Const", "Not", "And", "Or", "RApp", "Forall", "Exists"}
    assert nullary_r > 0 and nested_quantifier > 0
    report("criterion 11: 1000 random ASTs round-trip through the printer and parser")
