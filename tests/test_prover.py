import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

from genlib import QUANTIFIED_SUITE, generate_valid_sequents, random_flat_formula
from rpcalc import prover
from rpcalc.gprover import gprove
from rpcalc.constants import D_LINES, E_LINE_FACTOR
from rpcalc.formulas import RApp, Sequent, cost_sequent, sequent_free_atoms
from rpcalc.prover import NotDecomposableError, decompose, prove
from rpcalc.proofs import check_pk, dump_proof
from rpcalc.semantics import eval_formula, sequent_valid, validity_formula
from rpcalc.syntax import parse_formula, parse_sequent, sequent_length


def test_identity_sequent():
    r = prove(parse_sequent("p |- p"))
    assert r.valid
    assert r.stats.counted_sequents == 1


def test_validity_example_proof():
    s = parse_sequent("|- (R(p) & R(~p)) => (R(q) | R(~q))")
    r = prove(s)
    assert r.valid
    assert check_pk(r.proof) == []
    assert r.proof.conclusion == s
    assert r.stats.counted_sequents <= D_LINES * (1 << r.stats.cost_at_root)


def test_not_valid_witness():
    r = prove(parse_sequent("R(p) |-"))
    assert not r.valid
    w = r.counterexample
    assert eval_formula(parse_formula("R(p)"), w) == 1


def test_base_case_paths():
    for text in ("|- 1, p", "0, p |-", "R(0,1), p |- q, R(0,1)", "1 |- 1"):
        r = prove(parse_sequent(text))
        assert r.valid, text
        assert check_pk(r.proof) == []
        assert r.proof.conclusion == parse_sequent(text)


def test_duplicate_formulas_preserved():
    s = parse_sequent("p, p |- p, q, p")
    r = prove(s)
    assert r.valid
    assert r.proof.conclusion == s


def test_premise_costs_examples():
    # the costs of the premises the prover generates at a position
    premises, _ = decompose(parse_sequent("|- R(p)"), "succ", 0, {})
    assert [cost_sequent(p) for p in premises] == [0, 0]
    premises, _ = decompose(parse_sequent("|- p & p"), "succ", 0, {})
    assert [cost_sequent(p) for p in premises] == [0, 0]
    # R(p & q): one connective plus one nontrivial argument = cost 2;
    # both premises sit at cost 1.
    s = parse_sequent("R(p & q) |-")
    assert cost_sequent(s) == 2
    premises, _ = decompose(s, "ante", 0, {})
    assert [cost_sequent(p) for p in premises] == [1, 1]


def test_premise_costs_error():
    with pytest.raises(NotDecomposableError):
        decompose(parse_sequent("p |- q"), "ante", 0, {})
    with pytest.raises(NotDecomposableError):
        decompose(parse_sequent("|- R(0, 1)"), "succ", 0, {})


def test_connective_premises_strictly_cheaper():
    rng = random.Random(51)
    for _ in range(100):
        s = Sequent(
            tuple(random_flat_formula(rng, max_r=1, depth=2) for _ in range(rng.randint(0, 2))),
            tuple(random_flat_formula(rng, max_r=1, depth=2) for _ in range(rng.randint(1, 2))),
        )
        total = cost_sequent(s)
        for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
            for i, f in enumerate(cedent):
                try:
                    premises, _ = decompose(s, side, i, {})
                except NotDecomposableError:
                    continue
                drops = [cost_sequent(p) for p in premises]
                if isinstance(f, RApp):
                    assert drops == [total - 1, total - 1]
                else:
                    assert all(d < total for d in drops)


@pytest.fixture
def deep_recursion():
    # the search and the checker recurse once per conjunct
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    yield
    sys.setrecursionlimit(limit)


def test_prove_reads_the_sequent_cost_only_where_a_check_needs_it(monkeypatch, deep_recursion):
    # a conjunction has no oracle step and its proof one leaf, so the
    # leaf's cost-0 check is the one reader of the sequent cost
    calls = []

    def counting(s):
        calls.append(s)
        return cost_sequent(s)

    monkeypatch.setattr(prover, "cost_sequent", counting)
    r = prove(parse_sequent(" & ".join(["p"] * 2000) + " |- p"))
    assert r.valid
    assert r.stats.counted_sequents == 2000
    assert len(calls) == 1


def test_determinism():
    s = parse_sequent("R(p & q) |- R(q & p)")
    assert prove(s).proof == prove(s).proof


def test_proofs_are_byte_identical():
    # criterion 4's sequents and the quantified suite, pinned node for
    # node and position for position, so a refactor of the rules or the
    # prover steps cannot change a single proof
    digest = hashlib.sha256()
    for s in generate_valid_sequents(seed=1004, count=200, max_cost=10):
        digest.update(dump_proof(prove(s).proof).encode() + b"\n")
    for text in QUANTIFIED_SUITE:
        digest.update(dump_proof(gprove(parse_sequent(text)).proof).encode() + b"\n")
    assert digest.hexdigest() == "3fd63a58cd39eff288292fd3db8e989eccc069a8c2c68a09b99fd03c643706eb"


def test_random_valid_suite_with_bounds():
    suite = generate_valid_sequents(seed=52, count=60, max_cost=10)
    r_steps = 0
    for s in suite:
        r = prove(s)
        assert r.valid, s
        assert check_pk(r.proof) == []
        assert r.proof.conclusion == s
        c = cost_sequent(s)
        assert r.stats.counted_sequents <= D_LINES * (1 << c)
        assert r.stats.max_line <= E_LINE_FACTOR * sequent_length(s)
        assert sequent_valid(s)
    # at least the templates exercise oracle decomposition
    assert any(
        "R" in str(s) for s in suite
    )


def test_invalid_random_sequents_give_checking_witnesses():
    rng = random.Random(53)
    found = 0
    for _ in range(200):
        s = Sequent(
            tuple(random_flat_formula(rng, max_r=1, depth=2) for _ in range(rng.randint(0, 2))),
            tuple(random_flat_formula(rng, max_r=1, depth=2) for _ in range(rng.randint(0, 2))),
        )
        if cost_sequent(s) > 8:
            continue
        r = prove(s)
        if not r.valid:
            found += 1
            assert eval_formula(validity_formula(s), r.counterexample) == 0
    assert found >= 20


def test_countermodels_assign_every_free_atom():
    # the search assigns only the atoms it reaches; the answer must
    # assign every free atom of the input and falsify it
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        s = Sequent(
            tuple(random_flat_formula(rng, max_r=1, depth=1) for _ in range(rng.randint(0, 2))),
            tuple(random_flat_formula(rng, max_r=1, depth=1) for _ in range(rng.randint(1, 2))),
        )
        if sequent_valid(s):
            continue
        checked += 1
        w = prove(s).counterexample
        assert sequent_free_atoms(s) <= w.atoms.keys(), s
        assert eval_formula(validity_formula(s), w) == 0, s


def test_prover_rejects_quantifiers():
    with pytest.raises(ValueError):
        prove(parse_sequent("|- all x. x"))


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

BROKEN_STEP = """
from rpcalc import gprover, proofs, prover
from rpcalc.syntax import parse_sequent
assert False  # removed under -O: reaching the next line shows asserts are off
{mutation}
try:
    {call}(parse_sequent({text!r}))
except prover.ProverInvariantError as exc:
    print("ProverInvariantError:", exc)
"""

# exchanges forgotten: the principal formula is left out of place
FORGET_EXCHANGES = "proofs.move = lambda p, side, src, dst: p"

# ExR and AllL take the instance 0 twice, so |- ex x. x reduces to |- 0, 0
BOTH_INSTANCES_ZERO = """
made = proofs.backward
def zeroed(tag, s, idx, terms=()):
    if tag in ("ExR", "AllL"):
        terms = (proofs.Const(0), proofs.Const(0))
    return made(tag, s, idx, terms)
proofs.backward = zeroed
"""

# OrR's premise holds the right disjunct twice, so |- p | ~p reduces to p, p |-
RIGHT_DISJUNCT_TWICE = """
made = proofs.backward
def doubled(tag, s, idx, terms=()):
    if tag != "OrR":
        return made(tag, s, idx, terms)
    right = s.succedent[idx].right
    return [proofs.Sequent(s.antecedent, s.succedent[:idx] + s.succedent[idx + 1 :] + (right, right))]
proofs.backward = doubled
"""

# every conclusion stays right, but the exchange steps of each chain
# record the wrong position
SHIFT_EXCHANGE_POS = """
made = proofs._chain
def shifted(p, conclusion, steps):
    steps = tuple((tag, pos + 1 if tag in ("ExchL", "ExchR") else pos) for tag, pos in steps)
    return made(p, conclusion, steps)
proofs._chain = shifted
"""


@pytest.mark.parametrize(
    "mutation, call, text, message",
    [
        pytest.param(
            FORGET_EXCHANGES,
            "prover.prove",
            "p, q |- q & p, r",
            "proof concludes a different sequent",
            id="prover.prove-p, q |- q & p, r",
        ),
        pytest.param(
            FORGET_EXCHANGES,
            "gprover.gprove",
            "|- (all x. x | ~x), r",
            "proof concludes a different sequent",
            id="gprover.gprove-|- (all x. x | ~x), r",
        ),
        pytest.param(
            SHIFT_EXCHANGE_POS,
            "prover.prove",
            "p, q |- q & p, r",
            "finished proof fails the strict check: [root] ExchR: bad position 1",
            id="prover.prove-wrong pos",
        ),
        pytest.param(
            SHIFT_EXCHANGE_POS,
            "gprover.gprove",
            "|- (all x. x | ~x), r",
            "finished proof fails the strict check: [root] ExchR: bad position 1",
            id="gprover.gprove-wrong pos",
        ),
        pytest.param(
            "prover.choose_target = lambda s: None",
            "prover.prove",
            "|- p & q",
            "a sequent with no decomposable formula must have cost 0",
            id="prover.prove-no target at positive cost",
        ),
        pytest.param(
            BOTH_INSTANCES_ZERO,
            "gprover.gprove",
            "|- ex x. x",
            "countermodel does not falsify the sequent",
            id="gprover.gprove-both instances 0",
        ),
        pytest.param(
            RIGHT_DISJUNCT_TWICE,
            "prover.prove",
            "|- p | ~p",
            "countermodel does not falsify the sequent",
            id="prover.prove-right disjunct twice",
        ),
    ],
)
def test_broken_step_raises_under_optimize(mutation, call, text, message):
    # with -O every assert is gone; the prover's own checks, and the one
    # strict check of each finished proof, must still catch a broken step
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_STEP.format(mutation=mutation, call=call, text=text)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ProverInvariantError: {message}\n"
