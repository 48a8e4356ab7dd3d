"""Correctness checks for the benchmark's outputs.

Every check compares an output against a reference that does not come
from the code path under test (machine simulation, naive enumeration,
the pigeonhole principle), or against a property the method must have.
Each returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from genlib import brute_sat_q, naive_sat_flat
from rpcalc.constants import D_LINES, E_LINE_FACTOR
from rpcalc.formulas import Not, cost_sequent, foralls, sequent_free_atoms
from rpcalc.machines import simulate
from rpcalc.proofs import UNCOUNTED_TAGS, ProofFormatError, check_g, check_pk, load_proof
from rpcalc.semantics import SAT, UNSAT, eval_formula, validity_formula
from rpcalc.syntax import sequent_length
from rpcalc.tableau import witness_structure

# Criterion 9's bound on compiled length per doubling of the input.
LINEARITY_RATIO = 2.2


def counted_lines(proof) -> int:
    """Counted proof lines, walked here rather than taken from the
    prover's own statistics."""
    total, stack = 0, [proof]
    while stack:
        node = stack.pop()
        total += node.rule not in UNCOUNTED_TAGS
        stack.extend(node.premises)
    return total


def check_machine_verdict(normalized, x: str, t: int, params, status: str, witness) -> list[str]:
    """The verdict must match a direct simulation for 2^t - 1 steps, and a
    SAT witness must be exactly the tableau of the (unique) accepting run."""
    run = simulate(normalized, x, (1 << t) - 1)
    expected = UNSAT if run is None else SAT
    if status != expected:
        return [f"verdict {status} on {x!r} at t={t}, simulation says {expected}"]
    if run is None:
        return [] if witness is None else ["UNSAT verdict carries a witness"]
    reference = witness_structure(normalized, x, run, params)
    if witness != reference:
        extra = len(witness.oracle - reference.oracle) if witness else 0
        missing = len(reference.oracle - witness.oracle) if witness else len(reference.oracle)
        return [f"witness differs from the run's tableau: {extra} extra, {missing} missing strings"]
    return []


def check_roundtrip(original, reparsed) -> list[str]:
    return [] if reparsed == original else ["parse(format(f)) differs from f"]


def check_prop_proof(sequent, proof, max_line: int) -> list[str]:
    """criterion 4: a valid sequent, a strictly checked proof of exactly
    that sequent, within d*2^cost lines of at most e*|S| symbols."""
    problems = []
    if naive_sat_flat(Not(validity_formula(sequent))) is not None:
        problems.append("sequent is not valid by naive enumeration")
    if proof is None:
        return problems + ["no proof"]
    if proof.conclusion != sequent:
        problems.append("proof concludes a different sequent")
    errors = check_pk(proof)
    if errors:
        problems.append(f"check_pk: {errors[0]}")
    bound = D_LINES * (1 << cost_sequent(sequent))
    if counted_lines(proof) > bound:
        problems.append(f"{counted_lines(proof)} counted lines exceed d*2^cost = {bound}")
    if max_line > E_LINE_FACTOR * sequent_length(sequent):
        problems.append(f"line of {max_line} symbols exceeds e*|S|")
    return problems


def check_quantified_proof(sequent, proof) -> list[str]:
    """criterion 6: check_g accepts the proof, and the negated universal
    closure has no model by brute force over every oracle."""
    if proof is None:
        return ["no proof"]
    problems = []
    if proof.conclusion != sequent:
        problems.append("proof concludes a different sequent")
    errors = check_g(proof)
    if errors:
        problems.append(f"check_g: {errors[0]}")
    closure = foralls(sorted(sequent_free_atoms(sequent)), validity_formula(sequent))
    if brute_sat_q(Not(closure), max_arity=3) is not None:
        problems.append("negated closure has a model")
    return problems


def check_proof_text(proof, text: str, loaded) -> list[str]:
    """The JSON must load back to the same proof, independently of the
    loaded copy the pipeline returned, and that proof must pass check_pk."""
    try:
        again = load_proof(text)
    except ProofFormatError as exc:
        return [f"proof JSON does not load: {exc}"]
    problems = []
    if again != proof or loaded != proof:
        problems.append("load_proof(dump_proof(p)) differs from p")
    errors = check_pk(again)
    if errors:
        problems.append(f"reloaded proof fails check_pk: {errors[0]}")
    return problems


def check_linear_growth(lengths: list[int]) -> list[str]:
    """Compiled length grows at most LINEARITY_RATIO per input doubling."""
    return [
        f"length {b} exceeds {LINEARITY_RATIO} x {a}"
        for a, b in zip(lengths, lengths[1:])
        if b > LINEARITY_RATIO * a
    ]


def check_pigeonhole(pigeons: int, holes: int, formula, status: str, witness) -> list[str]:
    """PHP(P, H) is satisfiable exactly when P <= H, and a SAT witness must
    satisfy the formula."""
    expected = SAT if pigeons <= holes else UNSAT
    if status != expected:
        return [f"PHP({pigeons},{holes}) verdict {status}, expected {expected}"]
    if status == SAT and eval_formula(formula, witness) != 1:
        return [f"PHP({pigeons},{holes}) witness does not satisfy the formula"]
    return []


def check_refuted(status: str) -> list[str]:
    """The negation of a valid formula must be UNSAT."""
    return [] if status == UNSAT else [f"negated valid formula reported {status}"]


def check_flat_sat(formula, witness) -> list[str]:
    """Verdict must match naive enumeration; a witness must satisfy."""
    reference = naive_sat_flat(formula)
    if (witness is None) != (reference is None):
        return ["verdict disagrees with naive enumeration"]
    if witness is not None and eval_formula(formula, witness) != 1:
        return ["witness does not satisfy the formula"]
    return []


def check_sequent_verdict(sequent, valid: bool) -> list[str]:
    """The verdict must match naive enumeration of countermodels."""
    expected = naive_sat_flat(Not(validity_formula(sequent))) is None
    if valid != expected:
        return [f"sequent reported {'VALID' if valid else 'INVALID'} against naive enumeration"]
    return []
