"""Prover for the quantified calculus G.

gprove runs prover._prove, the one backward proof search, which reduces
top-level quantifiers (both constant instances, or a fresh
eigenvariable), then connectives, and proves a quantifier-free sequent
exactly as `prove` does.  Expansion can square the work at every
quantifier block, so proof sizes may grow doubly exponentially; the
stats output makes that observable.  Each finished proof is checked
once with proofs.check_g.
"""

from __future__ import annotations

from . import proofs, prover
from .formulas import Sequent, all_names, fresh_names
from .prover import NOT_VALID, PROVED, UNKNOWN, ProveResult
from .semantics import Structure


def gprove(s: Sequent) -> ProveResult:
    """Prove a valid sequent of the quantified language, or report a
    falsifying structure of the quantifier-free core; on quantifier-free
    inputs the result is the propositional prover's proof, node for node."""
    # eigenvariables y0, y1, ... skip every name in the input
    taken = set().union(*map(all_names, s.formulas))
    tracker = {"depth": 0, "fresh": fresh_names("y", taken), "schemes": {}}
    outcome = prover._prove(s, 0, tracker, False)
    if outcome == UNKNOWN:
        return ProveResult(
            UNKNOWN,
            reason="quantifiers inside R arguments cannot be reduced by the quantifier rules",
        )
    if isinstance(outcome, Structure):
        return ProveResult(NOT_VALID, counterexample=outcome)
    stats = prover._finished(s, outcome, proofs.check_g, tracker)
    return ProveResult(PROVED, proof=outcome, stats=stats)
