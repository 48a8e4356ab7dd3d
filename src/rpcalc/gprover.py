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

from dataclasses import dataclass
from typing import Optional

from . import proofs, prover
from .formulas import Sequent, all_names, fresh_names
from .proofs import Proof
from .prover import UNKNOWN, ProverStats
from .semantics import Structure

PROVED = "proved"
NOT_VALID = "not_valid"


@dataclass(frozen=True)
class GProveResult:
    status: str
    proof: Optional[Proof] = None
    stats: Optional[ProverStats] = None
    counterexample: Optional[Structure] = None
    reason: str = ""

    @property
    def valid(self) -> bool:
        return self.status == PROVED


def gprove(s: Sequent) -> GProveResult:
    """Prove a valid sequent of the quantified language, or report a
    falsifying structure of the quantifier-free core; on quantifier-free
    inputs the result is the propositional prover's proof, node for node."""
    # eigenvariables y0, y1, ... skip every name in the input
    taken = set().union(*map(all_names, s.formulas))
    tracker = {"depth": 0, "fresh": fresh_names("y", taken), "schemes": {}}
    outcome = prover._prove(s, 0, tracker, False)
    if outcome == UNKNOWN:
        return GProveResult(
            UNKNOWN,
            reason="quantifiers inside R arguments cannot be reduced by the quantifier rules",
        )
    if isinstance(outcome, Structure):
        return GProveResult(NOT_VALID, counterexample=outcome)
    stats = prover._finished(s, outcome, proofs.check_g, tracker)
    return GProveResult(PROVED, proof=outcome, stats=stats)
