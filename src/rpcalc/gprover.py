"""Prover for the quantified calculus G.

gprove runs the one backward proof search of prover.search, which
reduces top-level quantifiers (both constant instances, or a fresh
eigenvariable), then connectives, and proves a quantifier-free sequent
exactly as `prove` does.  Expansion can square the work at every
quantifier block, so proof sizes may grow doubly exponentially; the
stats output makes that observable.  Each finished proof is checked
once with proofs.check_g.
"""

from __future__ import annotations

from . import proofs
from .formulas import Sequent, all_names, fresh_names
from .prover import PROVED, ProveResult, search  # noqa: F401  (PROVED is re-exported)


def gprove(s: Sequent) -> ProveResult:
    """Prove a valid sequent of the quantified language, or report a
    falsifying structure; on quantifier-free inputs the result is the
    propositional prover's proof, node for node."""
    # eigenvariables y0, y1, ... skip every name in the input
    taken = set().union(*map(all_names, s.formulas))
    return search(s, proofs.check_g, fresh_names("y", taken))
