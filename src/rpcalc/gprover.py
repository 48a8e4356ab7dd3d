"""Prover and checker for the quantified calculus.

check_g is the propositional checker extended with the four quantifier
rules.  gprove works by double induction: while any cedent formula has a
quantifier at the top it is reduced (an existential on the right or a
universal on the left expands into both constant instances, rebuilt with
two instantiation rules and one contraction; the dual cases introduce a
fresh eigenvariable); formulas whose top is a connective are decomposed
with the backwards introduction rules; the quantifier-free core is
delegated to the propositional prover.  Expansion can square the work at
every quantifier block, so proof sizes may grow doubly exponentially;
the stats output makes that observable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from . import proofs, prover
from .formulas import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Not,
    Or,
    Sequent,
    all_names,
    is_quantifier_free,
    node_count,
    quantifier_depth,
)
from .proofs import Proof, check_g  # re-exported: check_g lives with the rule logic
from .prover import ProverStats, _require, _require_checked
from .semantics import Structure

__all__ = ["check_g", "gprove", "GProveResult"]

PROVED = "proved"
NOT_VALID = "not_valid"
UNKNOWN = "unknown"


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


def _measure(s: Sequent) -> int:
    """Termination measure: every reduction strictly shrinks it.
    Quantifier steps trade one depth-d formula for at most two depth-(d-1)
    copies; connective steps keep depths and shrink sizes."""
    return sum((4 ** quantifier_depth(f)) * node_count(f) for f in s.formulas)


def _first_top_quantifier(s: Sequent) -> Optional[tuple[str, int]]:
    for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
        for i, f in enumerate(cedent):
            if isinstance(f, (Forall, Exists)):
                return side, i
    return None


def _first_connective_with_quantifier(s: Sequent) -> Optional[tuple[str, int]]:
    for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
        for i, f in enumerate(cedent):
            if isinstance(f, (Not, And, Or)):
                return side, i
    return None


class _FreshNames:
    """Deterministic eigenvariable supply: y0, y1, ... skipping every
    name present anywhere in the input."""

    def __init__(self, s: Sequent):
        taken = set()
        for f in s.formulas:
            taken |= all_names(f)
        self._taken = taken
        self._counter = itertools.count()

    def next(self) -> str:
        while True:
            name = f"y{next(self._counter)}"
            if name not in self._taken:
                self._taken.add(name)
                return name


def _gprove(s: Sequent, fresh: _FreshNames, depth: int, tracker: dict) -> Union[Proof, Structure, str]:
    tracker["depth"] = max(tracker["depth"], depth)
    if all(is_quantifier_free(f) for f in s.formulas):
        return prover._prove(s, depth, tracker)

    before = _measure(s)

    target = _first_top_quantifier(s)
    if target is not None:
        side, idx = target
        cedent = s.succedent if side == "succ" else s.antecedent
        q = cedent[idx]
        tag = proofs.rule_for(side, type(q))
        edge = 0 if side == "ante" else len(cedent) - 1
        if proofs.RULES[tag].shape == "instance":
            # Both constant instances, A(0), A(1) at the principal end,
            # rebuilt with two instantiations (the one at the end first),
            # an exchange and a contraction.
            (prem,) = proofs.backward(tag, s, idx, (Const(0), Const(1)))
            first, second = (Const(0), Const(1)) if side == "ante" else (Const(1), Const(0))

            def rebuild(p: Proof) -> Proof:
                p = proofs.introduce(tag, (p,), (q.var, q.body), var=q.var, instance=first)
                p = proofs.restructure(proofs.rule_for(side, "swap"), p, edge)
                p = proofs.introduce(tag, (p,), (q.var, q.body), var=q.var, instance=second)
                p = proofs.restructure(proofs.rule_for(side, "duplicate"), p, edge)
                return proofs.move(p, side, edge, idx)

        else:
            eigen = fresh.next()
            (prem,) = proofs.backward(tag, s, idx, (Atom(eigen),))

            def rebuild(p: Proof) -> Proof:
                p = proofs.introduce(tag, (p,), (q.var, q.body), eigen=eigen)
                return proofs.move(p, side, edge, idx)

        _require(_measure(prem) < before, "quantifier step must shrink the measure")
        sub = _gprove(prem, fresh, depth + 1, tracker)
        if not isinstance(sub, Proof):
            return sub
        return rebuild(sub)

    target = _first_connective_with_quantifier(s)
    if target is None:
        # Quantifiers survive only inside R arguments; no rule reaches them.
        return UNKNOWN
    side, idx = target
    prems, rebuild_many = prover.connective_step(s, side, idx)
    for prem in prems:
        _require(_measure(prem) < before, "connective step must shrink the measure")
    subs = []
    for prem in prems:
        sub = _gprove(prem, fresh, depth + 1, tracker)
        if not isinstance(sub, Proof):
            return sub
        subs.append(sub)
    return rebuild_many(subs)


def gprove(s: Sequent) -> GProveResult:
    """Prove a valid sequent of the quantified language, or report a
    falsifying structure of the quantifier-free core; on quantifier-free
    inputs the result is the propositional prover's proof, node for node."""
    fresh = _FreshNames(s)
    tracker = {"depth": 0, "r_steps": 0}
    outcome = _gprove(s, fresh, 0, tracker)
    if outcome == UNKNOWN:
        return GProveResult(
            UNKNOWN,
            reason="quantifiers inside R arguments cannot be reduced by the quantifier rules",
        )
    if isinstance(outcome, Structure):
        return GProveResult(NOT_VALID, counterexample=outcome)
    _require(outcome.conclusion == s, "proof concludes a different sequent")
    _require_checked(check_g(outcome))
    stats = ProverStats(
        counted_sequents=proofs.counted_size(outcome),
        max_line=proofs.max_line_length(outcome),
        # each node's cost also counts quantifier nodes, so this agrees
        # with cost_sequent on quantifier-free sequents
        cost_at_root=sum(f.cost for f in s.formulas),
        recursion_depth=tracker["depth"],
    )
    return GProveResult(PROVED, proof=outcome, stats=stats)
