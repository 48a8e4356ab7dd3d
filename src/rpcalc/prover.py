"""Automatic prover for valid quantifier-free sequents.

The procedure recurses on sequent cost.  At cost 0 every formula is an
atom, a constant, or an R application with constant arguments, and a
valid sequent is an axiom up to weakening and exchange; otherwise the
first decomposable formula (succedent scanned left to right, then the
antecedent) is reduced: principal connectives by the matching
introduction rule applied backwards, and an R application with a
non-constant argument A by cutting the recursive premises against the
substitution schemes (E2/E4 on the right, E1/E3 on the left) and
finally cutting on A.  Each R step drops the cost by exactly one, so a
proof of a cost-c sequent has at most D_LINES * 2^c counted lines.

Invalid sequents surface at the base case, where a falsifying structure
can be read off directly; every reduction step is invertible, so the
same structure falsifies the original sequent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import proofs, syntax
from .constants import D_LINES, E_LINE_FACTOR
from .formulas import (
    And,
    Atom,
    Const,
    Formula,
    Not,
    Or,
    RApp,
    Sequent,
    cost_sequent,
    is_quantifier_free,
)
from .proofs import Proof
from .semantics import Structure, eval_formula, validity_formula


@dataclass(frozen=True)
class ProverStats:
    counted_sequents: int
    max_line: int
    cost_at_root: int
    recursion_depth: int

    def to_json(self) -> dict:
        return {
            "counted_sequents": self.counted_sequents,
            "cost": self.cost_at_root,
            "bound": D_LINES * (1 << self.cost_at_root),
            "max_line": self.max_line,
        }


@dataclass(frozen=True)
class ProveResult:
    proof: Optional[Proof]
    stats: Optional[ProverStats]
    counterexample: Optional[Structure]

    @property
    def valid(self) -> bool:
        return self.proof is not None


class NotDecomposableError(ValueError):
    pass


class ProverInvariantError(RuntimeError):
    """A prover step broke an invariant that the proof's correctness or
    its size bounds rest on.  Checked under `python -O` too."""


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ProverInvariantError(message)


def _require_checked(errors: list[proofs.CheckError]) -> None:
    """The one strict check of a finished proof; its builders check nothing."""
    _require(not errors, f"finished proof fails the strict check: {errors[0] if errors else ''}")


def _top_connective(f: Formula) -> bool:
    return isinstance(f, (Not, And, Or))


def _r_with_nonconst(f: Formula) -> Optional[int]:
    """Leftmost non-constant argument position of a top-level R, or None."""
    if isinstance(f, RApp):
        for i, a in enumerate(f.args):
            if not isinstance(a, Const):
                return i
    return None


def choose_target(s: Sequent) -> Optional[tuple[str, int]]:
    """Deterministic decomposition target: first principal connective
    (succedent first), else first R application with a non-constant
    argument.  None at cost 0."""
    for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
        for i, f in enumerate(cedent):
            if _top_connective(f):
                return side, i
    for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
        for i, f in enumerate(cedent):
            if _r_with_nonconst(f) is not None:
                return side, i
    return None


Rebuild = Callable[[list[Proof]], Proof]


def connective_step(s: Sequent, side: str, idx: int) -> tuple[list[Sequent], Rebuild]:
    """Backwards application of the introduction rule for the principal
    connective of the formula at (side, idx); the rebuild closure adds
    the exchanges that return the principal formula to its position."""
    cedent = s.succedent if side == "succ" else s.antecedent
    f = cedent[idx]
    if not _top_connective(f):
        where = "succedent" if side == "succ" else "antecedent"
        raise NotDecomposableError(f"no principal connective at {where} {idx}")
    tag = proofs.rule_for(side, type(f))
    edge = 0 if side == "ante" else len(cedent) - 1

    def rebuild(ps: list[Proof]) -> Proof:
        return proofs.move(proofs.introduce(tag, tuple(ps)), side, edge, idx)

    return proofs.backward(tag, s, idx), rebuild


def oracle_step(s: Sequent, side: str, idx: int) -> tuple[list[Sequent], Rebuild]:
    """Reduction of an R application with a non-constant argument."""
    cedent = s.succedent if side == "succ" else s.antecedent
    f = cedent[idx]
    arg_idx = _r_with_nonconst(f)
    if arg_idx is None:
        raise NotDecomposableError(f"formula at {side} {idx} has no non-constant R argument")
    a = f.args[arg_idx]
    before, after = f.args[:arg_idx], f.args[arg_idx + 1 :]
    r_a = f
    r_one = RApp(before + (Const(1),) + after)
    r_zero = RApp(before + (Const(0),) + after)

    if side == "succ":
        delta = s.succedent[:idx] + s.succedent[idx + 1 :]
        gamma = s.antecedent
        prem1 = Sequent((a,) + gamma, delta + (r_one,))
        prem2 = Sequent(gamma, delta + (a, r_zero))

        def rebuild(ps: list[Proof]) -> Proof:
            rec1, rec2 = ps
            e2 = proofs.derive_scheme("E2", a, before, after)
            e4 = proofs.derive_scheme("E4", a, before, after)
            # Left: cut the 1-instance against E2.
            prem_a = proofs.weak_r(rec1, r_a, len(delta))
            prem_b = proofs.exch_l(e2, 0)  # R1, A |- RA
            prem_b = proofs.pad(prem_b, "ante", (r_one, a) + gamma, [0, 1])
            prem_b = proofs.pad(prem_b, "succ", delta + (r_a,), [len(delta)])
            left = proofs.cut(prem_a, prem_b)  # A, Gamma |- Delta, RA
            # Right: cut the 0-instance against E4.
            prem_a = proofs.weak_r(rec2, r_a, len(delta) + 1)
            prem_b = proofs.pad(e4, "ante", (r_zero,) + gamma, [0])
            prem_b = proofs.pad(prem_b, "succ", delta + (a, r_a), [len(delta), len(delta) + 1])
            right = proofs.cut(prem_a, prem_b)  # Gamma |- Delta, A, RA
            # Cut on A.
            final = proofs.cut(proofs.exch_r(right, len(delta)), left)
            return proofs.move(final, "succ", len(delta), idx)

        return [prem1, prem2], rebuild

    delta = s.succedent
    gamma = s.antecedent[:idx] + s.antecedent[idx + 1 :]
    prem1 = Sequent((a, r_one) + gamma, delta)
    prem2 = Sequent((r_zero,) + gamma, delta + (a,))

    def rebuild(ps: list[Proof]) -> Proof:
        rec1, rec2 = ps
        e1 = proofs.derive_scheme("E1", a, before, after)
        e3 = proofs.derive_scheme("E3", a, before, after)
        # Left: cut the 1-instance against E1.
        prem_a = proofs.pad(e1, "ante", (a, r_a) + gamma, [0, 1])
        prem_a = proofs.pad(prem_a, "succ", delta + (r_one,), [len(delta)])
        prem_b = proofs.weak_l(proofs.exch_l(rec1, 0), r_a, 2)
        _require(
            prem_b.conclusion.antecedent == (r_one, a, r_a) + gamma,
            "E1 cut premise does not start R(..1..), A, R(..A..)",
        )
        left = proofs.cut(prem_a, prem_b)  # A, RA, Gamma |- Delta
        # Right: cut the 0-instance against E3.
        prem_a = proofs.pad(e3, "ante", (r_a,) + gamma, [0])
        prem_a = proofs.pad(prem_a, "succ", delta + (a, r_zero), [len(delta), len(delta) + 1])
        prem_b = proofs.weak_l(rec2, r_a, 1)
        right = proofs.cut(prem_a, prem_b)  # RA, Gamma |- Delta, A
        final = proofs.cut(right, left)
        return proofs.move(final, "ante", 0, idx)

    return [prem1, prem2], rebuild


def decompose(s: Sequent, side: str, idx: int) -> tuple[list[Sequent], Rebuild]:
    cedent = s.succedent if side == "succ" else s.antecedent
    if not (0 <= idx < len(cedent)):
        raise NotDecomposableError(f"no formula at {side} position {idx}")
    f = cedent[idx]
    if _top_connective(f):
        return connective_step(s, side, idx)
    if _r_with_nonconst(f) is not None:
        return oracle_step(s, side, idx)
    raise NotDecomposableError(f"formula at {side} {idx} is not decomposable")


def premise_costs(s: Sequent, side: str, idx: int) -> list[int]:
    """Costs of the premise sequents the prover would generate for the
    decomposition target at (side, idx)."""
    prems, _ = decompose(s, side, idx)
    return [cost_sequent(p) for p in prems]


def _base_counterexample(s: Sequent) -> Structure:
    atoms: dict[str, int] = {}
    oracle: set[str] = set()
    for f in s.antecedent:
        if isinstance(f, Atom):
            atoms[f.name] = 1
        elif isinstance(f, RApp):
            oracle.add("".join(str(a.bit) for a in f.args))
    for f in s.succedent:
        if isinstance(f, Atom):
            atoms[f.name] = 0
    return Structure(atoms, frozenset(oracle))


def _base_proof(s: Sequent) -> Union[Proof, Structure]:
    if Const(1) in s.succedent:
        idx = s.succedent.index(Const(1))
        p = proofs.pad(proofs.ax_true(), "ante", s.antecedent, [])
        return proofs.pad(p, "succ", s.succedent, [idx])
    if Const(0) in s.antecedent:
        idx = s.antecedent.index(Const(0))
        p = proofs.pad(proofs.ax_false(), "ante", s.antecedent, [idx])
        return proofs.pad(p, "succ", s.succedent, [])
    common = [f for f in s.antecedent if f in s.succedent]
    if common:
        f = common[0]
        p = proofs.ax_id(f)
        p = proofs.pad(p, "ante", s.antecedent, [s.antecedent.index(f)])
        return proofs.pad(p, "succ", s.succedent, [s.succedent.index(f)])
    witness = _base_counterexample(s)
    _require(
        eval_formula(validity_formula(s), witness) == 0,
        "base-case countermodel does not falsify the sequent",
    )
    return witness


def _prove(s: Sequent, depth: int, tracker: dict) -> Union[Proof, Structure]:
    tracker["depth"] = max(tracker["depth"], depth)
    c = cost_sequent(s)
    if c == 0:
        return _base_proof(s)
    target = choose_target(s)
    _require(target is not None, "positive cost implies a decomposable formula")
    side, idx = target
    prems, rebuild = decompose(s, side, idx)
    cedent = s.succedent if side == "succ" else s.antecedent
    if isinstance(cedent[idx], RApp):
        drops = [c - cost_sequent(p) for p in prems]
        _require(drops == [1, 1], f"oracle step must drop cost by exactly 1, got {drops}")
        tracker["r_steps"] += 1
    subproofs = []
    for prem in prems:
        sub = _prove(prem, depth + 1, tracker)
        if isinstance(sub, Structure):
            return sub
        subproofs.append(sub)
    return rebuild(subproofs)


def prove(s: Sequent) -> ProveResult:
    """Prove a valid quantifier-free sequent, or report a falsifying
    structure.  Deterministic: identical input yields an identical tree."""
    for f in s.formulas:
        if not is_quantifier_free(f):
            raise ValueError("prove expects a quantifier-free sequent")
    tracker = {"depth": 0, "r_steps": 0}
    outcome = _prove(s, 0, tracker)
    if isinstance(outcome, Structure):
        _require(
            eval_formula(validity_formula(s), outcome) == 0,
            "countermodel does not falsify the sequent",
        )
        return ProveResult(None, None, outcome)
    _require(outcome.conclusion == s, "proof concludes a different sequent")
    _require_checked(proofs.check_pk(outcome))
    stats = ProverStats(
        counted_sequents=proofs.counted_size(outcome),
        max_line=proofs.max_line_length(outcome),
        cost_at_root=cost_sequent(s),
        recursion_depth=tracker["depth"],
    )
    _require(
        stats.counted_sequents <= D_LINES * (1 << stats.cost_at_root),
        "proof exceeds d * 2^cost counted lines",
    )
    _require(
        stats.max_line <= E_LINE_FACTOR * syntax.sequent_length(s),
        "proof line exceeds e * |S| symbols",
    )
    return ProveResult(outcome, stats, None)
