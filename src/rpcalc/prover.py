"""Backward proof search for valid sequents, with and without quantifiers.

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
same structure, with 0 for each atom the search never reached,
falsifies the original sequent.

A sequent that still holds a quantifier (only gprove passes one) takes
a quantifier step on its first top-level quantifier, else a connective
step, or else answers UNKNOWN: its quantifiers sit inside R arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from . import proofs, syntax
from .constants import D_LINES, E_LINE_FACTOR
from .formulas import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    RApp,
    Sequent,
    cost_sequent,
    node_count,
    oracle_key,
    quantifier_depth,
    sequent_free_atoms,
)
from .proofs import Proof
from .semantics import Structure, eval_formula, validity_formula

PROVED = "proved"
NOT_VALID = "not_valid"
UNKNOWN = "unknown"


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
    """Outcome of prove or gprove: PROVED with a proof and its stats,
    NOT_VALID with a falsifying structure, or UNKNOWN with a reason."""

    status: str
    proof: Optional[Proof] = None
    stats: Optional[ProverStats] = None
    counterexample: Optional[Structure] = None
    reason: str = ""

    @property
    def valid(self) -> bool:
        return self.status == PROVED


class NotDecomposableError(ValueError):
    pass


class ProverInvariantError(RuntimeError):
    """A prover step broke an invariant that the proof's correctness or
    its size bounds rest on.  Checked under `python -O` too."""


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ProverInvariantError(message)


def _cedent(s: Sequent, side: str) -> tuple[Formula, ...]:
    return s.succedent if side == "succ" else s.antecedent


def _top_connective(f: Formula) -> bool:
    return isinstance(f, (Not, And, Or))


def _top_quantifier(f: Formula) -> bool:
    return isinstance(f, (Forall, Exists))


def _r_with_nonconst(f: Formula) -> Optional[int]:
    """Leftmost non-constant argument position of a top-level R, or None."""
    if isinstance(f, RApp):
        for i, a in enumerate(f.args):
            if not isinstance(a, Const):
                return i
    return None


def _first(s: Sequent, test: Callable[[Formula], bool]) -> Optional[tuple[str, int]]:
    """Position of the first formula that passes `test`, scanning the
    succedent left to right, then the antecedent."""
    for side, cedent in (("succ", s.succedent), ("ante", s.antecedent)):
        for i, f in enumerate(cedent):
            if test(f):
                return side, i
    return None


def choose_target(s: Sequent) -> Optional[tuple[str, int]]:
    """Deterministic decomposition target: first principal connective
    (succedent first), else first R application with a non-constant
    argument.  None at cost 0."""
    return _first(s, _top_connective) or _first(s, lambda f: _r_with_nonconst(f) is not None)


def _measure(s: Sequent) -> int:
    """Termination measure of the quantified search: every step shrinks it.
    Quantifier steps trade one depth-d formula for at most two depth-(d-1)
    copies; connective steps keep depths and shrink sizes."""
    return sum((4 ** quantifier_depth(f)) * node_count(f) for f in s.formulas)


Rebuild = Callable[[list[Proof]], Proof]


def _principal(s: Sequent, side: str, idx: int) -> tuple[Formula, str, int]:
    """The formula at (side, idx), its rule tag, and the principal end of
    its cedent."""
    cedent = _cedent(s, side)
    f = cedent[idx]
    return f, proofs.rule_for(side, type(f)), 0 if side == "ante" else len(cedent) - 1


def connective_step(s: Sequent, side: str, idx: int) -> tuple[list[Sequent], Rebuild]:
    """Backwards application of the introduction rule for the principal
    connective of the formula at (side, idx); the rebuild closure adds
    the exchanges that return the principal formula to its position."""
    _, tag, edge = _principal(s, side, idx)

    def rebuild(ps: list[Proof]) -> Proof:
        return proofs.move(proofs.introduce(tag, tuple(ps)), side, edge, idx)

    return proofs.backward(tag, s, idx), rebuild


def _scheme(schemes: dict, which: str, a: Formula, before: tuple, after: tuple) -> Proof:
    """The substitution scheme as one derived-rule node (proofs.scheme),
    which stands for derive_scheme's proof without building it.  It is
    made once per key in `schemes`, the cache of one prove or gprove call,
    so equal schemes are one object."""
    key = (which, a, before, after)
    proof = schemes.get(key)
    if proof is None:
        proof = schemes[key] = proofs.scheme(*key)
    return proof


def oracle_step(s: Sequent, side: str, idx: int, schemes: dict) -> tuple[list[Sequent], Rebuild]:
    """Reduction of an R application with a non-constant argument.  The
    rebuild takes its substitution schemes from `schemes` (see _scheme)."""
    f = _cedent(s, side)[idx]
    arg_idx = _r_with_nonconst(f)
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
            e2 = _scheme(schemes, "E2", a, before, after)
            e4 = _scheme(schemes, "E4", a, before, after)
            # Left: cut the 1-instance against E2.
            prem_a = proofs.weak_r(rec1, r_a, len(delta))
            goal = Sequent((r_one, a) + gamma, delta + (r_a,))
            prem_b = proofs.pad(proofs.exch_l(e2, 0), goal, [0, 1], [len(delta)])  # from R1, A |- RA
            left = proofs.cut(prem_a, prem_b)  # A, Gamma |- Delta, RA
            # Right: cut the 0-instance against E4.
            prem_a = proofs.weak_r(rec2, r_a, len(delta) + 1)
            goal = Sequent((r_zero,) + gamma, delta + (a, r_a))
            prem_b = proofs.pad(e4, goal, [0], [len(delta), len(delta) + 1])
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
        e1 = _scheme(schemes, "E1", a, before, after)
        e3 = _scheme(schemes, "E3", a, before, after)
        # Left: cut the 1-instance against E1.
        goal = Sequent((a, r_a) + gamma, delta + (r_one,))
        prem_a = proofs.pad(e1, goal, [0, 1], [len(delta)])
        prem_b = proofs.weak_l(proofs.exch_l(rec1, 0), r_a, 2)
        _require(
            prem_b.conclusion.antecedent == (r_one, a, r_a) + gamma,
            "E1 cut premise does not start R(..1..), A, R(..A..)",
        )
        left = proofs.cut(prem_a, prem_b)  # A, RA, Gamma |- Delta
        # Right: cut the 0-instance against E3.
        goal = Sequent((r_a,) + gamma, delta + (a, r_zero))
        prem_a = proofs.pad(e3, goal, [0], [len(delta), len(delta) + 1])
        prem_b = proofs.weak_l(rec2, r_a, 1)
        right = proofs.cut(prem_a, prem_b)  # RA, Gamma |- Delta, A
        final = proofs.cut(right, left)
        return proofs.move(final, "ante", 0, idx)

    return [prem1, prem2], rebuild


def quantifier_step(
    s: Sequent, side: str, idx: int, fresh: Iterator[str]
) -> tuple[list[Sequent], Rebuild]:
    """Backwards quantifier rule at (side, idx).  ExR and AllL take both
    constant instances, rebuilt with two instantiations (the one at the
    end first), an exchange and a contraction; AllR and ExL take the next
    eigenvariable from `fresh`."""
    q, tag, edge = _principal(s, side, idx)
    if proofs.RULES[tag].shape == "instance":
        first, second = (Const(0), Const(1)) if side == "ante" else (Const(1), Const(0))

        def rebuild(ps: list[Proof]) -> Proof:
            (p,) = ps
            p = proofs.introduce(tag, (p,), (q.var, q.body), var=q.var, instance=first)
            p = proofs.restructure(proofs.rule_for(side, "swap"), p, edge)
            p = proofs.introduce(tag, (p,), (q.var, q.body), var=q.var, instance=second)
            p = proofs.restructure(proofs.rule_for(side, "duplicate"), p, edge)
            return proofs.move(p, side, edge, idx)

        return proofs.backward(tag, s, idx, (Const(0), Const(1))), rebuild

    eigen = next(fresh)

    def rebuild(ps: list[Proof]) -> Proof:
        (p,) = ps
        p = proofs.introduce(tag, (p,), (q.var, q.body), eigen=eigen)
        return proofs.move(p, side, edge, idx)

    return proofs.backward(tag, s, idx, (Atom(eigen),)), rebuild


def decompose(
    s: Sequent,
    side: str,
    idx: int,
    schemes: dict,
    fresh: Optional[Iterator[str]] = None,
) -> tuple[list[Sequent], Rebuild]:
    """The premises and rebuild closure of the step at (side, idx).  An
    oracle step shares its substitution schemes through `schemes`; a
    quantifier step needs `fresh`, the search's eigenvariable supply."""
    cedent = _cedent(s, side)
    if not (0 <= idx < len(cedent)):
        raise NotDecomposableError(f"no formula at {side} position {idx}")
    f = cedent[idx]
    if _top_connective(f):
        return connective_step(s, side, idx)
    if _top_quantifier(f) and fresh is not None:
        return quantifier_step(s, side, idx, fresh)
    if _r_with_nonconst(f) is not None:
        return oracle_step(s, side, idx, schemes)
    raise NotDecomposableError(f"formula at {side} {idx} is not decomposable")


def _base_proof(s: Sequent) -> Union[Proof, Structure]:
    """An axiom weakened to `s`, or else the structure that sets every
    atom of the antecedent and every R string there to 1 and the rest
    to 0, which falsifies `s`."""
    if Const(1) in s.succedent:
        return proofs.pad(proofs.ax_true(), s, [], [s.succedent.index(Const(1))])
    if Const(0) in s.antecedent:
        return proofs.pad(proofs.ax_false(), s, [s.antecedent.index(Const(0))], [])
    common = [f for f in s.antecedent if f in s.succedent]
    if common:
        f = common[0]
        return proofs.pad(proofs.ax_id(f), s, [s.antecedent.index(f)], [s.succedent.index(f)])
    atoms = {f.name: 1 for f in s.antecedent if isinstance(f, Atom)}
    atoms.update((f.name, 0) for f in s.succedent if isinstance(f, Atom))
    oracle = frozenset(oracle_key(f)[1:] for f in s.antecedent if isinstance(f, RApp))
    return Structure(atoms, oracle)


def _prove(s: Sequent, depth: int, tracker: dict, qfree: bool) -> Union[Proof, Structure, str]:
    """The one recursive search: a proof of `s`, a structure that
    falsifies it, or UNKNOWN.  Premises are searched depth first, left to
    right, and the first that is not proved ends the search.

    `qfree` says `s` is known to be quantifier-free; the premises of a
    quantifier-free sequent are too, so a branch tests it only until it
    holds.  The base case is taken where `choose_target` finds nothing,
    and the sequent cost is computed only there and at oracle steps.
    `tracker` holds the deepest depth reached, the scheme cache of this
    one call, and gprove's eigenvariable supply."""
    tracker["depth"] = max(tracker["depth"], depth)
    qfree = qfree or all(f.quantifier_free for f in s.formulas)
    if qfree:
        target = choose_target(s)
        if target is None:
            _require(cost_sequent(s) == 0, "a sequent with no decomposable formula must have cost 0")
            return _base_proof(s)
        prems, rebuild = decompose(s, *target, tracker["schemes"])
        if isinstance(_cedent(s, target[0])[target[1]], RApp):
            c = cost_sequent(s)
            drops = [c - cost_sequent(p) for p in prems]
            _require(drops == [1, 1], f"oracle step must drop cost by exactly 1, got {drops}")
    else:
        target = _first(s, _top_quantifier) or _first(s, _top_connective)
        if target is None:
            # Quantifiers survive only inside R arguments; no rule reaches them.
            return UNKNOWN
        prems, rebuild = decompose(s, *target, tracker["schemes"], tracker["fresh"])
        _require(max(map(_measure, prems)) < _measure(s), "a step must shrink the measure")
    subproofs = []
    for prem in prems:
        sub = _prove(prem, depth + 1, tracker, qfree)
        if not isinstance(sub, Proof):
            return sub
        subproofs.append(sub)
    return rebuild(subproofs)


def search(s: Sequent, check: Callable[[Proof], list], fresh: Optional[Iterator[str]] = None) -> ProveResult:
    """The one outcome path of prove and gprove: search for a proof of
    `s`, taking eigenvariables from `fresh`, and return UNKNOWN with its
    reason; NOT_VALID with a countermodel that assigns every free atom of
    `s` and is checked to falsify it; or PROVED with a proof that passes
    `check`, the one strict check (the proof builders check nothing), and
    its statistics."""
    tracker = {"depth": 0, "schemes": {}, "fresh": fresh}
    outcome = _prove(s, 0, tracker, False)
    if outcome == UNKNOWN:
        return ProveResult(
            UNKNOWN,
            reason="quantifiers inside R arguments cannot be reduced by the quantifier rules",
        )
    if isinstance(outcome, Structure):
        # Atoms the search never reached read 0: the base sequent does not
        # mention them and every step is invertible, so any value falsifies.
        atoms = dict.fromkeys(sequent_free_atoms(s), 0) | outcome.atoms
        model = Structure(atoms, outcome.oracle)
        _require(eval_formula(validity_formula(s), model) == 0, "countermodel does not falsify the sequent")
        return ProveResult(NOT_VALID, counterexample=model)
    _require(outcome.conclusion == s, "proof concludes a different sequent")
    errors = check(outcome)
    _require(not errors, f"finished proof fails the strict check: {errors[0] if errors else ''}")
    stats = ProverStats(
        counted_sequents=proofs.counted_size(outcome),
        max_line=proofs.max_line_length(outcome),
        cost_at_root=sum(f.cost for f in s.formulas),  # cost_sequent, if quantifier-free
        recursion_depth=tracker["depth"],
    )
    return ProveResult(PROVED, proof=outcome, stats=stats)


def prove(s: Sequent) -> ProveResult:
    """Prove a valid quantifier-free sequent, or report a falsifying
    structure.  Deterministic: identical input yields an identical tree."""
    if not all(f.quantifier_free for f in s.formulas):
        raise ValueError("prove expects a quantifier-free sequent")
    result = search(s, proofs.check_pk)
    if result.status == PROVED:
        stats = result.stats
        _require(
            stats.counted_sequents <= D_LINES * (1 << stats.cost_at_root),
            "proof exceeds d * 2^cost counted lines",
        )
        _require(
            stats.max_line <= E_LINE_FACTOR * syntax.sequent_length(s),
            "proof line exceeds e * |S| symbols",
        )
    return result
