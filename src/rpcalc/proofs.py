"""Sequent-calculus proof objects, the strict checker, and size measures.

Rules follow the classical formulation with principal formulas at cedent
edges: the left-rule principal is the first antecedent formula, the
right-rule principal is the last succedent formula, and structural rules
act on stated positions.  Besides the identity, truth and falsity
axioms there is the oracle substitution axiom

    AxRSubst:   ~A | B, A | ~B, R(C..., A, D...) |- R(C..., B, D...)

which lets provably equivalent formulas be interchanged as arguments of
R.  Proofs are trees; every node is locally checkable.  counted_size
excludes weakenings and exchanges (contractions do count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

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
    CaptureError,
    free_atoms,
    substitute,
)
from . import syntax

AXIOM_TAGS = ("AxId", "AxTrue", "AxFalse", "AxRSubst")
STRUCTURAL_TAGS = ("WeakL", "WeakR", "ExchL", "ExchR", "ContrL", "ContrR")
LOGICAL_TAGS = ("NotL", "NotR", "AndL", "AndR", "OrL", "OrR", "Cut")
QUANTIFIER_TAGS = ("AllL", "AllR", "ExL", "ExR")
RULE_TAGS = AXIOM_TAGS + STRUCTURAL_TAGS + LOGICAL_TAGS + QUANTIFIER_TAGS

UNCOUNTED_TAGS = frozenset({"WeakL", "WeakR", "ExchL", "ExchR"})

_PREMISE_COUNT = {
    **{tag: 0 for tag in AXIOM_TAGS},
    **{tag: 1 for tag in STRUCTURAL_TAGS},
    "NotL": 1,
    "NotR": 1,
    "AndL": 1,
    "AndR": 2,
    "OrL": 2,
    "OrR": 1,
    "Cut": 2,
    "AllL": 1,
    "AllR": 1,
    "ExL": 1,
    "ExR": 1,
}


@dataclass(frozen=True, slots=True)
class Proof:
    """A proof node.  `counted` (counted lines of the tree, see
    counted_size) and `max_line` (its longest conclusion, in symbols)
    are computed once from the premises' values when the node is made."""

    conclusion: Sequent
    rule: str
    params: tuple[tuple[str, Any], ...]
    premises: tuple["Proof", ...]
    counted: int = field(init=False, compare=False, repr=False)
    max_line: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        counted = 0 if self.rule in UNCOUNTED_TAGS else 1
        max_line = syntax.sequent_length(self.conclusion)
        for p in self.premises:
            counted += p.counted
            if p.max_line > max_line:
                max_line = p.max_line
        object.__setattr__(self, "counted", counted)
        object.__setattr__(self, "max_line", max_line)

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default


def _mk(conclusion: Sequent, rule: str, premises: tuple[Proof, ...] = (), **params: Any) -> Proof:
    node = Proof(conclusion, rule, tuple(sorted(params.items())), premises)
    if __debug__:
        problem = _validate(node, allow_quantifiers=True)
        assert problem is None, f"builder produced a bad {rule} node: {problem}"
    return node


@dataclass(frozen=True)
class CheckError:
    path: tuple[int, ...]
    rule: str
    message: str

    def __str__(self) -> str:
        where = "/".join(str(i) for i in self.path) or "root"
        return f"[{where}] {self.rule}: {self.message}"


def nodes(p: Proof) -> Iterator[tuple[tuple[int, ...], Proof]]:
    """Pre-order traversal with premise-index paths."""
    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))


def counted_size(p: Proof) -> int:
    return p.counted


def max_line_length(p: Proof) -> int:
    return p.max_line


def _remove_at(xs: tuple, i: int) -> tuple:
    return xs[:i] + xs[i + 1 :]


def _insert_at(xs: tuple, i: int, value) -> tuple:
    return xs[:i] + (value,) + xs[i:]


def _match_rsubst(s: Sequent) -> Optional[str]:
    if len(s.antecedent) != 3 or len(s.succedent) != 1:
        return "expects antecedent ~A|B, A|~B, R(...,A,...) and a single succedent formula"
    eq1, eq2, left_r = s.antecedent
    right_r = s.succedent[0]
    if not (isinstance(eq1, Or) and isinstance(eq1.left, Not)):
        return "first antecedent formula is not of the form ~A | B"
    a, b = eq1.left.child, eq1.right
    if eq2 != Or(a, Not(b)):
        return "second antecedent formula is not A | ~B for the same A, B"
    if not (isinstance(left_r, RApp) and isinstance(right_r, RApp)):
        return "principal formulas are not R applications"
    if len(left_r.args) != len(right_r.args):
        return "R applications have different arities"
    for i in range(len(left_r.args)):
        if (
            left_r.args[i] == a
            and right_r.args[i] == b
            and left_r.args[:i] == right_r.args[:i]
            and left_r.args[i + 1 :] == right_r.args[i + 1 :]
        ):
            return None
    return "no argument position carries A on the left and B on the right with equal context"


def _validate(node: Proof, allow_quantifiers: bool) -> Optional[str]:
    tag = node.rule
    if tag not in RULE_TAGS:
        return f"unknown rule tag {tag!r}"
    if tag in QUANTIFIER_TAGS and not allow_quantifiers:
        return "quantifier rule is not part of the propositional calculus"
    if not allow_quantifiers:
        for f in node.conclusion.formulas:
            if not f.quantifier_free:
                return "quantified formula in a propositional proof"
    expected = _PREMISE_COUNT[tag]
    if len(node.premises) != expected:
        return f"expects {expected} premises, found {len(node.premises)}"
    c = node.conclusion
    prems = tuple(p.conclusion for p in node.premises)

    if tag == "AxId":
        if len(c.antecedent) == 1 and c.antecedent == c.succedent:
            return None
        return "conclusion is not of the form A |- A"
    if tag == "AxTrue":
        if c.antecedent == () and c.succedent == (Const(1),):
            return None
        return "conclusion is not |- 1"
    if tag == "AxFalse":
        if c.antecedent == (Const(0),) and c.succedent == ():
            return None
        return "conclusion is not 0 |-"
    if tag == "AxRSubst":
        return _match_rsubst(c)

    if tag in ("WeakL", "WeakR"):
        pos = node.param("pos")
        cedent = c.antecedent if tag == "WeakL" else c.succedent
        other_c = c.succedent if tag == "WeakL" else c.antecedent
        p = prems[0]
        p_cedent = p.antecedent if tag == "WeakL" else p.succedent
        p_other = p.succedent if tag == "WeakL" else p.antecedent
        if not isinstance(pos, int) or not (0 <= pos < len(cedent)):
            return f"bad position {pos!r}"
        if other_c != p_other:
            return "side cedent changed"
        if _remove_at(cedent, pos) != p_cedent:
            return "conclusion is not the premise with one formula inserted at pos"
        return None
    if tag in ("ExchL", "ExchR"):
        pos = node.param("pos")
        cedent = c.antecedent if tag == "ExchL" else c.succedent
        p = prems[0]
        p_cedent = p.antecedent if tag == "ExchL" else p.succedent
        p_other = p.succedent if tag == "ExchL" else p.antecedent
        other_c = c.succedent if tag == "ExchL" else c.antecedent
        if not isinstance(pos, int) or not (0 <= pos < len(cedent) - 1):
            return f"bad position {pos!r}"
        if other_c != p_other:
            return "side cedent changed"
        swapped = list(p_cedent)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        if tuple(swapped) != cedent:
            return "conclusion is not the premise with adjacent formulas swapped at pos"
        return None
    if tag in ("ContrL", "ContrR"):
        pos = node.param("pos")
        cedent = c.antecedent if tag == "ContrL" else c.succedent
        p = prems[0]
        p_cedent = p.antecedent if tag == "ContrL" else p.succedent
        p_other = p.succedent if tag == "ContrL" else p.antecedent
        other_c = c.succedent if tag == "ContrL" else c.antecedent
        if not isinstance(pos, int) or not (0 <= pos < len(cedent)):
            return f"bad position {pos!r}"
        if other_c != p_other:
            return "side cedent changed"
        if len(p_cedent) != len(cedent) + 1:
            return "premise must contain one extra copy"
        if not (
            p_cedent[pos] == p_cedent[pos + 1] == cedent[pos]
            and _remove_at(p_cedent, pos) == cedent
        ):
            return "premise is not the conclusion with the pos formula duplicated"
        return None

    if tag == "NotL":
        p = prems[0]
        if not c.antecedent or not isinstance(c.antecedent[0], Not):
            return "conclusion antecedent does not start with a negation"
        a = c.antecedent[0].child
        if p.antecedent == c.antecedent[1:] and p.succedent == c.succedent + (a,):
            return None
        return "premise is not Gamma |- Delta, A for conclusion ~A, Gamma |- Delta"
    if tag == "NotR":
        p = prems[0]
        if not c.succedent or not isinstance(c.succedent[-1], Not):
            return "conclusion succedent does not end with a negation"
        a = c.succedent[-1].child
        if p.antecedent == (a,) + c.antecedent and p.succedent == c.succedent[:-1]:
            return None
        return "premise is not A, Gamma |- Delta for conclusion Gamma |- Delta, ~A"
    if tag == "AndL":
        p = prems[0]
        if not c.antecedent or not isinstance(c.antecedent[0], And):
            return "conclusion antecedent does not start with a conjunction"
        ab = c.antecedent[0]
        if p.antecedent == (ab.left, ab.right) + c.antecedent[1:] and p.succedent == c.succedent:
            return None
        return "premise is not A, B, Gamma |- Delta"
    if tag == "AndR":
        p1, p2 = prems
        if not c.succedent or not isinstance(c.succedent[-1], And):
            return "conclusion succedent does not end with a conjunction"
        ab = c.succedent[-1]
        ctx = c.succedent[:-1]
        if (
            p1.antecedent == c.antecedent
            and p2.antecedent == c.antecedent
            and p1.succedent == ctx + (ab.left,)
            and p2.succedent == ctx + (ab.right,)
        ):
            return None
        return "premises are not Gamma |- Delta, A and Gamma |- Delta, B"
    if tag == "OrL":
        p1, p2 = prems
        if not c.antecedent or not isinstance(c.antecedent[0], Or):
            return "conclusion antecedent does not start with a disjunction"
        ab = c.antecedent[0]
        ctx = c.antecedent[1:]
        if (
            p1.succedent == c.succedent
            and p2.succedent == c.succedent
            and p1.antecedent == (ab.left,) + ctx
            and p2.antecedent == (ab.right,) + ctx
        ):
            return None
        return "premises are not A, Gamma |- Delta and B, Gamma |- Delta"
    if tag == "OrR":
        p = prems[0]
        if not c.succedent or not isinstance(c.succedent[-1], Or):
            return "conclusion succedent does not end with a disjunction"
        ab = c.succedent[-1]
        if p.antecedent == c.antecedent and p.succedent == c.succedent[:-1] + (ab.left, ab.right):
            return None
        return "premise is not Gamma |- Delta, A, B"
    if tag == "Cut":
        p1, p2 = prems
        if not p1.succedent or not p2.antecedent:
            return "premises lack a cut formula"
        a = p1.succedent[-1]
        if p2.antecedent[0] != a:
            return "premises disagree on the cut formula"
        stated = node.param("formula")
        if stated is not None and stated != a:
            return "stated cut formula differs from the premises"
        if (
            p1.antecedent == c.antecedent
            and p1.succedent[:-1] == c.succedent
            and p2.antecedent[1:] == c.antecedent
            and p2.succedent == c.succedent
        ):
            return None
        return "contexts do not match Gamma |- Delta, A with A, Gamma |- Delta"

    if tag in ("AllL", "ExR"):
        p = prems[0]
        instance = node.param("instance")
        if instance is None:
            return "missing instantiation formula"
        if tag == "AllL":
            if not c.antecedent or not isinstance(c.antecedent[0], Forall):
                return "conclusion antecedent does not start with a universal formula"
            q = c.antecedent[0]
            rest_ok = p.antecedent[1:] == c.antecedent[1:] and p.succedent == c.succedent
            got = p.antecedent[0] if p.antecedent else None
        else:
            if not c.succedent or not isinstance(c.succedent[-1], Exists):
                return "conclusion succedent does not end with an existential formula"
            q = c.succedent[-1]
            rest_ok = p.succedent[:-1] == c.succedent[:-1] and p.antecedent == c.antecedent
            got = p.succedent[-1] if p.succedent else None
        stated_var = node.param("var")
        if stated_var is not None and stated_var != q.var:
            return "stated variable differs from the binder"
        try:
            wanted = substitute(q.body, q.var, instance)
        except CaptureError as exc:
            return f"instantiation would capture: {exc}"
        if not rest_ok or got != wanted:
            return "premise principal formula is not the stated instance of the body"
        return None
    if tag in ("AllR", "ExL"):
        p = prems[0]
        eigen = node.param("eigen")
        if not isinstance(eigen, str):
            return "missing eigenvariable"
        if tag == "AllR":
            if not c.succedent or not isinstance(c.succedent[-1], Forall):
                return "conclusion succedent does not end with a universal formula"
            q = c.succedent[-1]
            rest_ok = p.succedent[:-1] == c.succedent[:-1] and p.antecedent == c.antecedent
            got = p.succedent[-1] if p.succedent else None
        else:
            if not c.antecedent or not isinstance(c.antecedent[0], Exists):
                return "conclusion antecedent does not start with an existential formula"
            q = c.antecedent[0]
            rest_ok = p.antecedent[1:] == c.antecedent[1:] and p.succedent == c.succedent
            got = p.antecedent[0] if p.antecedent else None
        for f in c.formulas:
            if eigen in free_atoms(f):
                return f"eigenvariable {eigen!r} occurs free in the conclusion"
        try:
            wanted = substitute(q.body, q.var, Atom(eigen))
        except CaptureError as exc:
            return f"eigenvariable substitution would capture: {exc}"
        if not rest_ok or got != wanted:
            return "premise principal formula is not the body at the eigenvariable"
        return None
    return f"unhandled rule {tag!r}"  # pragma: no cover


def _check(p: Proof, allow_quantifiers: bool) -> list[CheckError]:
    errors = []
    for path, node in nodes(p):
        problem = _validate(node, allow_quantifiers)
        if problem is not None:
            errors.append(CheckError(path, node.rule, problem))
    return errors


def check_pk(p: Proof) -> list[CheckError]:
    """Empty list means the proof is accepted."""
    return _check(p, allow_quantifiers=False)


def check_g(p: Proof) -> list[CheckError]:
    """Checker for the quantified calculus (quantifier rules allowed)."""
    return _check(p, allow_quantifiers=True)


# ---------------------------------------------------------------------------
# Builders.  Each computes the conclusion from its inputs; in debug mode
# the constructed node is re-validated by the checker logic above.

def ax_id(a: Formula) -> Proof:
    return _mk(Sequent((a,), (a,)), "AxId")


def ax_true() -> Proof:
    return _mk(Sequent((), (Const(1),)), "AxTrue")


def ax_false() -> Proof:
    return _mk(Sequent((Const(0),), ()), "AxFalse")


def ax_rsubst(a: Formula, b: Formula, before: tuple[Formula, ...], after: tuple[Formula, ...]) -> Proof:
    ante = (Or(Not(a), b), Or(a, Not(b)), RApp(tuple(before) + (a,) + tuple(after)))
    succ = (RApp(tuple(before) + (b,) + tuple(after)),)
    return _mk(Sequent(ante, succ), "AxRSubst")


def weak_l(p: Proof, f: Formula, pos: int) -> Proof:
    c = p.conclusion
    return _mk(Sequent(_insert_at(c.antecedent, pos, f), c.succedent), "WeakL", (p,), pos=pos)


def weak_r(p: Proof, f: Formula, pos: int) -> Proof:
    c = p.conclusion
    return _mk(Sequent(c.antecedent, _insert_at(c.succedent, pos, f)), "WeakR", (p,), pos=pos)


def exch_l(p: Proof, pos: int) -> Proof:
    c = p.conclusion
    ante = list(c.antecedent)
    ante[pos], ante[pos + 1] = ante[pos + 1], ante[pos]
    return _mk(Sequent(tuple(ante), c.succedent), "ExchL", (p,), pos=pos)


def exch_r(p: Proof, pos: int) -> Proof:
    c = p.conclusion
    succ = list(c.succedent)
    succ[pos], succ[pos + 1] = succ[pos + 1], succ[pos]
    return _mk(Sequent(c.antecedent, tuple(succ)), "ExchR", (p,), pos=pos)


def contr_l(p: Proof, pos: int) -> Proof:
    c = p.conclusion
    return _mk(Sequent(_remove_at(c.antecedent, pos), c.succedent), "ContrL", (p,), pos=pos)


def contr_r(p: Proof, pos: int) -> Proof:
    c = p.conclusion
    return _mk(Sequent(c.antecedent, _remove_at(c.succedent, pos)), "ContrR", (p,), pos=pos)


def not_l(p: Proof) -> Proof:
    c = p.conclusion
    a = c.succedent[-1]
    return _mk(Sequent((Not(a),) + c.antecedent, c.succedent[:-1]), "NotL", (p,))


def not_r(p: Proof) -> Proof:
    c = p.conclusion
    a = c.antecedent[0]
    return _mk(Sequent(c.antecedent[1:], c.succedent + (Not(a),)), "NotR", (p,))


def and_l(p: Proof) -> Proof:
    c = p.conclusion
    a, b = c.antecedent[0], c.antecedent[1]
    return _mk(Sequent((And(a, b),) + c.antecedent[2:], c.succedent), "AndL", (p,))


def and_r(p1: Proof, p2: Proof) -> Proof:
    c1, c2 = p1.conclusion, p2.conclusion
    a, b = c1.succedent[-1], c2.succedent[-1]
    return _mk(Sequent(c1.antecedent, c1.succedent[:-1] + (And(a, b),)), "AndR", (p1, p2))


def or_l(p1: Proof, p2: Proof) -> Proof:
    c1, c2 = p1.conclusion, p2.conclusion
    a, b = c1.antecedent[0], c2.antecedent[0]
    return _mk(Sequent((Or(a, b),) + c1.antecedent[1:], c1.succedent), "OrL", (p1, p2))


def or_r(p: Proof) -> Proof:
    c = p.conclusion
    a, b = c.succedent[-2], c.succedent[-1]
    return _mk(Sequent(c.antecedent, c.succedent[:-2] + (Or(a, b),)), "OrR", (p,))


def cut(p1: Proof, p2: Proof) -> Proof:
    c1 = p1.conclusion
    a = c1.succedent[-1]
    return _mk(Sequent(c1.antecedent, c1.succedent[:-1]), "Cut", (p1, p2), formula=a)


def all_l(p: Proof, var: str, body: Formula, instance: Formula) -> Proof:
    c = p.conclusion
    return _mk(
        Sequent((Forall(var, body),) + c.antecedent[1:], c.succedent),
        "AllL",
        (p,),
        var=var,
        instance=instance,
    )


def ex_r(p: Proof, var: str, body: Formula, instance: Formula) -> Proof:
    c = p.conclusion
    return _mk(
        Sequent(c.antecedent, c.succedent[:-1] + (Exists(var, body),)),
        "ExR",
        (p,),
        var=var,
        instance=instance,
    )


def all_r(p: Proof, var: str, body: Formula, eigen: str) -> Proof:
    c = p.conclusion
    return _mk(
        Sequent(c.antecedent, c.succedent[:-1] + (Forall(var, body),)),
        "AllR",
        (p,),
        eigen=eigen,
    )


def ex_l(p: Proof, var: str, body: Formula, eigen: str) -> Proof:
    c = p.conclusion
    return _mk(
        Sequent((Exists(var, body),) + c.antecedent[1:], c.succedent),
        "ExL",
        (p,),
        eigen=eigen,
    )


def pad(p: Proof, side: str, target: tuple[Formula, ...], keep: list[int]) -> Proof:
    """Weaken until the cedent on `side` ("ante" or "succ") equals
    `target`; `keep` gives, in order, the target positions of the
    formulas already present."""
    weaken = weak_l if side == "ante" else weak_r
    placed = sorted(keep)
    keep_set = set(keep)
    for ti, f in enumerate(target):
        if ti in keep_set:
            continue
        pos = sum(1 for existing in placed if existing < ti)
        p = weaken(p, f, pos)
        placed.append(ti)
        placed.sort()
    return p


def move(p: Proof, side: str, src: int, dst: int) -> Proof:
    """Exchange chain moving the formula at src of the cedent on `side`
    ("ante" or "succ") to dst."""
    exch = exch_l if side == "ante" else exch_r
    while src < dst:
        p = exch(p, src)
        src += 1
    while src > dst:
        p = exch(p, src - 1)
        src -= 1
    return p


# ---------------------------------------------------------------------------
# The four argument-substitution schemes.  Each derivation has a fixed
# node count regardless of A and the surrounding argument vectors:
# counted sizes are 7, 7, 9, 9.

E_SCHEMES = ("E1", "E2", "E3", "E4")


def scheme_conclusion(which: str, a: Formula, before, after) -> Sequent:
    before, after = tuple(before), tuple(after)
    r_a = RApp(before + (a,) + after)
    r_one = RApp(before + (Const(1),) + after)
    r_zero = RApp(before + (Const(0),) + after)
    if which == "E1":
        return Sequent((a, r_a), (r_one,))
    if which == "E2":
        return Sequent((a, r_one), (r_a,))
    if which == "E3":
        return Sequent((r_a,), (a, r_zero))
    if which == "E4":
        return Sequent((r_zero,), (a, r_a))
    raise ValueError(f"unknown scheme {which!r}")


def derive_scheme(which: str, a: Formula, before=(), after=()) -> Proof:
    """Checker-accepted proof of the requested substitution scheme."""
    before, after = tuple(before), tuple(after)
    one, zero = Const(1), Const(0)
    r_a = RApp(before + (a,) + after)
    r_one = RApp(before + (one,) + after)
    r_zero = RApp(before + (zero,) + after)

    if which == "E1":
        # A, R(...A...) |- R(...1...)
        side1 = or_r(weak_r(ax_true(), Not(a), 0))          # |- ~A | 1
        side2 = or_r(weak_r(ax_id(a), Not(one), 1))          # A |- A | ~1
        ax = ax_rsubst(a, one, before, after)
        x1 = Or(Not(a), one)
        prem_b = weak_l(exch_l(ax, 0), a, 1)                 # A|~1, A, ~A|1, RA |- R1
        prem_a = weak_r(weak_l(weak_l(side2, x1, 1), r_a, 2), r_one, 0)
        c1 = cut(prem_a, prem_b)                             # A, ~A|1, RA |- R1
        prem_a2 = weak_r(weak_l(weak_l(side1, a, 0), r_a, 1), r_one, 0)
        prem_b2 = exch_l(c1, 0)
        return cut(prem_a2, prem_b2)

    if which == "E2":
        # A, R(...1...) |- R(...A...)
        side1 = or_r(weak_r(ax_id(a), Not(one), 0))          # A |- ~1 | A
        side2 = or_r(weak_r(ax_true(), Not(a), 1))           # |- 1 | ~A
        ax = ax_rsubst(one, a, before, after)
        x1 = Or(Not(one), a)
        prem_b = weak_l(exch_l(ax, 0), a, 1)                 # 1|~A, A, ~1|A, R1 |- RA
        prem_a = weak_r(weak_l(weak_l(side2, a, 0), x1, 1), r_a, 0)
        prem_a = weak_l(prem_a, r_one, 2)
        c1 = cut(prem_a, prem_b)                             # A, ~1|A, R1 |- RA
        prem_a2 = weak_r(weak_l(side1, r_one, 1), r_a, 0)
        prem_b2 = exch_l(c1, 0)
        return cut(prem_a2, prem_b2)

    if which == "E3":
        # R(...A...) |- A, R(...0...)
        side1 = or_r(weak_r(not_r(ax_id(a)), zero, 2))       # |- A, ~A | 0
        side2 = or_r(weak_r(not_r(ax_false()), a, 0))        # |- A | ~0
        ax = ax_rsubst(a, zero, before, after)
        x1 = Or(Not(a), zero)
        prem_b = weak_r(exch_l(ax, 0), a, 0)                 # A|~0, ~A|0, RA |- A, R0
        prem_a = weak_r(weak_r(weak_l(weak_l(side2, x1, 0), r_a, 1), a, 0), r_zero, 1)
        c1 = cut(prem_a, prem_b)                             # ~A|0, RA |- A, R0
        prem_a2 = weak_r(weak_l(side1, r_a, 0), r_zero, 1)
        prem_b2 = c1
        return cut(prem_a2, prem_b2)

    if which == "E4":
        # R(...0...) |- A, R(...A...)
        side1 = or_r(weak_r(not_r(ax_false()), a, 1))        # |- ~0 | A
        side2 = or_r(weak_r(not_r(ax_id(a)), zero, 1))       # |- A, 0 | ~A
        ax = ax_rsubst(zero, a, before, after)
        x1 = Or(Not(zero), a)
        prem_b = weak_r(exch_l(ax, 0), a, 0)                 # 0|~A, ~0|A, R0 |- A, RA
        prem_a = weak_r(weak_l(weak_l(side2, x1, 0), r_zero, 1), r_a, 1)
        c1 = cut(prem_a, prem_b)                             # ~0|A, R0 |- A, RA
        prem_a2 = weak_r(weak_r(weak_l(side1, r_zero, 0), a, 0), r_a, 1)
        prem_b2 = c1
        return cut(prem_a2, prem_b2)

    raise ValueError(f"unknown scheme {which!r}")


# ---------------------------------------------------------------------------
# JSON interchange: conclusions are stored as surface text and re-parsed.

class ProofFormatError(ValueError):
    pass


def proof_to_json(p: Proof) -> dict:
    params = {}
    for key, value in p.params:
        params[key] = syntax.format_formula(value) if key in ("formula", "instance") else value
    return {
        "conclusion": syntax.format_sequent(p.conclusion),
        "rule": p.rule,
        "params": params,
        "premises": [proof_to_json(q) for q in p.premises],
    }


def proof_from_json(data: Any) -> Proof:
    if not isinstance(data, dict):
        raise ProofFormatError("proof node must be an object")
    try:
        conclusion = syntax.parse_sequent(data["conclusion"])
        rule = data["rule"]
        raw_params = data.get("params", {})
        premises = tuple(proof_from_json(q) for q in data.get("premises", []))
    except ProofFormatError:
        raise
    except KeyError as exc:
        raise ProofFormatError(f"missing field {exc}")
    except Exception as exc:
        raise ProofFormatError(str(exc))
    if rule not in RULE_TAGS:
        raise ProofFormatError(f"unknown rule tag {rule!r}")
    params = {}
    for key, value in dict(raw_params).items():
        if key in ("formula", "instance"):
            try:
                params[key] = syntax.parse_formula(value)
            except Exception as exc:
                raise ProofFormatError(f"bad formula parameter {key}: {exc}")
        else:
            params[key] = value
    return Proof(conclusion, rule, tuple(sorted(params.items())), premises)


def dump_proof(p: Proof) -> str:
    """One line of compact JSON; without indentation the C encoder runs."""
    return json.dumps(proof_to_json(p), sort_keys=True, separators=(",", ":"))


def load_proof(text: str) -> Proof:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProofFormatError(f"not valid JSON: {exc}")
    return proof_from_json(data)
