"""AST and basic measures for oracle-relativized propositional formulas.

Formulas are built from atoms, the constants 0 and 1, the connectives
~ & |, applications R(A1, ..., An) of the oracle relation symbol R
(n >= 0 is allowed), and the Boolean quantifiers `all` / `ex`.  All
values are immutable and hashable; every operation is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

_ATOM_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class CaptureError(ValueError):
    """Substitution would capture a free variable of the replacement."""

    def __init__(self, binder: str):
        super().__init__(f"substitution would capture under the binder for {binder!r}")
        self.binder = binder


class QuantifiedCostError(ValueError):
    """cost() was applied to a quantified formula."""


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not _ATOM_NAME.match(name):
        raise ValueError(f"invalid atom name: {name!r} (expected [a-z][a-zA-Z0-9_]*)")


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)


@dataclass(frozen=True)
class Const:
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"constant bit must be 0 or 1, got {self.bit!r}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class RApp:
    args: tuple["Formula", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"

    def __post_init__(self) -> None:
        _check_name(self.var)


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    def __post_init__(self) -> None:
        _check_name(self.var)


Formula = Union[Atom, Const, Not, And, Or, RApp, Forall, Exists]

TRUE = Const(1)
FALSE = Const(0)


def implies(a: Formula, b: Formula) -> Formula:
    """A => B as surface sugar: there is no implication node in the AST."""
    return Or(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    """A <=> B, expanded to (A => B) & (B => A)."""
    return And(implies(a, b), implies(b, a))


def rapp(*args: Formula) -> RApp:
    return RApp(tuple(args))


def and_all(parts) -> Formula:
    """Left-associated conjunction; empty input yields 1."""
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def or_all(parts) -> Formula:
    """Left-associated disjunction; empty input yields 0."""
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def foralls(names, body: Formula) -> Formula:
    for name in reversed(list(names)):
        body = Forall(name, body)
    return body


def existss(names, body: Formula) -> Formula:
    for name in reversed(list(names)):
        body = Exists(name, body)
    return body


@dataclass(frozen=True)
class Sequent:
    """Antecedent |- succedent.  Cedents are sequences: order and
    multiplicity matter (exchange and contraction are explicit rules)."""

    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", tuple(self.antecedent))
        object.__setattr__(self, "succedent", tuple(self.succedent))

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return self.antecedent + self.succedent


def walk(f: Formula) -> Iterator[Formula]:
    """Pre-order traversal of all subformulas, including R arguments."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, RApp):
            stack.extend(reversed(g.args))
        elif isinstance(g, (Forall, Exists)):
            stack.append(g.body)


def is_quantifier_free(f: Formula) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is Not:
            stack.append(g.child)
        elif kind is And or kind is Or:
            stack.append(g.left)
            stack.append(g.right)
        elif kind is RApp:
            stack.extend(g.args)
        elif kind is Forall or kind is Exists:
            return False
    return True


def quantifier_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Const)):
        return 0
    if isinstance(f, Not):
        return quantifier_depth(f.child)
    if isinstance(f, (And, Or)):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    if isinstance(f, RApp):
        return max((quantifier_depth(a) for a in f.args), default=0)
    return 1 + quantifier_depth(f.body)


def node_count(f: Formula) -> int:
    return sum(1 for _ in walk(f))


def cost(f: Formula) -> int:
    """Connective count plus, per R application, the number of arguments
    that are not the literal constants 0 or 1 (recursing into arguments)."""
    if not is_quantifier_free(f):
        raise QuantifiedCostError("cost undefined for quantified formulas")
    total = 0
    for g in walk(f):
        if isinstance(g, (Not, And, Or)):
            total += 1
        elif isinstance(g, RApp):
            total += sum(1 for a in g.args if not isinstance(a, Const))
    return total


def cost_sequent(s: Sequent) -> int:
    return sum(cost(f) for f in s.formulas)


def free_atoms(f: Formula) -> frozenset[str]:
    out: set[str] = set()

    def go(g: Formula, bound: frozenset[str]) -> None:
        if isinstance(g, Atom):
            if g.name not in bound:
                out.add(g.name)
        elif isinstance(g, Not):
            go(g.child, bound)
        elif isinstance(g, (And, Or)):
            go(g.left, bound)
            go(g.right, bound)
        elif isinstance(g, RApp):
            for a in g.args:
                go(a, bound)
        elif isinstance(g, (Forall, Exists)):
            go(g.body, bound | {g.var})

    go(f, frozenset())
    return frozenset(out)


def all_names(f: Formula) -> frozenset[str]:
    """Every atom name occurring anywhere, free or bound, plus binder names."""
    out: set[str] = set()
    for g in walk(f):
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (Forall, Exists)):
            out.add(g.var)
    return frozenset(out)


def sequent_free_atoms(s: Sequent) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for f in s.formulas:
        out |= free_atoms(f)
    return out


def substitute(f: Formula, var: str, replacement: Formula) -> Formula:
    """Replace every free occurrence of `var` by `replacement`.

    Raises CaptureError (naming the offending binder) if a free variable
    of the replacement would be captured; no implicit renaming happens.
    """
    return substitute_all(f, {var: replacement})


def substitute_all(f: Formula, env: dict[str, Formula]) -> Formula:
    """Replace the free occurrences of every name in env at once.

    Unchanged subtrees are returned as-is.  Capture is checked at each
    binder, outermost first, and raises CaptureError naming it.
    """
    if not env:
        return f
    kind = type(f)
    if kind is Atom:
        return env.get(f.name, f)
    if kind is Const:
        return f
    if kind is Not:
        c = substitute_all(f.child, env)
        return f if c is f.child else Not(c)
    if kind is And or kind is Or:
        left = substitute_all(f.left, env)
        right = substitute_all(f.right, env)
        if left is f.left and right is f.right:
            return f
        return kind(left, right)
    if kind is RApp:
        args = tuple([substitute_all(a, env) for a in f.args])
        if all(a is b for a, b in zip(args, f.args)):
            return f
        return RApp(args)
    body_free = free_atoms(f.body)
    env = {name: r for name, r in env.items() if name != f.var and name in body_free}
    if any(f.var in free_atoms(r) for r in env.values()):
        raise CaptureError(f.var)
    body = substitute_all(f.body, env)
    return f if body is f.body else kind(f.var, body)


_UNCLASSIFIABLE = "X"


def _signatures(f: Formula, flipped: bool) -> frozenset[str]:
    """Quantifier-alternation signatures of root-to-leaf paths, with
    polarity: a quantifier under an odd number of negations flips kind.
    Quantifiers inside R arguments are marked unclassifiable."""
    if isinstance(f, (Atom, Const)):
        return frozenset({""})
    if isinstance(f, Not):
        return _signatures(f.child, not flipped)
    if isinstance(f, (And, Or)):
        return _signatures(f.left, flipped) | _signatures(f.right, flipped)
    if isinstance(f, RApp):
        if all(is_quantifier_free(a) for a in f.args):
            return frozenset({""})
        return frozenset({_UNCLASSIFIABLE})
    kind = "A" if isinstance(f, Forall) else "E"
    if flipped:
        kind = "E" if kind == "A" else "A"
    out = set()
    for sig in _signatures(f.body, flipped):
        if sig == _UNCLASSIFIABLE:
            out.add(sig)
        elif sig.startswith(kind):
            out.add(sig)
        else:
            out.add(kind + sig)
    return frozenset(out)


def classify(f: Formula) -> str:
    """One of quantifier_free, pi1, sigma1, sigma2, other.

    Classification is by prenexable shape: quantifiers reachable through
    connectives count toward the prefix (negation flips their kind), so
    e.g. a disjunction with a universally quantified disjunct is still
    pi1-shaped.  Quantifiers inside R arguments are never prenexable.
    """
    sigs = {s for s in _signatures(f, False) if s != ""}
    if not sigs:
        return "quantifier_free"
    if _UNCLASSIFIABLE in sigs:
        return "other"
    if sigs <= {"E"}:
        return "sigma1"
    if sigs <= {"A"}:
        return "pi1"
    if sigs <= {"E", "A", "EA"}:
        return "sigma2"
    return "other"


_BITS = (FALSE, TRUE)


def fold_assign(
    f: Formula, atoms: dict[str, int], strings: Optional[dict[str, int]] = None
) -> Formula:
    """Substitute constant bits for atoms and fold constants in one pass.

    An R application whose arguments fold to constants folds to the bit
    that `strings` assigns its string, if any; other R applications stay
    and their arguments are folded.  Unchanged subtrees are returned
    as-is (no reallocation).  Only defined on quantifier-free formulas.
    """
    kind = type(f)
    if kind is Atom:
        bit = atoms.get(f.name)
        return f if bit is None else _BITS[bit]
    if kind is Const:
        return f
    if kind is Not:
        c = fold_assign(f.child, atoms, strings)
        if type(c) is Const:
            return _BITS[1 - c.bit]
        return f if c is f.child else Not(c)
    if kind is And or kind is Or:
        absorbing = 0 if kind is And else 1
        left = fold_assign(f.left, atoms, strings)
        if type(left) is Const:
            return left if left.bit == absorbing else fold_assign(f.right, atoms, strings)
        right = fold_assign(f.right, atoms, strings)
        if type(right) is Const:
            return right if right.bit == absorbing else left
        if left is f.left and right is f.right:
            return f
        return kind(left, right)
    if kind is RApp:
        args = tuple([fold_assign(a, atoms, strings) for a in f.args])
        if strings and all(type(a) is Const for a in args):
            bit = strings.get("".join([str(a.bit) for a in args]))
            if bit is not None:
                return _BITS[bit]
        if all(a is b for a, b in zip(args, f.args)):
            return f
        return RApp(args)
    raise ValueError("fold_assign expects a quantifier-free formula")


def atom_names_fast(f: Formula) -> set[str]:
    """Names of all atoms in a quantifier-free formula (all are free)."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is Atom:
            out.add(g.name)
        elif kind is Not:
            stack.append(g.child)
        elif kind is And or kind is Or:
            stack.append(g.left)
            stack.append(g.right)
        elif kind is RApp:
            stack.extend(g.args)
    return out


def _flatten(f: Formula, kind: type) -> list[Formula]:
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, kind):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


def flatten_and(f: Formula) -> list[Formula]:
    """Top-level conjuncts of f, left to right."""
    return _flatten(f, And)


def flatten_or(f: Formula) -> list[Formula]:
    """Top-level disjuncts of f, left to right."""
    return _flatten(f, Or)
