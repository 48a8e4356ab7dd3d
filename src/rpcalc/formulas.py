"""AST and basic measures for oracle-relativized propositional formulas.

Formulas are built from atoms, the constants 0 and 1, the connectives
~ & |, applications R(A1, ..., An) of the oracle relation symbol R
(n >= 0 is allowed), and the Boolean quantifiers `all` / `ex`.  All
values are immutable and hashable; every operation is a pure function.
Nodes are hash-consed (see _Node), so equal formulas are one object and
a node's measures are computed once and kept on it.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Iterator, Optional, Union

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


class _Entry(weakref.ref):
    """A unique-table entry: a weak reference that knows its own key."""

    __slots__ = ("key",)


# (class, field or id(child), ...) -> entry of the one live node with
# those fields.  Keying children by id is sound: a live node keeps its
# children alive, and its entry is removed as it dies, before they can.
_TABLE: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, table: dict = _TABLE) -> None:
    # the table is bound as a default, so nodes that die while the
    # interpreter tears the module down are still removed cleanly
    if table.get(entry.key) is entry:
        del table[entry.key]


class _Node:
    """A hash-consed formula node.  Constructors return the one live node
    with the given class and fields, so structural equality is identity:
    `==` and `hash` are object's own.  Hashes therefore vary between
    runs, as string hashes already did, and no output may depend on them.

    Each node stores, when built, `quantifier_free` and `cost`: the
    connectives, quantifier nodes and non-constant R arguments it
    contains, which is the paper's cost on quantifier-free formulas.
    Its token length (syntax.length), key set (key_set), node count and
    quantifier depth stay None until their first request.

    A node is built as an instance of a mutable class with the same
    slots (its "fields" class) and then given its public class, whose
    __setattr__ refuses writes: assigning slots directly is several
    times cheaper than object.__setattr__."""

    __slots__ = ("quantifier_free", "cost", "_length", "_keys", "_size", "_depth", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def _children(self) -> tuple["Formula", ...]:
        return ()


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")


def _finish(node: _Node, cls: type, key: tuple, quantifier_free: bool, cost: int):
    """Store the eager measures on a node still of its fields class,
    give it its public class and enter it in the unique table."""
    node.quantifier_free = quantifier_free
    node.cost = cost
    node._length = node._keys = node._size = node._depth = None
    node.__class__ = cls
    entry = _Entry(node, _forget)
    entry.key = key
    _TABLE[key] = entry
    return node


class _AtomFields(_Node):
    __slots__ = ("name",)


class Atom(_Frozen, _AtomFields):
    __slots__ = ()
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        if not isinstance(name, str):
            _check_name(name)
        key = (cls, name)
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        _check_name(name)
        node = object.__new__(_AtomFields)
        node.name = name
        return _finish(node, cls, key, True, 0)


class _ConstFields(_Node):
    __slots__ = ("bit",)


class Const(_Frozen, _ConstFields):
    __slots__ = ()
    __match_args__ = ("bit",)

    def __new__(cls, bit: int):
        if bit not in (0, 1):
            raise ValueError(f"constant bit must be 0 or 1, got {bit!r}")
        key = (cls, bit)
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        node = object.__new__(_ConstFields)
        node.bit = int(bit)
        return _finish(node, cls, key, True, 0)


class _NotFields(_Node):
    __slots__ = ("child",)


class Not(_Frozen, _NotFields):
    __slots__ = ()
    __match_args__ = ("child",)

    def __new__(cls, child: "Formula"):
        key = (cls, id(child))
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        node = object.__new__(_NotFields)
        node.child = child
        return _finish(node, cls, key, child.quantifier_free, child.cost + 1)

    def _children(self) -> tuple["Formula", ...]:
        return (self.child,)


class _BinaryFields(_Node):
    __slots__ = ("left", "right")


class _Binary(_Frozen, _BinaryFields):
    __slots__ = ()
    __match_args__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, id(left), id(right))
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        node = object.__new__(_BinaryFields)
        node.left = left
        node.right = right
        return _finish(
            node,
            cls,
            key,
            left.quantifier_free and right.quantifier_free,
            left.cost + right.cost + 1,
        )

    def _children(self) -> tuple["Formula", ...]:
        return (self.left, self.right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class _RAppFields(_Node):
    __slots__ = ("args",)


class RApp(_Frozen, _RAppFields):
    __slots__ = ()
    __match_args__ = ("args",)

    def __new__(cls, args: tuple["Formula", ...]):
        args = tuple(args)
        key = (cls, *map(id, args))
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        node = object.__new__(_RAppFields)
        node.args = args
        return _finish(
            node,
            cls,
            key,
            all([a.quantifier_free for a in args]),
            sum([a.cost + (type(a) is not Const) for a in args]),
        )

    def _children(self) -> tuple["Formula", ...]:
        return self.args


class _QuantifierFields(_Node):
    __slots__ = ("var", "body")


class _Quantifier(_Frozen, _QuantifierFields):
    __slots__ = ()
    __match_args__ = ("var", "body")

    def __new__(cls, var: str, body: "Formula"):
        if not isinstance(var, str):
            _check_name(var)
        key = (cls, var, id(body))
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        _check_name(var)
        node = object.__new__(_QuantifierFields)
        node.var = var
        node.body = body
        return _finish(node, cls, key, False, body.cost + 1)

    def _children(self) -> tuple["Formula", ...]:
        return (self.body,)


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


Formula = Union[Atom, Const, Not, And, Or, RApp, Forall, Exists]

TRUE = Const(1)
FALSE = Const(0)


def implies(a: Formula, b: Formula) -> Formula:
    """A => B as surface sugar: there is no implication node in the AST."""
    return Or(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    """A <=> B, expanded to (A => B) & (B => A)."""
    return And(implies(a, b), implies(b, a))


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
        stack += reversed(g._children())


def is_quantifier_free(f: Formula) -> bool:
    return f.quantifier_free


def _fill(f: Formula, slot: str, compute: Callable[[Formula], Any]) -> Any:
    """A lazily filled node measure: f's `slot`, computed first, children
    before parents, on f and every node below it where it is still None.
    `compute(g)` may read the slot on g's children.  The walk keeps its
    own stack: compiled formulas nest deeper than the recursion limit."""
    value = getattr(f, slot)
    if value is not None:
        return value
    stack = [f]
    while stack:
        g = stack[-1]
        missing = [c for c in g._children() if getattr(c, slot) is None]
        if missing:
            stack += missing
            continue
        stack.pop()
        if getattr(g, slot) is None:
            object.__setattr__(g, slot, compute(g))
    return getattr(f, slot)


def _depth_of(g: Formula) -> int:
    if isinstance(g, (Forall, Exists)):
        return g.body._depth + 1
    return max([c._depth for c in g._children()], default=0)


def quantifier_depth(f: Formula) -> int:
    return _fill(f, "_depth", _depth_of)


def node_count(f: Formula) -> int:
    """Tree size: subformulas counted once per occurrence."""
    return _fill(f, "_size", lambda g: 1 + sum([c._size for c in g._children()]))


def cost(f: Formula) -> int:
    """Connective count plus, per R application, the number of arguments
    that are not the literal constants 0 or 1 (recursing into arguments)."""
    if not f.quantifier_free:
        raise QuantifiedCostError("cost undefined for quantified formulas")
    return f.cost


def cost_sequent(s: Sequent) -> int:
    return sum(cost(f) for f in s.formulas)


def free_atoms(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, Atom):
            if g.name not in bound:
                out.add(g.name)
        elif isinstance(g, (Forall, Exists)):
            stack.append((g.body, bound | {g.var}))
        else:
            stack += [(c, bound) for c in g._children()]
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


def fresh_names(prefix: str, taken: AbstractSet[str]) -> Iterator[str]:
    """prefix0, prefix1, ... in order, skipping every name in `taken`."""
    names = (f"{prefix}{i}" for i in itertools.count())
    return (name for name in names if name not in taken)


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


_BITS = (FALSE, TRUE)


def fold_assign(
    f: Formula, atoms: dict[str, int], strings: Optional[dict[str, int]] = None
) -> Formula:
    """Substitute constant bits for atoms and fold constants in one pass.

    An R application whose arguments fold to constants folds to the bit
    that `strings` assigns its string, if any; other R applications stay
    and their arguments are folded.  Unchanged subtrees are returned
    as-is (no reallocation).  Each distinct node is folded once per
    call: nodes are hash-consed, so a subtree that occurs many times is
    one node.  Only defined on quantifier-free formulas.
    """
    return _fold(f, atoms, strings, {})


def _fold(f: Formula, atoms: dict[str, int], strings: Optional[dict[str, int]], memo: dict) -> Formula:
    """fold_assign's recursion; `memo` maps each compound node folded in
    this call to its result."""
    kind = type(f)
    if kind is Atom:
        bit = atoms.get(f.name)
        return f if bit is None else _BITS[bit]
    if kind is Const:
        return f
    out = memo.get(f)
    if out is not None:
        return out
    if kind is Not:
        c = _fold(f.child, atoms, strings, memo)
        if type(c) is Const:
            out = _BITS[1 - c.bit]
        else:
            out = f if c is f.child else Not(c)
    elif kind is And or kind is Or:
        absorbing = 0 if kind is And else 1
        left = _fold(f.left, atoms, strings, memo)
        if type(left) is Const:
            out = left if left.bit == absorbing else _fold(f.right, atoms, strings, memo)
        else:
            right = _fold(f.right, atoms, strings, memo)
            if type(right) is Const:
                out = right if right.bit == absorbing else left
            elif left is f.left and right is f.right:
                out = f
            else:
                out = kind(left, right)
    elif kind is RApp:
        out = f
        if f.cost:
            args = tuple([_fold(a, atoms, strings, memo) for a in f.args])
            if not all([a is b for a, b in zip(args, f.args)]):
                out = RApp(args)
        if strings and out.cost == 0:  # every argument a constant
            bit = strings.get(oracle_key(out)[1:])
            if bit is not None:
                out = _BITS[bit]
    else:
        raise ValueError("fold_assign expects a quantifier-free formula")
    memo[f] = out
    return out


# Key sets of at most this many keys are cached on their nodes.  Larger
# ones are gathered from the cached sets below them at each request, so
# the cache stays linear in the number of nodes: a conjunction chain of
# n clauses would otherwise cache n ever larger prefix sets.
_CACHED_KEYS = 64

_NO_KEYS: frozenset[str] = frozenset()


def _keys_of(g: Formula) -> Union[frozenset[str], bool]:
    """g's key set from its children's, or False when it is too large to
    cache.  Quantified subformulas contribute no keys."""
    kind = type(g)
    if kind is Atom:
        return frozenset(("a" + g.name,))
    if kind is Not:
        return g.child._keys
    if kind is RApp:
        if g.cost == 0:  # every argument a constant
            return frozenset(("s" + "".join([str(a.bit) for a in g.args]),))
    elif kind is not And and kind is not Or:
        return _NO_KEYS
    out = _NO_KEYS
    for c in g._children():
        keys = c._keys
        if keys is False:
            return False
        if not keys <= out:
            out = keys if out <= keys else out | keys
    return out if len(out) <= _CACHED_KEYS else False


def key_set(f: Formula) -> AbstractSet[str]:
    """The keys of a quantifier-free formula: "a" + name for each atom
    and "s" + string for each R application whose arguments are all
    constants.  Keys sort like ("a", name) and ("s", string) pairs."""
    keys = _fill(f, "_keys", _keys_of)
    if keys is not False:
        return keys
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        keys = g._keys
        if keys is False:
            stack += g._children()
        else:
            out |= keys
    return out


def oracle_key(g: RApp) -> str:
    """The key "s" + string of an R application of cost 0 (all arguments
    constants), read from its cached key set."""
    (key,) = g._keys or key_set(g)
    return key


def atom_names_fast(f: Formula) -> set[str]:
    """Names of all atoms in a quantifier-free formula (all are free)."""
    return {key[1:] for key in key_set(f) if key[0] == "a"}


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
