"""Structures, evaluation, and satisfiability/validity deciders.

A structure assigns bits to atoms and fixes a finite set of binary
strings as the oracle; strings not listed are out.  Satisfiability for
quantifier-free formulas searches certificates: an atom assignment plus
an in/out choice per distinct queried string (occurrences whose argument
vectors evaluate to the same string share one choice).  The pi1 solver
expands the universal prefix, forcing the universals that a guard fixes
instead of branching on them.  One ground engine, unit propagation with
chronological backtracking on an undo trail, serves sat_pc, valid_pc,
sequent_valid and sat_pi1 with one branch rule: decide the least
unassigned key, sorted atoms before sorted strings, 0 before 1.  So
sat_pc and sat_pi1 return the same witness for a quantifier-free
formula, the first one in that order.  The expansion and the engine
fold with formulas.fold_assign, the engine also resolving the strings
it has assigned.  Only eval_formula runs _eval, the independent
evaluator.  holds_universally is the witness check: it decides exactly,
through the same expansion, whether a structure satisfies a closed pi1
formula.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .formulas import (
    And,
    Atom,
    Const,
    Exists,
    FALSE,
    Forall,
    Formula,
    Not,
    Or,
    RApp,
    Sequent,
    all_names,
    and_all,
    atom_names_fast,
    flatten_and,
    flatten_or,
    fold_assign,
    free_atoms,
    fresh_names,
    is_quantifier_free,
    key_set,
    oracle_key,
    or_all,
    substitute_all,
)


class UnassignedAtomError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} has no assigned value")
        self.name = name


@dataclass(frozen=True)
class Structure:
    """Truth assignment plus a finite explicit oracle set.

    Only strings listed in `oracle` are in the relation; everything else
    is out.  Mixed lengths and the empty string are allowed.
    """

    atoms: dict[str, int]
    oracle: frozenset[str]

    def __post_init__(self) -> None:
        atoms = dict(self.atoms)
        for name, bit in atoms.items():
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError(f"atom {name!r} must be 0 or 1, got {bit!r}")
        strings = frozenset(self.oracle)
        bad = [s for s in strings if s.strip("01")]
        if bad:  # the least, so the message does not follow hash order
            raise ValueError(f"oracle strings must be over {{0,1}}, got {min(bad)!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "oracle", strings)

    def to_json(self) -> dict:
        return {
            "atoms": {k: self.atoms[k] for k in sorted(self.atoms)},
            "oracle": sorted(self.oracle),
        }

    @classmethod
    def from_json(cls, data) -> "Structure":
        """Inverse of to_json; ValueError on any other shape (JSON
        true/false are not bits)."""
        if not isinstance(data, dict):
            raise ValueError("a structure must be a JSON object")
        atoms, oracle = data.get("atoms", {}), data.get("oracle", [])
        if not isinstance(atoms, dict) or any(type(bit) is not int for bit in atoms.values()):
            raise ValueError("atoms must be an object of names to 0 or 1")
        if not isinstance(oracle, list) or any(type(s) is not str for s in oracle):
            raise ValueError("oracle must be a list of strings")
        return cls(atoms, frozenset(oracle))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


EMPTY_STRUCTURE = Structure({}, frozenset())


def _eval(f: Formula, env: dict[str, int], oracle_fn: Callable[[str], int]) -> int:
    if isinstance(f, Atom):
        bit = env.get(f.name)
        if bit is None:
            raise UnassignedAtomError(f.name)
        return bit
    if isinstance(f, Const):
        return f.bit
    if isinstance(f, Not):
        return 1 - _eval(f.child, env, oracle_fn)
    if isinstance(f, And):
        if _eval(f.left, env, oracle_fn) == 0:
            return 0
        return _eval(f.right, env, oracle_fn)
    if isinstance(f, Or):
        if _eval(f.left, env, oracle_fn) == 1:
            return 1
        return _eval(f.right, env, oracle_fn)
    if isinstance(f, RApp):
        s = "".join([str(_eval(a, env, oracle_fn)) for a in f.args])
        return oracle_fn(s)
    # Quantifiers range over {0,1}.
    missing = object()
    saved = env.get(f.var, missing)
    try:
        env[f.var] = 0
        v0 = _eval(f.body, env, oracle_fn)
        if isinstance(f, Forall) and v0 == 0:
            return 0
        if isinstance(f, Exists) and v0 == 1:
            return 1
        env[f.var] = 1
        return _eval(f.body, env, oracle_fn)
    finally:
        if saved is missing:
            del env[f.var]
        else:
            env[f.var] = saved


def eval_formula(f: Formula, structure: Structure) -> int:
    oracle = structure.oracle
    return _eval(f, dict(structure.atoms), lambda s: 1 if s in oracle else 0)


def sat_pc(f: Formula) -> Optional[Structure]:
    """Certificate search for quantifier-free formulas.

    Returns a witness structure whose oracle lists exactly the strings
    chosen in, or None when unsatisfiable.  The engine's one branch rule
    (see _Engine) fixes the witness: the first in the order of sorted
    atoms before sorted strings, 0 before 1, the same one sat_pi1 gives.
    """
    if not is_quantifier_free(f):
        raise ValueError("sat_pc expects a quantifier-free formula")
    engine = _Engine(_opened_conjuncts(f))
    if not engine.solve():
        return None
    return _witness(sorted(atom_names_fast(f)), engine.atoms, engine.strings)


def _opened_conjuncts(f: Formula) -> list[Formula]:
    """Top-level conjuncts of f, left to right, with each ~(A | B) opened
    into ~A and ~B, so that an assignment refolds only the parts that
    hold its key."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is And:
            stack += (g.right, g.left)
        elif type(g) is Not and type(g.child) is Or:
            stack += (Not(g.child.right), Not(g.child.left))
        else:
            out.append(g)
    return out


def valid_pc(f: Formula) -> bool:
    return sat_pc(Not(f)) is None


def validity_formula(s: Sequent) -> Formula:
    """~G1 | ... | ~Gm | D1 | ... | Dk; the empty sequent yields 0."""
    parts = [Not(g) for g in s.antecedent] + list(s.succedent)
    return or_all(parts)


def sequent_valid(s: Sequent) -> bool:
    """Valid iff the antecedents and the negated succedents have no model."""
    return sat_pc(and_all([*s.antecedent, *map(Not, s.succedent)])) is None


@dataclass(frozen=True)
class SolverLimits:
    """Desk-scale budgets for the expansion solver.  max_structures
    bounds the instances the expansion folds, pruned ones included."""

    max_universal_vars: int = 22
    max_oracle_strings: int = 4096
    max_structures: int = 1 << 20

    def __post_init__(self) -> None:
        if min(self.max_universal_vars, self.max_oracle_strings, self.max_structures) <= 0:
            raise ValueError("solver limits must be positive")


DEFAULT_LIMITS = SolverLimits()

SAT = "sat"
UNSAT = "unsat"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Pi1Result:
    """Outcome of sat_pi1.  `stats` holds the expansion counters folds
    (instances folded), leaves (ground instances reached), forced
    (universal values forced, not branched on), branches and
    ground_constraints (distinct constraints handed to the solver), and
    the ground engine's decisions (values tried at branch points),
    conflicts (failed propagations) and units (values propagated)."""

    status: str
    witness: Optional[Structure] = None
    reason: str = ""
    stats: dict = field(default_factory=dict, compare=False)


class UnsupportedShapeError(ValueError):
    """Input is not a universally quantified formula over a QF matrix."""


def pull_universals(f: Formula) -> tuple[tuple[str, ...], Formula]:
    """Strip universal quantifiers reachable through &, | and leading
    Forall nodes, renaming each bound variable to a fresh name.

    Pulling through a disjunct is sound because the fresh variable is
    not free on the other side.  Raises UnsupportedShapeError if the
    remaining matrix is not quantifier-free.
    """
    fresh = fresh_names("u", all_names(f))
    order: list[str] = []

    def spine(g: Formula, env: dict[str, Formula]) -> Formula:
        if isinstance(g, Forall):
            name = next(fresh)
            order.append(name)
            return spine(g.body, {**env, g.var: Atom(name)})
        if isinstance(g, (And, Or)):
            return type(g)(spine(g.left, env), spine(g.right, env))
        return substitute_all(g, env)

    matrix = spine(f, {})
    if not is_quantifier_free(matrix):
        raise UnsupportedShapeError(
            "matrix is not quantifier-free; only pi1-shaped inputs are supported"
        )
    return tuple(order), matrix


def _keys(f: Formula) -> tuple[str, ...]:
    """The sorted keys of a quantifier-free formula (see key_set)."""
    return tuple(sorted(key_set(f)))


class BudgetExceeded(Exception):
    """An expansion or ground solve went over a SolverLimits budget."""


def _expansion_counters() -> dict:
    return {"folds": 0, "leaves": 0, "forced": 0, "branches": 0, "strings": set()}


def _guard_of(g: Formula) -> list[Formula]:
    """The guard of an instance: the conjuncts G_i of every negated
    top-level disjunct ~(G_1 & ... & G_k).  A bare atom disjunct x is
    the negated disjunct ~(~x), so it adds the conjunct ~x."""
    guard: list[Formula] = []
    for d in flatten_or(g):
        if isinstance(d, Not):
            guard.extend(flatten_and(d.child))
        elif isinstance(d, Atom):
            guard.append(Not(d))
    return guard


def _force(
    guard: list[Formula],
    universals: frozenset[str],
    env: dict[str, int],
    strings: Optional[Mapping[str, int]],
) -> Optional[tuple[dict[str, int], list[Formula]]]:
    """Extend env by every universal value whose other value makes the
    instance 1: a literal among the guard conjuncts forces the value
    that keeps it true.  Works on the guard alone and repeats until
    nothing new is forced.  Returns the extended env and the folded
    guard, or None when every value of some universal makes the
    instance 1."""
    pending = env = dict(env)
    while True:
        forced: dict[str, int] = {}
        kept: list[Formula] = []
        for c in guard:
            if pending:
                c = fold_assign(c, pending, strings)
                if isinstance(c, Const):
                    if c.bit == 0:
                        return None
                    continue
            unit = _as_literal(c)
            if unit is not None and unit[0][0] == "a" and unit[0][1:] in universals:
                key, bit = unit
                if forced.setdefault(key[1:], bit) != bit:
                    return None
                continue
            kept.append(c)
        guard = kept
        if not forced:
            return env, guard
        env.update(forced)
        pending = forced


def _expand(
    conjunct: Formula,
    uvars: Sequence[str],
    limits: SolverLimits,
    counters: dict,
    strings: Optional[Mapping[str, int]] = None,
) -> list[Formula]:
    """The distinct ground instances of `conjunct` over the universals
    `uvars` that do not fold to 1, each once, in first-found order.

    The expansion never enters a branch whose instance folds to 1: a
    universal that is a literal of the instance's guard (see _guard_of)
    takes only the value that keeps the literal true.  Forcing repeats
    on the small guard alone, and the whole instance is then folded once
    with every forced value.  When nothing is forced, the expansion
    branches on the first universal in `uvars` order that still occurs.
    A compiled machine lists each conjunct's circuit inputs before its
    gate and output variables, so the inputs are branched on and the
    gates and outputs are forced as their definitions become ground; a
    prefix in another order gives the same instances at a higher cost.
    Every folded instance counts against max_structures.  Each fold
    resolves the R applications that `strings` answers (see
    fold_assign); sat_pi1 passes none."""
    out: dict[Formula, None] = {}
    universals = frozenset(uvars)

    def fold(g: Formula, env: dict[str, int]) -> Formula:
        counters["folds"] += 1
        if counters["folds"] > limits.max_structures:
            raise BudgetExceeded("expansion exceeded max_structures")
        return fold_assign(g, env, strings)

    def leaf(g: Formula) -> None:
        counters["leaves"] += 1
        known = len(out)
        out.setdefault(g)
        if len(out) == known:
            return
        counters["strings"].update(k for k in key_set(g) if k[0] == "s")
        if len(counters["strings"]) > limits.max_oracle_strings:
            raise BudgetExceeded("expansion exceeded max_oracle_strings")

    def visit(g: Formula, remaining: list[str]) -> None:
        if isinstance(g, Const):
            if g.bit == 0:
                out.setdefault(FALSE)
            return
        if remaining:
            present = key_set(g)
            remaining = [v for v in remaining if "a" + v in present]
        if not remaining:
            leaf(g)
            return
        guard = _guard_of(g)
        settled = _force(guard, universals, {}, strings)
        if settled is None:
            return
        forced, guard = settled
        if forced:
            counters["forced"] += len(forced)
            visit(fold(g, forced), remaining)
            return
        var = remaining[0]
        counters["branches"] += 1
        for bit in (0, 1):
            settled = _force(guard, universals, {var: bit}, strings)
            if settled is None:
                continue
            env = settled[0]
            counters["forced"] += len(env) - 1
            visit(fold(g, env), remaining)

    visit(fold(conjunct, {}), list(uvars))
    return list(out)


def _as_literal(g: Formula) -> Optional[tuple[str, int]]:
    """Recognize a forced unit: (key, bit), where the key is "a" + name
    for an atom or "s" + string for an oracle string."""
    positive = 1
    if type(g) is Not:
        positive = 0
        g = g.child
    if type(g) is Atom:
        return "a" + g.name, positive
    if type(g) is RApp and g.cost == 0:  # every argument a constant
        return oracle_key(g), positive
    return None


class _Engine:
    """Unit propagation with chronological backtracking over atoms and
    oracle strings, on an undo trail (MiniSat-style, without learning).

    Constraints are held as top-level conjuncts ("parts"); each caches
    its keys (see _keys) when made and joins their watch lists.
    Assigning a key refolds the live parts that watch it: each dies and
    its conjuncts become new parts or units.  The trail records the
    assignments and dead parts; backtracking undoes it to a mark and
    pops the newer parts and their watch entries in LIFO order, copying
    nothing.  There is one branch rule, _least_key, with 0 tried before
    1, so every caller gets the first witness in the order of sorted
    atoms before sorted strings.  max_strings bounds the assigned
    strings."""

    def __init__(self, constraints: list[Formula], max_strings: Optional[int] = None):
        self.max_strings = max_strings
        self.atoms: dict[str, int] = {}
        self.strings: dict[str, int] = {}
        self.values: dict[str, int] = {}
        # folded before the first decision, so no keys or watches needed
        self.parts: list[Formula] = list(constraints)
        self.keys: list[tuple[str, ...]] = [()] * len(self.parts)
        self.live: list[bool] = [True] * len(self.parts)
        self.watch: dict[str, list[int]] = {}
        self.trail: list = []
        self.decisions = self.conflicts = self.units = 0

    def _add(self, part: Formula, dirty: list[int]) -> None:
        cid = len(self.parts)
        keys = _keys(part)
        self.parts.append(part)
        self.keys.append(keys)
        self.live.append(True)
        for key in keys:
            self.watch.setdefault(key, []).append(cid)
        if any(key in self.values for key in keys):  # set by a unit after the fold
            dirty.append(cid)

    def _assign(self, key: str, bit: int, dirty: list[int]) -> None:
        if key[0] == "s":
            if self.max_strings is not None and len(self.strings) >= self.max_strings:
                raise BudgetExceeded("solver exceeded max_oracle_strings")
            self.strings[key[1:]] = bit
        else:
            self.atoms[key[1:]] = bit
        self.values[key] = bit
        self.trail.append(key)
        dirty.extend(self.watch.get(key, ()))

    def _propagate(self, dirty: list[int]) -> bool:
        parts, live, values = self.parts, self.live, self.values
        while dirty:
            cid = dirty.pop()
            if not live[cid]:
                continue
            live[cid] = False
            self.trail.append(cid)
            g = fold_assign(parts[cid], self.atoms, self.strings)
            if type(g) is Const:
                if g.bit == 0:
                    self.conflicts += 1
                    return False
                continue
            for part in flatten_and(g):
                unit = _as_literal(part)
                if unit is None:
                    self._add(part, dirty)
                    continue
                key, bit = unit
                old = values.get(key)
                if old is None:
                    self.units += 1
                    self._assign(key, bit, dirty)
                elif old != bit:
                    self.conflicts += 1
                    return False
        return True

    def _undo(self, trail_mark: int, parts_mark: int) -> None:
        trail = self.trail
        while len(trail) > trail_mark:
            entry = trail.pop()
            if type(entry) is int:
                self.live[entry] = True
            else:
                del self.values[entry]
                del (self.atoms if entry[0] == "a" else self.strings)[entry[1:]]
        for cid in range(len(self.parts) - 1, parts_mark - 1, -1):
            for key in self.keys[cid]:
                self.watch[key].pop()
        del self.parts[parts_mark:], self.keys[parts_mark:], self.live[parts_mark:]

    def _least_key(self) -> str:
        """The branch rule: the least unassigned key of the live parts.
        After propagation no live part holds an assigned key, and each
        part's keys are sorted, so that is the least first key."""
        return min(keys[0] for keys in itertools.compress(self.keys, self.live))

    def solve(self) -> bool:
        """Search for an assignment making every constraint 1 and keep it."""
        path: list[tuple[str, int, int, int]] = []  # key, bit, trail and parts marks
        dirty = list(range(len(self.parts)))
        while True:
            if self._propagate(dirty):
                if not any(self.live):
                    return True
                key, bit, marks = self._least_key(), 0, (len(self.trail), len(self.parts))
            else:  # flip the deepest decision still at 0
                while path and path[-1][1] == 1:
                    path.pop()
                if not path:
                    return False
                key, _, *marks = path.pop()
                self._undo(*marks)
                bit = 1
            path.append((key, bit, *marks))
            self.decisions += 1
            dirty = []
            self._assign(key, bit, dirty)


def _witness(names: Iterable[str], atoms: dict[str, int], strings: dict[str, int]) -> Structure:
    """A solution over `names`; atoms no constraint needed read 0."""
    assignment = {name: atoms.get(name, 0) for name in names}
    return Structure(assignment, frozenset(s for s, bit in strings.items() if bit == 1))


def _solve_constraints(constraints: list[Formula], limits: SolverLimits, counters: dict):
    """sat_pi1's ground solve: the atom and string assignments, or None.
    Adds the engine's counters to `counters` in any case."""
    engine = _Engine(constraints, limits.max_oracle_strings)
    try:
        found = engine.solve()
    finally:
        counters.update(decisions=engine.decisions, conflicts=engine.conflicts, units=engine.units)
    return (engine.atoms, engine.strings) if found else None


def sat_pi1(f: Formula, limits: SolverLimits = DEFAULT_LIMITS) -> Pi1Result:
    """Expansion solver for universally quantified formulas over a
    quantifier-free matrix.  Free atoms are further existential
    unknowns.  UNSAT is exact within the enumerated space; the witness
    on SAT is the least one under the documented deterministic order
    (sorted atoms before sorted strings, 0 before 1)."""
    uvars, matrix = pull_universals(f)
    if len(uvars) > limits.max_universal_vars:
        return Pi1Result(
            BUDGET_EXCEEDED,
            reason=f"{len(uvars)} universal variables exceed limit {limits.max_universal_vars}",
        )
    counters = _expansion_counters()
    counters.update(decisions=0, conflicts=0, units=0)
    constraints: list[Formula] = []

    def stats() -> dict:
        out = {k: v for k, v in counters.items() if k != "strings"}
        out["ground_constraints"] = len(constraints)
        return out

    try:
        for conjunct in flatten_and(matrix):
            constraints.extend(_expand(conjunct, uvars, limits, counters))
        solution = _solve_constraints(constraints, limits, counters)
    except BudgetExceeded as exc:
        return Pi1Result(BUDGET_EXCEEDED, reason=str(exc), stats=stats())
    if solution is None:
        return Pi1Result(UNSAT, stats=stats())
    witness = _witness(sorted(atom_names_fast(matrix) - set(uvars)), *solution)
    return Pi1Result(SAT, witness=witness, stats=stats())


class _Answers:
    """A string table that answers every string from a fixed oracle, so
    that an expansion folding with it resolves each R application as
    soon as its arguments are constant."""

    def __init__(self, oracle: frozenset[str]):
        self.oracle = oracle

    def get(self, s: str) -> int:
        return 1 if s in self.oracle else 0


def holds_universally(
    f: Formula, structure: Structure, max_structures: int = DEFAULT_LIMITS.max_structures
) -> bool:
    """Exact check that a closed universally quantified formula holds in
    the given structure, via the pruning expansion (no sampling).  The
    expansion folds with the structure's oracle, so an instance
    collapses as soon as its R arguments are constant.  BudgetExceeded
    is raised when the expansion folds more than `max_structures`
    instances.  That is its only budget: the number of universals is
    not limited, as compiled machines have 46 to 51, and no oracle
    string budget could bind, as the oracle answers every string before
    an instance is kept."""
    if free_atoms(f):
        raise ValueError("holds_universally expects a closed formula")
    limits = SolverLimits(max_structures=max_structures)
    uvars, matrix = pull_universals(f)
    counters = _expansion_counters()
    answers = _Answers(structure.oracle)
    for conjunct in flatten_and(matrix):
        # f is closed and answers every string, so each instance folds
        # to a constant: the expansion is [] (all hold) or [FALSE]
        if _expand(conjunct, uvars, limits, counters, answers):
            return False
    return True


def all_strings(m: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=m)]
