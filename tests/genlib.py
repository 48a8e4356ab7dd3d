"""Shared generators and independent reference oracles for the tests."""

from __future__ import annotations

import itertools
import random
from typing import Optional

from rpcalc.formulas import (
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
    free_atoms,
    is_quantifier_free,
    node_count,
    walk,
)
from rpcalc.machines import Config, MachineSpec, Run, Transition
from rpcalc.semantics import Structure, all_strings, eval_formula, pull_universals, sequent_valid
from rpcalc.tableau import EncodingParams, _Layout, index_string

ATOMS = ("p", "q", "r", "s")


def random_r_free(rng: random.Random, depth: int, atoms=ATOMS) -> Formula:
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.8:
            return Atom(rng.choice(atoms))
        return Const(rng.randint(0, 1))
    roll = rng.random()
    if roll < 0.34:
        return Not(random_r_free(rng, depth - 1, atoms))
    if roll < 0.67:
        return And(random_r_free(rng, depth - 1, atoms), random_r_free(rng, depth - 1, atoms))
    return Or(random_r_free(rng, depth - 1, atoms), random_r_free(rng, depth - 1, atoms))


def random_flat_formula(
    rng: random.Random,
    atoms=ATOMS,
    max_r: int = 3,
    max_arity: int = 3,
    depth: int = 3,
    arg_depth: int = 2,
) -> Formula:
    """Random quantifier-free formula whose R arguments are R-free, with
    at most max_r R occurrences."""
    budget = [max_r]

    def go(d: int) -> Formula:
        roll = rng.random()
        if budget[0] > 0 and roll < 0.3:
            budget[0] -= 1
            arity = rng.randint(0, max_arity)
            return RApp(tuple(random_r_free(rng, arg_depth, atoms) for _ in range(arity)))
        if d == 0 or roll < 0.5:
            if rng.random() < 0.85:
                return Atom(rng.choice(atoms))
            return Const(rng.randint(0, 1))
        k = rng.random()
        if k < 0.34:
            return Not(go(d - 1))
        if k < 0.67:
            return And(go(d - 1), go(d - 1))
        return Or(go(d - 1), go(d - 1))

    return go(depth)


def random_ast(rng: random.Random, depth: int = 4, names=("p", "q", "x", "y", "zz0")) -> Formula:
    """Arbitrary AST over every node kind, quantifiers included."""
    if depth == 0:
        roll = rng.random()
        if roll < 0.5:
            return Atom(rng.choice(names))
        if roll < 0.8:
            return Const(rng.randint(0, 1))
        return RApp(())
    roll = rng.random()
    if roll < 0.14:
        return Not(random_ast(rng, depth - 1, names))
    if roll < 0.32:
        return And(random_ast(rng, depth - 1, names), random_ast(rng, depth - 1, names))
    if roll < 0.50:
        return Or(random_ast(rng, depth - 1, names), random_ast(rng, depth - 1, names))
    if roll < 0.64:
        arity = rng.randint(0, 3)
        return RApp(tuple(random_ast(rng, depth - 1, names) for _ in range(arity)))
    if roll < 0.78:
        return Forall(rng.choice(names), random_ast(rng, depth - 1, names))
    if roll < 0.92:
        return Exists(rng.choice(names), random_ast(rng, depth - 1, names))
    return Atom(rng.choice(names))


def random_quantified_sequents(seed: int, count: int, max_nodes: int = 24) -> list[Sequent]:
    """Seeded random sequents of random_ast formulas with at least one
    quantifier and at most max_nodes nodes in all (gprove's work can grow
    doubly exponentially in size).  gprove proves some, refutes some and
    leaves the rest unknown (quantifiers under R)."""
    rng = random.Random(seed)
    out: list[Sequent] = []
    while len(out) < count:
        antecedent = tuple(random_ast(rng, depth=3) for _ in range(rng.randint(0, 2)))
        succedent = tuple(random_ast(rng, depth=3) for _ in range(rng.randint(0, 2)))
        s = Sequent(antecedent, succedent)
        if not all(f.quantifier_free for f in s.formulas) and (
            sum(node_count(f) for f in s.formulas) <= max_nodes
        ):
            out.append(s)
    return out


def naive_sat_flat(f: Formula):
    """Reference satisfiability: enumerate atom assignments times all
    subsets of the strings actually queried under each assignment.  Only
    sound when R arguments are R-free, which the flat generator ensures;
    raises ValueError otherwise."""
    occurrences = [g for g in walk(f) if isinstance(g, RApp)]
    for occ in occurrences:
        for arg in occ.args:
            if any(isinstance(h, RApp) for h in walk(arg)):
                raise ValueError("naive_sat_flat expects R arguments without R")
    atoms = sorted(free_atoms(f))
    empty = frozenset()
    for bits in itertools.product((0, 1), repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        strings = sorted(
            {
                "".join(str(eval_formula(arg, Structure(env, empty))) for arg in occ.args)
                for occ in occurrences
            }
        )
        for mask in range(1 << len(strings)):
            oracle = frozenset(s for j, s in enumerate(strings) if mask >> j & 1)
            tau = Structure(env, oracle)
            if eval_formula(f, tau) == 1:
                return tau
    return None


def reference_fold(f: Formula, atoms: dict[str, int], strings: Optional[dict[str, int]] = None) -> Formula:
    """Reference for formulas.fold_assign: the plain recursive fold, which
    refolds a shared subtree at each of its occurrences.  Nodes are
    hash-consed, so an equal result is the same object."""
    kind = type(f)
    if kind is Atom:
        bit = atoms.get(f.name)
        return f if bit is None else Const(bit)
    if kind is Const:
        return f
    if kind is Not:
        c = reference_fold(f.child, atoms, strings)
        if type(c) is Const:
            return Const(1 - c.bit)
        return f if c is f.child else Not(c)
    if kind is And or kind is Or:
        absorbing = 0 if kind is And else 1
        left = reference_fold(f.left, atoms, strings)
        if type(left) is Const:
            return left if left.bit == absorbing else reference_fold(f.right, atoms, strings)
        right = reference_fold(f.right, atoms, strings)
        if type(right) is Const:
            return right if right.bit == absorbing else left
        if left is f.left and right is f.right:
            return f
        return kind(left, right)
    if kind is RApp:
        args = tuple([reference_fold(a, atoms, strings) for a in f.args])
        if strings and all([type(a) is Const for a in args]):
            bit = strings.get("".join([str(a.bit) for a in args]))
            if bit is not None:
                return Const(bit)
        if all([a is b for a, b in zip(args, f.args)]):
            return f
        return RApp(args)
    raise ValueError("reference_fold expects a quantifier-free formula")


def naive_holds_universally(f: Formula, structure: Structure) -> bool:
    """Reference for the exact witness check: the matrix of a closed pi1
    formula evaluated under all 2^k assignments of its pulled universals."""
    uvars, matrix = pull_universals(f)
    for bits in itertools.product((0, 1), repeat=len(uvars)):
        if eval_formula(matrix, Structure(dict(zip(uvars, bits)), structure.oracle)) == 0:
            return False
    return True


def rapp_arities(f: Formula) -> set[int]:
    return {len(g.args) for g in walk(f) if isinstance(g, RApp)}


def brute_sat_q(f: Formula, max_arity: int = 4) -> Optional[Structure]:
    """Reference satisfiability of a closed formula, the paper's guess and
    verify: try every oracle over {0,1}^m, where m is the common arity of
    all R applications, in a fixed order and return the first that
    satisfies f.  So f is valid iff brute_sat_q(Not(f)) is None.  Raises
    ValueError on free atoms, mixed arities or an arity above max_arity."""
    if free_atoms(f):
        raise ValueError("brute_sat_q expects a closed formula")
    arities = rapp_arities(f)
    if len(arities) > 1:
        raise ValueError(f"mixed R arities {sorted(arities)} are not supported")
    m = max(arities, default=0)
    if m > max_arity:
        raise ValueError(f"R arity {m} exceeds max_arity {max_arity}")
    strings = all_strings(m)
    for mask in range(1 << len(strings)):
        tau = Structure({}, frozenset(s for j, s in enumerate(strings) if mask >> j & 1))
        if eval_formula(f, tau) == 1:
            return tau
    return None


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
    """Reference shape of a formula, independent of the solver's
    pull_universals: one of quantifier_free, pi1, sigma1, sigma2, other.

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


def decode_run(machine: MachineSpec, structure: Structure, enc: EncodingParams) -> Run:
    """Inverse of tableau.witness_structure: the configuration that the
    oracle's tableau holds at each time 0..2^t - 1, and the choice taken
    at each step.  A Config's tape lists all 2^m cells, trailing blanks
    included.  A choice is reduced modulo the number of transitions that
    apply, as the step constraint reads it.  Raises ValueError when a
    time has other than one head, or a cell an unknown symbol or state."""
    layout = _Layout(machine)
    symbols = {code: s for s, code in layout.sym_code.items()}
    cells = range(1 << enc.m)

    def number(cell: int, offsets, time: int) -> int:
        return sum(
            1 << i
            for i, offset in enumerate(offsets)
            if index_string(enc, cell, offset, time) in structure.oracle
        )

    configs: list[Config] = []
    choices: list[int] = []
    for time in range(enc.horizon):
        codes = [number(cell, range(layout.s_bits), time) for cell in cells]
        if any(code not in symbols for code in codes):
            raise ValueError(f"time {time}: unknown symbol code in {codes}")
        heads = [cell for cell in cells if number(cell, (layout.has_offset,), time)]
        if len(heads) != 1:
            raise ValueError(f"time {time}: {len(heads)} heads, expected one")
        (head,) = heads
        index = number(head, layout.idx_offsets, time)
        if index >= len(machine.states):
            raise ValueError(f"time {time}: unknown state index {index}")
        config = Config(machine.states[index], head, tuple(symbols[code] for code in codes))
        options = machine.delta(config.state, config.symbol_at(head))
        configs.append(config)
        choices.append(number(head, layout.ch_offsets, time) % max(1, len(options)))
    return Run(tuple(configs), tuple(choices[:-1]))


_VALID_TEMPLATE_BODIES = (
    "R(p & q) |- R(q & p)",
    "p, R(p, r) |- R(1, r)",
    "R(0, q) |- p, R(p, q)",
    "R(~~p) |- R(p)",
    "|- R(p, q) | ~R(p, q)",
    "R(p), R(q) |- R(q) & R(p)",
    "p & q |- R(p & q) | ~R(1)",
    "|- (R(p) & R(~p)) => (R(q) | R(~q))",
    "R(p | 0) |- R(p)",
    "~R(p) , R(p) |- R(0, 1)",
)


def generate_valid_sequents(seed: int, count: int, max_cost: int = 10) -> list[Sequent]:
    """Deterministic stream of valid sequents of bounded cost: fixed
    templates guaranteeing oracle steps, then filtered random sequents."""
    from rpcalc.syntax import parse_sequent

    rng = random.Random(seed)
    out: list[Sequent] = []
    for text in _VALID_TEMPLATE_BODIES:
        s = parse_sequent(text)
        if cost_sequent(s) <= max_cost:
            out.append(s)
    while len(out) < count:
        n_ante = rng.randint(0, 2)
        n_succ = rng.randint(1, 3)
        s = Sequent(
            tuple(random_flat_formula(rng, max_r=1, max_arity=2, depth=2) for _ in range(n_ante)),
            tuple(random_flat_formula(rng, max_r=1, max_arity=2, depth=2) for _ in range(n_succ)),
        )
        if cost_sequent(s) > max_cost:
            continue
        if sequent_valid(s):
            out.append(s)
    return out[:count]


def first_symbol_one_machine() -> MachineSpec:
    """Accepts exactly the inputs whose first symbol is 1."""
    return MachineSpec(
        states=("q0", "q1", "qacc"),
        tape_alphabet=("_", ">", "0", "1"),
        start_state="q0",
        accept_states=frozenset({"qacc"}),
        transitions=(
            Transition("q0", ">", "q1", ">", "R"),
            Transition("q1", "1", "qacc", "1", "L"),
        ),
    )


def guess_branch_machine() -> MachineSpec:
    """Nondeterministically guesses the first symbol, then verifies it."""
    return MachineSpec(
        states=("q0", "qa", "qb", "qacc"),
        tape_alphabet=("_", ">", "0", "1"),
        start_state="q0",
        accept_states=frozenset({"qacc"}),
        transitions=(
            Transition("q0", ">", "qa", ">", "R"),
            Transition("q0", ">", "qb", ">", "R"),
            Transition("qa", "1", "qacc", "1", "L"),
            Transition("qb", "0", "qacc", "0", "L"),
        ),
    )


def reject_all_machine() -> MachineSpec:
    return MachineSpec(
        states=("q0",),
        tape_alphabet=("_", ">", "0", "1"),
        start_state="q0",
        accept_states=frozenset(),
        transitions=(),
    )


def immediate_accept_machine() -> MachineSpec:
    return MachineSpec(
        states=("q0",),
        tape_alphabet=("_", ">", "0", "1"),
        start_state="q0",
        accept_states=frozenset({"q0"}),
        transitions=(),
    )


QUANTIFIED_SUITE = (
    "|- ex x. x | ~x",
    "|- all x. x | ~x",
    "all x. R(x) |- R(0)",
    "all x. R(x) |- R(1)",
    "R(0), R(1) |- all x. R(x)",
    "ex x. R(x) |- R(0), R(1)",
    "|- all x. (R(x) => R(x))",
    "|- all x. ex y. (x | ~y)",
    "|- ex x. all y. (y => x)",
    "|- all x. (R(x) | ~R(x))",
    "all x. ~R(x) |- ~R(1)",
    "|- ex x. (R(x) => R(1))",
    "all x. (x & R(x)) |- R(0) & R(1)",
    "ex x. R(x, x) |- ex y. ex z. R(y, z)",
    "R(0, 0), R(1, 1) |- ex x. R(x, x)",
    "all x. all y. R(x, y) |- R(0, 1)",
    "|- ex x. (x => R(0, 0)) | R(1, 1)",
    "~R(0) |- ~(all x. R(x))",
    "all x. R(x) |- all y. R(y)",
    "|- (all x. R(x)) => R(0)",
    "ex x. ex y. R(x, y) |- R(0, 0), R(0, 1), R(1, 0), R(1, 1)",
    "all x. ~R(x, x, x) |- ~R(1, 1, 1)",
    "|- all x. all y. ((x & y) => x)",
    "ex x. (R(x) & ~R(x)) |- R(0)",
    "all y. R(y, y) |- ex x. R(x, x)",
    "|- ex x. ex y. (x | ~y)",
    "R(1, 0) |- ex x. ex y. R(x, y)",
    "all x. (R(x) | R(~x)) |- R(0) | R(1)",
    "|- (ex x. R(x)) | (all y. ~R(y))",
    "all x. ex y. (R(x, y) | ~R(x, y)) |- 1",
)
