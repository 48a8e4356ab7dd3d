"""Sequent-calculus proof objects, the rule table, the strict checker,
and size measures.

Rules follow the classical formulation with principal formulas at cedent
edges: the left-rule principal is the first antecedent formula, the
right-rule principal is the last succedent formula, and structural rules
act on stated positions.  Besides the identity, truth and falsity
axioms there is the oracle substitution axiom

    AxRSubst:   ~A | B, A | ~B, R(C..., A, D...) |- R(C..., B, D...)

which lets provably equivalent formulas be interchanged as arguments of
R.  Every rule is one row of RULES; the checker, the builders and the
provers' backward steps all read that row, so a rule is stated once for
both sides.  Structural rules, like logical ones, are undone in one
place (_undo), which the checker and both chain expansions, to explicit
nodes and to JSON, read.  Builders do not check what they make: the
provers run check_pk or check_g once over each finished proof, which
holds under `python -O` too.  Every node is locally checkable, and
each check validates each distinct node object once.  Within one prove
or gprove call equal scheme nodes are one object, so a proof in memory
is a DAG; counted_size, nodes() and the JSON still measure and write it
as a tree.  counted_size excludes weakenings and exchanges
(contractions do count).

Two in-memory nodes are derived rules, each standing for explicit nodes
that it does not store.  nodes(), the JSON and `==` see those explicit
nodes, so neither shows in a proof file, and load_proof refuses their
tags.  nodes() and `==` make them once per call for each distinct node
object.  A chain or scheme node that stands for none is seen as
itself, and fails the check.

The builders keep each maximal run of weakenings and exchanges as one
node, a chain (rule CHAIN): its params are the steps' (tag, pos) pairs
from the conclusion up, and its one premise is the node above the run.
The steps' own conclusions are what undoing the steps from the chain's
conclusion gives.  The checker validates a chain with the check of an
explicit structural node, which is the case of one step.  A chain with
no steps, or with a step that is no weakening or exchange, stands for
none.

The prover keeps each substitution scheme it uses as one node (rule
SCHEME, built by scheme()): its params are (which, A, before, after),
it has no premises, and it stands for derive_scheme(which, A, before,
after).  Its counted size and longest line come from formula lengths.
When its params are a scheme's name, a formula and two tuples of
formulas and it concludes that scheme, it passes the check exactly when
the derivation would: every step of the derivation checks for any A and
contexts, and they all occur in the conclusion, which the quantifier
scan reads.  Any other scheme node stands for nothing.  A failing check
reports from the explicit nodes, so its errors are the derivation's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, get_args

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


@dataclass(frozen=True, slots=True)
class Rule:
    """One row of the rule table.

    `side` is the cedent the rule acts on: "ante", whose principal
    formula is the first, or "succ", whose principal formula is the
    last; axioms and Cut have none.  `principal` is the connective or
    binder of the principal formula.  `shape` says how the premises
    arise from the conclusion:

    - "insert", "swap", "duplicate": the conclusion's cedent with the
      formula at `pos` dropped, the pair at `pos` swapped, or the formula
      at `pos` duplicated (weakening, exchange, contraction);
    - "other": the principal's child moves to the other cedent's end;
    - "both": both children replace the principal, in order;
    - "split": one child per premise replaces the principal;
    - "instance": the body at a stated term replaces the principal;
    - "eigen": the body at a fresh eigenvariable replaces the principal;
    - "identity", "truth", "falsity", "rsubst", "cut": the axioms and Cut;
    - "chain": the in-memory chain, whose steps are weakenings and
      exchanges (its row is not in RULES, and its message is the one
      for a chain with no steps);
    - "scheme": the in-memory substitution scheme, which has no premises
      (its row is not in RULES, and its message is the one for a
      conclusion that is not the stated scheme's).

    `message` is the failure reported when the premises do not have
    that shape."""

    tag: str
    side: Optional[str]
    arity: int
    principal: Optional[type]
    shape: str
    message: str
    counted: bool = True


RULES = {
    rule.tag: rule
    for rule in (
        Rule("AxId", None, 0, None, "identity", "conclusion is not of the form A |- A"),
        Rule("AxTrue", None, 0, None, "truth", "conclusion is not |- 1"),
        Rule("AxFalse", None, 0, None, "falsity", "conclusion is not 0 |-"),
        Rule("AxRSubst", None, 0, None, "rsubst", ""),  # reports _match_rsubst's messages
        Rule("WeakL", "ante", 1, None, "insert", "conclusion is not the premise with one formula inserted at pos", False),
        Rule("WeakR", "succ", 1, None, "insert", "conclusion is not the premise with one formula inserted at pos", False),
        Rule("ExchL", "ante", 1, None, "swap", "conclusion is not the premise with adjacent formulas swapped at pos", False),
        Rule("ExchR", "succ", 1, None, "swap", "conclusion is not the premise with adjacent formulas swapped at pos", False),
        Rule("ContrL", "ante", 1, None, "duplicate", "premise is not the conclusion with the pos formula duplicated"),
        Rule("ContrR", "succ", 1, None, "duplicate", "premise is not the conclusion with the pos formula duplicated"),
        Rule("NotL", "ante", 1, Not, "other", "premise is not Gamma |- Delta, A for conclusion ~A, Gamma |- Delta"),
        Rule("NotR", "succ", 1, Not, "other", "premise is not A, Gamma |- Delta for conclusion Gamma |- Delta, ~A"),
        Rule("AndL", "ante", 1, And, "both", "premise is not A, B, Gamma |- Delta"),
        Rule("AndR", "succ", 2, And, "split", "premises are not Gamma |- Delta, A and Gamma |- Delta, B"),
        Rule("OrL", "ante", 2, Or, "split", "premises are not A, Gamma |- Delta and B, Gamma |- Delta"),
        Rule("OrR", "succ", 1, Or, "both", "premise is not Gamma |- Delta, A, B"),
        Rule("Cut", None, 2, None, "cut", "contexts do not match Gamma |- Delta, A with A, Gamma |- Delta"),
        Rule("AllL", "ante", 1, Forall, "instance", "premise principal formula is not the stated instance of the body"),
        Rule("AllR", "succ", 1, Forall, "eigen", "premise principal formula is not the body at the eigenvariable"),
        Rule("ExL", "ante", 1, Exists, "eigen", "premise principal formula is not the body at the eigenvariable"),
        Rule("ExR", "succ", 1, Exists, "instance", "premise principal formula is not the stated instance of the body"),
    )
}

RULE_TAGS = tuple(RULES)
# The tags of an in-memory weakening and exchange chain and of an in-memory
# substitution scheme.  Their rows are not in RULES: proof files hold the
# explicit nodes, and load_proof refuses them.
CHAIN = "Chain"
SCHEME = "Scheme"
_ROWS = {
    **RULES,
    CHAIN: Rule(CHAIN, None, 1, None, "chain", "chain has no steps", False),
    SCHEME: Rule(SCHEME, None, 0, None, "scheme", "conclusion is not the stated scheme's"),
}
UNCOUNTED_TAGS = frozenset(tag for tag, rule in _ROWS.items() if not rule.counted)
# The rows a chain's steps may use: the uncounted rules, weakening and exchange.
_CHAIN_ROWS = {tag: rule for tag, rule in RULES.items() if not rule.counted}
# The params whose values are formulas, written as their text in JSON.
_FORMULA_PARAMS = ("formula", "instance")
_BY_SIDE = {(rule.side, rule.principal or rule.shape): tag for tag, rule in RULES.items()}


def rule_for(side: str, key: Any) -> str:
    """The tag of the rule acting on `side` whose principal is of class
    `key`, or, for a structural rule, whose shape is `key`."""
    return _BY_SIDE[side, key]


@dataclass(frozen=True, slots=True, eq=False)
class Proof:
    """A proof node.  `counted` (counted lines of the tree, see
    counted_size) and `max_line` (its longest conclusion, in symbols)
    are computed once from the premises' values when the node is made.
    For a chain these are the values of its explicit nodes too: they are
    uncounted, and no line shrinks from a weakening or exchange's
    premise to its conclusion.  A scheme node takes them from formula
    lengths (_scheme_lines).

    Two proofs are equal when their explicit trees are (a chain or a
    scheme node equals the explicit nodes it stands for); the hash is
    the conclusion's."""

    conclusion: Sequent
    rule: str
    params: tuple[Any, ...]
    premises: tuple["Proof", ...]
    counted: int = field(init=False, compare=False, repr=False)
    max_line: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        counted = 0 if self.rule in UNCOUNTED_TAGS else 1
        max_line = syntax.sequent_length(self.conclusion)
        if self.rule == SCHEME and (step := _scheme_step(self)) is not None:
            counted, max_line = _scheme_lines(self.params[0], *step, max_line)
        for p in self.premises:
            counted += p.counted
            if p.max_line > max_line:
                max_line = p.max_line
        object.__setattr__(self, "counted", counted)
        object.__setattr__(self, "max_line", max_line)

    def __eq__(self, other: object) -> bool:
        # An explicit stack: chains and loaded proofs nest deeper than the
        # recursion limit.  Two chains or scheme nodes with the same
        # conclusion and params stand for the same explicit nodes, so only
        # their premises remain.  Each is expanded once per call.
        if not isinstance(other, Proof):
            return NotImplemented
        stack = [(self, other)]
        expanded: dict[int, Proof] = {}
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.conclusion != b.conclusion:
                return False
            if a.rule != b.rule or a.params != b.params:
                a, b = _explicit(a, expanded), _explicit(b, expanded)
                if a.rule != b.rule or a.params != b.params:
                    return False
            if len(a.premises) != len(b.premises):
                return False
            stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self) -> int:
        return hash(self.conclusion)

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default


def _mk(conclusion: Sequent, rule: str, premises: tuple[Proof, ...] = (), **params: Any) -> Proof:
    return Proof(conclusion, rule, tuple(sorted(params.items())), premises)


@dataclass(frozen=True)
class CheckError:
    path: tuple[int, ...]
    rule: str
    message: str

    def __str__(self) -> str:
        where = "/".join(str(i) for i in self.path) or "root"
        return f"[{where}] {self.rule}: {self.message}"


def nodes(p: Proof) -> Iterator[tuple[tuple[int, ...], Proof]]:
    """Pre-order traversal of the explicit tree, with premise-index
    paths: a chain or a scheme node is visited as the explicit nodes it
    stands for, made once per call."""
    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    expanded: dict[int, Proof] = {}
    while stack:
        path, node = stack.pop()
        if node.rule == CHAIN or node.rule == SCHEME:
            node = _explicit(node, expanded)
        yield path, node
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))


def counted_size(p: Proof) -> int:
    return p.counted


def max_line_length(p: Proof) -> int:
    return p.max_line


# ---------------------------------------------------------------------------
# Cedent geometry, for either side.

_OTHER_SIDE = {"ante": "succ", "succ": "ante"}
_EDGE_WORDS = {"ante": "antecedent does not start with", "succ": "succedent does not end with"}
_NOUNS = {
    Not: "a negation",
    And: "a conjunction",
    Or: "a disjunction",
    Forall: "a universal formula",
    Exists: "an existential formula",
}
_TRUTH = Sequent((), (Const(1),))
_FALSITY = Sequent((Const(0),), ())


def _cedents(s: Sequent, side: str) -> tuple[tuple, tuple]:
    """The cedent on `side` and the other one."""
    return (s.antecedent, s.succedent) if side == "ante" else (s.succedent, s.antecedent)


def _sequent(side: str, cedent: tuple, other: tuple) -> Sequent:
    return Sequent(cedent, other) if side == "ante" else Sequent(other, cedent)


def _put(side: str, cedent: tuple, formulas: tuple) -> tuple:
    """`cedent` with `formulas` at its principal end."""
    return formulas + cedent if side == "ante" else cedent + formulas


def _take(side: str, cedent: tuple, k: int) -> tuple[tuple, tuple]:
    """The k formulas at the principal end of `cedent`, and the rest."""
    if side == "ante":
        return cedent[:k], cedent[k:]
    return cedent[len(cedent) - k :], cedent[: len(cedent) - k]


# ---------------------------------------------------------------------------
# Structural steps, explicit or in a chain (a run of weakenings and
# exchanges as one node).

def _undo(rule: Rule, pos: Any, ante: list, succ: list) -> bool:
    """Undo the structural rule `rule` at `pos` on the cedents `ante` and
    `succ`, in place: drop the weakened formula, swap the exchanged pair
    back, or duplicate the contracted formula.  A bad position changes
    nothing and gives False."""
    cedent = ante if rule.side == "ante" else succ
    shape = rule.shape
    if type(pos) is not int or not 0 <= pos < len(cedent) - (shape == "swap"):  # a bool is no position
        return False
    if shape == "swap":
        cedent[pos], cedent[pos + 1] = cedent[pos + 1], cedent[pos]
    elif shape == "insert":
        del cedent[pos]
    else:
        cedent.insert(pos, cedent[pos])
    return True


def _expands(node: Proof) -> bool:
    """Whether `node` is a chain that stands for explicit nodes: one with
    steps, each a weakening or an exchange.  Any other chain is a node of
    its own, which fails the check."""
    return node.rule == CHAIN and bool(node.params) and all(tag in _CHAIN_ROWS for tag, _ in node.params)


def _unwind(steps: tuple, ante: list, succ: list) -> Iterator[tuple[list, list]]:
    """The cedents `ante` and `succ` as they stand below each step of a
    chain that _expands, from its conclusion up: each step is undone in
    place after its yield.  A step whose position is bad leaves them as
    they are (and its explicit node fails the check)."""
    for tag, pos in steps:
        yield ante, succ
        _undo(_CHAIN_ROWS[tag], pos, ante, succ)


def _explicit(node: Proof, expanded: dict[int, Proof]) -> Proof:
    """The explicit nodes that `node` stands for, the bottom one returned:
    a chain's steps (_chain_steps) or a scheme node's derivation
    (derive_scheme's tree, from _scheme_tree).  `expanded`, the dict of
    one call, keeps each expansion by the node's id, so a node reached
    twice is expanded once.  Any other node is returned as it is."""
    found = expanded.get(id(node))
    if found is None:
        if _expands(node):
            found = _chain_steps(node)
        elif (step := _scheme_step(node)) is not None:
            found = _instantiate(_scheme_tree(node.params[0]), _slots(*step, node.conclusion), _scheme_proof)
        else:
            found = node
        expanded[id(node)] = found
    return found


def _chain_steps(node: Proof) -> Proof:
    """The explicit nodes that the chain `node` stands for, the bottom one
    returned: one per step, over the chain's premises, concluding what
    _unwind gives."""
    steps = node.params
    c = node.conclusion
    conclusions = [
        Sequent(tuple(ante), tuple(succ)) for ante, succ in _unwind(steps, list(c.antecedent), list(c.succedent))
    ]
    premises = node.premises
    for (tag, pos), conclusion in zip(reversed(steps), reversed(conclusions)):
        premises = (Proof(conclusion, tag, (("pos", pos),), premises),)
    return premises[0]


def _chain(p: Proof, conclusion: Sequent, steps: tuple[tuple[str, int], ...]) -> Proof:
    """`p` followed by the weakenings and exchanges `steps`, given from
    `conclusion` up, as one chain; a chain `p` is merged into it, so a
    chain's premise is never a chain.  No steps leave `p` as it is."""
    if not steps:
        return p
    if p.rule == CHAIN:
        steps, p = steps + p.params, p.premises[0]
    return Proof(conclusion, CHAIN, steps, (p,))


def backward(tag: str, s: Sequent, idx: int, terms: tuple[Formula, ...] = ()) -> list[Sequent]:
    """The premises of the logical or quantifier rule `tag` applied
    backwards to the formula at position idx of its cedent in s.  A
    quantifier rule substitutes each of `terms` for the bound variable,
    in order; an eigenvariable is given as its atom.  Raises CaptureError
    when a substitution would capture."""
    rule = RULES[tag]
    side = rule.side
    cedent, other = _cedents(s, side)
    f = cedent[idx]
    rest = cedent[:idx] + cedent[idx + 1 :]
    if rule.shape == "other":
        return [_sequent(side, rest, _put(_OTHER_SIDE[side], other, (f.child,)))]
    if rule.shape == "both":
        parts = [(f.left, f.right)]
    elif rule.shape == "split":
        parts = [(f.left,), (f.right,)]
    else:
        parts = [tuple(substitute(f.body, f.var, t) for t in terms)]
    return [_sequent(side, _put(side, rest, part), other) for part in parts]


# ---------------------------------------------------------------------------
# The strict checker: one generic validation per node, read off its row.

def _check_axiom(rule: Rule, node: Proof) -> Optional[str]:
    c = node.conclusion
    if rule.shape == "rsubst":
        return _match_rsubst(c)
    if rule.shape == "identity":
        holds = len(c.antecedent) == 1 and c.antecedent == c.succedent
    else:
        holds = c == (_TRUTH if rule.shape == "truth" else _FALSITY)
    return None if holds else rule.message


def _check_structural(node: Proof, steps: tuple, rows: dict) -> Optional[str]:
    """Undo `steps`, (tag, pos) pairs from the node's conclusion up, each
    by its row in `rows`; the premise must conclude what is left.  An
    explicit weakening, exchange or contraction is the case of one step,
    and a chain's explicit nodes conclude what the same undoing leaves
    (_unwind), so a chain passes exactly when each of them would.  A
    mismatch is reported as the last step's row reads it."""
    c = node.conclusion
    ante, succ = [*c.antecedent], [*c.succedent]
    for tag, pos in steps:
        rule = rows.get(tag)
        if rule is None:
            return f"{tag!r} is no step of a chain"
        if not _undo(rule, pos, ante, succ):
            return f"bad position {pos!r}"
    above = node.premises[0].conclusion
    ante, succ = tuple(ante), tuple(succ)
    if ante == above.antecedent and succ == above.succedent:
        return None
    cedent, other = (ante, succ) if rule.side == "ante" else (succ, ante)
    p_cedent, p_other = _cedents(above, rule.side)
    if other != p_other:
        return "side cedent changed"
    if rule.shape == "duplicate" and len(cedent) != len(p_cedent):
        return "premise must contain one extra copy"
    return rule.message


def _check_introduction(rule: Rule, node: Proof) -> Optional[str]:
    c = node.conclusion
    side = rule.side
    term = None
    if rule.shape == "instance":
        term = node.param("instance")
        if term is None:
            return "missing instantiation formula"
    elif rule.shape == "eigen":
        eigen = node.param("eigen")
        if not isinstance(eigen, str):
            return "missing eigenvariable"
        term = Atom(eigen)
    cedent = _cedents(c, side)[0]
    idx = 0 if side == "ante" else len(cedent) - 1
    principal = cedent[idx] if cedent else None
    if not isinstance(principal, rule.principal):
        return f"conclusion {_EDGE_WORDS[side]} {_NOUNS[rule.principal]}"
    if rule.shape == "instance":
        stated_var = node.param("var")
        if stated_var is not None and stated_var != principal.var:
            return "stated variable differs from the binder"
    elif rule.shape == "eigen":
        for f in c.formulas:
            if eigen in free_atoms(f):
                return f"eigenvariable {eigen!r} occurs free in the conclusion"
    try:
        wanted = backward(rule.tag, c, idx, (term,))
    except CaptureError as exc:
        what = "instantiation" if rule.shape == "instance" else "eigenvariable substitution"
        return f"{what} would capture: {exc}"
    if [p.conclusion for p in node.premises] != wanted:
        return rule.message
    return None


def _check_cut(rule: Rule, node: Proof) -> Optional[str]:
    c = node.conclusion
    p1, p2 = (p.conclusion for p in node.premises)
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
    return rule.message


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
    rule = _ROWS.get(node.rule)
    if rule is None:
        return f"unknown rule tag {node.rule!r}"
    if not allow_quantifiers:
        if rule.principal is Forall or rule.principal is Exists:
            return "quantifier rule is not part of the propositional calculus"
        for f in node.conclusion.formulas:
            if not f.quantifier_free:
                return "quantified formula in a propositional proof"
    if len(node.premises) != rule.arity:
        return f"expects {rule.arity} premises, found {len(node.premises)}"
    if rule.principal is not None:
        return _check_introduction(rule, node)
    if rule.shape == "chain":
        # every formula of a chain's explicit nodes is in its conclusion,
        # so the quantifier scan above covers them all
        return _check_structural(node, node.params, _CHAIN_ROWS) if node.params else rule.message
    if rule.shape == "scheme":
        # A and the contexts occur in the conclusion, so the scan above
        # covers every formula of the derivation, which checks for any of them
        if _scheme_step(node) is not None:
            return None
        if _scheme_params(node.params):
            return rule.message
        return "params are not a scheme, a formula and two tuples of formulas"
    if rule.side is not None:
        return _check_structural(node, ((rule.tag, node.param("pos")),), RULES)
    if rule.shape == "cut":
        return _check_cut(rule, node)
    return _check_axiom(rule, node)


def _check(p: Proof, allow_quantifiers: bool) -> list[CheckError]:
    # Walk without paths, validating each distinct node object once: a
    # node's verdict rests only on itself and its premises' conclusions,
    # so a subproof shared within the proof is checked at its first
    # visit.  Only a proof with a bad node is walked again, in pre-order
    # with paths, to report every bad node at every path that reaches it.
    seen = set()
    stack = [p]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if _validate(node, allow_quantifiers) is not None:
            return [
                CheckError(path, bad.rule, problem)
                for path, bad in nodes(p)
                if (problem := _validate(bad, allow_quantifiers)) is not None
            ]
        stack.extend(node.premises)
    return []


def check_pk(p: Proof) -> list[CheckError]:
    """Empty list means the proof is accepted."""
    return _check(p, allow_quantifiers=False)


def check_g(p: Proof) -> list[CheckError]:
    """Checker for the quantified calculus (quantifier rules allowed)."""
    return _check(p, allow_quantifiers=True)


# ---------------------------------------------------------------------------
# Builders.  Each computes the conclusion from its inputs and its rule's
# row and checks nothing: a wrong input yields a node that the one check
# of the finished proof rejects.

def ax_id(a: Formula) -> Proof:
    return _mk(Sequent((a,), (a,)), "AxId")


def ax_true() -> Proof:
    return _mk(_TRUTH, "AxTrue")


def ax_false() -> Proof:
    return _mk(_FALSITY, "AxFalse")


def ax_rsubst(a: Formula, b: Formula, before: tuple[Formula, ...], after: tuple[Formula, ...]) -> Proof:
    ante = (Or(Not(a), b), Or(a, Not(b)), RApp(tuple(before) + (a,) + tuple(after)))
    succ = (RApp(tuple(before) + (b,) + tuple(after)),)
    return _mk(Sequent(ante, succ), "AxRSubst")


def restructure(tag: str, p: Proof, pos: int, formula: Optional[Formula] = None) -> Proof:
    """Apply the structural rule `tag` at `pos`; a weakening inserts
    `formula` there.  A weakening or exchange joins a chain, a
    contraction (counted) is a node of its own."""
    rule = RULES[tag]
    cedent, other = _cedents(p.conclusion, rule.side)
    cedent = list(cedent)
    if rule.shape == "insert":
        cedent.insert(pos, formula)
    elif rule.shape == "swap":
        cedent[pos], cedent[pos + 1] = cedent[pos + 1], cedent[pos]
    else:
        del cedent[pos]
    conclusion = _sequent(rule.side, tuple(cedent), other)
    if rule.counted:
        return Proof(conclusion, tag, (("pos", pos),), (p,))
    return _chain(p, conclusion, ((tag, pos),))


def introduce(tag: str, ps: tuple[Proof, ...], binder: tuple = (), **params: Any) -> Proof:
    """Apply the logical or quantifier rule `tag` to the premises `ps`,
    whose principal parts sit at the rule's cedent end.  A quantifier
    rule's principal formula is made from `binder`, (variable, body)."""
    rule = RULES[tag]
    side = rule.side
    cedent, other = _cedents(ps[0].conclusion, side)
    if rule.shape == "other":
        parts, other = _take(_OTHER_SIDE[side], other, 1)
    elif rule.shape == "both":
        parts, cedent = _take(side, cedent, 2)
    elif rule.shape == "split":
        first, cedent = _take(side, cedent, 1)
        parts = first + _take(side, _cedents(ps[1].conclusion, side)[0], 1)[0]
    else:
        parts, cedent = binder, _take(side, cedent, 1)[1]
    return _mk(_sequent(side, _put(side, cedent, (rule.principal(*parts),)), other), tag, ps, **params)


def weak_l(p: Proof, f: Formula, pos: int) -> Proof:
    return restructure("WeakL", p, pos, f)


def weak_r(p: Proof, f: Formula, pos: int) -> Proof:
    return restructure("WeakR", p, pos, f)


def exch_l(p: Proof, pos: int) -> Proof:
    return restructure("ExchL", p, pos)


def exch_r(p: Proof, pos: int) -> Proof:
    return restructure("ExchR", p, pos)


def not_r(p: Proof) -> Proof:
    return introduce("NotR", (p,))


def or_r(p: Proof) -> Proof:
    return introduce("OrR", (p,))


def cut(p1: Proof, p2: Proof) -> Proof:
    c1 = p1.conclusion
    a = c1.succedent[-1]
    return _mk(Sequent(c1.antecedent, c1.succedent[:-1]), "Cut", (p1, p2), formula=a)


def pad(p: Proof, target: Sequent, keep_ante: list[int], keep_succ: list[int]) -> Proof:
    """Weaken until the conclusion equals `target`, antecedent first.
    `keep_ante` and `keep_succ` give the target positions of the formulas
    already present, in their order.  Each missing formula goes in at its
    own target index: they go in by ascending index, so every earlier
    position is already filled.  The result is one chain that concludes
    `target`."""
    steps = []
    for side, keep in (("ante", keep_ante), ("succ", keep_succ)):
        weaken = rule_for(side, "insert")
        kept = set(keep)
        steps += [(weaken, ti) for ti in range(len(_cedents(target, side)[0])) if ti not in kept]
    steps.reverse()
    return _chain(p, target, tuple(steps))


def move(p: Proof, side: str, src: int, dst: int) -> Proof:
    """Exchange chain moving the formula at src of the cedent on `side`
    ("ante" or "succ") to dst: one rotation of the cedent between them."""
    if src == dst:
        return p
    exch = rule_for(side, "swap")
    cedent, other = _cedents(p.conclusion, side)
    f = cedent[src]
    if src < dst:  # exchanges at src, src + 1, ..., dst - 1
        cedent = cedent[:src] + cedent[src + 1 : dst + 1] + (f,) + cedent[dst + 1 :]
        steps = tuple((exch, i) for i in range(dst - 1, src - 1, -1))
    else:  # exchanges at src - 1, src - 2, ..., dst
        cedent = cedent[:dst] + (f,) + cedent[dst:src] + cedent[src + 1 :]
        steps = tuple((exch, i) for i in range(dst, src))
    return _chain(p, _sequent(side, cedent, other), steps)


# ---------------------------------------------------------------------------
# The four argument-substitution schemes, one construction.  Each
# derivation has a fixed node count regardless of A and the surrounding
# argument vectors: counted sizes are 7, 7, 9, 9.  The table gives the
# cedent that holds A, and whether R's argument goes from A to the
# constant (1 with A in the antecedent, 0 with A in the succedent).
_SCHEMES = {
    "E1": ("ante", True),  # A, R(...A...) |- R(...1...)
    "E2": ("ante", False),  # A, R(...1...) |- R(...A...)
    "E3": ("succ", True),  # R(...A...) |- A, R(...0...)
    "E4": ("succ", False),  # R(...0...) |- A, R(...A...)
}
_FORMULAS = get_args(Formula)


def _scheme_sides(which: str, a: Formula, before: tuple, after: tuple) -> tuple[Formula, Formula, Sequent]:
    """X and Y, R's argument before and after the step of scheme `which`,
    and the scheme's conclusion pre, R(..X..) |- post, R(..Y..), where A
    is pre with A in the antecedent and post with A in the succedent."""
    side, a_first = _SCHEMES[which]
    ante = side == "ante"
    const = Const(1) if ante else Const(0)
    x, y = (a, const) if a_first else (const, a)
    pre, post = ((a,), ()) if ante else ((), (a,))
    return x, y, Sequent(pre + (RApp(before + (x,) + after),), post + (RApp(before + (y,) + after),))


def _scheme_step(node: Proof) -> Optional[tuple[Formula, Formula]]:
    """X and Y of the scheme node `node` when it stands for
    derive_scheme(*node.params): it has no premises, its params are a
    scheme's name, a formula A and two tuples of formulas (the arguments
    before and after A), and it concludes that scheme.  None for any
    other node; such a scheme node stands for nothing and fails the
    check."""
    if node.rule != SCHEME or node.premises or not _scheme_params(node.params):
        return None
    x, y, conclusion = _scheme_sides(*node.params)
    return (x, y) if conclusion == node.conclusion else None


def _scheme_params(params: Any) -> bool:
    """Whether `params` are a scheme's name, a formula and two tuples of
    formulas."""
    if type(params) is not tuple or len(params) != 4:
        return False
    which, a, before, after = params
    if type(which) is not str or which not in _SCHEMES or type(before) is not tuple or type(after) is not tuple:
        return False
    return all(isinstance(f, _FORMULAS) for f in (a, *before, *after))


def _scheme_lines(which: str, x: Formula, y: Formula, length: int) -> tuple[int, int]:
    """derive_scheme's counted lines and longest line, from X, Y and the
    length of its conclusion.  It counts AxRSubst, two Cuts and, in each
    half, an axiom and an OrR, and a NotR too with A in the succedent: 7
    or 9.  Its longest line is the conclusion with ~X | Y and X | ~Y
    added, each after a comma (the premises of the inner Cut).  Every
    other line holds some of those formulas, or, in a half, A and the two
    disjuncts of one half, which print no longer than A and the half."""
    counted = 7 if _SCHEMES[which][0] == "ante" else 9
    return counted, length + syntax.length(Or(Not(x), y)) + syntax.length(Or(x, Not(y))) + 2


def scheme(which: str, a: Formula, before=(), after=()) -> Proof:
    """derive_scheme(which, a, before, after) as one node, a derived rule:
    params (which, a, before, after), no premises, and the scheme's
    conclusion.  Its counted size and longest line are the derivation's,
    and nodes(), the JSON and `==` see the derivation."""
    if which not in _SCHEMES:
        raise ValueError(f"unknown scheme {which!r}")
    before, after = tuple(before), tuple(after)
    return Proof(_scheme_sides(which, a, before, after)[2], SCHEME, (which, a, before, after), ())


def _fit(p: Proof, target: Sequent, last: int) -> Proof:
    """pad p to target: its formulas keep their positions, but the last
    of its succedent goes to position `last`."""
    c = p.conclusion
    return pad(p, target, list(range(len(c.antecedent))), [*range(len(c.succedent) - 1), last])


def derive_scheme(which: str, a: Formula, before=(), after=()) -> Proof:
    """Checker-accepted proof of the requested substitution scheme.

    AxRSubst(X, Y), with X, Y the scheme's argument before and after, is
    cut against proofs of its halves ~X | Y and X | ~Y.  Each half is
    proved from the one disjunct that holds: with A in the antecedent the
    positive one (1 by AxTrue, A by AxId), with A in the succedent the
    negated one (~0 by NotR over AxFalse, ~A by NotR over AxId next to A)."""
    if which not in _SCHEMES:
        raise ValueError(f"unknown scheme {which!r}")
    side, a_first = _SCHEMES[which]
    ante = side == "ante"
    before, after = tuple(before), tuple(after)
    x, y, goal = _scheme_sides(which, a, before, after)
    gamma, delta = goal.antecedent, goal.succedent
    pre, r_x, post = gamma[:-1], gamma[-1], delta[:-1]

    def half(h: Or, k: int, from_a: bool) -> Proof:
        # h from its disjunct at k (0 left, 1 right), built from A or the constant
        p = ax_id(a) if from_a else ax_true() if ante else ax_false()
        p = p if ante else not_r(p)
        c = p.conclusion
        target = Sequent(c.antecedent, c.succedent[:-1] + (h.left, h.right))
        return or_r(_fit(p, target, len(c.succedent) - 1 + k))

    # The disjunct that holds is Y of ~X | Y and X of X | ~Y with A on the
    # left, ~X and ~Y with A on the right; one of the two is built from A.
    h1, h2 = Or(Not(x), y), Or(x, Not(y))
    p1 = half(h1, int(ante), ante != a_first)
    p2 = half(h2, int(not ante), ante == a_first)
    n = len(pre)
    ax = exch_l(ax_rsubst(x, y, before, after), 0)  # X | ~Y, ~X | Y, R(X) |- R(Y)
    prem_b = pad(ax, Sequent((h2,) + pre + (h1, r_x), delta), [0, n + 1, n + 2], [len(post)])
    prem_a = _fit(p2, Sequent(pre + (h1, r_x), delta + (h2,)), len(delta))
    c1 = cut(prem_a, prem_b)  # pre, ~X | Y, R(X) |- delta
    return cut(_fit(p1, Sequent(gamma, delta + (h1,)), len(delta)), move(c1, "ante", n, 0))


# derive_scheme's explicit tree for each scheme, with each formula given
# by its index in _slots.  The tree's shape does not depend on A or the
# contexts (the construction never compares formulas), so a scheme node's
# explicit nodes, as Proof objects or as JSON, are this tree over its own
# slot values.  Each tree is made at its first use, so importing builds
# no proof; the four trees are constants, whoever asks first.
_SCHEME_TREES: dict[str, tuple] = {}


def _slots(x: Formula, y: Formula, conclusion: Sequent) -> tuple[Formula, ...]:
    """Every formula of the derivation with argument X before and Y after
    the step: A is one of X and Y and the constant the other, and the R
    applications end the conclusion's cedents."""
    not_x, not_y = Not(x), Not(y)
    return x, y, not_x, not_y, Or(not_x, y), Or(x, not_y), conclusion.antecedent[-1], conclusion.succedent[-1]


def _scheme_tree(which: str) -> tuple:
    """derive_scheme's explicit tree for `which` over the atom a and no
    contexts, as nested (antecedent, succedent, rule, params, premises)
    with slot indices in place of formulas."""
    tree = _SCHEME_TREES.get(which)
    if tree is None:
        a = Atom("a")
        x, y, conclusion = _scheme_sides(which, a, (), ())
        slots = {f: i for i, f in enumerate(_slots(x, y, conclusion))}
        expanded: dict[int, Proof] = {}

        def walk(node: Proof) -> tuple:
            if node.rule == CHAIN:
                node = _explicit(node, expanded)
            c = node.conclusion
            return (
                [slots[f] for f in c.antecedent],
                [slots[f] for f in c.succedent],
                node.rule,
                tuple((k, slots[v] if k in _FORMULA_PARAMS else v) for k, v in node.params),
                [walk(q) for q in node.premises],
            )

        tree = _SCHEME_TREES[which] = walk(derive_scheme(which, a))
    return tree


def _instantiate(tree: tuple, values: tuple, make: Any) -> Any:
    """The tree `tree` with the slot values `values`: each node is
    make(antecedent, succedent, rule, params, premises), its premises made
    first."""
    ante, succ, rule, params, premises = tree
    return make(
        [values[i] for i in ante],
        [values[i] for i in succ],
        rule,
        tuple((k, values[v] if k in _FORMULA_PARAMS else v) for k, v in params),
        [_instantiate(q, values, make) for q in premises],
    )


def _scheme_proof(ante: list, succ: list, rule: str, params: tuple, premises: list) -> Proof:
    return Proof(Sequent(tuple(ante), tuple(succ)), rule, params, tuple(premises))


# ---------------------------------------------------------------------------
# JSON interchange: conclusions are stored as surface text and re-parsed.
# One dump or load handles each distinct formula once: a dict for the
# call maps each formula node to its text, or each formula text to its
# node.  A dump writes each distinct scheme node's derivation once, and
# every place it occurs shares that one dict.

class ProofFormatError(ValueError):
    pass


def proof_to_json(p: Proof) -> dict:
    return _to_json(p, {}, {})


def _text(f: Formula, texts: dict[Formula, str]) -> str:
    text = texts.get(f)
    if text is None:
        text = texts[f] = syntax.format_formula(f)
    return text


def _cedent_texts(s: Sequent, texts: dict[Formula, str]) -> tuple[list[str], list[str]]:
    return [_text(f, texts) for f in s.antecedent], [_text(f, texts) for f in s.succedent]


def _to_json(p: Proof, texts: dict[Formula, str], derived: dict[tuple, dict]) -> dict:
    """p as JSON; `derived` maps the params of each scheme node written so
    far in this dump to its derivation's JSON."""
    if _expands(p):
        return _chain_to_json(p, texts, derived)
    if p.rule == SCHEME and (step := _scheme_step(p)) is not None:
        data = derived.get(p.params)
        if data is None:
            values = [_text(f, texts) for f in _slots(*step, p.conclusion)]
            data = derived[p.params] = _instantiate(_scheme_tree(p.params[0]), values, _node_json)
        return data
    params = {}
    for key, value in p.params:
        params[key] = _text(value, texts) if key in _FORMULA_PARAMS else value
    return {
        "conclusion": syntax.join_sequent(*_cedent_texts(p.conclusion, texts)),
        "rule": p.rule,
        "params": params,
        "premises": [_to_json(q, texts, derived) for q in p.premises],
    }


def _node_json(ante: list[str], succ: list[str], rule: str, params: tuple, premises: list[dict]) -> dict:
    return {"conclusion": syntax.join_sequent(ante, succ), "rule": rule, "params": dict(params), "premises": premises}


def _chain_to_json(p: Proof, texts: dict[Formula, str], derived: dict[tuple, dict]) -> dict:
    """_to_json of a chain's explicit nodes (see _chain_steps), built
    without them: each explicit conclusion is joined from the texts of the
    chain conclusion's formulas."""
    lines = [syntax.join_sequent(a, s) for a, s in _unwind(p.params, *_cedent_texts(p.conclusion, texts))]
    data = [_to_json(q, texts, derived) for q in p.premises]
    for (tag, pos), line in zip(reversed(p.params), reversed(lines)):
        data = [{"conclusion": line, "rule": tag, "params": {"pos": pos}, "premises": data}]
    return data[0]


def proof_from_json(data: Any) -> Proof:
    return _from_json(data, {})


def _from_json(data: Any, formulas: dict[str, Formula]) -> Proof:
    if not isinstance(data, dict):
        raise ProofFormatError("proof node must be an object")
    try:
        conclusion = syntax.parse_sequent_cached(data["conclusion"], formulas)
        rule = data["rule"]
        raw_params = data.get("params", {})
        premises = tuple([_from_json(q, formulas) for q in data.get("premises", [])])
    except ProofFormatError:
        raise
    except KeyError as exc:
        raise ProofFormatError(f"missing field {exc}")
    except Exception as exc:
        raise ProofFormatError(str(exc))
    if rule not in RULE_TAGS:
        raise ProofFormatError(f"unknown rule tag {rule!r}")
    if not isinstance(raw_params, dict):
        raise ProofFormatError("params must be an object")
    params = {}
    for key, value in raw_params.items():
        if key in _FORMULA_PARAMS:
            try:
                node = formulas.get(value) if isinstance(value, str) else None
                params[key] = syntax.parse_formula(value) if node is None else node
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
