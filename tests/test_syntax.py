import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genlib import random_ast
from rpcalc.formulas import And, Atom, Const, Exists, Forall, Not, Or, RApp
from rpcalc.syntax import (
    ParseError,
    format_entry,
    format_formula,
    format_sequent,
    iter_entries,
    length,
    parse_entry,
    parse_formula,
    parse_sequent,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_implication_desugars():
    f = parse_formula("(R(p) & R(~p)) => (R(q) | R(~q))")
    rp = RApp((Atom("p"),))
    rnp = RApp((Not(Atom("p")),))
    rq = RApp((Atom("q"),))
    rnq = RApp((Not(Atom("q")),))
    assert f == Or(Not(And(rp, rnp)), Or(rq, rnq))


def test_iff_desugars():
    assert parse_formula("p <=> q") == parse_formula("(p => q) & (q => p)")


def test_precedence():
    assert parse_formula("~p & q | r") == Or(And(Not(Atom("p")), Atom("q")), Atom("r"))
    assert parse_formula("p | q | r") == Or(Or(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("p => q => r") == parse_formula("p => (q => r)")


def test_quantifier_scope_extends_right():
    assert parse_formula("ex x. x | ~x") == parse_formula("ex x. (x | ~x)")
    assert parse_formula("(ex x. x) | ~p") == Or(
        parse_formula("ex x. x"), Not(Atom("p"))
    )


def test_nullary_r():
    assert parse_formula("R()") == RApp(())
    assert length(parse_formula("R()")) == 3


def test_lengths():
    assert length(parse_formula("1")) == 1
    assert length(parse_formula("R(0,1)")) == 6
    assert length(parse_formula("~p")) == 2


def test_reserved_r():
    with pytest.raises(ParseError):
        parse_formula("R & p")
    with pytest.raises(ParseError):
        parse_formula("R")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("p &\n& q")
    assert err.value.line == 2
    assert err.value.col == 1
    with pytest.raises(ParseError):
        parse_formula("Pp")


def test_sequent_parsing():
    s = parse_sequent("p, q |- r")
    assert len(s.antecedent) == 2 and len(s.succedent) == 1
    assert parse_sequent("|-") .antecedent == ()
    assert format_sequent(parse_sequent("p|-")) == "p |-"
    assert format_sequent(parse_sequent("|- p, q")) == "|- p, q"


PRINTED = {
    # quantifiers under ~, under & and |, and inside R(...)
    "~ all x. x": "~(all x. x)",
    "(ex x.x)&p": "(ex x. x) & p",
    "(all x. x) | p": "(all x. x) | p",
    "p & all x. x | p": "p & (all x. x | p)",
    "p | (all x. x) | ex y. y": "p | (all x. x) | (ex y. y)",
    "R(all x. x,p, ex y. y & p)": "R(all x. x, p, ex y. y & p)",
    "all x. ex y. R(x, y)": "all x. ex y. R(x, y)",
    # R() and ~~p
    "R( )": "R()",
    "~ ~p": "~~p",
    "~(p & q)": "~(p & q)",
    # right-nested & and |
    "p & (q & r)": "p & (q & r)",
    "p | (q | r)": "p | (q | r)",
    "(p & q) & r": "p & q & r",
    "(p | q) | r": "p | q | r",
    "p | (q & r)": "p | q & r",
    "(p | q) & r": "(p | q) & r",
    # sequents with an empty antecedent, an empty succedent, or both
    "|-p,q": "|- p, q",
    "p,q|-": "p, q |-",
    " |- ": "|-",
    "p,all x. x|-q,(r)": "p, all x. x |- q, r",
    # one node, p | q & (ex y. p), printed once and copied: under ~, on
    # both sides of & and |, as R arguments and as a quantifier body
    "~(p|q&ex y.p) & ((p|q&ex y.p) | R(p|q&ex y.p,q,p|q&ex y.p) | (p|q&ex y.p) & all x.p|q&ex y.p)": (
        "~(p | q & (ex y. p)) & (p | q & (ex y. p) | R(p | q & (ex y. p), q, p | q & (ex y. p))"
        " | (p | q & (ex y. p)) & (all x. p | q & (ex y. p)))"
    ),
}


def test_printed_text_is_pinned():
    # the round-trip tests ignore spacing; this pins the exact text
    for text, printed in PRINTED.items():
        entry = parse_entry(text)
        assert format_entry(entry) == printed, text
        assert parse_entry(printed) == entry, text


def tree_text(f, level=0):
    """The canonical text of f, written out recursively as a tree.  A level
    is what binds where f stands: 0 at the top, in an R argument and in a
    quantifier body, 1 left of "|", 2 right of "|" and left of "&", 3
    right of "&" and under "~"."""
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Const:
        return str(f.bit)
    if kind is Not:
        return "~" + tree_text(f.child, 3)
    if kind is RApp:
        return "R(" + ", ".join(tree_text(a) for a in f.args) + ")"
    if kind is And:
        text, wrapped = tree_text(f.left, 2) + " & " + tree_text(f.right, 3), level > 2
    elif kind is Or:
        text, wrapped = tree_text(f.left, 1) + " | " + tree_text(f.right, 2), level > 1
    else:
        word = "all" if kind is Forall else "ex"
        text, wrapped = f"{word} {f.var}. " + tree_text(f.body), level > 0
    return f"({text})" if wrapped else text


# One subterm, s, under ~, on both sides of & and |, as an R argument and
# as a quantifier body; the printer writes its first text once and copies it.
_P, _Q = Atom("p"), Atom("q")
_S = Or(_P, And(_Q, Exists("y", _P)))
_SHARED = And(Not(_S), Or(Or(_S, RApp((_S, _Q, _S))), And(_S, Forall("x", _S))))


@st.composite
def pool_formulas(draw):
    """A formula built over a small pool: each step adds a node over
    earlier pool members, so subterms recur in many places."""
    pool = [_P, _Q, Const(0), Const(1)]
    for _ in range(draw(st.integers(1, 10))):
        a, b, c = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(3))
        pool.append(
            draw(
                st.sampled_from(
                    [Not(a), And(a, b), Or(a, b), RApp((a, b, c)), RApp((a,)), Forall("x", a), Exists("y", b)]
                )
            )
        )
    return pool[-1]


@given(pool_formulas())
@example(_SHARED)
@example(_S)
def test_shared_nodes_print_as_trees_do(f):
    assert format_formula(f) == tree_text(f)


def test_entry_dispatch():
    assert parse_entry("p & q") == parse_formula("p & q")
    assert parse_entry("p |- q") == parse_sequent("p |- q")


def test_batch_lines_skip_comments():
    text = "# header\n\np |- p\n  # another\nq |- q\n"
    entries = iter_entries(text)
    assert [line for _, line in entries] == ["p |- p", "q |- q"]
    assert [n for n, _ in entries] == [3, 5]


def test_roundtrip_seeded_harness():
    rng = random.Random(11)
    seen = set()
    for _ in range(1000):
        f = random_ast(rng, depth=4)
        seen.add(type(f).__name__)
        text = format_formula(f)
        assert parse_formula(text) == f, text
        assert parse_formula(format_formula(parse_formula(text))) == f


@given(st.integers(min_value=0, max_value=100_000))
def test_roundtrip_property(seed):
    f = random_ast(random.Random(seed), depth=4)
    assert parse_formula(format_formula(f)) == f


def test_print_then_parse_idempotent_on_sugared_text():
    texts = [
        "p => q",
        "p <=> q | r",
        "all x. x => R(x)",
        "~(p => q) & R()",
    ]
    for text in texts:
        normalized = format_formula(parse_formula(text))
        assert format_formula(parse_formula(normalized)) == normalized


def test_sequent_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        from rpcalc.formulas import Sequent

        s = Sequent(
            tuple(random_ast(rng, 3) for _ in range(rng.randint(0, 3))),
            tuple(random_ast(rng, 3) for _ in range(rng.randint(0, 3))),
        )
        assert parse_sequent(format_sequent(s)) == s


@given(st.text())
def test_any_text_parses_or_raises_parse_error(text):
    for parse in (parse_formula, parse_sequent, parse_entry):
        try:
            parse(text)
        except ParseError:
            pass


def test_non_ascii_is_an_unexpected_character():
    for text, col in (("é", 1), ("p & é", 5), ("pé |- q", 2), ("x²", 2)):
        with pytest.raises(ParseError) as err:
            parse_entry(text)
        assert str(err.value) == f"1:{col}: unexpected character {text[col - 1]!r}"


DEPTH = 100_000

DEEP_CHAINS = """
import sys
from rpcalc.formulas import And, Atom, Forall, Not, RApp, implies
from rpcalc.syntax import format_formula, parse_formula

sys.setrecursionlimit(1000)
n = {depth}
p, q, x = Atom("p"), Atom("q"), Atom("x")
chains = {{
    "~": ("~" * n + "p", p, Not),
    "R(": ("R(" * n + "p" + ")" * n, p, lambda g: RApp((g,))),
    "all x.": ("all x. " * n + "x", x, lambda g: Forall("x", g)),
    "(p &": ("(p & " * n + "q" + ")" * n, q, lambda g: And(p, g)),
    "R(p,": ("R(p, " * n + "q" + ")" * n, q, lambda g: RApp((p, g))),
    "=>": ("p => " * n + "q", q, lambda g: implies(p, g)),
}}
for name, (text, node, wrap) in chains.items():
    for _ in range(n):
        node = wrap(node)
    assert parse_formula(text) is node, name
    assert parse_formula(format_formula(node)) is node, name
print("ok")
"""


def test_deep_chains_round_trip_below_the_default_recursion_limit():
    # a fresh interpreter, so the lowered limit binds nothing else
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_CHAINS.format(depth=DEPTH)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"
