"""The parser against the recursive-descent parser it replaced.

The reference below is rpcalc's former tokenizer and parser, unchanged
but for names.  On ASCII text both must return the same node (the same
object: nodes are interned) or raise ParseError with the same message,
line and column."""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Union

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    iff,
    implies,
)
from rpcalc.syntax import ParseError, parse_entry, parse_formula, parse_sequent


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SINGLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "~": "TILDE",
    "&": "AMP",
    "|": "PIPE",
}

_KEYWORDS = {"all": "ALL", "ex": "EX", "R": "RSYM"}


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("<=>", i):
            tokens.append(Token("IFF", "<=>", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("=>", i):
            tokens.append(Token("IMP", "=>", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("|-", i):
            tokens.append(Token("TURNSTILE", "|-", line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "01":
            tokens.append(Token("CONST", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append(Token(_KEYWORDS[word], word, line, col))
            elif word[0].islower():
                tokens.append(Token("ID", word, line, col))
            else:
                raise ParseError(
                    f"invalid identifier {word!r} (atom names start lowercase; R is reserved)",
                    line,
                    col,
                )
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class ReferenceParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.take()

    def formula(self) -> Formula:
        out = self.imp()
        while self.peek().kind == "IFF":
            self.take()
            out = iff(out, self.imp())
        return out

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "IMP":
            self.take()
            return implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "PIPE":
            self.take()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "AMP":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "TILDE":
            self.take()
            return Not(self.unary())
        if t.kind in ("ALL", "EX"):
            self.take()
            var = self.expect("ID", "a bound variable name")
            self.expect("DOT", "'.'")
            body = self.formula()
            return (Forall if t.kind == "ALL" else Exists)(var.text, body)
        return self.atom()

    def atom(self) -> Formula:
        t = self.take()
        if t.kind == "CONST":
            return Const(int(t.text))
        if t.kind == "ID":
            return Atom(t.text)
        if t.kind == "RSYM":
            if self.peek().kind != "LPAREN":
                raise ParseError("reserved name R used as an atom", t.line, t.col)
            self.take()
            args: list[Formula] = []
            if self.peek().kind != "RPAREN":
                args.append(self.formula())
                while self.peek().kind == "COMMA":
                    self.take()
                    args.append(self.formula())
            self.expect("RPAREN", "')'")
            return RApp(tuple(args))
        if t.kind == "LPAREN":
            out = self.formula()
            self.expect("RPAREN", "')'")
            return out
        raise ParseError(f"expected a formula, found {t.text or 'end of input'!r}", t.line, t.col)

    def cedent(self) -> list[Formula]:
        if self.peek().kind in ("TURNSTILE", "EOF"):
            return []
        out = [self.formula()]
        while self.peek().kind == "COMMA":
            self.take()
            out.append(self.formula())
        return out

    def sequent(self) -> Sequent:
        ante = self.cedent()
        self.expect("TURNSTILE", "'|-'")
        succ = self.cedent()
        return Sequent(tuple(ante), tuple(succ))


def reference_parse_formula(text: str) -> Formula:
    p = ReferenceParser(reference_tokenize(text))
    out = p.formula()
    p.expect("EOF", "end of input")
    return out


def reference_parse_sequent(text: str) -> Sequent:
    p = ReferenceParser(reference_tokenize(text))
    out = p.sequent()
    p.expect("EOF", "end of input")
    return out


def reference_parse_entry(text: str) -> Union[Formula, Sequent]:
    tokens = reference_tokenize(text)
    p = ReferenceParser(tokens)
    if any(t.kind == "TURNSTILE" for t in tokens):
        out: Union[Formula, Sequent] = p.sequent()
    else:
        out = p.formula()
    p.expect("EOF", "end of input")
    return out


PAIRS = [
    (parse_formula, reference_parse_formula),
    (parse_sequent, reference_parse_sequent),
    (parse_entry, reference_parse_entry),
]


def outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def same(a, b) -> bool:
    if isinstance(a, Sequent):
        return (
            isinstance(b, Sequent)
            and len(a.antecedent) == len(b.antecedent)
            and len(a.succedent) == len(b.succedent)
            and all(x is y for x, y in zip(a.formulas, b.formulas))
        )
    if isinstance(a, tuple):
        return a == b
    return a is b


def assert_agrees(text: str) -> None:
    for parse, reference in PAIRS:
        got, want = outcome(parse, text), outcome(reference, text)
        assert same(got, want), (text, parse.__name__, got, want)


# Whole tokens and near-misses: the digits 2-9, words that start upper
# case or with "_", half connectives, comments with and without their
# newline, and whitespace the grammar does and does not allow.
FRAGMENTS = (
    "p", "q", "x", "y1", "p_Q", "all", "ex", "R", "0", "1", "01",
    "(", ")", ",", ".", "~", "&", "|", "=>", "<=>", "|-",
    "all x.", "ex y.", "R(", "R()", "(p)", "p & q", "p | q", "~p",
    " ", "  ", "\n", "\t", "\r", "\x0c", "\v", "# c", "#", "# x\n",
    "2", "3", "5", "9", "P", "Pq", "RR", "ALL", "Ex", "_", "_x", "__",
    "=", "<", "<=", "-", ">", "$", "\x00", "\\",
)

token_strings = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)
ascii_text = st.text(alphabet=string.printable + "\x00\x0b", max_size=40)


@given(st.one_of(token_strings, ascii_text))
@settings(max_examples=1500)
@example("p # trailing comment")
@example("p &\n# comment")
@example("p |- # c")
@example("(p\x0c)")
@example("p & 2")
@example("Pp | q")
@example("_x |- p")
@example("all x. p, q |- R(x, ex y. y) <=> 1")
@example("R(p,) |- q")
@example("p, |- q")
@example("|- |- p")
@example("\n\n  p )")
@example("p & q => r")
@example("p | q => r")
@example("~p => q")
@example("all x. x & p => q")
@example("R(x) & R(x | y)")
@example("R(p, q) | R(p, q, ~r)")
def test_parser_matches_reference(text):
    assert_agrees(text)


# One group text repeated in several places.  The parser reads a group
# whose text occurred earlier in the same call as one token (see
# syntax._folded), so each place must give what the reference gives
# there: an R argument list after R, with or without a space; a plain
# group after a word that ends in R; an argument; an operand of ~.
formula_texts = st.recursive(
    st.sampled_from(["p", "q", "x", "0", "1", "R()", "R(p)", "R (p)", "R(p, q)", "(p)"]),
    lambda inner: st.one_of(
        inner.map("~{}".format),
        st.tuples(inner, st.sampled_from([" & ", " | ", " => ", " <=> ", ", ", " |- "]), inner).map("".join),
        st.tuples(inner, inner).map("R({0[0]}, {0[1]})".format),
        inner.map("({})".format),
        inner.map("all x. {}".format),
    ),
    max_leaves=6,
)

PLACES = ("{}", "R{}", "R {}", "xR{}", "R(p, {})", "R({}, q)", "~{}", "{} # c\n", "ex x. {}")
JOINS = (" & ", " | ", " => ", ", ", " |- ", "\n& ", " ")


@st.composite
def repeated_groups(draw) -> str:
    group = "(" + draw(st.one_of(formula_texts, token_strings)) + ")"
    places = draw(st.lists(st.sampled_from(PLACES), min_size=2, max_size=4))
    text = places[0].format(group)
    for place in places[1:]:
        text += draw(st.sampled_from(JOINS)) + place.format(group)
    return text


@given(repeated_groups())
@settings(max_examples=800)
@example("R (p) & (p)")
@example("(p) & R (p)")
@example("xR(p) & R(p)")
@example("R() & R()")
@example("(p) # (p)\n& (p)")
@example("R(p, q) & (R(p, q))")
@example("(p & q) & ~(p & q) & R((p & q), (p & q))")
@example("(p |- q) & (p |- q)")
@example("R(p) | R(p), R(p) |- R(p)")
def test_repeated_groups_match_reference(text):
    assert_agrees(text)
