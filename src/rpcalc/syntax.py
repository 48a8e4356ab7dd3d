"""Concrete syntax: tokenizer, recursive-descent parser, canonical printer.

Grammar (ASCII only):

    formula := iff
    iff     := imp ("<=>" imp)*          # A <=> B sugar for (A => B) & (B => A)
    imp     := or ("=>" imp)?            # A => B  sugar for ~A | B, right assoc
    or      := and ("|" and)*            # left associative
    and     := unary ("&" unary)*        # left associative
    unary   := "~" unary | "all" ID "." formula | "ex" ID "." formula | atom
    atom    := "0" | "1" | ID | "R" "(" [formula ("," formula)*] ")"
             | "(" formula ")"
    sequent := [formula ("," formula)*] "|-" [formula ("," formula)*]

Quantifier bodies extend as far right as possible within the enclosing
group.  Atom names match [a-z][a-zA-Z0-9_]*; `R`, `all`, `ex` are
reserved.  "#" starts a comment; batch files hold one entry per line.

The canonical printer emits minimal parentheses for the binary
connectives and always parenthesizes quantified subformulas that occur
under a connective.  length() counts the tokens of that canonical
rendering (atoms, constants, connectives, quantifier keywords, bound
variables, R, parentheses, commas and dots all count 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    _fill,
    iff,
    implies,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


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


def tokenize(text: str) -> list[Token]:
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


class _Parser:
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


def parse_formula(text: str) -> Formula:
    p = _Parser(tokenize(text))
    out = p.formula()
    p.expect("EOF", "end of input")
    return out


def parse_sequent(text: str) -> Sequent:
    p = _Parser(tokenize(text))
    out = p.sequent()
    p.expect("EOF", "end of input")
    return out


def parse_entry(text: str) -> Union[Formula, Sequent]:
    """Parse a formula or, if a turnstile is present, a sequent."""
    tokens = tokenize(text)
    if any(t.kind == "TURNSTILE" for t in tokens):
        p = _Parser(tokens)
        out: Union[Formula, Sequent] = p.sequent()
    else:
        p = _Parser(tokens)
        out = p.formula()
    p.expect("EOF", "end of input")
    return out


def iter_entries(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines of a batch file with line numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


_LVL_OR, _LVL_AND, _LVL_UNARY = 1, 2, 3


def _emit(f: Formula, ctx: int, out: list[str]) -> None:
    # Explicit stack: deep conjunction chains and quantifier prefixes
    # exceed the interpreter's recursion limit.
    stack: list = [(f, ctx)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, level = item
        if isinstance(g, Atom):
            out.append(g.name)
        elif isinstance(g, Const):
            out.append(str(g.bit))
        elif isinstance(g, RApp):
            out.append("R")
            out.append("(")
            tail: list = []
            for i, a in enumerate(g.args):
                if i:
                    tail.append(",")
                tail.append((a, 0))
            tail.append(")")
            stack.extend(reversed(tail))
        elif isinstance(g, Not):
            out.append("~")
            stack.append((g.child, _LVL_UNARY))
        elif isinstance(g, (And, Or)):
            lvl = _LVL_AND if isinstance(g, And) else _LVL_OR
            op = "&" if isinstance(g, And) else "|"
            wrap = level > lvl
            if wrap:
                out.append("(")
            tail = [(g.left, lvl), op, (g.right, lvl + 1)]
            if wrap:
                tail.append(")")
            stack.extend(reversed(tail))
        else:  # Forall / Exists: parenthesize whenever anything could follow
            wrap = level > 0
            if wrap:
                out.append("(")
            out.append("all" if isinstance(g, Forall) else "ex")
            out.append(g.var)
            out.append(".")
            tail = [(g.body, 0)]
            if wrap:
                tail.append(")")
            stack.extend(reversed(tail))


def formula_tokens(f: Formula) -> list[str]:
    out: list[str] = []
    _emit(f, 0, out)
    return out


def sequent_tokens(s: Sequent) -> list[str]:
    out: list[str] = []
    for i, f in enumerate(s.antecedent):
        if i:
            out.append(",")
        _emit(f, 0, out)
    out.append("|-")
    for i, f in enumerate(s.succedent):
        if i:
            out.append(",")
        _emit(f, 0, out)
    return out


def _join(tokens: list[str]) -> str:
    parts: list[str] = []
    for i, tok in enumerate(tokens):
        if i:
            prev = tokens[i - 1]
            glue_left = tok in (")", ",", ".")
            glue_right = prev in ("~", "(") or (prev == "R" and tok == "(")
            if not glue_left and not glue_right:
                parts.append(" ")
        parts.append(tok)
    return "".join(parts)


def format_formula(f: Formula) -> str:
    return _join(formula_tokens(f))


def format_sequent(s: Sequent) -> str:
    return _join(sequent_tokens(s))


def format_entry(e: Union[Formula, Sequent]) -> str:
    return format_sequent(e) if isinstance(e, Sequent) else format_formula(e)


def _length_at(g: Formula, level: int) -> int:
    """Tokens of g printed where `level` binds: _emit's parentheses
    around a connective looser than the level, or a quantifier under
    anything, add two."""
    kind = type(g)
    if kind is And:
        wrap = level > _LVL_AND
    elif kind is Or:
        wrap = level > _LVL_OR
    else:
        wrap = level > 0 and (kind is Forall or kind is Exists)
    return g._length + 2 if wrap else g._length


def _token_count(g: Formula) -> int:
    """Tokens of g printed at level 0, from its children's counts."""
    kind = type(g)
    if kind is Atom or kind is Const:
        return 1
    if kind is Not:
        return 1 + _length_at(g.child, _LVL_UNARY)
    if kind is And:
        return _length_at(g.left, _LVL_AND) + 1 + _length_at(g.right, _LVL_UNARY)
    if kind is Or:
        return _length_at(g.left, _LVL_OR) + 1 + _length_at(g.right, _LVL_AND)
    if kind is RApp:  # R ( args separated by commas )
        return 3 + sum([a._length for a in g.args]) + max(len(g.args) - 1, 0)
    return 3 + g.body._length  # all x . body


def length(f: Formula) -> int:
    """Total symbol occurrences in the canonical rendering of f; counted
    once per node and kept on it."""
    return _fill(f, "_length", _token_count)


def sequent_length(s: Sequent) -> int:
    """Symbol occurrences of the rendered sequent, punctuation included."""
    ante, succ = s.antecedent, s.succedent
    total = 1 + max(len(ante) - 1, 0) + max(len(succ) - 1, 0)
    for f in ante:
        total += f._length or length(f)
    for f in succ:
        total += f._length or length(f)
    return total
