"""Concrete syntax: regex tokenizer, precedence-climbing parser, canonical printer.

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
Any other character, non-ASCII ones included, is a ParseError.  The
parser keeps its own operand and operator stacks, so it accepts nesting
of any depth.  An R application whose arguments are all atoms and
constants is read from its one slice of tokens, and each distinct slice
is built once per parse.  parse_sequent_cached parses a sequent formula
by formula through a dict that the caller keeps.

The canonical printer makes one pass over the formula, on its own
stack, and each node writes its text with fixed separators: "p & q",
"p | q", "~p", "R(p, q)", "all x. p".  One rule, _wrapped, decides
parentheses: a binary connective looser than its place, or a quantified
subformula under `~`, `&` or `|` (anywhere but at the top of a formula,
an R argument or a cedent).  Formulas are DAGs, and the printer writes
each distinct compound node once per call: later occurrences copy its
first text.  length() counts the tokens of that canonical rendering
(atoms, constants, connectives, quantifier keywords, bound variables,
R, parentheses, commas and dots all count 1) from the same rule,
without printing.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from itertools import compress, count, islice, repeat
from typing import Iterable, Optional, Union

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
    TRUE,
    _fill,
    iff,
    implies,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# Every character of the text belongs to exactly one match, so findall
# tiles the text: whitespace runs and comments give "" (no group), and
# every other match is one token, taking along the single space that
# usually precedes it.  Anything the grammar has no token for (a digit
# other than 0 and 1, any non-ASCII character) is a one-character token
# of its own, rejected when the parse fails.
_TOKEN = re.compile(r" ?(?:[ \t\r\n]+|#[^\n]*|([A-Za-z_][A-Za-z0-9_]*|<=>|=>|\|-|.))", re.DOTALL)

# Token kinds.  A binary connective's kind is its binding strength and
# `~` binds tighter than all of them.  The parser's operator stack holds
# these numbers, and quantifiers and group openers are pushed as their
# kinds of 0 and below, so "reduce while the top binds at least as
# tightly" is one comparison that stops at every quantifier and group.
IFF, IMP, OR, AND, NOT = 1, 2, 3, 4, 5
ALL, EX, LPAREN, RSYM, BOTTOM = 0, -1, -2, -3, -4
WORD, CONST, RPAREN, COMMA, DOT, TURNSTILE, EOF = 6, 7, 8, 9, 10, 11, 12

_KINDS = {
    "<=>": IFF,
    "=>": IMP,
    "|": OR,
    "&": AND,
    "~": NOT,
    "all": ALL,
    "ex": EX,
    "(": LPAREN,
    "R": RSYM,
    "0": CONST,
    "1": CONST,
    ")": RPAREN,
    ",": COMMA,
    ".": DOT,
    "|-": TURNSTILE,
}

_CONSTS = {"0": FALSE, "1": TRUE}


def tokenize(text: str) -> tuple[list[int], list[str]]:
    """The tokens of text as parallel lists of kinds and texts, ending
    with an EOF token whose text is "".  Words that are not keywords
    have kind WORD, which includes invalid identifiers and unexpected
    characters: the parser rejects those (see _bad_token)."""
    texts = list(filter(None, _TOKEN.findall(text)))
    kinds = list(map(_KINDS.get, texts, repeat(WORD)))
    texts.append("")
    kinds.append(EOF)
    return kinds, texts


def _bad_token(texts: list[str]) -> Optional[tuple[int, str]]:
    """The index and message of the first token that is not in the
    grammar's alphabet, if any."""
    for i, t in enumerate(texts[:-1]):
        if t in _KINDS or "a" <= t[0] <= "z":
            continue
        if t[0] == "_" or "A" <= t[0] <= "Z":
            return i, f"invalid identifier {t!r} (atom names start lowercase; R is reserved)"
        return i, f"unexpected character {t!r}"
    return None


def _position(text: str, texts: list[str], index: int) -> tuple[int, int]:
    """Line and column of token `index`, found by scanning the text again."""
    if index == len(texts) - 1:
        # end of input: columns do not advance through a trailing comment
        start = text.rfind("\n") + 1
        comment = text.find("#", start)
        offset = comment if comment >= 0 else len(text)
    else:
        tokens = (m for m in _TOKEN.finditer(text) if m.lastindex)
        offset = next(islice(tokens, index, None)).start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Fail(Exception):
    def __init__(self, index: int, message: str):
        self.index = index
        self.message = message


def _expected(what: str, texts: list[str], index: int) -> _Fail:
    return _Fail(index, f"expected {what}, found {texts[index] or 'end of input'!r}")


# The tokens that end the run after "R(": all but atoms, constants and commas.
_STOPS = {kind: kind not in (WORD, CONST, COMMA) for kind in range(BOTTOM, EOF + 1)}


def _alternates(kinds: list[int], start: int, stop: int) -> bool:
    """Whether kinds[start:stop], each an argument or a comma, are
    arguments separated by single commas, or none at all."""
    run = kinds[start:stop]
    n = len(run)
    return n == 0 or n % 2 == 1 and COMMA not in run[::2] and run.count(COMMA) == n // 2


def _reduce(op: int, vals: list) -> None:
    """Apply the operator popped from the stack to the operands on top of
    vals.  A quantifier's operands are its variable's name and its body."""
    right = vals.pop()
    if op == AND:
        vals[-1] = And(vals[-1], right)
    elif op == OR:
        vals[-1] = Or(vals[-1], right)
    elif op == NOT:
        vals.append(Not(right))
    elif op == IMP:
        vals[-1] = implies(vals[-1], right)
    elif op == IFF:
        vals[-1] = iff(vals[-1], right)
    elif op == ALL:
        vals[-1] = Forall(vals[-1], right)
    else:
        vals[-1] = Exists(vals[-1], right)


def _climb(kinds: list[int], texts: list[str], sequent: bool) -> Union[Formula, Sequent]:
    """Precedence climbing over explicit stacks: ops holds pending
    connectives, quantifiers and open groups, vals the operands.  A
    quantifier's body extends to the end of its group, so only a token
    that closes a group reduces it."""
    ops = [BOTTOM]
    vals: list = []
    starts: list[int] = []  # vals heights where open R( argument lists begin
    atoms: dict[str, Formula] = {}
    flat: dict[tuple[str, ...], Formula] = {}  # R( argument tokens ) -> RApp
    stops: Optional[array] = None  # indices of tokens that end a flat R( ... ), ascending
    ante: Optional[tuple[Formula, ...]] = None
    cedent_start = 0 if sequent else -1  # token index where an empty cedent may end
    i = 0
    while True:
        # an operand is due: take prefixes until one is complete
        while True:
            k = kinds[i]
            if k == WORD:
                t = texts[i]
                node = atoms.get(t)
                if node is None:
                    node = atoms[t] = Atom(t)
                vals.append(node)
                i += 1
                break
            if k == CONST:
                vals.append(_CONSTS[texts[i]])
                i += 1
                break
            if k == NOT or k == LPAREN:
                ops.append(k)
                i += 1
            elif k == RSYM:
                if kinds[i + 1] != LPAREN:
                    raise _Fail(i, "reserved name R used as an atom")
                # R( with only atoms, constants and commas up to its ")":
                # read from that one slice, once per distinct slice
                if stops is None:
                    stops = array("q", compress(count(), map(_STOPS.__getitem__, kinds)))
                j = stops[bisect_right(stops, i + 1)]
                if kinds[j] == RPAREN:
                    key = tuple(texts[i + 2 : j])
                    node = flat.get(key)
                    if node is None and _alternates(kinds, i + 2, j):
                        node = flat[key] = RApp([_CONSTS[t] if t in _CONSTS else Atom(t) for t in key[::2]])
                    if node is not None:
                        vals.append(node)
                        i = j + 1
                        break
                ops.append(RSYM)
                starts.append(len(vals))
                i += 2
            elif k == ALL or k == EX:
                if kinds[i + 1] != WORD:
                    raise _expected("a bound variable name", texts, i + 1)
                if kinds[i + 2] != DOT:
                    raise _expected("'.'", texts, i + 2)
                ops.append(k)
                vals.append(texts[i + 1])
                i += 3
            elif (k == TURNSTILE or k == EOF) and i == cedent_start:
                break  # an empty cedent
            else:
                raise _expected("a formula", texts, i)
        # an operand is complete: close groups until a connective or comma
        while True:
            k = kinds[i]
            if NOT > k > ALL:
                if k == IMP:  # right associative
                    while ops[-1] > k:
                        _reduce(ops.pop(), vals)
                else:
                    while ops[-1] >= k:
                        _reduce(ops.pop(), vals)
                ops.append(k)
                i += 1
                break
            while ops[-1] >= EX:
                _reduce(ops.pop(), vals)
            top = ops[-1]
            if k == COMMA:
                if top == RSYM or top == BOTTOM and sequent:
                    i += 1
                    break
                raise _expected("')'" if top != BOTTOM else "end of input", texts, i)
            if k == RPAREN and top == LPAREN:
                ops.pop()
            elif k == RPAREN and top == RSYM:
                ops.pop()
                start = starts.pop()
                args = tuple(vals[start:])
                del vals[start:]
                vals.append(RApp(args))
            elif top != BOTTOM:
                raise _expected("')'", texts, i)
            elif k == TURNSTILE and ante is None and sequent:
                ante = tuple(vals)
                vals.clear()
                i += 1
                cedent_start = i
                break
            elif k == EOF and (ante is not None or not sequent):
                return Sequent(ante, tuple(vals)) if sequent else vals[0]
            else:
                raise _expected("'|-'" if ante is None and sequent else "end of input", texts, i)
            i += 1


def _parse(text: str, kinds: list[int], texts: list[str], sequent: bool):
    try:
        return _climb(kinds, texts, sequent)
    except (_Fail, ValueError) as exc:
        # a token outside the alphabet is reported first, wherever it is,
        # and it is what makes a node constructor raise ValueError
        found = _bad_token(texts)
        if found is not None:
            index, message = found
        elif isinstance(exc, _Fail):
            index, message = exc.index, exc.message
        else:
            raise
    raise ParseError(message, *_position(text, texts, index))


def parse_formula(text: str) -> Formula:
    return _parse(text, *tokenize(text), False)


def parse_sequent(text: str) -> Sequent:
    return _parse(text, *tokenize(text), True)


def parse_sequent_cached(text: str, formulas: dict[str, Formula]) -> Sequent:
    """parse_sequent(text), with each formula of the sequent looked up in,
    or parsed into, `formulas` (formula text -> node), which the caller
    keeps for as long as it likes.  The text is cut at its turnstile and
    at the commas outside parentheses: "(", ")", "," and "|-" are always
    tokens of their own, outside a comment.  A text with a comment, or
    with a piece that is no formula, is parsed whole, so that its error
    is parse_sequent's."""
    if isinstance(text, str) and "#" not in text and text.count("|-") == 1:
        ante, succ = text.split("|-")
        try:
            return Sequent(_cedent(ante, formulas), _cedent(succ, formulas))
        except ValueError:
            pass
    return parse_sequent(text)


def _cedent(text: str, formulas: dict[str, Formula]) -> tuple[Formula, ...]:
    """The formulas of a cedent's text, which holds no turnstile and no
    comment; ValueError if a piece is not a formula."""
    if not text.strip(" \t\r\n"):  # only the tokenizer's whitespace
        return ()
    out = []
    piece = ""
    for part in text.split(","):
        piece = piece + "," + part if piece else part
        f = formulas.get(piece)  # a known formula text is balanced
        if f is None:
            if piece.count("(") != piece.count(")"):
                continue  # the comma is inside parentheses, or the text is unbalanced
            f = formulas[piece] = parse_formula(piece)
        out.append(f)
        piece = ""
    if piece:
        raise ValueError("unbalanced parentheses")
    return tuple(out)


def parse_entry(text: str) -> Union[Formula, Sequent]:
    """Parse a formula or, if a turnstile is present, a sequent."""
    kinds, texts = tokenize(text)
    return _parse(text, kinds, texts, TURNSTILE in kinds)


def iter_entries(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines of a batch file with line numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


def _wrapped(g: Formula, level: int) -> bool:
    """Whether g printed where `level` binds takes parentheses: a
    connective looser than the level, or a quantifier under anything.
    Levels are the parser's binding strengths, and 0 is a place where
    nothing can follow (the top, an R argument, a cedent)."""
    kind = type(g)
    if kind is And:
        return level > AND
    if kind is Or:
        return level > OR
    return level > 0 and (kind is Forall or kind is Exists)


def _emit(f: Formula, out: list[str]) -> None:
    """Append the text of f to out.  Each node writes its own separators;
    the stack holds pending (formula, level) pairs and literal text.  It
    is explicit because deep conjunction chains and quantifier prefixes
    exceed the interpreter's recursion limit.

    A node's own text, without the parentheses its place may add, does
    not depend on where it stands.  So the first time a compound node is
    written, a marker (node, -1 - start) below its children records the
    slice of out that holds its text, and each later occurrence copies
    that slice: a shared node is walked once per call."""
    spans: dict[Formula, tuple[int, int]] = {}
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, level = item
        if level < 0:  # the end of g's first text
            spans[g] = (-1 - level, len(out))
            continue
        if _wrapped(g, level):
            out.append("(")
            stack.append(")")
        kind = type(g)
        if kind is Atom:
            out.append(g.name)
            continue
        if kind is Const:
            out.append("1" if g.bit else "0")
            continue
        span = spans.get(g)
        if span is not None:
            out += out[span[0] : span[1]]
            continue
        stack.append((g, -1 - len(out)))
        if kind is Not:
            out.append("~")
            stack.append((g.child, NOT))
        elif kind is And:
            stack += ((g.right, NOT), " & ", (g.left, AND))
        elif kind is Or:
            stack += ((g.right, AND), " | ", (g.left, OR))
        elif kind is RApp:
            out.append("R(")
            stack.append(")")
            args = g.args
            for i in range(len(args) - 1, 0, -1):
                stack += ((args[i], 0), ", ")
            if args:
                stack.append((args[0], 0))
        else:
            out += ("all " if kind is Forall else "ex ", g.var, ". ")
            stack.append((g.body, 0))


def format_formula(f: Formula) -> str:
    out: list[str] = []
    _emit(f, out)
    return "".join(out)


def format_sequent(s: Sequent) -> str:
    return join_sequent(map(format_formula, s.antecedent), map(format_formula, s.succedent))


def join_sequent(ante: Iterable[str], succ: Iterable[str]) -> str:
    """A sequent's text from the texts of its cedents' formulas."""
    return f"{', '.join(ante)} |- {', '.join(succ)}".strip()  # an empty cedent leaves no space


def format_entry(e: Union[Formula, Sequent]) -> str:
    return format_sequent(e) if isinstance(e, Sequent) else format_formula(e)


def _length_at(g: Formula, level: int) -> int:
    """Tokens of g printed where `level` binds: parentheses add two."""
    return g._length + 2 if _wrapped(g, level) else g._length


def _token_count(g: Formula) -> int:
    """Tokens of g printed at level 0, from its children's counts."""
    kind = type(g)
    if kind is Atom or kind is Const:
        return 1
    if kind is Not:
        return 1 + _length_at(g.child, NOT)
    if kind is And:
        return _length_at(g.left, AND) + 1 + _length_at(g.right, NOT)
    if kind is Or:
        return _length_at(g.left, OR) + 1 + _length_at(g.right, AND)
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
