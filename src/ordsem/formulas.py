"""Propositional formulas: AST, parser and printer.

Grammar (ASCII, loosest to tightest):

    formula  := or_expr ("->" formula)?          right-associative
    or_expr  := and_expr ("|" and_expr)*
    and_expr := neg_expr ("&" neg_expr)*
    neg_expr := "~" neg_expr | atom
    atom     := ident | "bot" | "(" formula ")"
    ident    := [a-z][a-zA-Z0-9_]*

``~f`` is sugar for ``f -> bot``; the printer reintroduces it, so
parse(print(ast)) is the identity on ASTs.

`parse` rejects input nested deeper than MAX_DEPTH: more than that many
open parentheses, negations and implication right-hand sides around any
token, or a syntax tree taller than that.  The parser and every walk over
a formula recurse once per level, and the parser spends six interpreter
frames per parenthesis, so the limit keeps well inside Python's default
recursion limit of 1000; the corpora nest five levels deep.

Formulas are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): a constructor returns the live node with the same
class and fields if there is one, so equal formulas are one object,
equality is identity and a hash costs O(1).  The intern table holds its
nodes weakly, so a formula nothing else references leaves it.

`parse` keeps a second weak table, from each text it parsed to the node
it parsed to.  While that node lives, parsing the text again would
rebuild its whole path through the intern table only to find it, so the
memo returns it at once; once the node is gone, the text leaves the memo
with it, and the next parse of the text builds the node anew.  Texts
that fail to parse are never stored.
"""

from __future__ import annotations

from typing import Callable
from weakref import WeakValueDictionary

from .errors import InputError

MAX_DEPTH = 100

# (class, *fields) -> the one live node with them
_interned: WeakValueDictionary = WeakValueDictionary()
# text -> the live node `parse` built from it
_parsed: WeakValueDictionary = WeakValueDictionary()


class Formula:
    """Base class for AST nodes: immutable, one live instance per formula.

    ``program`` starts as None; `semantics` stores the formula's compiled
    program there on its first evaluation, so the program lives exactly
    as long as the formula.
    """

    __slots__ = ("program", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *values: object) -> Formula:
        key = (cls, *values)
        node = _interned.get(key)
        if node is None:
            if len(values) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}, got {len(values)}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "program", None)
            _interned[key] = node
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable formula")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable formula")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Var(Formula):
    __slots__ = _fields = ("name",)
    name: str


class Bot(Formula):
    __slots__ = ()


class And(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Or(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Imp(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


BOT = Bot()


def neg(f: Formula) -> Formula:
    return Imp(f, BOT)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, Bot):
        return frozenset()
    return free_vars(f.left) | free_vars(f.right)


class ParseError(InputError):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


_PUNCT = {"~": "~", "&": "&", "|": "|", "(": "(", ")": ")"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                tokens.append(("->", "->", i))
                i += 2
                continue
            raise ParseError("stray '-'", i, ("->",))
        if "a" <= ch <= "z":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("bot" if word == "bot" else "ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ("ident", "bot", "~", "("))
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[0]}", tok[2], (kind,))
        self.pos += 1
        return tok

    def nested(self, parse_inner: Callable[[], Formula]) -> Formula:
        """One recursive step of the parser, at most MAX_DEPTH deep."""
        if self.depth == MAX_DEPTH:
            offset = self.peek()[2]
            raise ParseError(f"nested deeper than {MAX_DEPTH}", offset, ("shallower input",))
        self.depth += 1
        out = parse_inner()
        self.depth -= 1
        return out

    def formula(self) -> Formula:
        left = self.or_expr()
        if self.peek()[0] == "->":
            self.take("->")
            return Imp(left, self.nested(self.formula))
        return left

    def or_expr(self) -> Formula:
        out = self.and_expr()
        while self.peek()[0] == "|":
            self.take("|")
            out = Or(out, self.and_expr())
        return out

    def and_expr(self) -> Formula:
        out = self.neg_expr()
        while self.peek()[0] == "&":
            self.take("&")
            out = And(out, self.neg_expr())
        return out

    def neg_expr(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "~":
            self.take("~")
            return neg(self.nested(self.neg_expr))
        return self.atom()

    def atom(self) -> Formula:
        kind, text, offset = self.peek()
        if kind == "ident":
            self.take("ident")
            return Var(text)
        if kind == "bot":
            self.take("bot")
            return BOT
        if kind == "(":
            self.take("(")
            inner = self.nested(self.formula)
            self.take(")")
            return inner
        raise ParseError(f"unexpected {kind}", offset, ("ident", "bot", "~", "("))


def parse(text: str) -> Formula:
    """The formula the text spells, or ``ParseError``.

    The node is memoised by the exact text, weakly: hash-consing makes it
    the node the parser would build while it lives, and holding it weakly
    lets a formula nothing else references leave both tables.
    """
    node = _parsed.get(text)
    if node is None:
        node = _parsed[text] = _parse(text)
    return node


def _parse(text: str) -> Formula:
    parser = _Parser(text)
    out = parser.formula()
    kind, _, offset = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing {kind}", offset, ("eof",))
    # a tree has fewer connectives than the input has tokens
    if len(parser.tokens) > MAX_DEPTH and _height(out) > MAX_DEPTH:
        raise ParseError(f"syntax tree taller than {MAX_DEPTH}", 0, ("shallower input",))
    return out


def _height(f: Formula) -> int:
    """Longest root-to-leaf path in connectives; iterative, so any height is safe."""
    tallest, stack = 0, [(f, 0)]
    while stack:
        g, depth = stack.pop()
        tallest = max(tallest, depth)
        if isinstance(g, (And, Or, Imp)):
            stack += [(g.left, depth + 1), (g.right, depth + 1)]
    return tallest


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4


def _render(f: Formula, minimum: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Imp) and f.right == BOT:
        return "~" + _render(f.left, _PREC_ATOM)
    if isinstance(f, Imp):
        text = f"{_render(f.left, _PREC_OR)} -> {_render(f.right, _PREC_IMP)}"
        level = _PREC_IMP
    elif isinstance(f, Or):
        text = f"{_render(f.left, _PREC_OR)} | {_render(f.right, _PREC_AND)}"
        level = _PREC_OR
    else:
        text = f"{_render(f.left, _PREC_AND)} & {_render(f.right, _PREC_ATOM)}"
        level = _PREC_AND
    return f"({text})" if level < minimum else text


def pretty(f: Formula) -> str:
    """Minimal-parenthesis rendering; inverse of parse on ASTs."""
    return _render(f, _PREC_IMP)
