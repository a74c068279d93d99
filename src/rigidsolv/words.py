"""Free-group words, mixed words and the shared input grammar.

A word over m generators is a tuple of nonzero ints: +i stands for the
generator x_i, -i for its inverse (1-based indices).  A mixed word may
also hold variable letters (`VarLetter`); `-letter` inverts either kind,
so `invert`, `power`, `conjugate`, `commutator` and `free_reduce` work on
both.  The text grammar accepts `x3` / `X3` for a generator and its
inverse, `$3` for a variable (mixed words only), juxtaposition for
products, and the sugar

    [u,v]   ->  u^-1 v^-1 u v          (commutator)
    u^v     ->  v^-1 u v               (conjugation)
    u^k     ->  k-fold power, k an integer (possibly negative)
    ( ... ) and { ... }                (grouping)

The parser expands sugar with those same functions, so every parse
yields a flat letter sequence.  Nested sugar grows the expansion
exponentially in the nesting depth, so `power`, `conjugate` and
`commutator` check their result's length against `MAX_WORD_LENGTH`
before they build it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import CapExceededError, WordSyntaxError

Word = tuple[int, ...]


@dataclass(frozen=True)
class VarLetter:
    """A variable occurrence in a mixed word: x_index^sign with sign = +-1."""

    index: int
    sign: int

    def __neg__(self) -> "VarLetter":
        return VarLetter(self.index, -self.sign)


Letter = Union[int, VarLetter]


def free_reduce(word: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until the word is reduced."""
    out: list[Letter] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert(word: Iterable[Letter]) -> tuple[Letter, ...]:
    return tuple(-letter for letter in reversed(tuple(word)))


def conjugate(u: Iterable[Letter], v: Iterable[Letter]) -> tuple[Letter, ...]:
    """v^-1 u v."""
    u, v = tuple(u), tuple(v)
    check_length(len(u) + 2 * len(v))
    return invert(v) + u + v


def commutator(u: Iterable[Letter], v: Iterable[Letter]) -> tuple[Letter, ...]:
    """u^-1 v^-1 u v."""
    u, v = tuple(u), tuple(v)
    check_length(2 * (len(u) + len(v)))
    return invert(u) + invert(v) + u + v


def power(word: Iterable[Letter], k: int) -> tuple[Letter, ...]:
    word = tuple(word)
    check_length(len(word) * abs(k))
    if not word:
        return ()
    if k < 0:
        word = invert(word)
        k = -k
    return word * k


def word_to_str(word: Iterable[int]) -> str:
    parts = []
    for letter in word:
        parts.append(f"x{letter}" if letter > 0 else f"X{-letter}")
    return " ".join(parts)


_TOKEN = re.compile(
    r"(?P<gen>[xX][0-9]+)|(?P<var>\$[0-9]+)|(?P<int>-?[0-9]+)"
    r"|(?P<punct>[\[\](){},^])|(?P<ws>\s+)|(?P<bad>.)"
)

_CLOSER = {"(": ")", "{": "}"}

#: Deepest bracket nesting the parser accepts.  Each level costs three
#: Python frames, so the cap keeps parsing well inside the default
#: recursion limit; deeper input is a syntax error, not a crash.
MAX_NESTING = 100

#: Most letters a parsed word, or a word built by `power`, `conjugate` or
#: `commutator`, may have; longer words raise CapExceededError before
#: they are built.
MAX_WORD_LENGTH = 1_000_000


def check_length(length: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise CapExceededError(
            f"word too long: {length} letters exceeds cap {MAX_WORD_LENGTH}"
        )


class _Parser:
    def __init__(self, text: str, allow_vars: bool, ngens: int | None, line: int):
        self.allow_vars = allow_vars
        self.ngens = ngens
        self.line = line
        self.tokens: list[tuple[str, str, int]] = []
        if not isinstance(text, str):
            # Some argparse versions pass a command-line word "--" (after
            # a first "--") on as an empty list.
            raise WordSyntaxError(f"expected word text, got {text!r}", line, 1)
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            if kind == "ws":
                continue
            if kind == "bad":
                raise WordSyntaxError(
                    f"unexpected character {match.group()!r}", line, match.start() + 1
                )
            self.tokens.append((kind, match.group(), match.start() + 1))
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of input", self.line, self.end_col())
        self.pos += 1
        return tok

    def end_col(self) -> int:
        if self.tokens:
            kind, text, col = self.tokens[-1]
            return col + len(text)
        return 1

    def parse(self) -> tuple[Letter, ...]:
        items = self.sequence(stop=set())
        tok = self.peek()
        if tok is not None:
            raise WordSyntaxError(f"unexpected {tok[1]!r}", self.line, tok[2])
        return items

    def sequence(self, stop: set[str]) -> tuple[Letter, ...]:
        items: list[Letter] = []
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "punct" and tok[1] in stop):
                return tuple(items)
            term = self.term()
            check_length(len(items) + len(term))
            items.extend(term)

    def term(self) -> tuple[Letter, ...]:
        base = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "^":
                return base
            self.next()
            nxt = self.peek()
            if nxt is None:
                raise WordSyntaxError("dangling '^'", self.line, self.end_col())
            if nxt[0] == "int":
                self.next()
                base = power(base, int(nxt[1]))
            else:
                base = conjugate(base, self.atom())

    def atom(self) -> tuple[Letter, ...]:
        kind, text, col = self.next()
        if kind == "gen":
            index = int(text[1:])
            if index < 1:
                raise WordSyntaxError("generator indices start at 1", self.line, col)
            if self.ngens is not None and index > self.ngens:
                raise WordSyntaxError(
                    f"generator index {index} out of range 1..{self.ngens}",
                    self.line,
                    col,
                )
            return (index if text[0] == "x" else -index,)
        if kind == "var":
            if not self.allow_vars:
                raise WordSyntaxError("variables are not allowed here", self.line, col)
            index = int(text[1:])
            if index < 1:
                raise WordSyntaxError("variable indices start at 1", self.line, col)
            return (VarLetter(index, 1),)
        if kind == "punct" and text in "({[":
            if self.depth == MAX_NESTING:
                raise WordSyntaxError(
                    f"brackets nested deeper than {MAX_NESTING} levels", self.line, col
                )
            self.depth += 1
        if kind == "punct" and text in "({":
            inner = self.sequence(stop={_CLOSER[text]})
            closer = self.peek()
            if closer is None:
                raise WordSyntaxError(
                    f"missing {_CLOSER[text]!r}", self.line, self.end_col()
                )
            self.next()
            self.depth -= 1
            return inner
        if kind == "punct" and text == "[":
            u = self.sequence(stop={","})
            tok = self.peek()
            if tok is None:
                raise WordSyntaxError("missing ',' in commutator", self.line, self.end_col())
            self.next()
            v = self.sequence(stop={"]"})
            tok = self.peek()
            if tok is None:
                raise WordSyntaxError("missing ']'", self.line, self.end_col())
            self.next()
            self.depth -= 1
            return commutator(u, v)
        raise WordSyntaxError(f"unexpected {text!r}", self.line, col)


def parse_word(text: str, ngens: int | None = None, line: int = 1) -> Word:
    """Parse a constant word; variables are rejected."""
    items = _Parser(text, allow_vars=False, ngens=ngens, line=line).parse()
    return tuple(items)  # type: ignore[arg-type]


def parse_letters(
    text: str, ngens: int | None = None, line: int = 1
) -> tuple[Letter, ...]:
    """Parse a mixed word: a sequence of generator letters and variables."""
    return _Parser(text, allow_vars=True, ngens=ngens, line=line).parse()
