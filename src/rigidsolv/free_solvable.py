"""Canonical forms and the word problem in free solvable groups S(m, n).

S(m, 0) is trivial, S(m, 1) is the free abelian group Z^m (elements are
exponent vectors), and for n >= 2 an element of S(m, n) is stored as its
split matrix over S(m, n-1): a top element of class n-1 plus m
group-ring coordinates.  The matrix itself is the canonical form - two
words are equal in S(m, n) iff their matrices coincide - and
the derived series G = G_1 > G_2 > ... > G_{n+1} = 1 is the group's
principal series, so membership in G_i reduces to triviality of the
class-(i-1) projection.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any

from .errors import CapExceededError
from .groups import Group, int_list_text
from .magnus import SplitMatrix, eval_word
from .words import Word, commutator, conjugate

DEFAULT_BALL_CAP = 1_000_000

#: Highest class n for which S(m, n) is built; a higher class raises
#: CapExceededError.  Products, keys and serialization recurse once per
#: class (the default recursion limit is first hit near class 200), and
#: a product of general elements translates each support element one
#: class down, so its cost doubles about every class: [x1,x2] in S(2,12)
#: prints 0.5 MB.  At the cap every subcommand still handles short words.
MAX_CLASS = 12

#: Highest rank m for which S(m, n) is built; a higher rank raises
#: CapExceededError.  Every class carries m coordinates, so a radius-1
#: ball has 2m + 1 elements of size O(m): `solve -r 1` of a two-letter
#: equation in S(m, 2), the slowest subcommand on a two-letter input,
#: takes 0.35 / 0.60 / 0.95 / 3.4 s at m = 300 / 400 / 512 / 1000 on a
#: 2-core Xeon.  Cost grows with the class as well (1.4 s in S(400, 3)).
MAX_RANK = 400


class SolvableElement:
    """Canonical form of an element of S(m, n).

    body is None for n = 0, an exponent vector for n = 1, and a
    SplitMatrix over S(m, n-1) for n >= 2.
    """

    __slots__ = ("m", "n", "body", "_key", "_text", "_trivial")

    def __init__(self, m: int, n: int, body: Any):
        self.m = m
        self.n = n
        self.body = body
        self._key: str | None = None
        self._text: str | None = None
        self._trivial: bool | None = None

    @property
    def group(self) -> "FreeSolvableGroup":
        return free_solvable_group(self.m, self.n)

    def key(self) -> str:
        if self._key is None:
            if self.n == 0:
                self._key = "e"
            elif self.n == 1:
                self._key = "(" + ",".join(map(str, self.body)) + ")"
            else:
                self._key = self.body.key()
        return self._key

    def is_trivial(self) -> bool:
        """Cached, since a left product asks it of its right factor's
        top at every class: for the identity of S(m, n) that is
        O(m n) coordinates each time."""
        if self._trivial is None:
            if self.n == 0:
                self._trivial = True
            elif self.n == 1:
                self._trivial = not any(self.body)
            else:
                self._trivial = self.body.is_trivial()
        return self._trivial

    def __mul__(self, other: "SolvableElement") -> "SolvableElement":
        return self.group.mul(self, other)

    def inv(self) -> "SolvableElement":
        return self.group.inv(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolvableElement):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.key()))

    def __str__(self) -> str:
        if self.n <= 1:
            return self.key()
        return str(self.body)

    def __repr__(self) -> str:
        return f"<S({self.m},{self.n}) {self.key()}>"

    def json_text(self) -> str:
        """Canonical JSON text {"m", "n", "body"}, built once per element."""
        if self._text is None:
            if self.n == 0:
                body = "null"
            elif self.n == 1:
                body = int_list_text(self.body)
            else:
                body = self.body.json_text()
            self._text = f'{{"m": {self.m}, "n": {self.n}, "body": {body}}}'
        return self._text

    def to_json(self) -> dict[str, Any]:
        return json.loads(self.json_text())


class FreeSolvableGroup(Group):
    """S(m, n) = free group of rank m modulo the n-th derived subgroup."""

    def __init__(self, m: int, n: int):
        if m < 1:
            raise ValueError("rank m must be positive")
        if n < 0:
            raise ValueError("class n must be non-negative")
        if n > MAX_CLASS:
            raise CapExceededError(f"class {n} exceeds cap {MAX_CLASS}")
        if m > MAX_RANK:
            raise CapExceededError(f"rank {m} exceeds cap {MAX_RANK}")
        self.m = m
        self.n = n
        self.ngens = m
        # S(m, 1) is Z^m, the bottom W(m, 0) of the iterated wreath products.
        self.label = f"Z^{m}" if n == 1 else f"S({m},{n})"

    @property
    def base(self) -> "FreeSolvableGroup":
        """S(m, n-1), over which S(m, n) splits."""
        if self.n < 1:
            raise ValueError("class 0 has no base group")
        return free_solvable_group(self.m, self.n - 1)

    def identity(self) -> SolvableElement:
        if self.n == 0:
            body: Any = None
        elif self.n == 1:
            body = (0,) * self.m
        else:
            body = SplitMatrix.identity(self.base)
        return SolvableElement(self.m, self.n, body)

    def mul(self, a: SolvableElement, b: SolvableElement) -> SolvableElement:
        self._check(a)
        self._check(b)
        if self.n == 0:
            return a
        if self.n == 1:
            return SolvableElement(
                self.m, 1, tuple(x + y for x, y in zip(a.body, b.body))
            )
        return SolvableElement(self.m, self.n, a.body * b.body)

    def inv(self, a: SolvableElement) -> SolvableElement:
        self._check(a)
        if self.n == 0:
            return a
        if self.n == 1:
            return SolvableElement(self.m, 1, tuple(-x for x in a.body))
        return SolvableElement(self.m, self.n, a.body.inv())

    def generator(self, i: int) -> SolvableElement:
        if not 1 <= i <= self.m:
            raise ValueError(f"bad generator index {i} (rank {self.m})")
        return normalize(self.m, self.n, (i,))

    def _check(self, a: SolvableElement) -> None:
        if not isinstance(a, SolvableElement) or (a.m, a.n) != (self.m, self.n):
            raise ValueError(f"element does not belong to {self.label}")


@lru_cache(maxsize=None)
def free_solvable_group(m: int, n: int) -> FreeSolvableGroup:
    return FreeSolvableGroup(m, n)


def normalize(m: int, n: int, word: Word) -> SolvableElement:
    """Canonical form of the image of a free word in S(m, n).

    Two words map to equal elements iff they are equal in S(m, n); this
    is the word problem.  For n >= 2 the word is evaluated through the
    splitting homomorphism over S(m, n-1), recursively.
    """
    group = free_solvable_group(m, n)
    for letter in word:
        if letter == 0 or abs(letter) > m:
            raise ValueError(f"bad generator index {letter} (rank {m})")
    if n == 0:
        return SolvableElement(m, 0, None)
    if n == 1:
        vec = [0] * m
        for letter in word:
            vec[abs(letter) - 1] += 1 if letter > 0 else -1
        return SolvableElement(m, 1, tuple(vec))
    return SolvableElement(m, n, eval_word(word, group.base))


def project(e: SolvableElement, k: int) -> SolvableElement:
    """Image of e under the canonical epimorphism S(m, n) -> S(m, k).

    Computed structurally by taking tops (n - k) times; never
    re-normalizes a word.
    """
    if not 0 <= k <= e.n:
        raise ValueError(f"projection class {k} out of range 0..{e.n}")
    while e.n > k:
        if e.n >= 2:
            e = e.body.top
        else:
            e = SolvableElement(e.m, 0, None)
    return e


def series_member_projection(e: SolvableElement, i: int) -> bool:
    """Membership in the i-th derived-series term via projection.

    e lies in G_i = G^(i-1) iff its image in S(m, i-1) is trivial.
    """
    if not 1 <= i <= e.n + 1:
        raise ValueError(f"series index {i} out of range 1..{e.n + 1}")
    return project(e, i - 1).is_trivial()


def series_member_commutator(
    e: SolvableElement,
    i: int,
    witnesses: list[SolvableElement] | None = None,
) -> bool:
    """Membership in G_i via the iterated-commutator criterion.

    Requires witnesses g_i, ..., g_n with g_j in G_j minus G_{j+1}
    (validated here); then e is in G_i iff [e, g_i, ..., g_n] = 1.
    Defaults to the standard witness chain.
    """
    n = e.n
    if not 1 <= i <= n + 1:
        raise ValueError(f"series index {i} out of range 1..{n + 1}")
    if witnesses is None:
        witnesses = standard_witnesses(e.m, n)[i - 1 :]
    if len(witnesses) != n + 1 - i:
        raise ValueError(
            f"invalid witness: need {n + 1 - i} witnesses for levels {i}..{n}"
        )
    for j, g in zip(range(i, n + 1), witnesses):
        if not series_member_projection(g, j) or series_member_projection(g, j + 1):
            raise ValueError(f"invalid witness: level-{j} witness not in G_{j}\\G_{j+1}")
    group = e.group
    x = e
    for g in witnesses:
        x = group.commutator(x, g)
    return x.is_trivial()


def witness_words(n: int) -> list[Word]:
    """Words for the standard witness chain: w_1 = x1, w_{j+1} = [w_j, w_j^x2].

    w_{j+1} has 4 |w_j| + 4 letters (1, 8, 36, ..., 611,668 at j = 10);
    `words.commutator` checks that against `words.MAX_WORD_LENGTH` before
    it builds the word, so a chain past the cap (n >= 11) raises
    CapExceededError at once.
    """
    out: list[Word] = [(1,)]
    for _ in range(1, n):
        w = out[-1]
        out.append(commutator(w, conjugate(w, (2,))))
    return out


@lru_cache(maxsize=None)
def standard_witnesses(m: int, n: int) -> list[SolvableElement]:
    """Elements g_1, ..., g_n with g_j in G_j minus G_{j+1} in S(m, n).

    Each witness is validated through the word problem; a degenerate
    witness aborts rather than being accepted silently.  Requires m >= 2
    for n >= 2 (one-generator solvable groups are abelian).
    """
    if n >= 2 and m < 2:
        raise ValueError(f"invalid witness: S({m},{n}) has no class-2 witnesses")
    witnesses = []
    for j, word in enumerate(witness_words(n), start=1):
        g = normalize(m, n, word)
        if not series_member_projection(g, j) or series_member_projection(g, j + 1):
            raise ValueError(f"invalid witness: construction degenerate at level {j}")
        witnesses.append(g)
    return witnesses


def ball_enumerate(
    m: int, n: int, radius: int, cap: int = DEFAULT_BALL_CAP
) -> list[tuple[SolvableElement, Word]]:
    """All distinct canonical forms of words of length <= radius, each
    with its first shortest word, sorted by canonical key.

    Breadth-first over freely reduced words, deduplicating on canonical
    keys.  Each frontier element is extended on the left, by the letters
    x1, X1, x2, X2, ... in turn: a new element is the letter times its
    parent, and its word is the letter followed by the parent's recorded
    word.  So the word is freely reduced, of minimal length, normalizes
    to the element, and drops its first letter to the recorded word of
    another ball element.  A left product adds one monomial per class to
    the parent's split matrix (d(y w) = d(y) w-bar + d(w)), where a right
    product would translate its whole support.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    group = free_solvable_group(m, n)
    if _reduced_word_count(m, radius, cap) > cap:
        raise CapExceededError(
            f"ball too large: more than {cap} reduced words of length <= {radius}"
        )
    identity = group.identity()
    seen: dict[str, tuple[SolvableElement, Word]] = {identity.key(): (identity, ())}
    gens = {}
    for i in range(1, m + 1):
        gens[i] = group.generator(i)
        gens[-i] = group.inv(gens[i])
    frontier = [(identity, ())]
    for _ in range(radius):
        next_frontier = []
        for element, word in frontier:
            for letter in gens:
                if word and letter == -word[0]:
                    continue
                extended = group.mul(gens[letter], element)
                key = extended.key()
                if key not in seen:
                    seen[key] = (extended, (letter,) + word)
                    next_frontier.append(seen[key])
        frontier = next_frontier
    return [seen[key] for key in sorted(seen)]


def _reduced_word_count(m: int, radius: int, stop: int) -> int:
    """Number of freely reduced words of length <= radius over m generators,
    or a partial count above `stop` once the count passes it.

    For m >= 2 the layers grow at least threefold, so the loop takes
    O(log stop) steps whatever the radius; for m <= 1 the count is
    1 + 2 * m * radius.
    """
    if m <= 1:
        return 1 + 2 * m * radius
    total = 1
    layer = 1
    for step in range(radius):
        layer = layer * (2 * m if step == 0 else 2 * m - 1)
        total += layer
        if total > stop:
            break
    return total
