"""2x2 matrix splittings [[B, 0], [D, 1]] over a base group B.

A split matrix has a top entry in B and a coordinate row of m elements
of ZB (m = number of generators of B), written in the free module basis
t_1 .. t_m.  Generators map as x_i -> [[b_i, 0], [t_i, 1]], and the
right-module convention fixes the product rule

    [[b1,0],[d1,1]] * [[b2,0],[d2,1]] = [[b1*b2, 0], [d1*b2 + d2, 1]],

i.e. d(uv) = d(u)*v-bar + d(v).  The coordinate row of a word's image is
its vector of Fox derivatives evaluated in ZB; the inverse rule
d(u^-1) = -d(u)*u-bar^-1 is a consequence, not an axiom.

Unrolled over a word, the rule becomes the suffix form
d(y_1 ... y_L) = sum_k d(y_k) * (y_{k+1} ... y_L)-bar: the row is a
flow on the Cayley graph of B, one unit per letter placed at the vertex
its suffix reaches (Myasnikov, Roman'kov, Ushakov and Vershik, The word
and geodesic problems in free solvable groups, Trans. AMS 362, 2010).
`eval_word` computes words that way, with one product in B per letter
and no translation of the row.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

from .errors import AmbientMismatchError
from .group_ring import RingElement
from .groups import Group, require_same_group
from .words import Word


class SplitMatrix:
    """Element of the split matrix group over a base group.

    The coordinate row may have any width; the splitting of a group
    presented on m generators uses width m = base.ngens, but wider or
    narrower free module rows multiply by the same rule.  A width-m row
    over B is an element of the wreath product Z^m wr B: read pointwise
    (`wreath.matrix_to_function`), the row is the base function.
    """

    __slots__ = ("base", "top", "coords", "_key")

    def __init__(self, base: Group, top: Any, coords: Sequence[RingElement]):
        self.base = base
        self.top = top
        self.coords = tuple(coords)
        self._key: str | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(base: Group, width: int | None = None) -> "SplitMatrix":
        if width is None:
            width = base.ngens
        return SplitMatrix(base, base.identity(), [RingElement.zero(base)] * width)

    # -- group operations ----------------------------------------------

    def __mul__(self, other: "SplitMatrix") -> "SplitMatrix":
        require_same_group(self.base, other.base)
        if len(self.coords) != len(other.coords):
            raise AmbientMismatchError(
                "ambient mismatch: coordinate rows have different widths"
            )
        top = self.base.mul(self.top, other.top)
        coords = [
            d.translate(other.top) + e for d, e in zip(self.coords, other.coords)
        ]
        return SplitMatrix(self.base, top, coords)

    def inv(self) -> "SplitMatrix":
        top = self.base.inv(self.top)
        coords = [-(d.translate(top)) for d in self.coords]
        return SplitMatrix(self.base, top, coords)

    def is_trivial(self) -> bool:
        return self.top.is_trivial() and all(
            d.is_zero() for d in self.coords
        )

    # -- equality and serialization -------------------------------------

    def key(self) -> str:
        if self._key is None:
            coord_keys = ";".join(d.canonical_key() for d in self.coords)
            self._key = f"[{self.top.key()}|{coord_keys}]"
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitMatrix):
            return NotImplemented
        return self.base == other.base and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.base.label, self.key()))

    def __str__(self) -> str:
        coords = ", ".join(str(d) for d in self.coords)
        return f"[top={self.top.key()}; d=({coords})]"

    __repr__ = __str__

    def json_text(self) -> str:
        """Canonical JSON text {"top", "coords"}, joined from the cached
        texts of the top and the support elements."""
        coords = ", ".join(d.json_text() for d in self.coords)
        return f'{{"top": {self.top.json_text()}, "coords": [{coords}]}}'


@lru_cache(maxsize=4096)
def _letter_image(base: Group, letter: int) -> Any:
    """Image of a letter x_i^(+-1) in the base group."""
    g = base.generator(abs(letter))
    return g if letter > 0 else base.inv(g)


def eval_word(word: Word, base: Group) -> SplitMatrix:
    """Image of a free word under the splitting homomorphism over `base`.

    The coordinate row is the word's Fox derivative vector, evaluated as
    a flow (see the module docstring).  The word is walked right to left
    keeping the suffix image s in the base group; each letter costs one
    left multiplication by the letter's image and one coefficient update
    at s, with d(x_i) = t_i adding +1 at s before the step and
    d(x_i^-1) = -t_i * x_i^-1 adding -1 at s after it.  Over a free
    abelian base (S(m, n) with n = 2) the cost is linear in the word
    length L; at higher classes each step also pays for the product and
    the canonical key of the suffix in the base group.
    """
    terms: list[list[tuple[Any, int]]] = [[] for _ in range(base.ngens)]
    suffix = base.identity()
    for letter in reversed(word):
        index = abs(letter)
        if not 1 <= index <= base.ngens:
            raise ValueError(
                f"bad generator index {index} (base group has {base.ngens})"
            )
        if letter > 0:
            terms[index - 1].append((suffix, 1))
            suffix = base.mul(_letter_image(base, letter), suffix)
        else:
            suffix = base.mul(_letter_image(base, letter), suffix)
            terms[index - 1].append((suffix, -1))
    return SplitMatrix(
        base, suffix, [RingElement.from_terms(base, row) for row in terms]
    )


def sigma(p: SplitMatrix) -> RingElement:
    """The module map sending the row sum_i t_i * d_i to sum_i (b_i - 1) * d_i.

    The factor (b_i - 1) multiplies on the left: the row lives in a right
    module, so right-linearity of t_i -> b_i - 1 puts the coordinate on
    the right.  (Both orders agree over commutative bases.)  For
    p = eval_word(w) the value is w-bar - 1 in ZB, so sigma detects
    membership of the row in the fundamental ideal's preimage.
    """
    base = p.base
    if len(p.coords) != base.ngens:
        raise ValueError("sigma needs one coordinate per base generator")
    total = RingElement.zero(base)
    for i, d in enumerate(p.coords, start=1):
        step = RingElement.monomial(base, base.generator(i)) - RingElement.one(base)
        total = total + step * d
    return total

