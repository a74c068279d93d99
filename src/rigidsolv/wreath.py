"""Wreath products Z^m wr B as split matrices over B.

An element of Z^m wr B is a finitely supported function from B to Z^m
together with a top element of B.  That function is the split matrix's
coordinate row read pointwise: the i-th coordinate in ZB carries the
i-th component of the vector at each point, and the basis row t_i is
the delta at the identity with value e_i.  So a wreath element is a view
over a `SplitMatrix` of width m, and the product, inverse and identity
are the split-matrix ones; the translation rule (f.b)(x) = f(x b^-1) is
the right translation of the row.  The base function is formed only to
serialize an element (`base`, `key`, `json_text`), once per element.

Iterating the construction over Z^m gives W(m, n) = Z^m wr W(m, n-1)
with W(m, 0) = Z^m, which is the group S(m, 1) itself.  So S(m, n)
embeds into W(m, n-1) (and hence into every higher level);
`embedding_codomain` returns that group.  Serialized wreath elements
write points of W(m, 0) as bare exponent lists and other points as
their own `json_text` (`point_text`); each element caches its own text,
so a point shared by many elements is written once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

from .errors import AmbientMismatchError
from .group_ring import RingElement
from .free_solvable import SolvableElement, free_solvable_group
from .groups import Group, int_list_text
from .magnus import SplitMatrix


class WreathElement:
    """Element of Z^m wr B: a width-m split matrix over B (the `top_group`).

    `base` maps the canonical key of a B-element to (element, vector);
    zero vectors are never stored.
    """

    __slots__ = ("product", "matrix", "_base", "_key", "_text")

    def __init__(self, product: "WreathProduct", matrix: SplitMatrix):
        self.product = product
        self.matrix = matrix
        self._base: dict[str, tuple[Any, tuple[int, ...]]] | None = None
        self._key: str | None = None
        self._text: str | None = None

    @property
    def top(self) -> Any:
        return self.matrix.top

    @property
    def base(self) -> dict[str, tuple[Any, tuple[int, ...]]]:
        """The base function, collected pointwise from the coordinate row."""
        if self._base is None:
            coords = self.matrix.coords
            collected: dict[str, tuple[Any, list[int]]] = {}
            for slot, d in enumerate(coords):
                for key, (element, coeff) in d.support.items():
                    if key not in collected:
                        collected[key] = (element, [0] * len(coords))
                    collected[key][1][slot] = coeff
            self._base = {
                key: (element, tuple(vec)) for key, (element, vec) in collected.items()
            }
        return self._base

    def key(self) -> str:
        if self._key is None:
            base = self.base
            inner = ",".join(f"{key}:{base[key][1]}" for key in sorted(base))
            self._key = f"w[{self.top.key()}|{inner}]"
        return self._key

    def is_trivial(self) -> bool:
        return self.matrix.is_trivial()

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return self.product.mul(self, other)

    def inv(self) -> "WreathElement":
        return self.product.inv(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return self.product == other.product and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.product.label, self.key()))

    def __repr__(self) -> str:
        return f"<{self.product.label} {self.key()}>"

    def json_text(self) -> str:
        """Canonical JSON text {"level", "top", "base"}, built once per
        element; the base function is listed in canonical key order."""
        if self._text is None:
            base = self.base
            points = ", ".join(
                f'{{"at": {point_text(base[key][0])}, '
                f'"vec": {int_list_text(base[key][1])}}}'
                for key in sorted(base)
            )
            level = self.product.level
            self._text = (
                f'{{"level": {"null" if level is None else level}, '
                f'"top": {point_text(self.top)}, "base": [{points}]}}'
            )
        return self._text


class WreathProduct(Group):
    """Z^m wr B for an arbitrary base group B (the `top_group`)."""

    def __init__(self, m: int, top_group: Group):
        if m < 1:
            raise ValueError("fiber rank m must be positive")
        self.m = m
        self.top_group = top_group
        self.ngens = m + top_group.ngens
        self.label = f"Z^{m} wr {top_group.label}"

    @property
    def level(self) -> int | None:
        """Nesting depth when iterated over Z^m; None for other tops."""
        if self.top_group == free_solvable_group(self.m, 1):
            return 1
        if isinstance(self.top_group, WreathProduct):
            inner = self.top_group.level
            if inner is not None and self.top_group.m == self.m:
                return inner + 1
        return None

    def identity(self) -> WreathElement:
        return WreathElement(self, SplitMatrix.identity(self.top_group, self.m))

    def mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        self._check(a)
        self._check(b)
        return WreathElement(self, a.matrix * b.matrix)

    def inv(self, a: WreathElement) -> WreathElement:
        self._check(a)
        return WreathElement(self, a.matrix.inv())

    def generator(self, i: int) -> WreathElement:
        """Generators 1..m are the base deltas at the identity; the rest
        lift the top group's generators."""
        if not 1 <= i <= self.ngens:
            raise ValueError(f"bad generator index {i} (have {self.ngens})")
        if i <= self.m:
            return self.delta(
                self.top_group.identity(),
                tuple(1 if j == i - 1 else 0 for j in range(self.m)),
            )
        return self.lift(self.top_group.generator(i - self.m))

    def delta(self, at: Any, vec: tuple[int, ...]) -> WreathElement:
        """Base-only element supported at a single point."""
        if len(vec) != self.m:
            raise ValueError(f"expected vector of length {self.m}")
        top_group = self.top_group
        coords = [RingElement.monomial(top_group, at, coeff) for coeff in vec]
        return WreathElement(self, SplitMatrix(top_group, top_group.identity(), coords))

    def lift(self, top: Any) -> WreathElement:
        """Top-only element: the zero base function on top of `top`."""
        zero = RingElement.zero(self.top_group)
        return WreathElement(self, SplitMatrix(self.top_group, top, [zero] * self.m))

    def _check(self, a: WreathElement) -> None:
        if not isinstance(a, WreathElement) or a.product != self:
            label = getattr(getattr(a, "product", None), "label", type(a).__name__)
            raise AmbientMismatchError(
                f"ambient mismatch: element of {label} used in {self.label}"
            )


@lru_cache(maxsize=None)
def iterated_wreath(m: int, n: int) -> Group:
    """W(m, n): Z^m = S(m, 1) for n = 0, else Z^m wr W(m, n-1)."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if n == 0:
        return free_solvable_group(m, 1)
    return WreathProduct(m, iterated_wreath(m, n - 1))


def matrix_to_function(p: SplitMatrix) -> WreathElement:
    """Read a split matrix as a wreath element over the same base group.

    A relabelling: the element is a view over `p` itself, and its
    `matrix` gives `p` back.
    """
    return WreathElement(WreathProduct(len(p.coords), p.base), p)


def embedding_codomain(m: int, n: int) -> Group:
    """Where S(m, n) lands: W(m, n-1), with S(m, 1) = W(m, 0) on the nose."""
    return iterated_wreath(m, max(n - 1, 0))


def point_text(element: Any) -> str:
    """JSON text of an element of a wreath product's top group.

    Points of W(m, 0) = S(m, 1) are written as bare exponent lists, not
    in the {"m", "n", "body"} form of S(m, n); other elements use their
    own `json_text`.
    """
    if isinstance(element, SolvableElement) and element.n == 1:
        return int_list_text(element.body)
    return element.json_text()


def embed_free_solvable(e: SolvableElement) -> Any:
    """Injective homomorphism S(m, n) -> W(m, n-1).

    S(m, 1) is W(m, 0), so class 1 maps identically and class 0 to the
    identity of Z^m.  For n >= 2 the split matrix over S(m, n-1) is
    carried to one over W(m, n-2) by embedding its top and each support
    element of its coordinates, recursively.  One memo, keyed by class
    and canonical key, is shared across the recursion, so each distinct
    element below e is embedded once.
    """
    if e.n == 0:
        return free_solvable_group(e.m, 1).identity()
    images: dict[tuple[int, str], Any] = {}

    def embed(x: SolvableElement) -> Any:
        if x.n == 1:
            return x
        memo = (x.n, x.key())
        image = images.get(memo)
        if image is None:
            codomain = iterated_wreath(x.m, x.n - 1)
            top_group = codomain.top_group
            # The embedding is injective, so distinct support keys keep
            # distinct image keys and each coordinate's support carries
            # over term by term.
            coords = []
            for d in x.body.coords:
                support = {}
                for element, coeff in d.support.values():
                    point = embed(element)
                    support[point.key()] = (point, coeff)
                coords.append(RingElement(top_group, support))
            matrix = SplitMatrix(top_group, embed(x.body.top), coords)
            image = images[memo] = WreathElement(codomain, matrix)
        return image

    return embed(e)
