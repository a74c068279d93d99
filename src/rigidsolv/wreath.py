"""Wreath products Z^m wr B as split matrices over B.

An element of Z^m wr B is a finitely supported function from B to Z^m
together with a top element of B.  That function is the split matrix's
coordinate row read pointwise: the i-th coordinate in ZB carries the
i-th component of the vector at each point, and the basis row t_i is
the delta at the identity with value e_i.  So a wreath element is a view
over a `SplitMatrix` of width m, and the product, inverse and identity
are the split-matrix ones; the translation rule (f.b)(x) = f(x b^-1) is
the right translation of the row.  The base function is formed only to
serialize an element (`base`, `key`, `to_json`), once per element.

Iterating the construction over Z^m gives W(m, n) = Z^m wr W(m, n-1)
with W(m, 0) = Z^m.  S(m, 1) is literally W(m, 0), so S(m, n) embeds
into W(m, n-1) (and hence into every higher level);
`embedding_codomain` returns that group.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

from .errors import AmbientMismatchError
from .group_ring import RingElement
from .groups import AbelianGroup, Group, abelian_group
from .magnus import SplitMatrix


class WreathElement:
    """Element of Z^m wr B: a width-m split matrix over B (the `top_group`).

    `base` maps the canonical key of a B-element to (element, vector);
    zero vectors are never stored.
    """

    __slots__ = ("product", "matrix", "_base", "_key")

    def __init__(self, product: "WreathProduct", matrix: SplitMatrix):
        self.product = product
        self.matrix = matrix
        self._base: dict[str, tuple[Any, tuple[int, ...]]] | None = None
        self._key: str | None = None

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
            top_group = self.product.top_group
            base = self.base
            inner = ",".join(f"{key}:{base[key][1]}" for key in sorted(base))
            self._key = f"w[{top_group.key(self.top)}|{inner}]"
        return self._key

    def is_trivial(self) -> bool:
        return self.matrix.is_identity()

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

    def to_json(self) -> dict[str, Any]:
        top_group = self.product.top_group
        base = self.base
        return {
            "level": self.product.level,
            "top": top_group.element_json(self.top),
            "base": [
                {"at": top_group.element_json(base[key][0]), "vec": list(base[key][1])}
                for key in sorted(base)
            ],
        }


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
        if isinstance(self.top_group, AbelianGroup):
            return 1 if self.top_group.rank == self.m else None
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

    def key(self, a: WreathElement) -> str:
        self._check(a)
        return a.key()

    def is_identity(self, a: WreathElement) -> bool:
        self._check(a)
        return a.is_trivial()

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

    def show(self, a: WreathElement) -> str:
        return a.key()

    def element_json(self, a: WreathElement) -> dict[str, Any]:
        return a.to_json()

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
    """W(m, n): Z^m for n = 0, else Z^m wr W(m, n-1)."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if n == 0:
        return abelian_group(m)
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


def embed_free_solvable(e: Any) -> Any:
    """Injective homomorphism S(m, n) -> W(m, n-1).

    Class 0 and 1 map to exponent vectors; for n >= 2 the split matrix
    over S(m, n-1) is carried to one over W(m, n-2) by embedding its top
    and each distinct support element of its coordinates, recursively.
    """
    m, n = e.m, e.n
    if n == 0:
        return abelian_group(m).identity()
    if n == 1:
        return tuple(e.body)
    codomain = iterated_wreath(m, n - 1)
    assert isinstance(codomain, WreathProduct)
    top_group = codomain.top_group
    matrix = e.body
    # The embedding is injective, so distinct support keys keep distinct
    # image keys and each coordinate's support carries over term by term.
    images: dict[str, tuple[str, Any]] = {}
    coords = []
    for d in matrix.coords:
        support = {}
        for key, (element, coeff) in d.support.items():
            entry = images.get(key)
            if entry is None:
                image = embed_free_solvable(element)
                entry = images[key] = (top_group.key(image), image)
            support[entry[0]] = (entry[1], coeff)
        coords.append(RingElement(top_group, support))
    top = embed_free_solvable(matrix.top)
    return WreathElement(codomain, SplitMatrix(top_group, top, coords))
