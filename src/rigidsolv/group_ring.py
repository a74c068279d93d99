"""Exact arithmetic in the integral group ring ZB of a base group B.

A ring element is a finitely supported formal sum of group elements with
unbounded integer coefficients.  The support maps each element's
canonical key to the pair (element, coefficient); zero coefficients are
never stored, so the zero element has empty support.  Values are
immutable and safe to share between threads.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .groups import Group, require_same_group


class RingElement:
    """Element of ZB: a finitely supported integer combination of B-elements."""

    __slots__ = ("group", "support")

    def __init__(self, group: Group, support: dict[str, tuple[Any, int]]):
        self.group = group
        self.support = support

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "RingElement":
        return RingElement(group, {})

    @staticmethod
    def one(group: Group) -> "RingElement":
        return RingElement.monomial(group, group.identity())

    @staticmethod
    def monomial(group: Group, element: Any, coeff: int = 1) -> "RingElement":
        if coeff == 0:
            return RingElement.zero(group)
        return RingElement(group, {group.key(element): (element, coeff)})

    @staticmethod
    def from_terms(group: Group, terms: Iterable[tuple[Any, int]]) -> "RingElement":
        support: dict[str, tuple[Any, int]] = {}
        for element, coeff in terms:
            key = group.key(element)
            if key in support:
                coeff += support[key][1]
            if coeff:
                support[key] = (element, coeff)
            elif key in support:
                del support[key]
        return RingElement(group, support)

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.support

    def coeff(self, element: Any) -> int:
        entry = self.support.get(self.group.key(element))
        return entry[1] if entry else 0

    def terms(self) -> list[tuple[Any, int]]:
        """Support as (element, coefficient) pairs in canonical key order."""
        return [self.support[key] for key in sorted(self.support)]

    def augmentation(self) -> int:
        """Sum of coefficients: the ring homomorphism ZB -> Z."""
        return sum(coeff for _, coeff in self.support.values())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        require_same_group(self.group, other.group)
        if not self.support:
            return other
        if not other.support:
            return self
        support = dict(self.support)
        for key, (element, coeff) in other.support.items():
            if key in support:
                total = support[key][1] + coeff
                if total:
                    support[key] = (element, total)
                else:
                    del support[key]
            else:
                support[key] = (element, coeff)
        return RingElement(self.group, support)

    def __neg__(self) -> "RingElement":
        return RingElement(
            self.group,
            {key: (element, -coeff) for key, (element, coeff) in self.support.items()},
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, scalar: int) -> "RingElement":
        if scalar == 0:
            return RingElement.zero(self.group)
        if scalar == 1:
            return self
        return RingElement(
            self.group,
            {
                key: (element, coeff * scalar)
                for key, (element, coeff) in self.support.items()
            },
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        """Convolution product; multiplication order of B is preserved."""
        require_same_group(self.group, other.group)
        group = self.group
        support: dict[str, tuple[Any, int]] = {}
        for g, a in self.support.values():
            for h, b in other.support.values():
                product = group.mul(g, h)
                key = group.key(product)
                if key in support:
                    total = support[key][1] + a * b
                    if total:
                        support[key] = (product, total)
                    else:
                        del support[key]
                else:
                    support[key] = (product, a * b)
        return RingElement(group, support)

    def translate(self, g: Any) -> "RingElement":
        """Right translation: every support element is multiplied by g."""
        group = self.group
        if not self.support or group.is_identity(g):
            return self
        support: dict[str, tuple[Any, int]] = {}
        for element, coeff in self.support.values():
            shifted = group.mul(element, g)
            support[group.key(shifted)] = (shifted, coeff)
        return RingElement(group, support)

    # -- equality and serialization -------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.group != other.group:
            return False
        mine = {key: coeff for key, (_, coeff) in self.support.items()}
        theirs = {key: coeff for key, (_, coeff) in other.support.items()}
        return mine == theirs

    __hash__ = None  # type: ignore[assignment]

    def canonical_key(self) -> str:
        return "+".join(
            f"{self.support[key][1]}*{key}" for key in sorted(self.support)
        )

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return " + ".join(
            f"{coeff}*{self.group.key(element)}"
            for element, coeff in self.terms()
        )

    def __repr__(self) -> str:
        return f"<Z[{self.group.label}] {self}>"

    def json_text(self) -> str:
        """Canonical JSON text: a list of {"coeff", "element"} terms in
        canonical key order."""
        text = self.group.element_text
        return "[" + ", ".join(
            f'{{"coeff": {coeff}, "element": {text(element)}}}'
            for element, coeff in self.terms()
        ) + "]"

    def __iter__(self) -> Iterator[tuple[Any, int]]:
        return iter(self.terms())

