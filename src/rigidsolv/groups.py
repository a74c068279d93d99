"""Base-group interface used by the group ring and matrix layers.

A group object does the arithmetic: identity, product, inverse and
generators.  Its elements are immutable values (canonical forms, split
matrices, ...) that answer for themselves: `key()` is a deterministic
string such that two elements of one group are equal iff their keys
coincide (keys drive hashing and sorting), `is_trivial()` tests for the
identity, and `json_text()` is the canonical JSON text.  The shared
element classes cache key and text, so a sub-element that sits under
many parents is keyed and serialized once.
"""

from __future__ import annotations

from typing import Any, Sequence

from .errors import AmbientMismatchError


class Group:
    """Abstract group: arithmetic on elements that key themselves.

    Subclasses must set ``label`` (a string identifying the ambient group;
    two group objects are interchangeable iff labels match) and ``ngens``,
    and implement ``identity``, ``mul``, ``inv`` and ``generator``.  Their
    elements provide ``key``, ``is_trivial`` and ``json_text``.
    """

    label: str
    ngens: int

    def identity(self) -> Any:
        raise NotImplementedError

    def mul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def inv(self, a: Any) -> Any:
        raise NotImplementedError

    def generator(self, i: int) -> Any:
        """Image of the i-th free generator, 1-based."""
        raise NotImplementedError

    def pow(self, a: Any, k: int) -> Any:
        if k < 0:
            a = self.inv(a)
            k = -k
        result = self.identity()
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def conjugate(self, a: Any, b: Any) -> Any:
        """b^-1 a b."""
        return self.mul(self.mul(self.inv(b), a), b)

    def commutator(self, a: Any, b: Any) -> Any:
        """a^-1 b^-1 a b."""
        return self.mul(self.inv(self.mul(b, a)), self.mul(a, b))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)

    def __repr__(self) -> str:
        return self.label


def int_list_text(values: Sequence[int]) -> str:
    """JSON text of a list of integers, as `json.dumps` writes it."""
    return "[" + ", ".join(map(str, values)) + "]"


def require_same_group(a: Group, b: Group) -> None:
    if a != b:
        raise AmbientMismatchError(f"ambient mismatch: {a.label} vs {b.label}")
