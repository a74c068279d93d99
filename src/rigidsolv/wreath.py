"""The embedding of S(m, n) into the iterated wreath product, as a serializer.

An element of Z^m wr B is a finitely supported function from B to Z^m
together with a top element of B.  That function is a split matrix's
coordinate row read pointwise: the i-th coordinate in ZB carries the
i-th component of the vector at each point, and the basis row t_i is
the delta at the identity with value e_i.  The product, inverse and
identity are the split-matrix ones; the translation rule
(f.b)(x) = f(x b^-1) is the right translation of the row
(Myasnikov, Roman'kov, Ushakov and Vershik, Trans. AMS 362, 2010).

Iterating the construction over Z^m gives W(m, n) = Z^m wr W(m, n-1)
with W(m, 0) = Z^m, which is the group S(m, 1) itself.  An element of
S(m, n) is a split matrix over S(m, n-1), so its image in W(m, n-1)
is its own tower read pointwise at every class: nothing is rebuilt, and
this module only writes that image as a wreath key or JSON text.
"""

from __future__ import annotations

from typing import Any

from .free_solvable import SolvableElement, free_solvable_group
from .groups import int_list_text
from .magnus import SplitMatrix


def matrix_to_function(p: SplitMatrix) -> dict[str, tuple[Any, tuple[int, ...]]]:
    """The base function of a coordinate row, read pointwise.

    Maps the canonical key of each point of the base group to the pair
    (point, vector); zero vectors are never stored.
    """
    coords = p.coords
    collected: dict[str, tuple[Any, list[int]]] = {}
    for slot, d in enumerate(coords):
        for key, (element, coeff) in d.support.items():
            if key not in collected:
                collected[key] = (element, [0] * len(coords))
            collected[key][1][slot] = coeff
    return {key: (element, tuple(vec)) for key, (element, vec) in collected.items()}


def embedding_codomain(m: int, n: int) -> str:
    """Label of W(m, n-1), where S(m, n) lands; S(m, 1) = W(m, 0) = Z^m."""
    return " wr ".join([f"Z^{m}"] * max(n, 1))


def embed_free_solvable(e: SolvableElement, as_json: bool = False) -> str:
    """Image of e under the injective homomorphism S(m, n) -> W(m, n-1),
    as its wreath key, or as its JSON text {"level", "top", "base"}.

    S(m, 1) is W(m, 0), so class 1 maps identically and class 0 to the
    identity of Z^m; their points are written as exponent keys and bare
    exponent lists.  At class n >= 2 the image has level n - 1, its top
    is the image of the split matrix's top, and its base function is the
    coordinate row read pointwise, each point replaced by its image and
    listed in wreath key order.  One memo per call, keyed by class and
    canonical key, holds each distinct sub-element's key and text, so
    each is read once however many objects carry its value.
    """
    if e.n == 0:
        e = free_solvable_group(e.m, 1).identity()
    memo: dict[tuple[int, str], tuple[str, str]] = {}

    def read(x: SolvableElement) -> tuple[tuple[str, str], list[Any]]:
        """Images of x's top and of its points, with their vectors, in
        wreath key order."""
        points = matrix_to_function(x.body).values()
        return image(x.body.top), sorted((image(p), vec) for p, vec in points)

    def key(top: tuple[str, str], points: list[Any]) -> str:
        return f"w[{top[0]}|" + ",".join(f"{k}:{vec}" for (k, _), vec in points) + "]"

    def text(level: int, top: tuple[str, str], points: list[Any]) -> str:
        base = ", ".join(
            f'{{"at": {t}, "vec": {int_list_text(vec)}}}' for (_, t), vec in points
        )
        return f'{{"level": {level}, "top": {top[1]}, "base": [{base}]}}'

    def image(x: SolvableElement) -> tuple[str, str]:
        """Key and (in JSON mode) text of x's image."""
        if x.n == 1:
            return x.key(), int_list_text(x.body) if as_json else ""
        node = (x.n, x.key())
        if node not in memo:
            top, points = read(x)
            memo[node] = key(top, points), text(x.n - 1, top, points) if as_json else ""
        return memo[node]

    if e.n == 1:
        return int_list_text(e.body) if as_json else e.key()
    # The root's image is written in one form only.
    top, points = read(e)
    return text(e.n - 1, top, points) if as_json else key(top, points)
