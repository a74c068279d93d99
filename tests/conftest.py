"""Shared test helpers: independent oracles kept free of the library's
own arithmetic paths."""

from __future__ import annotations

import itertools

from rigidsolv.free_solvable import SolvableElement
from rigidsolv.linalg import LaurentPoly


def zvec(*exponents):
    """The element of Z^k = S(k, 1) with the given exponent vector."""
    return SolvableElement(len(exponents), 1, tuple(exponents))


# -- tiny permutation groups: independent soundness oracle ----------------
# S_3 has derived length 2 and S_4 has derived length 3, so a word that is
# trivial in S(m, n) must evaluate to the identity under every assignment
# of generators into S_3 (n = 2) or S_4 (n = 3).

S3 = [p for p in itertools.permutations(range(3))]
S4 = [p for p in itertools.permutations(range(4))]


def perm_mul(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_identity(degree):
    return tuple(range(degree))


def eval_perm_word(word, images):
    degree = len(images[0])
    result = perm_identity(degree)
    for letter in word:
        g = images[abs(letter) - 1]
        if letter < 0:
            g = perm_inv(g)
        result = perm_mul(result, g)
    return result


# -- iterated wreath products on plain values: independent product oracle --
# An element of W(m, 0) = Z^m is an exponent tuple; an element of
# W(m, k) = Z^m wr W(m, k-1) is the pair (top, base), the base a frozenset
# of (point, vector) with no zero vectors.  Nothing here touches split
# matrices or group rings.


def wreath_value(tree):
    """A `wreath-embed` JSON image (parsed) as a plain value."""
    if isinstance(tree, list):
        return tuple(tree)
    return (
        wreath_value(tree["top"]),
        frozenset((wreath_value(p["at"]), tuple(p["vec"])) for p in tree["base"]),
    )


def wreath_mul(a, b):
    """(f, s)(g, t) = (f.t + g, st), where (f.t)(x t) = f(x)."""
    if isinstance(a[0], int):
        return tuple(x + y for x, y in zip(a, b))
    base = {}
    for point, vec in [(wreath_mul(p, b[0]), v) for p, v in a[1]] + list(b[1]):
        old = base.get(point, (0,) * len(vec))
        base[point] = tuple(x + y for x, y in zip(old, vec))
    top = wreath_mul(a[0], b[0])
    return top, frozenset((p, v) for p, v in base.items() if any(v))


def wreath_inv(a):
    """(f, s)^-1 = (-(f.s^-1), s^-1)."""
    if isinstance(a[0], int):
        return tuple(-x for x in a)
    top = wreath_inv(a[0])
    return top, frozenset(
        (wreath_mul(p, top), tuple(-x for x in v)) for p, v in a[1]
    )


def wreath_is_identity(a):
    return not any(a) if isinstance(a[0], int) else (
        not a[1] and wreath_is_identity(a[0])
    )


# -- brute-force minor-rank oracles ---------------------------------------


def det_int(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * det_int(sub)
    return total


def minor_rank_int(matrix):
    """Largest k with a nonzero k x k minor determinant (exhaustive)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for ris in itertools.combinations(range(rows), k):
            for cis in itertools.combinations(range(cols), k):
                if det_int([[matrix[i][j] for j in cis] for i in ris]):
                    return k
    return 0


def det_laurent(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = LaurentPoly.zero(matrix[0][0].nvars)
    for j in range(n):
        if not matrix[0][j].is_zero():
            sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            term = matrix[0][j] * det_laurent(sub)
            total = total + term if j % 2 == 0 else total - term
    return total


def minor_rank_laurent(matrix):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for ris in itertools.combinations(range(rows), k):
            for cis in itertools.combinations(range(cols), k):
                sub = [[matrix[i][j] for j in cis] for i in ris]
                if not det_laurent(sub).is_zero():
                    return k
    return 0
