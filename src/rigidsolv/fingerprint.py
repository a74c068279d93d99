"""Homomorphic fingerprints of S(m, n) elements mod p: an exact one-sided
test of non-triviality.

Fix p = `linalg.PRIME` = 2^61 - 1 and seeded units t_i and s_{k,i} of
F_p, drawn per level k and generator i and never per class n.  The
representation rho_k of S(m, k), of degree 2^(k-1) (degree 1 at k = 0),
is read off the canonical form:

    rho_0(e) = (1),
    rho_1(e) = (prod_i t_i^(e_i))                       for e in Z^m,
    rho_k(e) = [[rho_{k-1}(top), 0],
                [sum_i s_{k,i} sum_{(g, c) in d_i} c rho_{k-1}(g), I]]

for e with split matrix (top; d_1 .. d_m) over S(m, k-1).  The last line
is the split-matrix product rule with t_i -> s_{k,i} and ZB extended
linearly into matrices, so rho_k is a homomorphism that sends x_i to
[[rho_{k-1}(x_i), 0], [s_{k,i} I, I]].  Because it is computed from the
canonical form, equal elements always get equal fingerprints; hence
rho(w) v != v for any vector v proves w != 1 (Magnus, On a theorem of
Marshall Hall, Ann. Math. 40, 1939, for the matrix form).  Because the
units are keyed by level, the top-left block of rho_k(e) (k >= 2) is
rho_{k-1}(project(e, k-1)), and rho_k o project is a homomorphism on
every S(m, n) with n >= k: a filter at a capped level is still exact on
the side that matters.

The converse fails.  At levels <= 2 distinct elements of short words
collide with probability of order L / p (Schwartz, JACM 27, 1980); from
level 3 on rho is not injective at all, so equal fingerprints are only
a hint that an exact check must confirm.

Every rho_k(e) is lower triangular with unit diagonal except at (0, 0),
since each block B is a sum of lower-triangular matrices.  A matrix M is
therefore stored as the rows of M - I, row r cut after its last column
that can be nonzero: row 0 has one entry, and row half + i of a level-k
matrix holds row i of B, i + 1 entries.  A matrix-vector product then
costs 1 + 1 + 3 + 10 + ... modular products (5 at level 3, 15 at level
4) instead of 4^(k-1), whatever the size of the canonical form.
Forming rho_k(e) costs one weighted row sum per distinct support element
of its split matrix, with every lower-level fingerprint memoized per
`Fingerprint` by (class, key).  Since rho is a homomorphism, the
fingerprint of a product can instead be formed from its factors' by
`compose`, without reading the product's canonical form: the solver
forms each ball element's matrix from its parent's and one letter's.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import mul

from .free_solvable import SolvableElement, project
from .linalg import PRIME

#: Rows of M - I, each cut after its last possibly nonzero column.
Matrix = tuple[tuple[int, ...], ...]
Vector = list[int]


@lru_cache(maxsize=None)
def unit(level: int, index: int) -> int:
    """The seeded unit t_index (level 1) or s_{level,index} of F_p."""
    return random.Random(f"fingerprint:{level}:{index}").randrange(2, PRIME - 1)


class Fingerprint:
    """rho_k o project(., k) on S(m, n) with k = min(n, level).

    Fingerprints of every element met on the way, support elements at
    lower classes included, are memoized for the life of the object.
    """

    __slots__ = ("level", "vector", "_memo")

    def __init__(self, n: int, level: int):
        self.level = min(n, level)
        degree = 1 << max(self.level - 1, 0)
        rng = random.Random("fingerprint:vector")
        #: A fixed seeded vector v: rho(w) v != v proves w != 1.
        self.vector: Vector = [rng.randrange(1, PRIME) for _ in range(degree)]
        self._memo: dict[tuple[int, str], Matrix] = {}

    def matrix(self, e: SolvableElement) -> Matrix:
        return self._rho(project(e, self.level))

    def _rho(self, e: SolvableElement) -> Matrix:
        memo_key = (e.n, e.key())
        out = self._memo.get(memo_key)
        if out is not None:
            return out
        if e.n == 0:
            out = ((0,),)
        elif e.n == 1:
            value = 1
            for index, exponent in enumerate(e.body, start=1):
                if exponent:
                    value = value * pow(unit(1, index), exponent, PRIME) % PRIME
            out = (((value - 1) % PRIME,),)
        else:
            split = e.body
            # One weight per distinct support element across the coordinates.
            weights: dict[str, tuple[SolvableElement, int]] = {}
            for index, coord in enumerate(split.coords, start=1):
                if not coord.support:
                    continue
                s = unit(e.n, index)
                for key, (g, c) in coord.support.items():
                    entry = weights.get(key)
                    weights[key] = (g, (entry[1] if entry else 0) + s * c)
            top = self._rho(split.top)
            # B = sum_g weight_g (I + N_g), row i cut after column i.
            low = [[0] * (i + 1) for i in range(len(top))]
            for g, weight in weights.values():
                for row, image_row in zip(low, self._rho(g)):
                    row[: len(image_row)] = [
                        x + weight * y for x, y in zip(row, image_row)
                    ]
            total = sum(weight for _, weight in weights.values())
            for i, row in enumerate(low):
                row[i] += total
            out = top + tuple(tuple(x % PRIME for x in row) for row in low)
        self._memo[memo_key] = out
        return out


def apply(a: Matrix, v: Vector) -> Vector:
    """The matrix-vector product a v mod p, for a in the stored form."""
    return [(x + sum(map(mul, row, v))) % PRIME for row, x in zip(a, v)]


def compose(a: Matrix, b: Matrix) -> Matrix:
    """The product a b of two fingerprint matrices in the stored form,
    row by row from (I + A)(I + B) = I + A + B + A B.  Row j of B is no
    longer than any row whose column j can be nonzero, so every row
    keeps its cut; zero entries of A are skipped, which makes a product
    by a generator's matrix cost about one row of B per row."""
    out = []
    for row, b_row in zip(a, b):
        acc = [x + y for x, y in zip(row, b_row)]
        for coeff, b_j in zip(row, b):
            if coeff:
                acc[: len(b_j)] = [x + coeff * y for x, y in zip(acc, b_j)]
        out.append(tuple(x % PRIME for x in acc))
    return tuple(out)


def inverse(a: Matrix) -> Matrix:
    """Inverse of a fingerprint matrix, by its block form:
    [[A, 0], [B, I]]^-1 = [[A^-1, 0], [-B A^-1, I]]."""
    if len(a) == 1:
        return (((pow(a[0][0] + 1, -1, PRIME) - 1) % PRIME,),)
    half = len(a) // 2
    top = inverse(a[:half])
    # Columns of A^-1 = I + (stored rows of top).
    columns = [
        [int(j == c) + (row[c] if c < len(row) else 0) for j, row in enumerate(top)]
        for c in range(half)
    ]
    return top + tuple(
        tuple(-sum(map(mul, row, col)) % PRIME for col in columns[: i + 1])
        for i, row in enumerate(a[half:])
    )
