"""Exact rank machinery: Smith normal form, Laurent matrix rank,
coset decomposition, and principal dimensions of metabelian subgroups.

Both rank routines build nothing larger than a determinant.

`laurent_rank` computes ranks over the commutative group rings Z[Z^k] as
ranks over the fraction field of the Laurent polynomial ring.  It
evaluates the matrix at one fixed point of (F_p^*)^k, p = 2^61 - 1, and
takes the rank mod p; evaluation is a ring homomorphism, so that rank is
a certified lower bound, and when it is full (min(rows, cols)) it is the
answer, at the cost of one evaluation and one modular elimination.
Otherwise fraction-free (Bareiss) elimination answers exactly: rows are
first scaled by monomials to clear negative exponents, and every
division in the elimination is an exact polynomial division.

`smith_rank` takes the rank r and a nonzero r x r minor D from Bareiss
elimination over Z; every invariant factor divides D, so they are read
off a diagonalization of the matrix mod D (Domich-Kannan-Trotter), with
entries bounded by D throughout.

`hermite_basis` is the one lattice routine: the row Hermite normal form,
re-reduced after every inserted row, gives the rank of a sublattice of
Z^m, a basis of it, and by one reduction pass a canonical coset
representative and lattice coordinates of any vector (`coset_rank`).

`smith_form` carries unimodular transforms whose entries grow without
bound; no routine here calls it.  It is kept because the benchmark's
per-layer tracer wraps it by name.

Rank over noncommutative group rings (class >= 3 quotients) is out of
reach of this route and is not implemented.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .group_ring import RingElement
from .free_solvable import free_solvable_group, normalize
from .words import Word

# ---------------------------------------------------------------------------
# Laurent polynomials with rational coefficients


class LaurentPoly:
    """Sparse Laurent polynomial in k commuting variables over Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction]):
        self.nvars = nvars
        self.terms = terms

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {})

    @staticmethod
    def const(nvars: int, value: Fraction | int) -> "LaurentPoly":
        value = Fraction(value)
        if value == 0:
            return LaurentPoly.zero(nvars)
        return LaurentPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def monomial(
        nvars: int, exps: Sequence[int], coeff: Fraction | int = 1
    ) -> "LaurentPoly":
        coeff = Fraction(coeff)
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ValueError(f"expected {nvars} exponents, got {len(exps)}")
        if coeff == 0:
            return LaurentPoly.zero(nvars)
        return LaurentPoly(nvars, {exps: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._same(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, Fraction(0)) + coeff
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(
            self.nvars, {exps: -coeff for exps, coeff in self.terms.items()}
        )

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._same(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                total = terms.get(exps, Fraction(0)) + c1 * c2
                if total:
                    terms[exps] = total
                else:
                    terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms)

    def shift(self, exps: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial t^exps (a unit of the Laurent ring)."""
        exps = tuple(exps)
        if not any(exps):
            return self
        return LaurentPoly(
            self.nvars,
            {
                tuple(a + b for a, b in zip(e, exps)): c
                for e, c in self.terms.items()
            },
        )

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term in graded-lexicographic order."""
        exps = max(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            mono = "*".join(
                f"t{i + 1}^{e}" if e != 1 else f"t{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{coeff}*{mono}" if mono else str(coeff))
        return " + ".join(parts)

    __repr__ = __str__

    @staticmethod
    def from_json(nvars: int, data: Any) -> "LaurentPoly":
        """Parse a list of {"exps", "num", "den"} terms, checking its shape."""
        if not isinstance(data, list):
            raise ValueError("a Laurent entry must be a list of terms")
        total = LaurentPoly.zero(nvars)
        for term in data:
            if not isinstance(term, dict):
                raise ValueError("a Laurent term must be an object")
            exps, num, den = term.get("exps"), term.get("num"), term.get("den", 1)
            if not isinstance(exps, list):
                raise ValueError("Laurent exps must be a list of integers")
            if any(type(x) is not int for x in [*exps, num, den]):
                raise ValueError("Laurent exps, num and den must be integers")
            if den == 0:
                raise ValueError("Laurent term with zero denominator")
            total = total + LaurentPoly.monomial(nvars, exps, Fraction(num, den))
        return total

    def _same(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"ambient mismatch: {self.nvars} vs {other.nvars} variables"
            )


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact division f / g; raises ValueError if g does not divide f.

    The lowest power of each variable in a product is the sum of the
    factors' lowest powers, so every term of an exact quotient has
    exponents at least floor = mindeg(f) - mindeg(g), variable by
    variable.  Each step of the division takes a term of the quotient in
    strictly decreasing graded-lexicographic order; a step below the
    floor proves the division inexact, and above the floor there are
    only finitely many exponents, so the loop ends either way.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quotient = LaurentPoly.zero(f.nvars)
    g_exps, g_coeff = g.leading()
    floor = [a - b for a, b in zip(_min_exps(f), _min_exps(g))]
    remainder = f
    while not remainder.is_zero():
        r_exps, r_coeff = remainder.leading()
        exps = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(e < low for e, low in zip(exps, floor)):
            raise ValueError("inexact division: the divisor does not divide")
        step = LaurentPoly.monomial(f.nvars, exps, r_coeff / g_coeff)
        quotient = quotient + step
        remainder = remainder - step * g
    return quotient


def _min_exps(p: LaurentPoly) -> list[int]:
    return [min(column) for column in zip(*p.terms)]


def laurent_rank(matrix: Sequence[Sequence[LaurentPoly]]) -> int:
    """Rank over the fraction field of the Laurent ring.

    Every entry is first evaluated at one fixed point of (F_p^*)^k,
    p = PRIME, and the rank of the evaluated matrix is taken by Gaussian
    elimination mod p.  Evaluation is a ring homomorphism, so a nonzero
    minor of the evaluation lifts to a nonzero minor of the matrix: the
    modular rank is a certified lower bound.  When it reaches
    min(rows, cols) it is the rank, found in O(terms * k) modular
    products for the evaluation plus O(rows * cols * min) for the
    elimination.  Otherwise (a rank-deficient matrix, a point that hits a
    zero of a minor, or a coefficient whose denominator vanishes mod p)
    the exact answer comes from `laurent_rank_bareiss`.
    """
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        for entry in row:
            entry._same(rows[0][0])
    bound = _evaluation_rank(rows)
    if bound == min(len(rows), ncols):
        return bound
    return laurent_rank_bareiss(rows)


#: Modulus of the evaluation rank: the Mersenne prime 2^61 - 1.
PRIME = (1 << 61) - 1


def _evaluation_point(nvars: int) -> tuple[int, ...]:
    rng = random.Random("laurent_rank")
    return tuple(rng.randrange(2, PRIME - 1) for _ in range(nvars))


def _evaluation_rank(rows: list[list[LaurentPoly]]) -> int | None:
    """Rank mod PRIME of the matrix evaluated at the fixed point, or None
    when a coefficient's denominator is 0 mod PRIME.

    The point is drawn only as far as the variables the terms use, at
    most twice the highest: the draws are a seeded sequence, so any
    prefix gives the same values, and the cost is bounded by the input
    whatever `nvars` declares.
    """
    point: tuple[int, ...] = ()
    monomials: dict[tuple[int, ...], int] = {}
    values = []
    for row in rows:
        out = []
        for entry in row:
            total = 0
            for exps, coeff in entry.terms.items():
                den = coeff.denominator % PRIME
                if not den:
                    return None
                mono = monomials.get(exps)
                if mono is None:
                    mono = 1
                    for i, e in enumerate(exps):
                        if e:
                            if i >= len(point):
                                point = _evaluation_point(2 * i + 2)
                            mono = mono * pow(point[i], e, PRIME) % PRIME
                    monomials[exps] = mono
                total += coeff.numerator * pow(den, -1, PRIME) * mono
            out.append(total % PRIME)
        values.append(out)
    return _rank_mod_prime(values)


def _rank_mod_prime(rows: list[list[int]]) -> int:
    rank = 0
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        inverse = pow(top[col], -1, PRIME)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % PRIME
            if factor:
                rows[i] = [(x - factor * y) % PRIME for x, y in zip(rows[i], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def laurent_rank_bareiss(matrix: Sequence[Sequence[LaurentPoly]]) -> int:
    """Rank over the fraction field of the Laurent ring, exactly.

    Fraction-free Bareiss elimination with deterministic pivoting: rows
    are normalized by monomial shifts to clear negative exponents, then
    eliminated column by column, dividing each step by the previous
    pivot (an exact polynomial division).  Entries stay minors of the
    shifted matrix, but their supports grow with the size, so this is the
    slow exact route behind `laurent_rank`.
    """
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        shift = _clearing_shift(row)
        if shift is not None:
            for j in range(ncols):
                row[j] = row[j].shift(shift)
    rank = 0
    prev_pivot: LaurentPoly | None = None
    row_start = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(row_start, len(rows)):
            if not rows[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[row_start], rows[pivot_row] = rows[pivot_row], rows[row_start]
        pivot = rows[row_start][col]
        for i in range(row_start + 1, len(rows)):
            coef = rows[i][col]
            for j in range(ncols):
                if j == col:
                    continue
                value = pivot * rows[i][j] - coef * rows[row_start][j]
                if prev_pivot is not None and not value.is_zero():
                    value = exact_div(value, prev_pivot)
                rows[i][j] = value
            rows[i][col] = LaurentPoly.zero(pivot.nvars)
        prev_pivot = pivot
        row_start += 1
        rank += 1
        if row_start == len(rows):
            break
    return rank


def _clearing_shift(row: Sequence[LaurentPoly]) -> tuple[int, ...] | None:
    mins: list[int] | None = None
    for entry in row:
        for exps in entry.terms:
            if mins is None:
                mins = list(exps)
            else:
                mins = [min(a, b) for a, b in zip(mins, exps)]
    if mins is None:
        return None
    shift = tuple(-x if x < 0 else 0 for x in mins)
    return shift if any(shift) else None


# ---------------------------------------------------------------------------
# Smith normal form over Z


@dataclass
class SmithForm:
    """L * M * R = diag(factors) with L, R unimodular."""

    diagonal: list[int]
    left: list[list[int]]
    right: list[list[int]]
    rank: int


def _identity_matrix(size: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


def smith_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form with unimodular transforms, exact over Z."""
    a = [[int(x) for x in row] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    left = _identity_matrix(nrows)
    right = _identity_matrix(ncols)
    t = 0
    while t < min(nrows, ncols):
        pivot = _smallest_nonzero(a, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            left[t], left[pi] = left[pi], left[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in right:
                row[t], row[pj] = row[pj], row[t]
        while True:
            changed = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        _row_sub(a, i, t, q)
                        _row_sub(left, i, t, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        left[t], left[i] = left[i], left[t]
                    changed = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        _col_sub(a, j, t, q)
                        _col_sub(right, j, t, q)
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in right:
                            row[t], row[j] = row[j], row[t]
                        changed = True
            if not changed and not _has_residue(a, t):
                offender = _divisibility_offender(a, t)
                if offender is None:
                    break
                _row_add(a, t, offender, 1)
                _row_add(left, t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        t += 1
    diagonal = [a[i][i] for i in range(min(nrows, ncols))]
    rank = sum(1 for d in diagonal if d)
    return SmithForm(diagonal, left, right, rank)


def _smallest_nonzero(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            if a[i][j] and (best_val is None or abs(a[i][j]) < best_val):
                best = (i, j)
                best_val = abs(a[i][j])
    return best


def _has_residue(a: list[list[int]], t: int) -> bool:
    return any(a[i][t] for i in range(t + 1, len(a))) or any(
        a[t][j] for j in range(t + 1, len(a[0]))
    )


def _divisibility_offender(a: list[list[int]], t: int) -> int | None:
    d = a[t][t]
    for i in range(t + 1, len(a)):
        if any(x % d for x in a[i][t + 1 :]):
            return i
    return None


def _row_sub(a: list[list[int]], i: int, t: int, q: int) -> None:
    a[i] = [x - q * y for x, y in zip(a[i], a[t])]


def _row_add(a: list[list[int]], i: int, t: int, q: int) -> None:
    a[i] = [x + q * y for x, y in zip(a[i], a[t])]


def _col_sub(a: list[list[int]], j: int, t: int, q: int) -> None:
    for row in a:
        row[j] -= q * row[t]


def smith_rank(matrix: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank over Q and the nonzero invariant factors of an integer matrix.

    No transforms are built and no entry grows past a determinant:

    1. Fraction-free Bareiss elimination over Z gives the rank r and
       D = |last pivot|, a nonzero r x r minor.  Every entry it forms is a
       minor, so its size is bounded by Hadamard's inequality.
    2. The certificate: s_1 * ... * s_r, the gcd of the r x r minors,
       divides D, so every invariant factor divides D and the Smith form
       of the matrix mod D (a diagonal over Z/D found with extended-gcd
       2 x 2 row and column operations) determines them: its cokernel is
       the cokernel over Z tensored with Z/D.
    3. s_t = gcd(a_tt, D) for each diagonal entry, a gcd/lcm pass restores
       the divisor chain, and its first r entries are the answer.

    Cost: O(rows * cols * r) products of integers of O(r log(r * max))
    bits for Bareiss, then at most log2(D) pivot refinements per diagonal
    position, each O((rows + cols) * max(rows, cols)) operations mod D.
    """
    if not matrix or not matrix[0]:
        return 0, ()
    rank, modulus = _integer_bareiss(matrix)
    if rank == 0:
        return 0, ()
    return rank, tuple(_diagonal_mod(matrix, modulus)[:rank])


def _integer_bareiss(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank r and |last pivot|, a nonzero r x r minor, by fraction-free
    elimination over Z (every division is exact)."""
    rows = [[int(x) for x in row] for row in matrix]
    rank, prev = 0, 1
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        pivot = top[col]
        for i in range(rank + 1, len(rows)):
            coef = rows[i][col]
            rows[i] = [(pivot * x - coef * y) // prev for x, y in zip(rows[i], top)]
        prev = pivot
        rank += 1
        if rank == len(rows):
            break
    return rank, abs(prev)


def _diagonal_mod(matrix: Sequence[Sequence[int]], modulus: int) -> list[int]:
    """Divisor chain of gcd(a_tt, modulus) over a diagonalization of the
    matrix mod `modulus`; a trailing block that vanishes gives `modulus`."""
    a = [[int(x) % modulus for x in row] for row in matrix]
    nrows, ncols = len(a), len(a[0])
    size = min(nrows, ncols)
    diagonal: list[int] = []
    for t in range(size):
        pivot = _smallest_nonzero(a, t)
        if pivot is None:
            diagonal += [modulus] * (size - t)
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # Each pass either clears row and column t or replaces a[t][t] by
        # a proper divisor of it, so there are at most log2(modulus) passes.
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    s, u, p, q = _bezout(a[t][t], a[i][t])
                    top, row = a[t], a[i]
                    a[t] = [(s * x + u * y) % modulus for x, y in zip(top, row)]
                    a[i] = [(p * y - q * x) % modulus for x, y in zip(top, row)]
            for j in range(t + 1, ncols):
                if a[t][j]:
                    s, u, p, q = _bezout(a[t][t], a[t][j])
                    for row in a:
                        x, y = row[t], row[j]
                        row[t] = (s * x + u * y) % modulus
                        row[j] = (p * y - q * x) % modulus
            if not any(a[i][t] for i in range(t + 1, nrows)):
                break
        diagonal.append(math.gcd(a[t][t], modulus))
    # The gcd/lcm pass keeps the multiset of prime-power exponents.
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = math.gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return diagonal


def _bezout(a: int, b: int) -> tuple[int, int, int, int]:
    """(s, u, a/g, b/g) with s*a + u*b = g = gcd(a, b) > 0, for a, b > 0.

    The matrix [[s, u], [-b/g, a/g]] has determinant 1 and sends (a, b) to
    (g, 0).  When a divides b it is s = 1, u = 0, which leaves the pivot
    row (or column) as it is; without that case the pivot could cycle.
    """
    if b % a == 0:
        return 1, 0, 1, b // a
    s0, s1, r0, r1 = 1, 0, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    u = (r0 - s0 * a) // b
    return s0, u, a // r0, b // r0


def hermite_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice the rows span: one basis row
    per pivot column, in column order, each pivot positive and every
    entry above a pivot reduced into [0, pivot).

    Rows are inserted one at a time (Kannan-Bachem).  A row meeting an
    occupied pivot column is merged into that pivot by the unimodular
    `_bezout` step and goes on with what is left; a row reaching a free
    column takes it.  After every insertion the basis is reduced again,
    so between insertions it is the Hermite form of the rows so far, a
    function of their lattice alone, and no transform is carried that
    could grow.  Its length is the rank over Q.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        vector = [int(x) for x in row]
        for col in range(len(vector)):
            if not vector[col]:
                continue
            if vector[col] < 0:
                vector = [-x for x in vector]
            top = pivots.get(col)
            if top is None:
                pivots[col] = vector
                break
            s, u, p, q = _bezout(top[col], vector[col])
            pivots[col] = [s * a + u * b for a, b in zip(top, vector)]
            vector = [p * b - q * a for a, b in zip(top, vector)]
        order = sorted(pivots)
        for i, col in enumerate(order):
            pivot_row = pivots[col]
            for above in order[:i]:
                row_above = pivots[above]
                q = row_above[col] // pivot_row[col]
                if q:
                    pivots[above] = [a - q * b for a, b in zip(row_above, pivot_row)]
    return [pivots[col] for col in sorted(pivots)]


# ---------------------------------------------------------------------------
# Rank of module rows over a subring Z[A-bar] of Z[B], B free abelian


def coset_rank(
    rows: Sequence[Sequence[RingElement]], sub_basis: Sequence[Sequence[int]]
) -> int:
    """Rank over Z[A-bar] of the module spanned by rows of a free ZB-module.

    B must be free abelian, B = Z^m = S(m, 1), and A-bar is given by an
    independent set of exponent vectors in Z^m (checked; raises on a
    dependent sub-basis).  One pass over the Hermite basis of A-bar
    reduces a support vector v to v = rep + sum_i q_i h_i with each
    pivot entry of rep in [0, pivot): rep names the A-bar-coset of v and
    q its Laurent exponents in the variables h_i.  The block matrix over
    the Laurent ring, one column per (slot, rep), has the answer as rank.
    """
    if not rows:
        return 0
    group = rows[0][0].group
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged module rows")
        for entry in row:
            if entry.group != group:
                raise ValueError("ambient mismatch: rows over different rings")
    dim = group.ngens
    if group != free_solvable_group(dim, 1):
        raise ValueError(f"{group.label} is not a free abelian base group")
    if any(len(row) != dim for row in sub_basis):
        raise ValueError("basis rows have wrong length")
    basis = hermite_basis(sub_basis)
    if len(basis) < len(sub_basis):
        raise ValueError("dependent sub-basis")
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]

    nvars = len(basis)
    zero = LaurentPoly.zero(nvars)
    columns: dict[tuple[int, tuple[int, ...]], int] = {}
    sparse_rows: list[dict[int, LaurentPoly]] = []
    for row in rows:
        out: dict[int, LaurentPoly] = {}
        for slot, entry in enumerate(row):
            for element, coeff in entry.support.values():
                rep, exps = list(element.body), []
                for col, h in zip(pivots, basis):
                    q = rep[col] // h[col]
                    rep = [a - q * b for a, b in zip(rep, h)]
                    exps.append(q)
                index = columns.setdefault((slot, tuple(rep)), len(columns))
                out[index] = out.get(index, zero) + LaurentPoly.monomial(nvars, exps, coeff)
        sparse_rows.append(out)
    matrix = [[out.get(i, zero) for i in range(len(columns))] for out in sparse_rows]
    return laurent_rank(matrix)


# ---------------------------------------------------------------------------
# Principal dimensions


@dataclass(frozen=True)
class PrincipalDimension:
    """Tuple (r_1, ..., r_n) of module ranks of the principal-series factors."""

    values: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.values)) + ")"

    def to_json(self) -> list[int]:
        return list(self.values)


def lex_compare(a: PrincipalDimension, b: PrincipalDimension) -> int:
    """Left-lexicographic comparison: -1, 0, or 1."""
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    if a.values < b.values:
        return -1
    if a.values > b.values:
        return 1
    return 0


def principal_dimension_metabelian(
    generators: Sequence[Word], m: int
) -> PrincipalDimension:
    """Principal dimension (r_1, r_2) of the subgroup of S(m, 2) generated
    by the given words.

    r_1 is the rank of the generators' exponent matrix.  For non-abelian
    subgroups, r_2 is one less than the Z[A-bar]-rank of the module
    spanned by the generators' coordinate rows (the induced splitting's
    module contains the abelianization ideal as a rank-1 layer on top of
    the derived part).  Abelian subgroups get the length-1 answer (r_1).
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    group = free_solvable_group(m, 2)
    elements = [normalize(m, 2, w) for w in generators]
    # Each element's split matrix over S(m, 1) = Z^m carries the
    # generator's exponent vector (its top) and its coordinate row.
    lattice = hermite_basis([e.body.top.body for e in elements])
    r1 = len(lattice)
    if r1 == 0:
        raise ValueError("trivial image: generators die in the abelianization")
    abelian = all(
        group.commutator(a, b).is_trivial()
        for i, a in enumerate(elements)
        for b in elements[i + 1 :]
    )
    if abelian:
        return PrincipalDimension((r1,))
    rows = [e.body.coords for e in elements]
    module_rank = coset_rank(rows, lattice)
    return PrincipalDimension((r1, module_rank - 1))


def closed_form_dimension(family: str, m: int, n: int) -> PrincipalDimension:
    """Known principal dimensions of the standard families.

    free_solvable: r(S(m, n)) = (m, m-1, ..., m-1) with n entries (the
    splitting module at each level is free of rank m, so each derived
    factor has rank m-1).  wreath: r(W(m, n)) = (m, ..., m) with n+1
    entries (each level contributes a free rank-m module).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    free_solvable_group(m, n)  # the class and rank caps
    if family in ("free_solvable", "free-solvable"):
        if n == 1:
            return PrincipalDimension((m,))
        return PrincipalDimension((m,) + (m - 1,) * (n - 1))
    if family == "wreath":
        return PrincipalDimension((m,) * (n + 1))
    raise ValueError(f"unknown family {family!r}")
