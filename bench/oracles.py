"""Output checks, run outside the timed region.

Each check recomputes the answer by a route other than the one the
command took: exponent sums and augmentations for canonical forms,
closed forms for `x1^k`, the sigma identity, Fraction elimination and
determinantal divisors for Smith ranks, evaluation modulo a prime for
Laurent ranks, substitution of ball words for `solve`.  Where a check
needs a canonical form it asks the library for one at a lower class or
for a whole word, never for the product the command computed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Any, Callable

from ops import Word, inverse

PRIME = 2_147_483_647


def check_output(op_check: tuple[Any, ...], stdout: str, latency_s: float) -> str | None:
    """None if the output is right, else what is wrong with it."""
    if not op_check:
        return None
    kind, *payload = op_check
    if kind == "empty":
        return None if stdout == "" else "expected no output"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as error:
        return f"output is not JSON: {error}"
    return CHECKS[kind](out, *payload, latency_s=latency_s)


# -- canonical forms -------------------------------------------------------


def exponent_sums(word: Word, m: int) -> list[int]:
    sums = [0] * m
    for letter in word:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return sums


def _element_json(m: int, n: int, word: Word) -> Any:
    from rigidsolv.free_solvable import normalize

    return normalize(m, n, word).to_json()


def _matrix_errors(body: Any, m: int, n: int, word: Word) -> str | None:
    """Top and coordinate row of a word's split matrix over S(m, n-1).

    The augmentation of the i-th Fox derivative is the exponent sum of
    x_i, and the top is the word's image one class down.
    """
    sums = exponent_sums(word, m)
    augmentations = [sum(t["coeff"] for t in coord) for coord in body["coords"]]
    if augmentations != sums:
        return f"coordinate augmentations {augmentations} != exponent sums {sums}"
    top = body["top"]
    expected = ({"m": m, "n": 1, "body": sums} if n == 2
                else _element_json(m, n - 1, word))
    if top != expected:
        return "top differs from the word's image in S(m, n-1)"
    return None


def _check_element(out: Any, m: int, n: int, word: Word, **_: Any) -> str | None:
    if (out["m"], out["n"]) != (m, n):
        return f"group S({out['m']},{out['n']}) != S({m},{n})"
    return _matrix_errors(out["body"], m, n, word)


def _check_matrix(out: Any, m: int, n: int, word: Word, **_: Any) -> str | None:
    return _matrix_errors(out, m, n, word)


def _check_power_x1(out: Any, k: int, **_: Any) -> str | None:
    """x1^k in S(2,2): top b1^k, d1 = 1 + b1 + ... + b1^(k-1), d2 = 0."""
    body = out["body"]
    if body["top"] != {"m": 2, "n": 1, "body": [k, 0]}:
        return "top of x1^k is not b1^k"
    d1 = sorted((t["coeff"], t["element"]["body"]) for t in body["coords"][0])
    if d1 != [(1, [j, 0]) for j in range(k)] or body["coords"][1]:
        return "coordinate row of x1^k is not (1 + b1 + ... + b1^(k-1), 0)"
    return None


def _terms(ring: list[dict[str, Any]]) -> list[tuple[int, str]]:
    return sorted((t["coeff"], json.dumps(t["element"], sort_keys=True)) for t in ring)


def _check_sigma(out: Any, m: int, n: int, word: Word, **_: Any) -> str | None:
    """sigma(d(w)) = w-bar - 1 in Z[S(m, n-1)]."""
    if n == 2:
        bar = {"m": m, "n": 1, "body": exponent_sums(word, m)}
    else:
        bar = _element_json(m, n - 1, word)
    one = _element_json(m, n - 1, ())
    expected = [] if bar == one else [{"coeff": 1, "element": bar},
                                      {"coeff": -1, "element": one}]
    return None if _terms(out) == _terms(expected) else "sigma(w) != w-bar - 1"


def _check_wreath(out: Any, m: int, n: int, word: Word, **_: Any) -> str | None:
    """The base function sums to the exponent vector; at n = 2 the top
    is that vector too."""
    label = " wr ".join([f"Z^{m}"] * n)
    if out["codomain"] != label:
        return f"codomain {out['codomain']!r} != {label!r}"
    element = out["element"]
    if element["level"] != n - 1:
        return f"level {element['level']} != {n - 1}"
    sums = exponent_sums(word, m)
    total = [sum(entry["vec"][i] for entry in element["base"]) for i in range(m)]
    if total != sums:
        return f"base function sums to {total}, exponent sums are {sums}"
    if n == 2 and element["top"] != sums:
        return "top is not the exponent vector"
    return None


def _check_project(out: Any, m: int, n: int, k: int, word: Word, **_: Any) -> str | None:
    expected = ({"m": m, "n": 1, "body": exponent_sums(word, m)} if k == 1
                else _element_json(m, k, word))
    return None if out == expected else f"projection differs from normalizing at class {k}"


def _check_member(out: Any, m: int, n: int, i: int, word: Word, **_: Any) -> str | None:
    """w is in G_i iff its image in S(m, i-1) is trivial; for i = 2 that
    is a zero exponent vector."""
    from rigidsolv.free_solvable import normalize

    if i == 2:
        expected = not any(exponent_sums(word, m))
    else:
        expected = normalize(m, i - 1, word).is_trivial()
    return None if out["member"] is expected else f"member is {out['member']}, expected {expected}"


def _check_product(out: Any, m: int, n: int, word: Word, **_: Any) -> str | None:
    """A product of canonical forms equals the canonical form of the
    concatenated word."""
    if out != _element_json(m, n, word):
        return "product differs from the normal form of the concatenated word"
    if not word and any(out["body"]["coords"]):
        return "w * w^-1 is not trivial"
    return None


# -- matrices --------------------------------------------------------------


def rank_over_q(matrix: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def determinant(matrix: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return int(det)


def _check_smith(out: Any, matrix: list[list[int]], **_: Any) -> str | None:
    """Rank over Q, and the product of the first r invariant factors is
    the gcd of the r x r minors (the r-th determinantal divisor)."""
    rank = rank_over_q(matrix)
    factors = out["invariant_factors"]
    if out["rank"] != rank or len(factors) != rank:
        return f"rank {out['rank']} ({len(factors)} factors), expected {rank}"
    if any(f <= 0 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return f"invariant factors {factors} are not a positive divisor chain"
    divisor = 0
    for rows in itertools.combinations(range(len(matrix)), rank):
        for cols in itertools.combinations(range(len(matrix[0])), rank):
            divisor = math.gcd(divisor, determinant([[matrix[r][c] for c in cols]
                                                     for r in rows]))
    if math.prod(factors) != divisor:
        return f"product of invariant factors {math.prod(factors)} != {divisor}"
    return None


def rank_mod_p(rows: list[list[int]]) -> int:
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % PRIME), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], PRIME - 2, PRIME)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv % PRIME
            rows[r] = [(a - factor * b) % PRIME for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def laurent_rank_lower_bound(matrix: dict[str, Any], points: int = 3) -> int:
    """Rank at random points modulo a prime never exceeds the rank over
    the fraction field, so the largest value seen is a lower bound."""
    rng = random.Random(0)
    nvars = matrix["nvars"]
    best = 0
    for _ in range(points):
        values = [rng.randrange(2, PRIME - 1) for _ in range(nvars)]
        evaluated = [
            [
                sum(term["num"] * math.prod(pow(v, e, PRIME) for v, e in zip(values, term["exps"]))
                    for term in entry) % PRIME
                for entry in row
            ]
            for row in matrix["rows"]
        ]
        best = max(best, rank_mod_p(evaluated))
    return best


def _check_laurent(out: Any, matrix: dict[str, Any], rank_at_most: int, **_: Any) -> str | None:
    """The bound certifies the rank when it meets the construction's
    upper bound, which it does for every matrix in the workloads."""
    bound = laurent_rank_lower_bound(matrix)
    if not bound <= out["rank"] <= rank_at_most:
        return f"rank {out['rank']} outside [{bound}, {rank_at_most}]"
    return None


def _check_pdim(out: Any, m: int, gens: list[Word], **_: Any) -> str | None:
    """r_1 is the rank of the generators' exponent-sum matrix."""
    values = out["dimension"]
    r1 = rank_over_q([exponent_sums(g, m) for g in gens])
    if values[0] != r1 or len(values) not in (1, 2) or min(values) < 0:
        return f"dimension {values}, expected r_1 = {r1} and length 1 or 2"
    return None


def _check_family(out: Any, family: str, m: int, n: int, **_: Any) -> str | None:
    expected = [m] * (n + 1) if family == "wreath" else [m] + [m - 1] * (n - 1)
    return None if out["dimension"] == expected else f"{out['dimension']} != {expected}"


# -- solve and verify ------------------------------------------------------


def ball_words(m: int, n: int, radius: int) -> dict[str, Word]:
    """Canonical form (as JSON text) of every reduced word up to radius."""
    out: dict[str, Word] = {}
    frontier: list[Word] = [()]
    letters = [s * i for i in range(1, m + 1) for s in (1, -1)]
    for length in range(radius + 1):
        for word in frontier:
            out.setdefault(json.dumps(_element_json(m, n, word), sort_keys=True), word)
        if length < radius:
            frontier = [w + (x,) for w in frontier for x in letters if not w or w[-1] != -x]
    return out


def substitute(equation: str, m: int, values: tuple[Word, ...]) -> Word:
    from rigidsolv.words import parse_letters

    word: list[int] = []
    for letter in parse_letters(equation, ngens=m):
        if isinstance(letter, int):
            word.append(letter)
        else:
            value = values[letter.index - 1]
            word.extend(value if letter.sign > 0 else inverse(value))
    return tuple(word)


def _check_solve(out: Any, m: int, n: int, radius: int, equations: tuple[str, ...],
                 solutions: tuple[Any, ...], **_: Any) -> str | None:
    """Every returned assignment lies in the ball and solves the system
    when substituted as words; the known solutions are all present."""
    from rigidsolv.free_solvable import normalize
    from rigidsolv.words import VarLetter, parse_letters

    nvars = max(letter.index for e in equations for letter in parse_letters(e, ngens=m)
                if isinstance(letter, VarLetter))
    if out["params"] != {"m": m, "n": n, "radius": radius, "nvars": nvars}:
        return f"params {out['params']}"
    if out["count"] != len(out["assignments"]):
        return "count differs from the number of assignments"
    ball = ball_words(m, n, radius)
    found = set()
    for assignment in out["assignments"]:
        keys = tuple(json.dumps(e, sort_keys=True) for e in assignment)
        if keys in found:
            return "duplicate assignment"
        found.add(keys)
        if any(k not in ball for k in keys):
            return "assignment outside the ball"
        values = tuple(ball[k] for k in keys)
        for equation in equations:
            if not normalize(m, n, substitute(equation, m, values)).is_trivial():
                return f"assignment {values} does not solve {equation!r}"
    required = [((),) * nvars]
    for known in solutions:
        if known == "diagonal":
            required += [(w,) * nvars for w in ball.values()]
        else:
            required.append(known)
    for values in required:
        keys = tuple(json.dumps(_element_json(m, n, w), sort_keys=True) for w in values)
        if keys not in found:
            return f"known solution {values} missing"
    return None


def _check_verify(out: Any, check: str, *, latency_s: float) -> str | None:
    """The report passes, and the elapsed time it reports fits inside
    the benchmark's own timing of the same call."""
    if not out["passed"] or [c["name"] for c in out["checks"]] != [check]:
        return "verify did not pass"
    elapsed = out["checks"][0]["elapsed"]
    if not 0 <= elapsed <= latency_s:
        return f"reported elapsed {elapsed} s outside the op's {latency_s:.6f} s"
    return None


CHECKS: dict[str, Callable[..., str | None]] = {
    "element": _check_element,
    "matrix": _check_matrix,
    "power_x1": _check_power_x1,
    "sigma": _check_sigma,
    "wreath": _check_wreath,
    "project": _check_project,
    "member": _check_member,
    "product": _check_product,
    "smith": _check_smith,
    "laurent": _check_laurent,
    "pdim": _check_pdim,
    "family": _check_family,
    "solve": _check_solve,
    "verify": _check_verify,
}
