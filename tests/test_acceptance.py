"""Acceptance suite: one test per criterion, exact tolerances, stated
time budgets.  Each test prints a PASS line on success (pytest -s shows
them; failures raise with full context)."""

import itertools
import json
import random
import time

from conftest import (
    minor_rank_int,
    minor_rank_laurent,
    wreath_inv,
    wreath_mul,
    wreath_value,
)

from rigidsolv.equations import MixedWord, solve_ball
from rigidsolv.group_ring import RingElement
from rigidsolv.free_solvable import (
    ball_enumerate,
    free_solvable_group,
    normalize,
    project,
    series_member_commutator,
    series_member_projection,
    standard_witnesses,
)
from rigidsolv.linalg import (
    LaurentPoly,
    closed_form_dimension,
    laurent_rank,
    lex_compare,
    principal_dimension_metabelian,
    smith_rank,
)
from rigidsolv.magnus import eval_word, sigma
from rigidsolv.verify import check_lex_drop, module_action, random_word
from rigidsolv.words import commutator, parse_word
from rigidsolv.wreath import embed_free_solvable, matrix_to_function


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_word_problem_consistency():
    start = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for n in (2, 3):
        base = free_solvable_group(2, n - 1)
        for _ in range(500):
            u = random_word(rng, 2, 10)
            v = random_word(rng, 2, 10)
            if eval_word(u + v, base) != eval_word(u, base) * eval_word(v, base):
                failures += 1
            p = eval_word(u, base)
            if not (p * p.inv()).is_trivial():
                failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(1, f"500 word pairs in S(2,2) and S(2,3), 0 failures, {elapsed:.1f}s")


def test_criterion_2_sigma_identity():
    rng = random.Random(102)
    failures = 0
    for n in (2, 3):
        base = free_solvable_group(2, n - 1)
        for _ in range(250):
            w = random_word(rng, 2, 10)
            p = eval_word(w, base)
            expected = RingElement.monomial(base, p.top) - RingElement.one(base)
            if sigma(p) != expected:
                failures += 1
    assert failures == 0
    report(2, "sigma(d(w)) = w-bar - 1 exactly on 500 random words, 0 failures")


def test_criterion_3_commutator_pin():
    e = normalize(2, 2, parse_word("[x1,x2]"))
    base = free_solvable_group(2, 1)
    assert e.body.top.is_trivial()
    b1 = RingElement.monomial(base, base.generator(1))
    b2 = RingElement.monomial(base, base.generator(2))
    one = RingElement.one(base)
    assert e.body.coords == (b2 - one, one - b1)
    report(3, "normalize(2,2,[x1,x2]) = (top 1, coords (b2-1, 1-b1)) exactly")


def test_criterion_4_series_criteria_agreement():
    start = time.perf_counter()
    rng = random.Random(104)
    witnesses = standard_witnesses(2, 3)
    disagreements = 0
    for _ in range(100):
        e = normalize(2, 3, random_word(rng, 2, 10))
        for i in (1, 2, 3):
            if series_member_projection(e, i) != series_member_commutator(
                e, i, witnesses[i - 1 :]
            ):
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(4, f"membership criteria agree on 100 words x i in 1..3, {elapsed:.1f}s")


def test_criterion_5_no_torsion():
    rng = random.Random(105)
    failures = 0
    base = free_solvable_group(2, 1)
    for _ in range(200):
        # random nontrivial c in the derived subgroup of S(2,2)
        while True:
            c = normalize(
                2, 2, commutator(random_word(rng, 2, 6), random_word(rng, 2, 6))
            )
            if not c.is_trivial():
                break
        # random nonzero u over Z[S(2,1)] with tracked lifts
        while True:
            terms, lifts = [], {}
            for _ in range(rng.randint(1, 3)):
                word = random_word(rng, 2, 4)
                element = normalize(2, 1, word)
                terms.append((element, rng.choice([-2, -1, 1, 2])))
                lifts[element.key()] = normalize(2, 2, word)
            ring_elt = RingElement.from_terms(base, terms)
            if not ring_elt.is_zero():
                break
        if module_action(c, ring_elt, lifts).is_trivial():
            failures += 1
    assert failures == 0
    report(5, "c^u nontrivial for 200 random (c, u), c in G_2\\{1}, u != 0")


def test_criterion_6_principal_dimension_and_lex_drop():
    computed = principal_dimension_metabelian([(1,), (2,)], 2)
    assert computed.values == (2, 1)
    assert closed_form_dimension("free_solvable", 2, 2) == computed
    target = closed_form_dimension("wreath", 1, 1)
    assert target.values == (1, 1)
    assert lex_compare(computed, target) == 1
    # the concrete proper epimorphism onto Z wr Z
    drop = check_lex_drop()
    assert drop.passed, drop.failures
    report(6, "r(S(2,2)) = (2,1) both routes, r(Z wr Z) = (1,1), lex drop holds")


def test_criterion_7_rank_bounds():
    rng = random.Random(107)
    tested = 0
    violations = 0
    while tested < 50:
        m = rng.choice([2, 3])
        k = rng.randint(2, 3)
        generators = [random_word(rng, m, 6) for _ in range(k)]
        try:
            dim = principal_dimension_metabelian(generators, m)
        except ValueError:
            continue
        if dim.length != 2:
            continue
        tested += 1
        r1, r2 = dim.values
        if r1 > k or r2 > k - 1:
            violations += 1
    assert violations == 0
    report(7, "50 random non-abelian subgroups satisfy r1 <= #gens, r2 <= #gens-1")


def test_criterion_8_centralizer_equals_derived_subgroup():
    start = time.perf_counter()
    sol = solve_ball([MixedWord.parse("[$1, [x1,x2]]")], 2, 2, 4)
    # independent double enumeration: filter the ball by abelianization
    expected = sorted(
        ((e,) for e, _ in ball_enumerate(2, 2, 4) if project(e, 1).is_trivial()),
        key=lambda a: a[0].key(),
    )
    elapsed = time.perf_counter() - start
    assert sol.assignments == tuple(expected)
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    report(
        8,
        f"ball-4 solutions of [x, c] = 1 are exactly the {len(expected)} "
        f"derived-subgroup members, {elapsed:.1f}s",
    )


def test_criterion_9_wreath_consistency():
    rng = random.Random(109)
    base = free_solvable_group(2, 1)
    # x_i -> [[b_i, 0], [t_i, 1]] is the delta e_i at the identity on top b_i
    images = [((1, 0), frozenset({((0, 0), (1, 0))})),
              ((0, 1), frozenset({((0, 0), (0, 1))}))]
    failures = 0
    for _ in range(200):
        word = random_word(rng, 2, 8)
        p = eval_word(word, base)
        function = frozenset(
            (point.body, vec) for point, vec in matrix_to_function(p).values()
        )
        expected = ((0, 0), frozenset())
        for letter in word:
            g = images[abs(letter) - 1]
            expected = wreath_mul(expected, g if letter > 0 else wreath_inv(g))
        if (p.top.body, function) != expected:
            failures += 1

    def image(e):
        return wreath_value(json.loads(embed_free_solvable(e, as_json=True)))

    for _ in range(200):
        u = normalize(2, 2, random_word(rng, 2, 8))
        v = normalize(2, 2, random_word(rng, 2, 8))
        if image(u * v) != wreath_mul(image(u), image(v)):
            failures += 1
    assert failures == 0
    report(9, "200 matrix->function reads and 200 multiplicative embeds")


def test_criterion_10_linear_algebra_oracles():
    # exhaustive small sizes over {-1,0,1}: every minor checked
    for rows, cols in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        for flat in itertools.product((-1, 0, 1), repeat=rows * cols):
            matrix = [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)]
            assert smith_rank(matrix)[0] == minor_rank_int(matrix)
    # sizes through 4x4 with small entries, seeded
    rng = random.Random(110)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        rank = minor_rank_int(matrix)
        assert smith_rank(matrix)[0] == rank
        embedded = [[LaurentPoly.const(1, x) for x in row] for row in matrix]
        assert laurent_rank(embedded) == rank
    # laurent matrices against the exhaustive minor determinant oracle
    for _ in range(150):
        nvars = rng.randint(1, 2)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                poly = LaurentPoly.zero(nvars)
                for _ in range(rng.randint(0, 3)):
                    exps = tuple(rng.randint(-2, 2) for _ in range(nvars))
                    poly = poly + LaurentPoly.monomial(nvars, exps, rng.randint(-2, 2))
                row.append(poly)
            matrix.append(row)
        assert laurent_rank(matrix) == minor_rank_laurent(matrix)
    report(10, "smith/laurent rank match the brute-force minor oracle exactly")
