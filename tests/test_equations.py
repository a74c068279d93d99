import itertools
import json
import random
import time

import pytest

from rigidsolv import equations
from rigidsolv.errors import CapExceededError
from rigidsolv.equations import (
    FILTER_LEVEL,
    MixedWord,
    SolutionSet,
    equivalent_on_ball,
    evaluate,
    solve_ball,
    system_arity,
    vanishes_on,
)
from rigidsolv.free_solvable import (
    ball_enumerate,
    free_solvable_group,
    normalize,
    project,
)
from rigidsolv.verify import random_word
from rigidsolv.words import VarLetter

G22 = free_solvable_group(2, 2)
CENTRALIZER_EQ = MixedWord.parse("[$1, [x1,x2]]")


# -- parsing / structure ----------------------------------------------------------


def test_mixed_word_structure():
    s = MixedWord.parse("$1 x1 x2 ($2)^-1")
    assert s.letters == (VarLetter(1, 1), 1, 2, VarLetter(2, -1))
    assert s.nvars == 2


def test_mixed_word_arity_override():
    s = MixedWord.parse("$1", nvars=3)
    assert s.nvars == 3
    with pytest.raises(ValueError, match="arity mismatch"):
        MixedWord.parse("$2", nvars=1)


def test_commutator_sugar_with_variables():
    s = MixedWord.parse("[$1, x1]")
    assert s.letters[0] == VarLetter(1, -1)


# -- evaluate ----------------------------------------------------------------------


def test_evaluate_trivial_word():
    s = MixedWord.parse("$1 ($1)^-1")
    rng = random.Random(0)
    for _ in range(10):
        a = normalize(2, 2, random_word(rng, 2, 6))
        assert evaluate(s, (a,)).is_trivial()


def test_evaluate_example_nontrivial():
    a1 = normalize(2, 2, (1,))
    assert not evaluate(CENTRALIZER_EQ, (a1,)).is_trivial()


def test_evaluate_constant_word():
    s = MixedWord.parse("x1 x2", nvars=1)
    a = normalize(2, 2, (2,))
    assert evaluate(s, (a,)) == normalize(2, 2, (1, 2))


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError, match="arity mismatch"):
        evaluate(MixedWord.parse("$2"), (normalize(2, 2, (1,)),))


def test_evaluate_homomorphic_in_each_slot():
    # substituting x -> w * w' equals evaluating with the variable split
    # into two fresh variables assigned w and w'
    rng = random.Random(1)
    s = MixedWord.parse("$1 x2 $1 X1")
    split = MixedWord.parse("$1 $2 x2 $1 $2 X1")
    for _ in range(10):
        w = normalize(2, 2, random_word(rng, 2, 5))
        w2 = normalize(2, 2, random_word(rng, 2, 5))
        assert evaluate(s, (w * w2,)) == evaluate(split, (w, w2))


# -- solve_ball ----------------------------------------------------------------------


def test_solve_x_equals_one():
    sol = solve_ball([MixedWord.parse("$1")], 2, 2, 2)
    assert len(sol) == 1
    assert sol.assignments[0][0].is_trivial()


def test_solve_empty_system_is_full_ball():
    sol = solve_ball([], 2, 2, 2, nvars=1)
    assert len(sol) == len(ball_enumerate(2, 2, 2))


def test_solve_empty_system_zero_vars():
    sol = solve_ball([], 2, 2, 2)
    assert sol.nvars == 0
    assert len(sol) == 1
    assert sol.assignments == ((),)


def test_centralizer_is_derived_subgroup():
    sol = solve_ball([CENTRALIZER_EQ], 2, 2, 4)
    expected = sorted(
        ((e,) for e, _ in ball_enumerate(2, 2, 4) if project(e, 1).is_trivial()),
        key=lambda a: a[0].key(),
    )
    assert sol.assignments == tuple(expected)
    assert len(sol) == 9


def test_solutions_sorted_and_deterministic():
    a = solve_ball([CENTRALIZER_EQ], 2, 2, 3)
    b = solve_ball([CENTRALIZER_EQ], 2, 2, 3)
    assert a == b
    keys = a.keys()
    assert keys == sorted(keys)


def test_monotonicity_under_adding_equations():
    rng = random.Random(2)
    for _ in range(5):
        extra = MixedWord.parse("$1 x1 ($1)^-1 X1")
        small = solve_ball([CENTRALIZER_EQ, extra], 2, 2, 3)
        big = solve_ball([CENTRALIZER_EQ], 2, 2, 3)
        assert set(small.keys()) <= set(big.keys())


def test_solve_search_cap():
    with pytest.raises(CapExceededError, match="search space too large"):
        solve_ball([MixedWord.parse("$1 $2")], 2, 2, 4, assignment_cap=100)


@pytest.mark.parametrize("equation,radius", [("$9999999999", 1), ("$101", 0)])
def test_solve_search_cap_before_power(equation, radius):
    # Huge variable counts are refused before ball_size ** nvars is formed.
    with pytest.raises(CapExceededError, match="search space too large"):
        solve_ball([MixedWord.parse(equation)], 2, 2, radius, assignment_cap=100)


def test_solve_declared_arity_too_small():
    with pytest.raises(ValueError, match="arity mismatch"):
        solve_ball([MixedWord.parse("$2")], 2, 2, 2, nvars=1)


def reference_solve(system, m, n, radius, nvars=None):
    """The exhaustive loop `solve_ball` ran before the fingerprint
    filter: every tuple of the ball product, evaluated exactly."""
    if nvars is None:
        nvars = system_arity(system)
    group = free_solvable_group(m, n)
    ball = [e for e, _ in ball_enumerate(m, n, radius)]
    solutions = [
        assignment
        for assignment in itertools.product(ball, repeat=nvars)
        if all(evaluate(s, assignment, group).is_trivial() for s in system)
    ]
    solutions.sort(key=lambda a: tuple(e.key() for e in a))
    return SolutionSet(m, n, radius, nvars, tuple(solutions))


SWEEP = [
    # (m, n, radius, equations, nvars)
    (2, 2, 3, ["[$1, x1 x2]"], None),
    (2, 3, 3, ["$1 x1 x2 ($1)^-1 X2 X1"], None),
    (2, 2, 3, ["[$1^2, x1]"], None),
    (2, 3, 2, ["$1^-1 $2^-1 x1 $1 $2 X1"], None),
    (2, 2, 2, ["$2 $1 x1 ($1)^-1 $2^-1 X1"], None),
    (2, 2, 2, ["$2 $1 x1 ($1)^-1 X2"], None),
    (2, 3, 2, ["$2 x1 $1^-1 x2 $1 X2"], None),
    (2, 2, 2, ["[$1, x1]"], 2),
    (2, 2, 1, ["[$2, x2]"], 3),
    (2, 2, 2, ["[x1, x1]", "[$1, x2]"], None),
    (2, 2, 2, ["[x1, x2]", "$1"], None),
    (2, 2, 1, ["x1 X1"], 0),
    (2, 2, 1, ["x1"], 0),
    (2, 2, 1, ["x1"], 1),
    (2, 2, 2, [], 0),
    (2, 2, 2, [], 1),
    (2, 2, 1, [], 2),
    (2, 2, 1, ["[$1,$2]", "[$2,$3]"], None),
    (2, 2, 2, ["[$1,$2] x1 X1", "$3 $3 $1^-1"], None),
    (3, 2, 1, ["[$1,$2]"], None),
    (1, 3, 3, ["$1 $1 X1 X1"], None),
    (2, 0, 2, ["[$1,$2]"], None),
    (2, 0, 1, ["$1 x1"], None),
    (2, 1, 2, ["[$1,$2]"], None),
    (2, 1, 2, ["$1 $2 X1"], None),
    # The level-3 fingerprint misses most of the third derived subgroup,
    # so here the exact check rejects tuples the filter let through.
    (2, 3, 2, ["[[$1,x1],[$2,x2]]"], None),
    (2, 3, 4, ["[$1,[x1,x2]]"], None),
    (2, FILTER_LEVEL, 2, ["[[$1,$2],[x1,x2]]"], None),
    (2, FILTER_LEVEL + 1, 2, ["[$1,$2]"], None),
    (2, FILTER_LEVEL + 1, 3, ["[$1, [x1,x2]]"], None),
    (2, FILTER_LEVEL + 1, 2, ["[[$1,x1],[x2,x1]]"], None),
    # The letters before the first occurrence of the variable being bound
    # are fixed while it is bound, so they are folded into the target.
    (2, 2, 2, ["x1 $1 $2 $1^-1 $2^-1 X1"], None),
    (2, 3, 2, ["$1 $2 $1^-1 $2^-1"], None),
    (2, 2, 1, ["$3 $1 $3^-1 $2"], None),
    (2, 3, 1, ["$1 x1 $2 $3 $2^-1 $3^-1 X1 $1^-1"], None),
    (2, FILTER_LEVEL + 1, 2, ["x1 $1 $2 $1^-1 $2^-1 X1"], None),
    (2, FILTER_LEVEL + 1, 1, ["$3 $1 $3^-1 $2"], None),
    (2, FILTER_LEVEL + 1, 2, ["$1 x2 $2 X2 $1^-1 $2^-1", "x1 $1 X1 $1^-1"], None),
]


@pytest.mark.parametrize("m,n,radius,equations,nvars", SWEEP)
def test_solve_matches_exhaustive_reference(m, n, radius, equations, nvars):
    system = [MixedWord.parse(e, ngens=m) for e in equations]
    got = solve_ball(system, m, n, radius, nvars=nvars)
    assert got.json_text() == reference_solve(system, m, n, radius, nvars).json_text()


@pytest.mark.parametrize("n,count", [(2, 25), (3, 17)])
def test_survivors_that_are_not_freely_trivial_are_normalized(monkeypatch, n, count):
    # [[x,y],[x,y]^x] is no identity of the free group, so some survivors
    # of the filter have substituted words that do not freely reduce to
    # the empty word; only those reach `normalize`.
    calls = []

    def counted(m, n, word):
        calls.append(word)
        return normalize(m, n, word)

    system = [MixedWord.parse("[[$1,$2],[$1,$2]^$1]")]
    monkeypatch.setattr(equations, "normalize", counted)
    got = solve_ball(system, 2, n, 1)
    monkeypatch.undo()
    assert calls and all(calls)
    assert len(got) == count
    assert got.json_text() == reference_solve(system, 2, n, 1).json_text()


@pytest.mark.parametrize("equation,n,radius,count,bound", [
    # 8.2 s and 0.34 s when survivors were confirmed by products of
    # canonical forms.
    ("[[[$1,x1],[$2,x2]],x1]", 6, 2, 161, 1.0),
    ("[$1,$2]", 12, 1, 17, 0.1),
])
def test_confirmation_cost(equation, n, radius, count, bound):
    system = [MixedWord.parse(equation)]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = solve_ball(system, 2, n, radius)
        times.append(time.perf_counter() - start)
    assert len(got) == count
    assert min(times) < bound


# -- vanishes_on ------------------------------------------------------------------------


def test_vanishes_definitional():
    sol = solve_ball([CENTRALIZER_EQ], 2, 2, 4)
    assert vanishes_on(CENTRALIZER_EQ, sol)


def test_vanishes_powers_stay_in_centralizer():
    sol = solve_ball([CENTRALIZER_EQ], 2, 2, 4)
    squared = MixedWord.parse("[$1 $1, [x1,x2]]")
    assert vanishes_on(squared, sol)


def test_vanishes_false_on_full_ball():
    sol = solve_ball([], 2, 2, 1, nvars=1)
    assert not vanishes_on(MixedWord.parse("$1"), sol)


def test_vanishes_arity_mismatch():
    sol = solve_ball([MixedWord.parse("$1")], 2, 2, 1)
    with pytest.raises(ValueError, match="arity mismatch"):
        vanishes_on(MixedWord.parse("$2"), sol)


# -- equivalent_on_ball --------------------------------------------------------------------


def test_equivalent_adding_trivially_true_equation():
    s = [MixedWord.parse("$1")]
    t = s + [MixedWord.parse("$1 x1 X1 ($1)^-1")]
    assert equivalent_on_ball(s, t, 2, 2, 2)


def test_equivalent_x_and_x_squared_torsion_free():
    assert equivalent_on_ball(
        [MixedWord.parse("$1")], [MixedWord.parse("$1 $1")], 2, 2, 3
    )


def test_not_equivalent_to_empty_system():
    assert not equivalent_on_ball([MixedWord.parse("$1")], [], 2, 2, 1)


# -- serialization ------------------------------------------------------------------------


def test_solution_set_json_schema():
    sol = solve_ball([MixedWord.parse("$1")], 2, 2, 1)
    data = json.loads(sol.json_text())
    assert data["params"] == {"m": 2, "n": 2, "radius": 1, "nvars": 1}
    assert data["count"] == 1
    assert len(data["assignments"]) == 1


def test_system_arity():
    assert system_arity([]) == 0
    assert system_arity([MixedWord.parse("$3 x1")]) == 3


def test_search_depth_is_not_bounded_by_the_call_stack():
    # Radius 0 keeps the search space at one assignment however many
    # variables occur, so only the search's own bookkeeping can fail.
    word = MixedWord.parse(" ".join(f"${i}" for i in range(1, 1501)))
    sol = solve_ball([word], 2, 2, 0)
    assert len(sol) == 1 and sol.nvars == 1500
    assert all(e.is_trivial() for e in sol.assignments[0])
