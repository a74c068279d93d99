import random

import pytest

from conftest import S3, S4, eval_perm_word, perm_identity

from rigidsolv.errors import CapExceededError
from rigidsolv.group_ring import RingElement
from rigidsolv.free_solvable import (
    ball_enumerate,
    free_solvable_group,
    normalize,
    project,
    series_member_commutator,
    series_member_projection,
    standard_witnesses,
    witness_words,
)
from rigidsolv.verify import module_action, random_word
from rigidsolv.words import commutator, conjugate, free_reduce, parse_word

C = parse_word("[x1,x2]")


# -- normalize -----------------------------------------------------------------


def test_normalize_abelianization():
    assert normalize(2, 1, (1, 2, -1)).body == (0, 1)


def test_normalize_commutator_pin():
    e = normalize(2, 2, C)
    base = free_solvable_group(2, 1)
    assert e.body.top.is_trivial()
    b1 = RingElement.monomial(base, normalize(2, 1, (1,)))
    b2 = RingElement.monomial(base, normalize(2, 1, (2,)))
    one = RingElement.one(base)
    assert e.body.coords == (b2 - one, one - b1)


def test_normalize_self_commutator_trivial():
    w = commutator(C, C)
    assert normalize(2, 2, w).is_trivial()


def test_normalize_class_zero():
    assert normalize(3, 0, (1, 2, 3)).is_trivial()


def test_normalize_bad_generator_index():
    with pytest.raises(ValueError):
        normalize(2, 2, (3,))
    with pytest.raises(ValueError):
        normalize(2, 1, (0,))


def test_word_problem_separates_words():
    # x1 x2 and x2 x1 differ in S(2,2) but agree in S(2,1)
    assert normalize(2, 2, (1, 2)) != normalize(2, 2, (2, 1))
    assert normalize(2, 1, (1, 2)) == normalize(2, 1, (2, 1))


# -- is_trivial ------------------------------------------------------------------


def test_trivial_ww_inverse_pattern():
    w = parse_word("x1 x2 X1 X2 x2 x1 X2 X1")
    assert normalize(2, 2, w).is_trivial()


def test_commutator_nontrivial():
    assert not normalize(2, 2, C).is_trivial()


def test_depth_discriminating_word():
    w = parse_word("[[x1,x2],[x1,x2]^{x1}]")
    assert normalize(2, 2, w).is_trivial()
    assert not normalize(2, 3, w).is_trivial()
    # independent certificate: a nontrivial image in S_4 (derived length 3)
    # proves the word survives three derived steps
    images = ((0, 2, 3, 1), (1, 0, 2, 3))
    assert eval_perm_word(w, images) != perm_identity(4)


def test_triviality_soundness_against_finite_solvable_images():
    # whatever normalize kills must die in every solvable image of the
    # same class: S_3 for class 2, S_4 for class 3
    rng = random.Random(0)
    for n, group in ((2, S3), (3, S4)):
        identity = perm_identity(len(group[0]))
        count = 0
        for _ in range(200):
            w = random_word(rng, 2, 8)
            if not normalize(2, n, w).is_trivial():
                continue
            count += 1
            for _ in range(10):
                images = [rng.choice(group) for _ in range(2)]
                assert eval_perm_word(w, images) == identity
        # make sure the loop exercised some trivial words
        assert count >= 1 or n == 3


def test_triviality_sound_on_constructed_trivial_words():
    rng = random.Random(1)
    for _ in range(20):
        u = random_word(rng, 2, 5)
        v = random_word(rng, 2, 5)
        w = commutator(commutator(u, v), commutator(v, u))
        assert normalize(2, 2, w).is_trivial()


# -- project ----------------------------------------------------------------------


def test_project_commutator_dies_in_abelianization():
    e = normalize(2, 2, C)
    assert project(e, 1).body == (0, 0)


def test_project_generator_image():
    e = normalize(2, 3, (1,))
    assert project(e, 1).body == (1, 0)


def test_project_identity_projection():
    rng = random.Random(2)
    for _ in range(10):
        e = normalize(2, 2, random_word(rng, 2, 6))
        assert project(e, 2) is e


def test_project_compatible_with_normalize():
    rng = random.Random(3)
    for _ in range(20):
        w = random_word(rng, 2, 8)
        assert project(normalize(2, 3, w), 2) == normalize(2, 2, w)
        assert project(normalize(2, 3, w), 1) == normalize(2, 1, w)


def test_project_range_errors():
    e = normalize(2, 2, (1,))
    with pytest.raises(ValueError):
        project(e, 3)
    with pytest.raises(ValueError):
        project(e, -1)


# -- series membership --------------------------------------------------------------


def test_member_projection_examples():
    e = normalize(2, 2, C)
    assert series_member_projection(e, 2)
    assert not series_member_projection(normalize(2, 2, (1,)), 2)
    assert series_member_projection(normalize(2, 2, (1,)), 1)


def test_member_commutator_examples():
    e = normalize(2, 2, C)
    witness = normalize(2, 2, C)
    assert series_member_commutator(e, 2, [witness])
    assert not series_member_commutator(normalize(2, 2, (1,)), 2, [witness])


def test_member_commutator_invalid_witness():
    e = normalize(2, 2, C)
    with pytest.raises(ValueError, match="invalid witness"):
        series_member_commutator(e, 2, [normalize(2, 2, (1,))])
    with pytest.raises(ValueError, match="invalid witness"):
        series_member_commutator(e, 2, [free_solvable_group(2, 2).identity()])


def test_member_range_errors():
    e = normalize(2, 2, C)
    with pytest.raises(ValueError):
        series_member_projection(e, 0)
    with pytest.raises(ValueError):
        series_member_projection(e, 4)


def test_criteria_agree_on_random_words():
    rng = random.Random(4)
    witnesses = standard_witnesses(2, 3)
    for _ in range(100):
        e = normalize(2, 3, random_word(rng, 2, 8))
        for i in (1, 2, 3, 4):
            assert series_member_projection(e, i) == series_member_commutator(
                e, i, witnesses[i - 1 :]
            )


def test_series_inclusions():
    # membership in G_i implies membership in G_{i-1}
    rng = random.Random(5)
    for _ in range(50):
        e = normalize(2, 3, random_word(rng, 2, 8))
        for i in (2, 3, 4):
            if series_member_projection(e, i):
                assert series_member_projection(e, i - 1)


def test_standard_witnesses_certify_proper_inclusions():
    for n in (1, 2, 3):
        witnesses = standard_witnesses(2, n)
        assert len(witnesses) == n
        for j, g in enumerate(witnesses, start=1):
            assert series_member_projection(g, j)
            assert not series_member_projection(g, j + 1)


def test_witness_words_shape():
    words = witness_words(2)
    assert words[0] == (1,)
    assert words[1] == commutator((1,), conjugate((1,), (2,)))


def test_witnesses_impossible_for_rank_one():
    with pytest.raises(ValueError, match="invalid witness"):
        standard_witnesses(1, 2)


# -- no-torsion sampling ----------------------------------------------------------


def test_no_torsion_c_u_nontrivial():
    base = free_solvable_group(2, 1)
    c = normalize(2, 2, C)
    u = RingElement.monomial(base, normalize(2, 1, (1,))) - RingElement.one(base)
    lifts = {
        normalize(2, 1, (1,)).key(): normalize(2, 2, (1,)),
        normalize(2, 1, ()).key(): normalize(2, 2, ()),
    }
    assert not module_action(c, u, lifts).is_trivial()


# -- ball enumeration --------------------------------------------------------------


def test_ball_rank_one():
    ball = ball_enumerate(1, 1, 2)
    assert sorted(e.body[0] for e, _ in ball) == [-2, -1, 0, 1, 2]


def test_ball_rank_two_radius_one():
    ball = ball_enumerate(2, 1, 1)
    assert len(ball) == 5


def test_ball_metabelian_radius_two():
    ball = ball_enumerate(2, 2, 2)
    assert len(ball) == 17
    # brute force: all freely reduced words of length <= 2, no collisions
    words = [()]
    letters = [1, -1, 2, -2]
    words += [(a,) for a in letters]
    words += [(a, b) for a in letters for b in letters if b != -a]
    assert len(words) == 17
    forms = {normalize(2, 2, w).key() for w in words}
    assert len(forms) == 17


def test_ball_abelian_collisions_deduplicated():
    # 17 reduced words of length <= 2 collapse to 13 points of Z^2
    assert len(ball_enumerate(2, 1, 2)) == 13


def test_ball_sorted_and_deterministic():
    ball = ball_enumerate(2, 2, 3)
    keys = [e.key() for e, _ in ball]
    assert keys == sorted(keys)
    assert keys == [e.key() for e, _ in ball_enumerate(2, 2, 3)]


def test_ball_words_are_reduced_shortest_and_normalize_to_their_element():
    for m in (1, 2, 3):
        letters = [s * i for i in range(1, m + 1) for s in (1, -1)]
        radius = 3 if m < 3 else 2
        words, layer = [()], [()]
        for _ in range(radius):
            layer = [w + (a,) for w in layer for a in letters if not w or a != -w[-1]]
            words += layer
        for n in range(5):
            # `words` runs in length order, so the first word seen for
            # each element is a shortest one.
            shortest = {}
            for w in words:
                shortest.setdefault(normalize(m, n, w).key(), len(w))
            ball = ball_enumerate(m, n, radius)
            assert len(ball) == len(shortest)
            for element, word in ball:
                assert free_reduce(word) == word
                assert len(word) == shortest[element.key()]
                assert normalize(m, n, word) == element


def test_ball_cap():
    with pytest.raises(CapExceededError, match="ball too large"):
        ball_enumerate(2, 1, 30, cap=1000)


# -- canonical form structural equality --------------------------------------------


def test_equality_is_structural():
    a = normalize(2, 2, (1, 2, -1, -2))
    b = normalize(2, 2, parse_word("[X1,X2]"))
    assert (a == b) == (a.key() == b.key())
    assert normalize(2, 2, (1, -1)) == free_solvable_group(2, 2).identity()


def test_json_mirrors_recursive_structure():
    e = normalize(2, 2, (1,))
    data = e.to_json()
    assert data["m"] == 2 and data["n"] == 2
    assert data["body"]["top"] == {"m": 2, "n": 1, "body": [1, 0]}
