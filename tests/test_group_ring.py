import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zvec

from rigidsolv.errors import AmbientMismatchError
from rigidsolv.group_ring import RingElement
from rigidsolv.free_solvable import SolvableElement, free_solvable_group, normalize

Z2 = free_solvable_group(2, 1)
ONE = RingElement.one(Z2)
B1 = RingElement.monomial(Z2, zvec(1, 0))
B2 = RingElement.monomial(Z2, zvec(0, 1))


def rand_element(rng, group=Z2, size=3, reach=2):
    terms = []
    for _ in range(rng.randint(0, size)):
        g = zvec(*(rng.randint(-reach, reach) for _ in range(2)))
        terms.append((g, rng.randint(-3, 3)))
    return RingElement.from_terms(group, terms)


# -- addition ---------------------------------------------------------------


def test_add_additive_inverse():
    assert (B1.scale(2) + B1.scale(-2)).is_zero()


def test_add_disjoint_supports():
    total = (B1 - ONE) + (B2 - ONE)
    assert total == RingElement.from_terms(
        Z2, [(zvec(1, 0), 1), (zvec(0, 1), 1), (zvec(0, 0), -2)]
    )


def test_add_cancellation_drops_key():
    total = (B1.scale(3) + B2) + (-B2)
    assert total == B1.scale(3)
    assert len(total.support) == 1


def test_add_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        B1 + RingElement.one(free_solvable_group(3, 1))


# -- multiplication ----------------------------------------------------------


def test_mul_commutative_binomial():
    b1sq = RingElement.monomial(Z2, zvec(2, 0))
    assert (B1 - ONE) * (B1 + ONE) == b1sq - ONE


def test_mul_annihilator():
    assert ((B1 + B2.scale(2)) * RingElement.zero(Z2)).is_zero()


def test_mul_expand_four_terms():
    expected = RingElement.from_terms(
        Z2, [(zvec(1, 1), 1), (zvec(1, 0), -1), (zvec(0, 1), -1), (zvec(0, 0), 1)]
    )
    assert (B1 - ONE) * (B2 - ONE) == expected


def test_mul_noncommutative_base_order_preserved():
    # over S(2,2) group elements do not commute, so gh != hg as keys
    G = free_solvable_group(2, 2)
    g = RingElement.monomial(G, normalize(2, 2, (1,)))
    h = RingElement.monomial(G, normalize(2, 2, (2,)))
    gh = g * h
    hg = h * g
    assert gh.coeff(normalize(2, 2, (1, 2))) == 1
    assert hg.coeff(normalize(2, 2, (2, 1))) == 1
    assert gh != hg


# -- translation --------------------------------------------------------------


def test_translate_identity_coefficient_moves():
    assert ONE.translate(zvec(0, 1)) == B2


def test_translate_right_shift():
    binv = RingElement.monomial(Z2, zvec(-1, 0))
    assert (B1 - ONE).translate(zvec(-1, 0)) == ONE - binv


def test_translate_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        u = rand_element(rng)
        g = zvec(*(rng.randint(-2, 2) for _ in range(2)))
        assert u.translate(g).translate(Z2.inv(g)) == u


@pytest.mark.parametrize("m", [100, 200, 400])
def test_translate_of_zero_skips_identity_check(m, monkeypatch):
    # A letter's image in S(m, 3) has m - 1 zero coordinates; translating
    # them must not pay the O(m) identity test each, or products cost m^2.
    calls = []
    is_trivial = SolvableElement.is_trivial
    monkeypatch.setattr(
        SolvableElement,
        "is_trivial",
        lambda a: calls.append(a) or is_trivial(a),
    )
    normalize(m, 3, (1,))
    assert len(calls) == 1


# -- augmentation --------------------------------------------------------------


def test_augmentation_coefficient_sum():
    assert (B1.scale(2) - B2.scale(3)).augmentation() == -1


def test_augmentation_fundamental_ideal_element():
    assert (B1 - ONE).augmentation() == 0


def test_augmentation_is_ring_homomorphism():
    rng = random.Random(1)
    for _ in range(50):
        u = rand_element(rng)
        v = rand_element(rng)
        assert (u * v).augmentation() == u.augmentation() * v.augmentation()
        assert (u + v).augmentation() == u.augmentation() + v.augmentation()


# -- ring axioms (exact equality of canonical forms) ---------------------------

small_terms = st.lists(
    st.tuples(
        st.builds(zvec, st.integers(-2, 2), st.integers(-2, 2)),
        st.integers(-3, 3),
    ),
    max_size=4,
)


@st.composite
def ring_elements(draw):
    return RingElement.from_terms(Z2, draw(small_terms))


@given(ring_elements(), ring_elements(), ring_elements())
@settings(max_examples=60, deadline=None)
def test_mul_associative_and_distributive(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


def test_associativity_noncommutative_base():
    G = free_solvable_group(2, 2)
    rng = random.Random(2)

    def sample():
        terms = []
        for _ in range(rng.randint(1, 2)):
            word = tuple(
                rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3))
            )
            terms.append((normalize(2, 2, word), rng.randint(-2, 2)))
        return RingElement.from_terms(G, terms)

    for _ in range(20):
        u, v, w = sample(), sample(), sample()
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


# -- fundamental ideal <-> augmentation zero -----------------------------------


def fundamental_ideal_combination(u):
    """u - aug(u)*1 as (g, coeff) pairs standing for sum of coeff*(g - 1)."""
    return [
        (element, coeff)
        for element, coeff in u.terms()
        if not element.is_trivial()
    ]


def test_fundamental_ideal_iff_augmentation_zero():
    rng = random.Random(3)
    for _ in range(50):
        u = rand_element(rng)
        torso = u - ONE.scale(u.augmentation())
        assert torso.augmentation() == 0
        # decompose as a combination of (g - 1) terms and rebuild
        rebuilt = RingElement.zero(Z2)
        for g, coeff in fundamental_ideal_combination(torso):
            rebuilt = rebuilt + (RingElement.monomial(Z2, g) - ONE).scale(coeff)
        assert rebuilt == torso
        # conversely, any combination of (g - 1) terms has augmentation 0
        g = zvec(*(rng.randint(-2, 2) for _ in range(2)))
        comb = (RingElement.monomial(Z2, g) - ONE) * rand_element(rng)
        assert comb.augmentation() == 0


# -- invariants: no zero coefficients, canonical iteration order ---------------


def test_no_zero_coefficients_stored():
    rng = random.Random(4)
    for _ in range(50):
        u = rand_element(rng) * rand_element(rng) + rand_element(rng)
        assert all(coeff != 0 for _, coeff in u.support.values())


def test_terms_sorted_by_canonical_key():
    rng = random.Random(5)
    for _ in range(20):
        u = rand_element(rng, size=5)
        keys = [g.key() for g, _ in u.terms()]
        assert keys == sorted(keys)


def test_zero_has_empty_support():
    assert RingElement.zero(Z2).support == {}
    assert (B1 - B1).support == {}


# -- serialization ---------------------------------------------------------------


def test_str_schema():
    assert str(RingElement.zero(Z2)) == "0"
    assert str(B2 - ONE) == "-1*(0,0) + 1*(0,1)"


def test_json_roundtrip():
    u = RingElement.from_terms(Z2, [(zvec(1, 0), 2), (zvec(0, -1), -1)])
    data = json.loads(u.json_text())
    assert data == [
        {"coeff": -1, "element": {"m": 2, "n": 1, "body": [0, -1]}},
        {"coeff": 2, "element": {"m": 2, "n": 1, "body": [1, 0]}},
    ]
    rebuilt = RingElement.from_terms(
        Z2, [(zvec(*item["element"]["body"]), item["coeff"]) for item in data]
    )
    assert rebuilt == u
