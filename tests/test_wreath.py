import json
import random

import pytest

from conftest import zvec

from rigidsolv.errors import AmbientMismatchError
from rigidsolv.group_ring import RingElement
from rigidsolv.magnus import SplitMatrix, eval_word
from rigidsolv.free_solvable import free_solvable_group, normalize
from rigidsolv.verify import random_word
from rigidsolv.words import parse_word
from rigidsolv import wreath
from rigidsolv.wreath import (
    embed_free_solvable,
    embedding_codomain,
    iterated_wreath,
    matrix_to_function,
)

ZZ = iterated_wreath(1, 1)  # Z wr Z


# -- reference: the base-function product the split-matrix view replaced ------


def reference_mul(top_group, a, b):
    """(f, a) * (g, b) = (f.b + g, ab) on (base, top) pairs, translating
    the left base function by the right top: (f.b)(x) = f(x b^-1)."""
    (a_base, a_top), (b_base, b_top) = a, b
    base = {}
    for element, vec in a_base.values():
        shifted = top_group.mul(element, b_top)
        base[shifted.key()] = (shifted, vec)
    for key, (element, vec) in b_base.items():
        if key in base:
            total = tuple(x + y for x, y in zip(base[key][1], vec))
            if any(total):
                base[key] = (element, total)
            else:
                del base[key]
        else:
            base[key] = (element, vec)
    return base, top_group.mul(a_top, b_top)


def reference_inv(top_group, a):
    """(f, a)^-1 = (-(f.a^-1), a^-1)."""
    base, top = a
    top_inv = top_group.inv(top)
    out = {}
    for element, vec in base.values():
        shifted = top_group.mul(element, top_inv)
        out[shifted.key()] = (shifted, tuple(-x for x in vec))
    return out, top_inv


def reference_function_to_matrix(w):
    """Rebuild the split matrix from the base function, slot by slot."""
    top_group = w.product.top_group
    coords = []
    for slot in range(w.product.m):
        terms = [(element, vec[slot]) for element, vec in w.base.values() if vec[slot]]
        coords.append(RingElement.from_terms(top_group, terms))
    return SplitMatrix(top_group, w.top, coords)


def function_values(pair):
    """A (base, top) pair as comparable plain data: vectors by key, top key."""
    base, top = pair
    return {key: vec for key, (_, vec) in base.items()}, top.key()


# -- multiplication -----------------------------------------------------------


def test_z_wr_z_translation_rule():
    a = ZZ.generator(1)  # delta at the identity
    t = ZZ.generator(2)  # top shift
    at = ZZ.mul(a, t)
    ta = ZZ.mul(t, a)
    # a*t carries the delta to the shifted point, t*a leaves it at e
    assert at.base == {"(1)": (zvec(1), (1,))}
    assert ta.base == {"(0)": (zvec(0), (1,))}
    assert at.top == zvec(1) and ta.top == zvec(1)
    assert at != ta


def test_identity_law():
    a = ZZ.generator(1)
    assert ZZ.mul(a, ZZ.identity()) == a
    assert ZZ.mul(ZZ.identity(), a) == a


def test_abelian_base_adds():
    a = ZZ.generator(1)
    aa = ZZ.mul(a, a)
    assert aa.base == {"(0)": (zvec(0), (2,))}
    assert aa.top.is_trivial()


def test_zero_vectors_dropped():
    a = ZZ.generator(1)
    assert ZZ.mul(a, ZZ.inv(a)).base == {}


def test_level_mismatch():
    with pytest.raises(AmbientMismatchError):
        ZZ.mul(ZZ.generator(1), iterated_wreath(1, 2).generator(1))


def test_associativity_and_inverses_sampled():
    rng = random.Random(0)
    W = iterated_wreath(2, 1)
    elements = [W.evaluate_word(random_word(rng, 4, 6)) for _ in range(12)]
    for p in elements[:4]:
        for q in elements[4:8]:
            for r in elements[8:]:
                assert W.mul(W.mul(p, q), r) == W.mul(p, W.mul(q, r))
    for p in elements:
        assert W.mul(p, W.inv(p)).is_trivial()
        assert W.mul(W.inv(p), p).is_trivial()


# -- matrix <-> function conversions --------------------------------------------


def test_roundtrip_random():
    rng = random.Random(1)
    for base in (free_solvable_group(2, 1), free_solvable_group(2, 2)):
        for _ in range(40):
            p = eval_word(random_word(rng, 2, 8), base)
            w = matrix_to_function(p)
            assert w.matrix is p
            assert reference_function_to_matrix(w) == p


def test_identity_maps_to_identity():
    p = SplitMatrix.identity(free_solvable_group(2, 1))
    w = matrix_to_function(p)
    assert w.is_trivial()
    assert w.base == {}
    assert reference_function_to_matrix(w).is_trivial()


def test_basis_correspondence():
    # the generator matrix (top b1, coords (1, 0)) is the delta at the
    # identity with value e1, on top shift b1
    p = eval_word((1,), free_solvable_group(2, 1))
    w = matrix_to_function(p)
    assert w.top == zvec(1, 0)
    assert w.base == {"(0,0)": (zvec(0, 0), (1, 0))}


def test_conversions_are_homomorphisms():
    rng = random.Random(2)
    base = free_solvable_group(2, 1)
    for _ in range(30):
        p = eval_word(random_word(rng, 2, 6), base)
        q = eval_word(random_word(rng, 2, 6), base)
        assert matrix_to_function(p * q) == matrix_to_function(p) * matrix_to_function(q)
        assert reference_function_to_matrix(matrix_to_function(p).inv()) == p.inv()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_base_after_mul_and_inv_matches_reference(level):
    rng = random.Random(f"wreath reference {level}")
    W = iterated_wreath(2, level)
    top_group = W.top_group
    max_len = {1: 12, 2: 8, 3: 5}[level]
    e = top_group.identity()
    deltas = [
        ({e.key(): (e, tuple(int(j == i) for j in range(2)))}, e)
        for i in range(2)
    ]
    gens = deltas + [({}, g) for g in top_group.generators()]
    for _ in range(12):
        elements = []
        for _ in range(2):
            word = random_word(rng, W.ngens, max_len)
            expected = ({}, top_group.identity())
            for letter in word:
                g = gens[abs(letter) - 1]
                step = g if letter > 0 else reference_inv(top_group, g)
                expected = reference_mul(top_group, expected, step)
            w = W.evaluate_word(word)
            assert function_values((w.base, w.top)) == function_values(expected)
            assert reference_function_to_matrix(w) == w.matrix
            elements.append(w)
        p, q = elements
        product = W.mul(p, q)
        assert function_values((product.base, product.top)) == function_values(
            reference_mul(top_group, (p.base, p.top), (q.base, q.top))
        )
        inverse = W.inv(p)
        assert function_values((inverse.base, inverse.top)) == function_values(
            reference_inv(top_group, (p.base, p.top))
        )


# -- embedding -----------------------------------------------------------------


def test_class_one_is_identity_map():
    # S(m, 1) is W(m, 0) = Z^m: the same group object, mapped identically.
    e = normalize(2, 1, (1, 2, 2))
    assert embed_free_solvable(e) is e
    assert embedding_codomain(2, 1) is free_solvable_group(2, 1)
    assert embed_free_solvable(normalize(2, 0, (1,))) == zvec(0, 0)


def test_embed_commutator_base_pattern():
    e = normalize(2, 2, parse_word("[x1,x2]"))
    image = embed_free_solvable(e)
    codomain = embedding_codomain(2, 2)
    assert image.product == codomain
    assert image.top.is_trivial()
    # base function: -e1+e2 at the identity, +e1 at b2, -e2 at b1
    assert image.base["(0,0)"] == (zvec(0, 0), (-1, 1))
    assert image.base["(0,1)"] == (zvec(0, 1), (1, 0))
    assert image.base["(1,0)"] == (zvec(1, 0), (0, -1))


def test_embed_identity():
    e = free_solvable_group(2, 2).identity()
    image = embed_free_solvable(e)
    assert image.product == embedding_codomain(2, 2)
    assert image.is_trivial()


def test_embed_multiplicative_and_trivial_preserving():
    rng = random.Random(3)
    for n in (2, 3):
        codomain = embedding_codomain(2, n)
        for _ in range(40 if n == 2 else 10):
            u = normalize(2, n, random_word(rng, 2, 8))
            v = normalize(2, n, random_word(rng, 2, 8))
            assert embed_free_solvable(u * v) == codomain.mul(
                embed_free_solvable(u), embed_free_solvable(v)
            )
            assert u.is_trivial() == embed_free_solvable(u).is_trivial()


def test_embed_each_distinct_element_once(monkeypatch):
    # The memo is shared across the recursion: one wreath element is built
    # per distinct element of class >= 2 below e (its tops and supports).
    built = []

    class CountingElement(wreath.WreathElement):
        __slots__ = ()

        def __init__(self, product, matrix):
            super().__init__(product, matrix)
            built.append(self)

    monkeypatch.setattr(wreath, "WreathElement", CountingElement)
    e = normalize(2, 4, random_word(random.Random("embed memo"), 2, 40))
    distinct = set()

    def collect(x):
        if x.n >= 2 and (x.n, x.key()) not in distinct:
            distinct.add((x.n, x.key()))
            collect(x.body.top)
            for d in x.body.coords:
                for element, _ in d.support.values():
                    collect(element)

    collect(e)
    embed_free_solvable(e)
    assert len(built) == len(distinct) > 20


def test_level_bookkeeping_pinned():
    assert embedding_codomain(2, 1).label == "Z^2"
    assert embedding_codomain(2, 2).label == "Z^2 wr Z^2"
    assert embedding_codomain(2, 3).label == "Z^2 wr Z^2 wr Z^2"
    assert iterated_wreath(2, 1).level == 1
    assert iterated_wreath(2, 2).level == 2


def test_deep_level_inversion_and_embed_compatibility():
    rng = random.Random(6)
    W = iterated_wreath(2, 2)
    for _ in range(10):
        e = normalize(2, 3, random_word(rng, 2, 8))
        image = embed_free_solvable(e)
        inverse = W.inv(image)
        assert W.mul(image, inverse).is_trivial()
        assert inverse == embed_free_solvable(e.inv())


def test_no_torsion_sampling_in_wreath():
    # base-only elements acted on by nonzero ring elements of the top
    # group never die (the base is a free module over the top group ring)
    rng = random.Random(4)
    W = iterated_wreath(2, 1)
    top = W.top_group
    for _ in range(30):
        vec = tuple(rng.randint(-2, 2) for _ in range(2))
        if not any(vec):
            continue
        at = zvec(*(rng.randint(-2, 2) for _ in range(2)))
        c = W.delta(at, vec)
        terms = []
        for _ in range(rng.randint(1, 3)):
            h = zvec(*(rng.randint(-2, 2) for _ in range(2)))
            terms.append((h, rng.choice([-2, -1, 1, 2])))
        u = RingElement.from_terms(top, terms)
        if u.is_zero():
            continue
        result = W.identity()
        for h, coeff in u.terms():
            conjugated = W.mul(W.mul(W.inv(W.lift(h)), c), W.lift(h))
            result = W.mul(result, W.pow(conjugated, coeff))
        assert not result.is_trivial()


# -- serialization ------------------------------------------------------------------


def test_wreath_json_schema():
    a = ZZ.generator(1)
    t = ZZ.generator(2)
    data = json.loads(ZZ.mul(a, t).json_text())
    assert data == {
        "level": 1,
        "top": [1],
        "base": [{"at": [1], "vec": [1]}],
    }
