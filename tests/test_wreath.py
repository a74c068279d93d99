"""Z^m wr B as width-m split matrices over B, read through
`matrix_to_function`, and the embedding S(m, n) -> W(m, n-1) read from
the texts that `embed_free_solvable` writes."""

import json
import random

import pytest

from conftest import wreath_inv, wreath_is_identity, wreath_mul, wreath_value, zvec

from rigidsolv.errors import AmbientMismatchError
from rigidsolv.group_ring import RingElement
from rigidsolv.magnus import SplitMatrix, eval_word
from rigidsolv.free_solvable import free_solvable_group, normalize
from rigidsolv.verify import random_word
from rigidsolv.words import parse_word
from rigidsolv import wreath
from rigidsolv.wreath import embed_free_solvable, embedding_codomain, matrix_to_function

Z = free_solvable_group(1, 1)  # the top group of Z wr Z


def delta(top_group, at, vec):
    """Base-only element of Z^len(vec) wr B supported at a single point."""
    coords = [RingElement.monomial(top_group, at, coeff) for coeff in vec]
    return SplitMatrix(top_group, top_group.identity(), coords)


def lift(top_group, top, width):
    """Top-only element: the zero base function on top of `top`."""
    return SplitMatrix(top_group, top, [RingElement.zero(top_group)] * width)


def wreath_generators(top_group, width):
    """The base deltas e_1 .. e_width at the identity, then the lifts of
    the top group's generators."""
    e = top_group.identity()
    deltas = [delta(top_group, e, tuple(int(j == i) for j in range(width)))
              for i in range(width)]
    tops = [top_group.generator(i) for i in range(1, top_group.ngens + 1)]
    return deltas + [lift(top_group, t, width) for t in tops]


def evaluate(word, gens):
    """Left-to-right fold of a word over the given split matrices."""
    result = SplitMatrix.identity(gens[0].base, len(gens[0].coords))
    for letter in word:
        g = gens[abs(letter) - 1]
        result = result * (g if letter > 0 else g.inv())
    return result


A, T = wreath_generators(Z, 1)  # the base delta and the top shift of Z wr Z


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


def reference_function_to_matrix(top_group, base, top, width):
    """Rebuild the split matrix from the base function, slot by slot."""
    coords = []
    for slot in range(width):
        terms = [(element, vec[slot]) for element, vec in base.values() if vec[slot]]
        coords.append(RingElement.from_terms(top_group, terms))
    return SplitMatrix(top_group, top, coords)


def function_values(pair):
    """A (base, top) pair as comparable plain data: vectors by key, top key."""
    base, top = pair
    return {key: vec for key, (_, vec) in base.items()}, top.key()


def pair(p):
    """A split matrix as its (base function, top) pair."""
    return matrix_to_function(p), p.top


# -- multiplication -----------------------------------------------------------


def test_z_wr_z_translation_rule():
    at = A * T
    ta = T * A
    # a*t carries the delta to the shifted point, t*a leaves it at e
    assert matrix_to_function(at) == {"(1)": (zvec(1), (1,))}
    assert matrix_to_function(ta) == {"(0)": (zvec(0), (1,))}
    assert at.top == zvec(1) and ta.top == zvec(1)
    assert at != ta


def test_identity_law():
    identity = SplitMatrix.identity(Z, 1)
    assert A * identity == A
    assert identity * A == A


def test_abelian_base_adds():
    aa = A * A
    assert matrix_to_function(aa) == {"(0)": (zvec(0), (2,))}
    assert aa.top.is_trivial()


def test_zero_vectors_dropped():
    assert matrix_to_function(A * A.inv()) == {}


def test_level_mismatch():
    # Rows over different top groups, or of different widths, never multiply.
    with pytest.raises(AmbientMismatchError):
        A * wreath_generators(free_solvable_group(1, 2), 1)[0]
    with pytest.raises(AmbientMismatchError):
        A * wreath_generators(Z, 2)[0]


def test_associativity_and_inverses_sampled():
    rng = random.Random(0)
    gens = wreath_generators(free_solvable_group(2, 1), 2)
    elements = [evaluate(random_word(rng, 4, 6), gens) for _ in range(12)]
    for p in elements[:4]:
        for q in elements[4:8]:
            for r in elements[8:]:
                assert (p * q) * r == p * (q * r)
    for p in elements:
        assert (p * p.inv()).is_trivial()
        assert (p.inv() * p).is_trivial()


# -- matrix <-> function conversions --------------------------------------------


def test_roundtrip_random():
    rng = random.Random(1)
    for base in (free_solvable_group(2, 1), free_solvable_group(2, 2)):
        for _ in range(40):
            p = eval_word(random_word(rng, 2, 8), base)
            assert reference_function_to_matrix(base, matrix_to_function(p), p.top, 2) == p


def test_identity_maps_to_identity():
    base = free_solvable_group(2, 1)
    p = SplitMatrix.identity(base)
    assert matrix_to_function(p) == {}
    assert reference_function_to_matrix(base, {}, p.top, 2).is_trivial()


def test_basis_correspondence():
    # the generator matrix (top b1, coords (1, 0)) is the delta at the
    # identity with value e1, on top shift b1
    p = eval_word((1,), free_solvable_group(2, 1))
    assert p.top == zvec(1, 0)
    assert matrix_to_function(p) == {"(0,0)": (zvec(0, 0), (1, 0))}


def test_conversions_are_homomorphisms():
    rng = random.Random(2)
    base = free_solvable_group(2, 1)
    for _ in range(30):
        p = eval_word(random_word(rng, 2, 6), base)
        q = eval_word(random_word(rng, 2, 6), base)
        assert function_values(pair(p * q)) == function_values(
            reference_mul(base, pair(p), pair(q))
        )
        assert function_values(pair(p.inv())) == function_values(
            reference_inv(base, pair(p))
        )


@pytest.mark.parametrize("level", [1, 2, 3])
def test_base_after_mul_and_inv_matches_reference(level):
    # Z^2 wr S(2, level), which holds W(2, level) when level = 1 and
    # sits in it through the embedding above.
    rng = random.Random(f"wreath reference {level}")
    top_group = free_solvable_group(2, level)
    max_len = {1: 12, 2: 8, 3: 5}[level]
    gens = wreath_generators(top_group, 2)
    e = top_group.identity()
    references = [
        ({e.key(): (e, tuple(int(j == i) for j in range(2)))}, e) for i in range(2)
    ] + [({}, top_group.generator(i)) for i in (1, 2)]
    for _ in range(12):
        elements = []
        for _ in range(2):
            word = random_word(rng, len(gens), max_len)
            expected = ({}, e)
            for letter in word:
                g = references[abs(letter) - 1]
                step = g if letter > 0 else reference_inv(top_group, g)
                expected = reference_mul(top_group, expected, step)
            w = evaluate(word, gens)
            assert function_values(pair(w)) == function_values(expected)
            assert reference_function_to_matrix(top_group, *expected, 2) == w
            elements.append(w)
        p, q = elements
        assert function_values(pair(p * q)) == function_values(
            reference_mul(top_group, pair(p), pair(q))
        )
        assert function_values(pair(p.inv())) == function_values(
            reference_inv(top_group, pair(p))
        )


def test_no_torsion_sampling_in_wreath():
    # base-only elements acted on by nonzero ring elements of the top
    # group never die (the base is a free module over the top group ring)
    rng = random.Random(4)
    top = free_solvable_group(2, 1)
    for _ in range(30):
        vec = tuple(rng.randint(-2, 2) for _ in range(2))
        if not any(vec):
            continue
        at = zvec(*(rng.randint(-2, 2) for _ in range(2)))
        c = delta(top, at, vec)
        terms = []
        for _ in range(rng.randint(1, 3)):
            h = zvec(*(rng.randint(-2, 2) for _ in range(2)))
            terms.append((h, rng.choice([-2, -1, 1, 2])))
        u = RingElement.from_terms(top, terms)
        if u.is_zero():
            continue
        result = SplitMatrix.identity(top, 2)
        for h, coeff in u.terms():
            conjugated = lift(top, h, 2).inv() * c * lift(top, h, 2)
            step = conjugated if coeff > 0 else conjugated.inv()
            for _ in range(abs(coeff)):
                result = result * step
        assert not result.is_trivial()


# -- embedding -----------------------------------------------------------------


def image(e):
    """The embedded image of e as a plain value, read from its JSON text."""
    return wreath_value(json.loads(embed_free_solvable(e, as_json=True)))


def test_class_one_is_identity_map():
    # S(m, 1) is W(m, 0) = Z^m: the element is written as itself.
    e = normalize(2, 1, (1, 2, 2))
    assert embed_free_solvable(e) == e.key() == "(1,2)"
    assert embed_free_solvable(e, as_json=True) == "[1, 2]"
    assert embedding_codomain(2, 1) == free_solvable_group(2, 1).label == "Z^2"
    assert embed_free_solvable(normalize(2, 0, (1,))) == "(0,0)"
    assert embed_free_solvable(normalize(2, 0, (1,)), as_json=True) == "[0, 0]"


def test_embed_commutator_base_pattern():
    e = normalize(2, 2, parse_word("[x1,x2]"))
    # base function: -e1+e2 at the identity, +e1 at b2, -e2 at b1
    assert embed_free_solvable(e) == "w[(0,0)|(0,0):(-1, 1),(0,1):(1, 0),(1,0):(0, -1)]"
    assert json.loads(embed_free_solvable(e, as_json=True)) == {
        "level": 1,
        "top": [0, 0],
        "base": [
            {"at": [0, 0], "vec": [-1, 1]},
            {"at": [0, 1], "vec": [1, 0]},
            {"at": [1, 0], "vec": [0, -1]},
        ],
    }


def test_embed_identity():
    e = free_solvable_group(2, 2).identity()
    assert embed_free_solvable(e) == "w[(0,0)|]"
    assert wreath_is_identity(image(e))


def test_embed_multiplicative_and_trivial_preserving():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(40 if n == 2 else 10):
            u = normalize(2, n, random_word(rng, 2, 8))
            v = normalize(2, n, random_word(rng, 2, 8))
            assert image(u * v) == wreath_mul(image(u), image(v))
            assert u.is_trivial() == wreath_is_identity(image(u))


def test_embed_each_distinct_element_once(monkeypatch):
    # The memo is shared across the recursion: the coordinate row of each
    # distinct element of class >= 2 below e (its tops and supports) is
    # read once, whichever form is written.
    e = normalize(2, 4, random_word(random.Random("embed memo"), 2, 40))
    nodes = {}

    def collect(x):
        if x.n >= 2 and id(x) not in nodes:
            nodes[id(x)] = x
            collect(x.body.top)
            for d in x.body.coords:
                for element, _ in d.support.values():
                    collect(element)

    collect(e)
    values = {x.body.key() for x in nodes.values()}
    original = wreath.matrix_to_function
    for as_json in (False, True):
        read = []

        def counting(p):
            read.append(p)
            return original(p)

        monkeypatch.setattr(wreath, "matrix_to_function", counting)
        embed_free_solvable(e, as_json=as_json)
        assert len(read) == len({p.key() for p in read}) == len(values)
        assert {p.key() for p in read} == values
    # Equal values under different objects are read once between them.
    assert len(nodes) > len(values) > 20


def test_level_bookkeeping_pinned():
    assert embedding_codomain(2, 0) == "Z^2"
    assert embedding_codomain(2, 1) == "Z^2"
    assert embedding_codomain(2, 2) == "Z^2 wr Z^2"
    assert embedding_codomain(2, 3) == "Z^2 wr Z^2 wr Z^2"
    # Every nested image carries its own level, down to bare Z^2 vectors.
    tree = json.loads(embed_free_solvable(normalize(2, 4, parse_word("[x1,x2] x2")),
                                          as_json=True))
    levels = []
    while isinstance(tree, dict):
        levels.append(tree["level"])
        assert all(isinstance(p["at"], type(tree["top"])) for p in tree["base"])
        tree = tree["top"]
    assert levels == [3, 2, 1] and tree == [0, 1]


def test_deep_level_inversion_and_embed_compatibility():
    rng = random.Random(6)
    for _ in range(10):
        e = normalize(2, 3, random_word(rng, 2, 8))
        inverse = wreath_inv(image(e))
        assert wreath_is_identity(wreath_mul(image(e), inverse))
        assert inverse == image(e.inv())


def test_embedding_text_is_deterministic():
    # Equal elements built by different routes are different objects with
    # different sub-elements below them; the key and the text depend on
    # the value only, and the per-call memo leaves nothing behind.
    rng = random.Random(7)
    for m, n in ((2, 3), (3, 4)):
        for _ in range(6):
            u = random_word(rng, m, 10)
            v = random_word(rng, m, 10)
            whole = normalize(m, n, u + v)
            split = normalize(m, n, u) * normalize(m, n, v)
            for as_json in (False, True):
                first = embed_free_solvable(whole, as_json=as_json)
                assert embed_free_solvable(split, as_json=as_json) == first
                assert embed_free_solvable(whole, as_json=as_json) == first


# -- serialization ------------------------------------------------------------------


def test_wreath_json_schema():
    text = embed_free_solvable(normalize(2, 2, (1, 2)), as_json=True)
    assert text == (
        '{"level": 1, "top": [1, 1], "base": '
        '[{"at": [0, 0], "vec": [0, 1]}, {"at": [0, 1], "vec": [1, 0]}]}'
    )
    assert json.loads(text) == {
        "level": 1,
        "top": [1, 1],
        "base": [{"at": [0, 0], "vec": [0, 1]}, {"at": [0, 1], "vec": [1, 0]}],
    }
