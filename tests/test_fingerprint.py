"""The fingerprint is a homomorphism computed from canonical forms: equal
elements always get equal fingerprints, and at class <= 2 distinct
elements get distinct ones."""

import random

import pytest

from rigidsolv.equations import FILTER_LEVEL, _BallSearch
from rigidsolv.fingerprint import PRIME, Fingerprint, apply, compose, inverse, unit
from rigidsolv.free_solvable import ball_enumerate, free_solvable_group, normalize, project
from rigidsolv.verify import random_word
from rigidsolv.words import commutator, invert


def identity_matrix(size):
    return tuple(tuple(int(r == c) for c in range(size)) for r in range(size))


def dense(a):
    """The full matrix I + N of a stored fingerprint (rows of N, cut)."""
    size = len(a)
    return tuple(
        tuple(((r == c) + (row[c] if c < len(row) else 0)) % PRIME for c in range(size))
        for r, row in enumerate(a)
    )


def matmul(a, b):
    columns = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % PRIME for col in columns)
        for row in a
    )


def generator_matrix(level, i):
    """rho_level(x_i) built from the generator formula
    [[rho_{level-1}(x_i), 0], [s_{level,i} I, I]], independently of any
    canonical form."""
    if level == 0:
        return ((1,),)
    if level == 1:
        return ((unit(1, i),),)
    top = generator_matrix(level - 1, i)
    half = len(top)
    s = unit(level, i)
    return tuple(row + (0,) * half for row in top) + tuple(
        tuple(s * (r == c) for c in range(half)) + identity_matrix(half)[r]
        for r in range(half)
    )


def word_product(level, word):
    """rho_level(word) as the product of the generator matrices."""
    size = len(generator_matrix(level, 1))
    out = identity_matrix(size)
    for letter in word:
        g = generator_matrix(level, abs(letter))
        if letter < 0:
            g = dense_inverse(g)
        out = matmul(out, g)
    return out


def dense_inverse(a):
    """Gauss-Jordan inverse mod p of a dense invertible matrix."""
    size = len(a)
    rows = [list(row) + list(identity_matrix(size)[r]) for r, row in enumerate(a)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], -1, PRIME)
        rows[col] = [x * scale % PRIME for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % PRIME for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[size:]) for row in rows)


def derived_word(rng, m, depth):
    """A word in the depth-th derived subgroup of the free group: trivial
    in S(m, n) for every n <= depth."""
    if depth == 0:
        return random_word(rng, m, 2)
    return commutator(derived_word(rng, m, depth - 1), derived_word(rng, m, depth - 1))


def equal_word(rng, word, m, n):
    """Another word for the same element of S(m, n): a derived-subgroup
    word and a cancelling pair spliced in at random places."""
    cut = rng.randint(0, len(word))
    word = word[:cut] + derived_word(rng, m, n) + word[cut:]
    cut = rng.randint(0, len(word))
    u = random_word(rng, m, 3)
    return word[:cut] + u + invert(u) + word[cut:]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_equal_keys_give_equal_fingerprints(m, n):
    rng = random.Random(f"fingerprint-equal:{m}:{n}")
    for _ in range(6 if n < 5 else 2):
        word = random_word(rng, m, 8)
        a = normalize(m, n, word)
        b = normalize(m, n, equal_word(rng, word, m, n))
        assert a.key() == b.key()
        # Fresh objects, so the memo cannot answer the second call.
        assert Fingerprint(n, n).matrix(a) == Fingerprint(n, n).matrix(b)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_distinct_keys_give_distinct_fingerprints_up_to_class_2(m, n):
    rng = random.Random(f"fingerprint-distinct:{m}:{n}")
    elements = {}
    for _ in range(150):
        e = normalize(m, n, random_word(rng, m, 8))
        elements[e.key()] = e
    fingerprint = Fingerprint(n, n)
    images = {fingerprint.matrix(e) for e in elements.values()}
    assert len(images) == len(elements)
    vector_images = {tuple(apply(a, fingerprint.vector)) for a in images}
    assert len(vector_images) == len(elements)


def test_apply_is_the_dense_product():
    rng = random.Random("fingerprint-apply")
    for n in range(5):
        fingerprint = Fingerprint(n, n)
        a = fingerprint.matrix(normalize(2, n, random_word(rng, 2, 10)))
        v = fingerprint.vector
        assert apply(a, v) == [sum(x * y for x, y in zip(row, v)) % PRIME
                               for row in dense(a)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_recursion_equals_product_of_generator_matrices(m, n):
    rng = random.Random(f"fingerprint-product:{m}:{n}")
    for _ in range(8):
        word = random_word(rng, m, 10)
        e = normalize(m, n, word)
        fingerprint = Fingerprint(n, n)
        assert dense(fingerprint.matrix(e)) == word_product(n, word)
        assert fingerprint.matrix(e.inv()) == inverse(fingerprint.matrix(e))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_capped_level_is_the_fingerprint_of_the_projection(level):
    rng = random.Random(f"fingerprint-project:{level}")
    for _ in range(8):
        word = random_word(rng, 2, 10)
        e = normalize(2, 4, word)
        capped = Fingerprint(4, level).matrix(e)
        assert capped == Fingerprint(level, level).matrix(project(e, level))
        assert dense(capped) == word_product(level, word)
        if level:
            # The top-left block of a higher level is the lower level.
            full = Fingerprint(4, 4).matrix(e)
            assert full[: len(capped)] == capped


def test_inverse_is_a_two_sided_inverse():
    rng = random.Random("fingerprint-inverse")
    for n in range(5):
        a = Fingerprint(n, n).matrix(normalize(2, n, random_word(rng, 2, 10)))
        assert matmul(dense(a), dense(inverse(a))) == identity_matrix(len(a))
        assert dense(inverse(a)) == dense_inverse(dense(a))


def test_compose_is_the_dense_product():
    rng = random.Random("fingerprint-compose")
    for n in range(6):
        fingerprint = Fingerprint(n, n)
        for _ in range(4):
            u, w = random_word(rng, 2, 8), random_word(rng, 2, 8)
            a = fingerprint.matrix(normalize(2, n, u))
            b = fingerprint.matrix(normalize(2, n, w))
            product = compose(a, b)
            assert dense(product) == matmul(dense(a), dense(b))
            # The stored form keeps every row's cut, so it is the
            # fingerprint of the product itself.
            assert product == fingerprint.matrix(normalize(2, n, u + w))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, FILTER_LEVEL, FILTER_LEVEL + 1])
@pytest.mark.parametrize("radius", [2, 3])
def test_ball_matrices_compose_from_the_parent(m, n, radius):
    ball = ball_enumerate(m, n, radius)
    words = {word for _, word in ball}
    # Every word drops its first letter to another ball element's word,
    # so each matrix can be composed from its parent's.
    assert all(word[1:] in words for word in words if word)
    search = _BallSearch(ball, free_solvable_group(m, n), [], 0)
    fingerprint = Fingerprint(n, FILTER_LEVEL)
    for i, (e, _) in enumerate(ball):
        a = fingerprint.matrix(e)
        assert search.matrices[1][i] == a
        assert search.matrices[-1][i] == inverse(a)
