import contextlib
import hashlib
import io
import json
import pathlib
import random

import pytest

from conftest import S3, S4, eval_perm_word, perm_identity, zvec

from rigidsolv.cli import main
from rigidsolv.errors import AmbientMismatchError
from rigidsolv.group_ring import RingElement
from rigidsolv.magnus import SplitMatrix, eval_word, sigma
from rigidsolv.free_solvable import SolvableElement, free_solvable_group
from rigidsolv.verify import random_word
from rigidsolv.words import commutator, parse_word

Z2 = free_solvable_group(2, 1)
ONE = RingElement.one(Z2)
B1 = RingElement.monomial(Z2, zvec(1, 0))
B2 = RingElement.monomial(Z2, zvec(0, 1))
ZERO = RingElement.zero(Z2)


# -- split_mul ---------------------------------------------------------------


def test_product_of_generators():
    p = eval_word((1, 2), Z2)
    assert p.top == zvec(1, 1)
    assert p.coords == (B2, ONE)


def test_identity_law():
    rng = random.Random(0)
    for _ in range(20):
        p = eval_word(random_word(rng, 2, 6), Z2)
        assert p * SplitMatrix.identity(Z2) == p
        assert SplitMatrix.identity(Z2) * p == p


def test_associativity():
    rng = random.Random(1)
    for _ in range(30):
        p = eval_word(random_word(rng, 2, 5), Z2)
        q = eval_word(random_word(rng, 2, 5), Z2)
        r = eval_word(random_word(rng, 2, 5), Z2)
        assert (p * q) * r == p * (q * r)


def test_mul_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        eval_word((1,), Z2) * eval_word((1,), free_solvable_group(3, 1))


# -- split_inv ---------------------------------------------------------------


def test_inv_identity():
    assert SplitMatrix.identity(Z2).inv() == SplitMatrix.identity(Z2)


def test_inv_generator_formula():
    p = eval_word((1,), Z2).inv()
    assert p.top == zvec(-1, 0)
    assert p.coords == (RingElement.monomial(Z2, zvec(-1, 0), -1), ZERO)


def test_inv_involution_and_inverse_law():
    rng = random.Random(2)
    for _ in range(30):
        p = eval_word(random_word(rng, 2, 6), Z2)
        assert p.inv().inv() == p
        assert (p * p.inv()).is_trivial()
        assert (p.inv() * p).is_trivial()


# -- eval_word ----------------------------------------------------------------


def test_empty_word_is_identity():
    assert eval_word((), Z2).is_trivial()


def test_free_cancellation():
    assert eval_word((1, -1), Z2).is_trivial()


def test_commutator_coordinates():
    p = eval_word(parse_word("[x1,x2]"), Z2)
    assert p.top.is_trivial()
    assert p.coords == (B2 - ONE, ONE - B1)


def test_generator_index_out_of_range():
    with pytest.raises(ValueError):
        eval_word((3,), Z2)


def fold_eval_word(word, base):
    """Reference evaluation: fold the letter matrices from left to right."""
    result = SplitMatrix.identity(base)
    for letter in word:
        coords = [RingElement.zero(base)] * base.ngens
        coords[abs(letter) - 1] = RingElement.one(base)
        matrix = SplitMatrix(base, base.generator(abs(letter)), coords)
        result = result * (matrix if letter > 0 else matrix.inv())
    return result


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n,max_len", [(2, 40), (3, 20), (4, 8)])
def test_flow_matches_left_to_right_fold(m, n, max_len):
    rng = random.Random(f"flow-vs-fold {m} {n}")
    base = free_solvable_group(m, n - 1)
    words = [(), (1,) * max_len, (-m,) * max_len, (2, -1) * (max_len // 2)]
    for _ in range(12):
        w = random_word(rng, m, max_len)
        words += [w, w + tuple(-x for x in reversed(w))]
    for w in words:
        assert eval_word(w, base).key() == fold_eval_word(w, base).key()


@pytest.mark.parametrize("k", [0, 1, 2, 7, 100, 8000])
def test_generator_power_closed_form(k):
    # d(x1^k) = 1 + x1 + ... + x1^(k-1) and d(x1^-k) = -(x1^-1 + ... + x1^-k).
    base = free_solvable_group(2, 1)

    def power_sum(exponents, sign):
        return RingElement.from_terms(
            base, [(SolvableElement(2, 1, (j, 0)), sign) for j in exponents]
        )

    p = eval_word((1,) * k, base)
    assert p.top == SolvableElement(2, 1, (k, 0))
    assert p.coords == (power_sum(range(k), 1), ZERO)
    q = eval_word((-1,) * k, base)
    assert q.top == SolvableElement(2, 1, (-k, 0))
    assert q.coords == (power_sum(range(-k, 0), -1), ZERO)


CORPUS = pathlib.Path(__file__).with_name("canonical_corpus.json")


def test_canonical_json_corpus(monkeypatch):
    # SHA-256 digests of stdout: `normalize --json` and `fox --json` made
    # by the left-to-right fold evaluator, and `wreath-embed` (JSON and
    # text, with its exit code) made by the base-function wreath product.
    # Flows and the wreath serializer, which reads the S(m,n) split-matrix
    # tower pointwise, must reproduce them byte for byte.  The later entries (`mul`, `comm`, `project`, `sigma`,
    # `solve`, and text-mode `normalize` and `fox`, over m = 1..3 and
    # n = 0..4) were made by the dict-tree serializer that `json.dumps`
    # walked; the cached element texts must reproduce them too.  The
    # `pdim` entries (seeded subgroups of S(m,2), m = 1..5, and both
    # families) were made by the Smith-transform lattice route; the
    # Hermite basis must reproduce them.  The `member` entries (both
    # criteria, m = 1..3, n = 1..4, every i, with out-of-range i and the
    # m = 1 commutator refusals as exit codes) were made by normalizing
    # at class n and projecting the element; normalizing at class i - 1
    # must reproduce them.  The `rank` entries (seeded Smith and Laurent
    # matrices, empty and zero shapes, and malformed input with its exit
    # code) carry the matrix as `stdin`.
    for entry in json.loads(CORPUS.read_text()):
        if "stdin" in entry:
            monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(entry["argv"]) == entry.get("exit", 0), entry["argv"]
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == entry["sha256"], entry["argv"]


def test_homomorphism_on_random_pairs():
    rng = random.Random(3)
    for base in (Z2, free_solvable_group(2, 2)):
        for _ in range(40):
            u = random_word(rng, 2, 8)
            v = random_word(rng, 2, 8)
            assert eval_word(u + v, base) == eval_word(u, base) * eval_word(v, base)


def test_kernel_direction_with_independent_witnesses():
    # If a word evaluates to the identity over the class-k quotient, it
    # must die in every solvable image of class k + 1.  Conversely a word
    # with a nontrivial image in such a group must not evaluate trivially.
    rng = random.Random(4)
    for degree_group, k in ((S3, 1), (S4, 2)):
        base = free_solvable_group(2, k)
        for _ in range(60):
            w = random_word(rng, 2, 8)
            image = eval_word(w, base)
            witnesses = [
                tuple(rng.choice(degree_group) for _ in range(2)) for _ in range(8)
            ]
            finite_images = [eval_perm_word(w, gs) for gs in witnesses]
            identity = perm_identity(len(degree_group[0]))
            if image.is_trivial():
                assert all(img == identity for img in finite_images)
            elif any(img != identity for img in finite_images):
                assert not image.is_trivial()


def test_kernel_membership_by_construction():
    # Over the base F/F^(k) the kernel is F^(k+1): iterated commutators
    # built k+1 derived steps deep must evaluate to the identity matrix.
    rng = random.Random(5)

    def derived_word(depth):
        if depth == 0:
            return random_word(rng, 2, 3)
        return commutator(derived_word(depth - 1), derived_word(depth - 1))

    for k in (1, 2):
        base = free_solvable_group(2, k)
        for _ in range(5):
            w = derived_word(k + 1)
            assert eval_word(w, base).is_trivial()


# -- sigma ----------------------------------------------------------------------


def test_sigma_identity_element():
    assert sigma(SplitMatrix.identity(Z2)).is_zero()


def test_sigma_generator():
    assert sigma(eval_word((1,), Z2)) == B1 - ONE


def test_sigma_commutator_vanishes():
    assert sigma(eval_word(parse_word("[x1,x2]"), Z2)).is_zero()


def test_sigma_fundamental_identity_random():
    rng = random.Random(6)
    for base in (Z2, free_solvable_group(2, 2)):
        for _ in range(40):
            w = random_word(rng, 2, 8)
            p = eval_word(w, base)
            expected = RingElement.monomial(base, p.top) - RingElement.one(base)
            assert sigma(p) == expected


# -- module generators: rows and tops of subgroup generators ---------------------


def test_basis_rows():
    first, second = eval_word((1,), Z2), eval_word((2,), Z2)
    assert (first.coords, first.top) == ((ONE, ZERO), zvec(1, 0))
    assert (second.coords, second.top) == ((ZERO, ONE), zvec(0, 1))


def test_commutator_row():
    image = eval_word(parse_word("[x1,x2]"), Z2)
    assert image.top.is_trivial()
    assert image.coords == (B2 - ONE, ONE - B1)


def test_square_row():
    image = eval_word((1, 1), Z2)
    assert image.top == zvec(2, 0)
    assert image.coords == (ONE + B1, ZERO)


# -- serialization -----------------------------------------------------------------


def test_split_matrix_json():
    p = eval_word((1,), Z2)
    assert json.loads(p.json_text()) == {
        "top": {"m": 2, "n": 1, "body": [1, 0]},
        "coords": [[{"coeff": 1, "element": {"m": 2, "n": 1, "body": [0, 0]}}], []],
    }
