"""The group protocol: a base group needs only arithmetic.

`Sym3` defines `label`, `ngens`, `identity`, `mul`, `inv` and
`generator`, and its elements define `key`, `is_trivial` and
`json_text`; the group ring and split-matrix layers must run on that
alone.  S_3 is not abelian, so the product rule and the sigma identity
also pin the left/right order of the flows.
"""

import json
import random

from conftest import perm_identity, perm_inv, perm_mul

from rigidsolv.group_ring import RingElement
from rigidsolv.groups import Group, int_list_text
from rigidsolv.magnus import eval_word, sigma
from rigidsolv.verify import random_word


class Perm:
    """A permutation of {0, 1, 2}, written as its tuple of images."""

    def __init__(self, images):
        self.images = images

    def key(self):
        return "".join(map(str, self.images))

    def is_trivial(self):
        return self.images == perm_identity(3)

    def json_text(self):
        return int_list_text(self.images)


class Sym3(Group):
    label = "S_3"
    ngens = 2

    def identity(self):
        return Perm(perm_identity(3))

    def mul(self, a, b):
        return Perm(perm_mul(a.images, b.images))

    def inv(self, a):
        return Perm(perm_inv(a.images))

    def generator(self, i):
        return Perm(((1, 0, 2), (1, 2, 0))[i - 1])


def test_split_matrices_over_a_group_with_only_arithmetic():
    base = Sym3()
    rng = random.Random(0)
    for _ in range(60):
        u = random_word(rng, 2, 8)
        v = random_word(rng, 2, 8)
        p = eval_word(u, base)
        assert eval_word(u + v, base) == p * eval_word(v, base)
        assert (p * p.inv()).is_trivial()
        expected = RingElement.monomial(base, p.top) - RingElement.one(base)
        assert sigma(p) == expected
        data = json.loads(p.json_text())
        assert data["top"] == list(p.top.images)
        assert len(data["coords"]) == 2
