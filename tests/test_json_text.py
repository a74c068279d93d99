"""Cached canonical JSON text against the dict-tree serializer it replaced.

The reference builders below are the library's former `to_json` trees,
kept here as the oracle: every `json_text()` must parse back to the same
value, and the CLI prints that text in place of `json.dumps` of the tree.
"""

import json
import random

import pytest

from rigidsolv.equations import MixedWord, solve_ball
from rigidsolv.free_solvable import SolvableElement, free_solvable_group, normalize
from rigidsolv.group_ring import RingElement
from rigidsolv.magnus import SplitMatrix, eval_word, sigma
from rigidsolv.verify import random_word
from rigidsolv.wreath import embed_free_solvable

# -- reference: the dict-tree serializer ------------------------------------------


def ref_element(e):
    if e.n == 0:
        body = None
    elif e.n == 1:
        body = list(e.body)
    else:
        body = ref_matrix(e.body)
    return {"m": e.m, "n": e.n, "body": body}


def ref_matrix(p):
    return {"top": ref_element(p.top), "coords": [ref_ring(d) for d in p.coords]}


def ref_ring(d):
    return [{"coeff": coeff, "element": ref_element(x)} for x, coeff in d.terms()]


def ref_image(x):
    """Wreath key and JSON tree of x's image in W(m, n-1), gathered from
    the coordinate row term by term."""
    if x.n == 0:
        x = free_solvable_group(x.m, 1).identity()
    if x.n == 1:
        return x.key(), list(x.body)
    points = {}
    for slot, d in enumerate(x.body.coords):
        for y, coeff in d.terms():
            vec = points.setdefault(y.key(), (y, [0] * x.m))[1]
            vec[slot] = coeff
    images = sorted((ref_image(y), vec) for y, vec in points.values())
    top_key, top_tree = ref_image(x.body.top)
    key = f"w[{top_key}|" + ",".join(f"{k}:{tuple(v)}" for (k, _), v in images) + "]"
    tree = {
        "level": x.n - 1,
        "top": top_tree,
        "base": [{"at": tree, "vec": vec} for (_, tree), vec in images],
    }
    return key, tree


def ref_solutions(sol):
    return {
        "params": {"m": sol.m, "n": sol.n, "radius": sol.radius, "nvars": sol.nvars},
        "count": len(sol.assignments),
        "assignments": [[ref_element(e) for e in a] for a in sol.assignments],
    }


# -- sweeps -----------------------------------------------------------------------


def seeded_words(seed, m, count=6, max_len=8):
    rng = random.Random(seed)
    return [(), (1,) * 7, *(random_word(rng, m, max_len) for _ in range(count))]


GROUPS = [(m, n) for m in (1, 2, 3) for n in range(5)]


@pytest.mark.parametrize("m,n", GROUPS)
def test_element_text_matches_dict_tree(m, n):
    for word in seeded_words(10 * m + n, m):
        e = normalize(m, n, word)
        expected = ref_element(e)
        assert json.loads(e.json_text()) == expected
        assert e.to_json() == expected
        assert e.json_text() == json.dumps(expected)


@pytest.mark.parametrize("m,n", [(m, n) for m, n in GROUPS if n >= 1])
def test_split_matrix_and_ring_texts_match_dict_tree(m, n):
    base = free_solvable_group(m, n).base
    for word in seeded_words(100 + 10 * m + n, m):
        p = eval_word(word, base)
        assert json.loads(p.json_text()) == ref_matrix(p)
        for d in (*p.coords, sigma(p)):
            assert json.loads(d.json_text()) == ref_ring(d)


def test_zero_ring_element_text():
    for group in (free_solvable_group(2, 0), free_solvable_group(2, 1),
                  free_solvable_group(2, 3)):
        assert RingElement.zero(group).json_text() == "[]"


@pytest.mark.parametrize("m", [1, 2, 3])
def test_wreath_texts_match_dict_tree_at_levels_0_to_3(m):
    for n in range(5):
        for word in seeded_words(200 + 10 * m + n, m, count=3):
            e = normalize(m, n, word)
            key, tree = ref_image(e)
            assert embed_free_solvable(e) == key
            text = embed_free_solvable(e, as_json=True)
            assert json.loads(text) == tree
            assert text == json.dumps(tree)


@pytest.mark.parametrize(
    "equations,m,n,radius,nvars",
    [
        (["[$1,x1]"], 2, 2, 1, None),
        (["[$1,$2]"], 2, 3, 1, None),
        (["x1"], 2, 2, 1, 1),
        ([""], 1, 0, 2, None),
        (["$1 $1"], 3, 1, 2, None),
    ],
)
def test_solution_set_text_matches_dict_tree(equations, m, n, radius, nvars):
    system = [MixedWord.parse(text, ngens=m) for text in equations]
    sol = solve_ball(system, m, n, radius, nvars=nvars)
    assert json.loads(sol.json_text()) == ref_solutions(sol)


def test_solution_set_text_with_no_solutions():
    sol = solve_ball([MixedWord.parse("x1")], 2, 2, 1, nvars=1)
    assert sol.json_text() == (
        '{"params": {"m": 2, "n": 2, "radius": 1, "nvars": 1}, '
        '"count": 0, "assignments": []}'
    )


# -- caching ------------------------------------------------------------------------


def test_texts_are_cached_on_the_element():
    e = normalize(2, 3, (1, 2, -1, -2, 2))
    assert e.json_text() is e.json_text()


def test_each_distinct_element_text_is_built_once(monkeypatch):
    # An element of S(2,4) is a DAG: one class-3 or class-2 sub-element
    # sits under many parents.  Its text is built by the first parent
    # that needs it and read from its slot by every other.
    e = normalize(2, 4, (1, 2, -1, -2, 2, 2, 1, -2, -1, -1, 2))

    def walk(into):
        seen, occurrences, stack = {}, 0, [e]
        while stack:
            x = stack.pop()
            occurrences += 1
            if id(x) not in seen:
                seen[id(x)] = x
                if x.n >= 2 and into(x):
                    stack.append(x.body.top)
                    stack.extend(y for d in x.body.coords for y, _ in d.support.values())
        return seen, occurrences

    nodes, occurrences = walk(lambda x: True)
    assert occurrences > 2 * len(nodes)
    # Letter images are shared process-wide and may carry a text already;
    # the serializer stops at any cached text.
    pending, _ = walk(lambda x: x._text is None)
    matrices = sum(1 for x in pending.values() if x.n >= 2 and x._text is None)

    builds = []
    original = SplitMatrix.json_text

    def counted(self):
        builds.append(id(self))
        return original(self)

    monkeypatch.setattr(SplitMatrix, "json_text", counted)
    text = e.json_text()
    assert len(builds) == len(set(builds)) == matrices
    assert e.json_text() is text
    assert len(builds) == matrices
