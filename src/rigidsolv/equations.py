"""Desk-scale equations over S(m, n): evaluation, ball solutions,
vanishing tests.

A mixed word is the parser's letter tuple: generator letters (ints) and
variable occurrences (`words.VarLetter`).  Evaluating it at a tuple of
group elements substitutes each variable and takes each run of generator
letters as one normalized constant.
`solve_ball` decides every assignment over a ball, so the returned set
is the honest solution set restricted to the ball - an empty result
never claims the equation has no solutions in the whole group.  For the
same reason the one-sided vanishing test is named `vanishes_on`, not a
radical membership test.

The solver filters, confirms and backtracks.  Variables are bound one at
a time, and each equation is tested as soon as its last variable is
bound: first by its fingerprint (`fingerprint.Fingerprint`, a
homomorphism of S(m, n) into matrices mod p, taken at level
min(n, FILTER_LEVEL) through the projection), which rejects a tuple only
when it proves the equation's value nontrivial, so no solution is ever
dropped; then, for the tuples the fingerprint cannot rule out, by the
word problem, so no non-solution is kept.  Each ball element carries
the shortest word `ball_enumerate` recorded for it, and a survivor's
check substitutes those words into the equation's letters: a word that
freely reduces to the empty word is trivial in every S(m, n), and any
other is decided by `normalize`.

The ball is grown on the left, so each recorded word is a letter
followed by the word of another ball element, its parent.  A ball
element's fingerprint and its inverse are therefore one matrix product
each from its parent's (`fingerprint.compose`).  While a variable is
bound, the letters before its first occurrence are fixed, so their
inverses are applied to v once per visit and each candidate is compared
with that target.  A tuple costs a few matrix-vector products mod p
(15 modular products each at level 4); the word problem is paid only by
survivors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .errors import CapExceededError
from .fingerprint import Fingerprint, apply, compose, inverse
from .free_solvable import SolvableElement, ball_enumerate, free_solvable_group, normalize
from .words import (
    MAX_WORD_LENGTH,
    Letter,
    VarLetter,
    Word,
    check_length,
    free_reduce,
    invert,
    parse_letters,
)

DEFAULT_ASSIGNMENT_CAP = 10_000_000


@dataclass(frozen=True)
class MixedWord:
    """Word with variables $1..$nvars: the parsed letters, generator ints
    and `VarLetter`s."""

    letters: tuple[Letter, ...]
    nvars: int

    @staticmethod
    def from_letters(letters: Sequence[Letter], nvars: int | None = None) -> "MixedWord":
        letters = tuple(letters)
        seen = max(
            (letter.index for letter in letters if isinstance(letter, VarLetter)),
            default=0,
        )
        if nvars is None:
            nvars = seen
        elif seen > nvars:
            raise ValueError(f"arity mismatch: variable ${seen} exceeds arity {nvars}")
        return MixedWord(letters, nvars)

    @staticmethod
    def parse(text: str, ngens: int | None = None, nvars: int | None = None,
              line: int = 1) -> "MixedWord":
        return MixedWord.from_letters(
            parse_letters(text, ngens=ngens, line=line), nvars=nvars
        )


def evaluate(
    s: MixedWord, assignment: Sequence[SolvableElement], group: Any = None
) -> SolvableElement:
    """Canonical form of s with each variable replaced by its assignment."""
    if not assignment and group is None:
        raise ValueError("empty assignment needs an explicit group")
    if group is None:
        first = assignment[0]
        group = free_solvable_group(first.m, first.n)
    if len(assignment) < s.nvars:
        raise ValueError(
            f"arity mismatch: word uses {s.nvars} variables, got {len(assignment)}"
        )
    return _evaluate_prepared(_prepare(s, group), assignment, group)


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of a system over the ball of the given radius.

    Assignments are deduplicated and sorted by canonical serialization,
    so equal solution sets compare equal structurally.
    """

    m: int
    n: int
    radius: int
    nvars: int
    assignments: tuple[tuple[SolvableElement, ...], ...]

    def __len__(self) -> int:
        return len(self.assignments)

    def keys(self) -> list[tuple[str, ...]]:
        return [tuple(e.key() for e in a) for a in self.assignments]

    def json_text(self) -> str:
        """Canonical JSON text {"params", "count", "assignments"}, joined
        from the cached texts of the assigned elements."""
        assignments = ", ".join(
            "[" + ", ".join(e.json_text() for e in assignment) + "]"
            for assignment in self.assignments
        )
        return (
            f'{{"params": {{"m": {self.m}, "n": {self.n}, "radius": {self.radius}, '
            f'"nvars": {self.nvars}}}, "count": {len(self.assignments)}, '
            f'"assignments": [{assignments}]}}'
        )


def system_arity(system: Sequence[MixedWord]) -> int:
    return max((s.nvars for s in system), default=0)


#: Level of the solver's fingerprint filter: a ball in S(m, n) is
#: fingerprinted through its image in S(m, min(n, FILTER_LEVEL)).  From
#: level 3 on, a level-k fingerprint is blind to much of the (k-1)-th
#: derived subgroup, so each level sees one derived term deeper, for
#: about 3x the modular products per matrix-vector product (5, 15, 51 at
#: levels 3, 4, 5).
#: Measured on balls in S(2,4), level 4 over level 3 cut
#: [[$1,x1],[$2,x2]] at r=2 from 2.50 s to 0.34 s and [[$1,$2],[x1,x2]]
#: at r=3 from 39 s to 0.69 s, and cost 15% on [$1,$2] at r=3
#: (100 -> 115 ms), which level 2 already filters exactly.  A full-level
#: fingerprint of S(2,12) would have degree 2048.
FILTER_LEVEL = 4


def solve_ball(
    system: Sequence[MixedWord],
    m: int,
    n: int,
    radius: int,
    nvars: int | None = None,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    ball_cap: int | None = None,
) -> SolutionSet:
    """All assignments from the ball product on which every equation
    evaluates to the identity; deterministic canonical order.

    Equations without variables are decided once, by `normalize`, and
    variables that occur in no equation range over the whole ball.  The
    others are found by `_BallSearch`: filter by fingerprint, confirm by
    the word problem, backtrack.
    """
    if nvars is None:
        nvars = system_arity(system)
    elif nvars < system_arity(system):
        raise ValueError(
            f"arity mismatch: system uses {system_arity(system)} variables, "
            f"declared {nvars}"
        )
    # Each variable prints one element, so its count is capped like the
    # letters of a word, before any ball is built.
    if nvars > MAX_WORD_LENGTH:
        raise CapExceededError(
            f"search space too large: {nvars} variables exceeds cap {MAX_WORD_LENGTH}"
        )
    group = free_solvable_group(m, n)
    kwargs = {} if ball_cap is None else {"cap": ball_cap}
    ball = ball_enumerate(m, n, radius, **kwargs)
    size = len(ball)
    # Once the ball has 2 elements, more variables than the cap has bits
    # exceed it, so size ** nvars is formed only for small nvars.
    limit = assignment_cap if size < 2 else assignment_cap.bit_length()
    if nvars > limit or size**nvars > assignment_cap:
        raise CapExceededError(
            f"search space too large: {size}^{nvars} assignments exceeds cap "
            f"{assignment_cap}"
        )
    with_vars = [s for s in system if any(isinstance(x, VarLetter) for x in s.letters)]
    constant = [s for s in system if all(isinstance(x, int) for x in s.letters)]
    solutions: list[tuple[SolvableElement, ...]] = []
    if all(normalize(m, n, s.letters).is_trivial() for s in constant):
        pool = tuple(element for element, _ in ball)
        for partial in _BallSearch(ball, group, with_vars, nvars).run():
            pools = [pool if value is None else (value,) for value in partial]
            solutions.extend(itertools.product(*pools))
    solutions.sort(key=lambda a: tuple(e.key() for e in a))
    return SolutionSet(m, n, radius, nvars, tuple(solutions))


class _BallSearch:
    """Depth-first search over the ball for the variables that occur in
    the system, bound in increasing order.

    Each equation is checked at the depth of its last variable x: first
    by the fingerprint (`fingerprint.Fingerprint` at level
    min(n, FILTER_LEVEL)), whose rho(w) v != v proves w != 1, and only
    then, for the candidates it cannot rule out, by the word problem on
    the equation's letters with each variable replaced by its value's
    ball word (`_trivial`).  The filter never drops a solution, and the
    exact check keeps no non-solution.  The letters before the first
    occurrence of x and after its last are fixed at that depth: w = 1
    needs rho(middle) rho(suffix) v = rho(prefix)^-1 v, so both sides
    but the middle are formed once per visit, and each candidate costs
    one matrix-vector product per letter of the middle.

    Fingerprints and their inverses are formed once per ball element,
    from its parent's: `ball_enumerate` records each word as a letter
    followed by another ball element's word w', so rho(w) is
    rho(letter) rho(w') and rho(w)^-1 is rho(w')^-1 rho(letter)^-1, one
    `compose` each.  Only the identity, the generators and their
    inverses, and the equations' constants are fingerprinted from their
    canonical forms.
    """

    def __init__(self, ball: list[tuple[SolvableElement, Word]], group: Any,
                 system: list[MixedWord], nvars: int):
        self.ball, self.words = zip(*ball)
        self.group = group
        fingerprint = Fingerprint(group.n, FILTER_LEVEL)
        self.vector = fingerprint.vector
        # Per sign of a variable occurrence: each ball element's matrix,
        # and its image of the vector.  A word's first letter and the
        # rest are shorter words of the ball, so they come first.
        size = len(self.ball)
        forward: list[Any] = [None] * size
        backward: list[Any] = [None] * size
        index = {word: i for i, word in enumerate(self.words)}
        for i in sorted(range(size), key=lambda i: len(self.words[i])):
            word = self.words[i]
            if len(word) <= 1:
                forward[i] = fingerprint.matrix(self.ball[i])
                backward[i] = inverse(forward[i])
            else:
                letter, parent = index[word[:1]], index[word[1:]]
                forward[i] = compose(forward[letter], forward[parent])
                backward[i] = compose(backward[parent], backward[letter])
        self.matrices = {1: forward, -1: backward}
        self.images = {
            sign: [apply(a, self.vector) for a in self.matrices[sign]]
            for sign in (1, -1)
        }
        # Per last variable x: (letters before its first occurrence,
        # letters from there to its last occurrence, its sign there,
        # letters after it, the equation's letters).  A constant's
        # payload maps each sign to its matrix, like `self.matrices`.
        tests: dict[int, list[Any]] = {}
        for equation in system:
            prepared = _prepare(equation, group)
            letters = []
            for is_var, payload, sign in prepared:
                if not is_var:
                    a = fingerprint.matrix(payload)
                    payload = {1: a, -1: inverse(a)}
                letters.append((is_var, payload, sign))
            slot = max(payload for is_var, payload, _ in prepared if is_var)
            where = [i for i, (is_var, payload, _) in enumerate(prepared)
                     if is_var and payload == slot]
            first, last = where[0], where[-1]
            tests.setdefault(slot, []).append((
                letters[:first], letters[first:last], letters[last][2],
                letters[last + 1 :], equation.letters,
            ))
        occurring = {x.index - 1 for s in system for x in s.letters if isinstance(x, VarLetter)}
        self.order = sorted(occurring)
        self.tests = [tests.get(slot, []) for slot in self.order]
        self.indices = [0] * nvars
        self.values: list[SolvableElement | None] = [None] * nvars

    def run(self) -> Iterator[tuple[SolvableElement | None, ...]]:
        """Every assignment of the occurring variables that solves the
        system, over all variables with None at the others.  The search
        keeps one `_passing` generator per bound variable on a stack, not
        on the Python call stack, so any number of variables can occur."""
        if not self.order:
            yield tuple(self.values)
            return
        stack = [self._passing(0)]
        while stack:
            if next(stack[-1], None) is None:
                stack.pop()
            elif len(stack) < len(self.order):
                stack.append(self._passing(len(stack)))
            else:
                yield tuple(self.values)

    def _plan(self, depth: int) -> list[Any]:
        """The tests at this depth with the bound variables substituted:
        per equation (image of v under the letters after x's last
        occurrence, or None when there are none; sign of x there; the
        letters from x's first occurrence up to its last, right to left,
        each a matrix or, for x, a matrix per ball element; the target,
        v under the inverses of the letters before x's first occurrence;
        letters)."""
        slot = self.order[depth]
        plan = []
        for prefix, head, sign, tail, letters in self.tests[depth]:
            start = None
            if tail:
                start = self.vector
                for letter in reversed(tail):
                    start = apply(self._matrix(*letter), start)
            ops = [
                self.matrices[s] if is_var and payload == slot
                else self._matrix(is_var, payload, s)
                for is_var, payload, s in reversed(head)
            ]
            target = self.vector
            for is_var, payload, s in prefix:
                target = apply(self._matrix(is_var, payload, -s), target)
            plan.append((start, sign, ops, target, letters))
        return plan

    def _matrix(self, is_var: bool, payload: Any, sign: int) -> Any:
        """The fingerprint matrix of a letter raised to `sign`, its
        variable already bound."""
        return self.matrices[sign][self.indices[payload]] if is_var else payload[sign]

    def _passing(self, depth: int) -> Iterator[int]:
        """Each ball index that passes every test at this depth, in order;
        it is bound to its variable while it is yielded.  The tests are
        planned on the first `next`, once the shallower variables are
        bound."""
        plan = self._plan(depth)
        slot = self.order[depth]
        matrices, images = self.matrices, self.images
        for idx in range(len(self.ball)):
            for begin, sign, ops, target, _ in plan:
                x = images[sign][idx] if begin is None else apply(matrices[sign][idx], begin)
                for op in ops:
                    x = apply(op[idx] if op.__class__ is list else op, x)
                if x != target:
                    break
            else:
                self.indices[slot] = idx
                self.values[slot] = self.ball[idx]
                if all(self._trivial(letters) for *_, letters in plan):
                    yield idx

    def _trivial(self, letters: tuple[Letter, ...]) -> bool:
        """Whether the letters, with each variable replaced by its bound
        value's ball word, are trivial in S(m, n).  A freely trivial word
        is trivial in every S(m, n); any other is normalized.  The
        length is checked before the word is built."""
        words = [self.words[i] for i in self.indices]
        check_length(sum(
            len(words[x.index - 1]) if isinstance(x, VarLetter) else 1 for x in letters
        ))
        word = free_reduce(itertools.chain.from_iterable(
            (x,) if isinstance(x, int)
            else words[x.index - 1] if x.sign > 0 else invert(words[x.index - 1])
            for x in letters
        ))
        return not word or normalize(self.group.m, self.group.n, word).is_trivial()


def _prepare(s: MixedWord, group: Any) -> list[tuple[bool, Any, int]]:
    """Letters as (is_var, variable slot or normalized constant, sign),
    each run of generator letters one constant."""
    out: list[tuple[bool, Any, int]] = []
    for is_var, run in itertools.groupby(
        s.letters, key=lambda letter: isinstance(letter, VarLetter)
    ):
        if is_var:
            out.extend((True, letter.index - 1, letter.sign) for letter in run)
        else:
            out.append((False, normalize(group.m, group.n, tuple(run)), 1))
    return out


def _evaluate_prepared(
    prepared: list[tuple[bool, Any, int]], assignment: Sequence[Any], group: Any
) -> SolvableElement:
    """The exact product of canonical forms."""
    result = group.identity()
    for is_var, payload, sign in prepared:
        value = assignment[payload] if is_var else payload
        if sign < 0:
            value = group.inv(value)
        result = group.mul(result, value)
    return result


def vanishes_on(f: MixedWord, sols: SolutionSet) -> bool:
    """True iff f evaluates trivially on every enumerated solution.

    One-sided: vanishing on the ball solutions is necessary, never
    sufficient, for vanishing on the full solution set.
    """
    if f.nvars > sols.nvars:
        raise ValueError(
            f"arity mismatch: word uses {f.nvars} variables, solutions have "
            f"{sols.nvars}"
        )
    group = free_solvable_group(sols.m, sols.n)
    prepared = _prepare(f, group)
    return all(
        _evaluate_prepared(prepared, assignment, group).is_trivial()
        for assignment in sols.assignments
    )


def equivalent_on_ball(
    s_system: Sequence[MixedWord],
    t_system: Sequence[MixedWord],
    m: int,
    n: int,
    radius: int,
    nvars: int | None = None,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> bool:
    """Whether the two systems have the same solutions over the ball."""
    if nvars is None:
        nvars = max(system_arity(s_system), system_arity(t_system))
    a = solve_ball(s_system, m, n, radius, nvars, assignment_cap)
    b = solve_ball(t_system, m, n, radius, nvars, assignment_cap)
    return a.keys() == b.keys()
