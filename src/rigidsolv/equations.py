"""Desk-scale equations over S(m, n): evaluation, ball solutions,
vanishing tests.

A mixed word is a sequence of variable occurrences and constant words;
evaluating it at a tuple of group elements substitutes each variable.
`solve_ball` enumerates assignments over a ball exhaustively, so the
returned set is the honest solution set restricted to the ball - an
empty result never claims the equation has no solutions in the whole
group.  For the same reason the one-sided vanishing test is named
`vanishes_on`, not a radical membership test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence, Union

from .errors import CapExceededError
from .free_solvable import (
    SolvableElement,
    ball_enumerate,
    free_solvable_group,
    normalize,
)
from .words import Letter, VarLetter, Word, parse_letters

DEFAULT_ASSIGNMENT_CAP = 10_000_000


@dataclass(frozen=True)
class Var:
    """A variable occurrence x_index^sign."""

    index: int
    sign: int


@dataclass(frozen=True)
class Const:
    """A run of constant letters."""

    word: Word


MixedLetter = Union[Var, Const]


@dataclass(frozen=True)
class MixedWord:
    """Word with variables $1..$nvars and constants from the group."""

    letters: tuple[MixedLetter, ...]
    nvars: int

    @staticmethod
    def from_letters(letters: Sequence[Letter], nvars: int | None = None) -> "MixedWord":
        out: list[MixedLetter] = []
        run: list[int] = []
        seen = 0
        for letter in letters:
            if isinstance(letter, VarLetter):
                if run:
                    out.append(Const(tuple(run)))
                    run = []
                out.append(Var(letter.index, letter.sign))
                seen = max(seen, letter.index)
            else:
                run.append(letter)
        if run:
            out.append(Const(tuple(run)))
        if nvars is None:
            nvars = seen
        elif seen > nvars:
            raise ValueError(f"arity mismatch: variable ${seen} exceeds arity {nvars}")
        return MixedWord(tuple(out), nvars)

    @staticmethod
    def parse(text: str, ngens: int | None = None, nvars: int | None = None,
              line: int = 1) -> "MixedWord":
        return MixedWord.from_letters(
            parse_letters(text, ngens=ngens, line=line), nvars=nvars
        )

    def __str__(self) -> str:
        from .words import word_to_str

        parts = []
        for letter in self.letters:
            if isinstance(letter, Var):
                parts.append(f"${letter.index}" if letter.sign > 0
                             else f"(${letter.index})^-1")
            else:
                parts.append(word_to_str(letter.word))
        return " ".join(parts)


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

    def __contains__(self, assignment: tuple[SolvableElement, ...]) -> bool:
        return assignment in self.assignments

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
    evaluates to the identity; deterministic canonical order."""
    if nvars is None:
        nvars = system_arity(system)
    elif nvars < system_arity(system):
        raise ValueError(
            f"arity mismatch: system uses {system_arity(system)} variables, "
            f"declared {nvars}"
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
    prepared = [_prepare(s, group) for s in system]
    solutions = []
    for assignment in itertools.product(ball, repeat=nvars):
        if all(_evaluate_prepared(p, assignment, group).is_trivial() for p in prepared):
            solutions.append(assignment)
    solutions.sort(key=lambda a: tuple(e.key() for e in a))
    return SolutionSet(m, n, radius, nvars, tuple(solutions))


def _prepare(s: MixedWord, group: Any) -> list[tuple[bool, Any, int]]:
    """Letters as (is_var, variable slot or normalized constant, sign)."""
    out: list[tuple[bool, Any, int]] = []
    for letter in s.letters:
        if isinstance(letter, Var):
            out.append((True, letter.index - 1, letter.sign))
        else:
            out.append((False, normalize(group.m, group.n, letter.word), 1))
    return out


def _evaluate_prepared(
    prepared: list[tuple[bool, Any, int]],
    assignment: tuple[SolvableElement, ...],
    group: Any,
) -> SolvableElement:
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
