"""Seeded workload generation: every op is one `rigidsolv` command line.

A workload is a *round*: a fixed list of ops built from the seed.  The
timed phase runs whole rounds, so every run of a seed executes exactly
the same ops and the per-op records of two runs line up by name.

Inputs fall into two groups.  Fixed inputs do not depend on the seed:
the `x1^k` ladder, the pathological cases named in ROADMAP "Recent"
(`x1^2000`, the 160-letter S(2,3) word, the 40-letter S(2,4) word,
Smith 6x6/7x7/8x8, Laurent 5x5/7x7, the two `solve [$1,$2]` cases) and
the known-defect inputs.  The heaviest ops of each round are fixed, so
the tail latency falls inside the repeats of one fixed op for every
seed.  Seeded inputs are freely reduced random words, matrices,
subgroups and equations of fixed sizes; only their letters and entries
come from the seed.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Any

Word = tuple[int, ...]

#: Per-op time cap in seconds.  The slowest op that passes, x1^2000,
#: takes 6-9 s on a 2-core Xeon; the capped ops never finish.
DEFAULT_CAP_S = 30.0
#: Smith ranks that finish take under 20 ms; the two fixed 7x7/8x8
#: matrices never finish, so a short cap keeps their cost small.
SMITH_CAP_S = 0.5

#: Planned duration of one untraced round.  A run repeats its round
#: ceil(seconds / ROUND_S) times, so the amount of work depends only on
#: --seconds, never on measured time.  At 15 s that is 3, 3 and 6
#: rounds, which puts the tail (10 executions beyond it) among the
#: repeats of fixed ops: len40 S(2,4) or x1^800, Laurent 7x7, and
#: solve [$1,$2] in S(2,3).
ROUND_S = {"word-problem": 7.0, "exact-linalg": 5.0, "ball-solve": 2.5}
#: Scaling inputs a workload lacks run this many times after its rounds.
PROBE_ROUNDS = 5

LADDER_K = (100, 200, 400, 800)
LADDER_TOP = 2000
CLASS_STEP_LENGTHS = (16, 20, 24)
LAURENT_LADDER = (3, 4, 5, 6)


@dataclasses.dataclass(frozen=True)
class Op:
    """One in-process call of `rigidsolv.cli.main(argv)`.

    `check` names the oracle in `oracles.py` and carries its inputs.
    `known` marks a listed failure: "capped" for an op that never
    finishes, "traceback" for a known defect that escapes the exit-code
    contract.  Such an op still counts in `failed_ratio`.
    """

    name: str
    argv: tuple[str, ...]
    check: tuple[Any, ...] = ()
    stdin: str | None = None
    expect: int = 0
    cap_s: float = DEFAULT_CAP_S
    known: str | None = None
    tags: dict[str, Any] = dataclasses.field(default_factory=dict, compare=False)

    def spec(self) -> list[Any]:
        """What the program receives: hashed into the input digest."""
        return [self.name, list(self.argv), self.stdin, self.expect, self.cap_s]


# -- words ---------------------------------------------------------------


def random_word(rng: random.Random, length: int, m: int) -> Word:
    """Uniform freely reduced word of exactly `length` letters."""
    letters: list[int] = []
    choices = [s * i for i in range(1, m + 1) for s in (1, -1)]
    while len(letters) < length:
        letter = rng.choice(choices)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return tuple(letters)


def inverse(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def commutator(u: Word, v: Word) -> Word:
    return inverse(u) + inverse(v) + u + v


def text(word: Word) -> str:
    return " ".join(f"x{x}" if x > 0 else f"X{-x}" for x in word)


def _group(m: int, n: int) -> list[str]:
    return ["-m", str(m), "-n", str(n)]


def normalize_op(name: str, m: int, n: int, word: Word, **tags: Any) -> Op:
    return Op(
        name,
        ("normalize", *_group(m, n), "--json", text(word)),
        ("element", m, n, word),
        tags=tags,
    )


# -- word-problem ----------------------------------------------------------


def ladder_ops(ks: tuple[int, ...]) -> list[Op]:
    return [
        Op(
            f"normalize x1^{k} S(2,2)",
            ("normalize", *_group(2, 2), "--json", f"x1^{k}"),
            ("power_x1", k),
            tags={"ladder_k": k},
        )
        for k in ks
    ]


def class_step_ops() -> list[Op]:
    """The same fixed words normalized at classes 2, 3 and 4."""
    rng = random.Random("class-step")
    ops = []
    for length in CLASS_STEP_LENGTHS:
        word = random_word(rng, length, 2)
        for n in (2, 3, 4):
            ops.append(
                normalize_op(
                    f"normalize class-step len{length} S(2,{n})",
                    2, n, word, class_step=length, level=n,
                )
            )
    return ops


def word_problem(seed: int) -> list[Op]:
    fixed = random.Random("pathological")
    ops = [normalize_op(f"normalize len{length} S(2,{n}) fixed", 2, n,
                        random_word(fixed, length, 2))
           for n, length in ((3, 160), (4, 40))]
    ops.append(Op("normalize parens-3000",
                  ("normalize", *_group(2, 2), "(" * 3000 + "x1" + ")" * 3000),
                  expect=2, known="traceback"))
    ops += ladder_ops(LADDER_K) + class_step_ops()
    # Two sets of seeded ops: the more distinct words, the less the
    # median latency depends on the seed.
    rng = random.Random(f"word-problem:{seed}")
    return ops + seeded_word_ops(rng) + seeded_word_ops(rng)


def seeded_word_ops(rng: random.Random) -> list[Op]:
    """One op per subcommand and size; each takes under 0.1 s, well
    below the fixed heavy ops."""
    ops = []
    for m, n, length in ((2, 2, 100), (3, 2, 200), (2, 2, 200), (2, 3, 30),
                         (3, 3, 30), (2, 3, 40), (2, 4, 16), (3, 4, 14)):
        ops.append(normalize_op(f"normalize len{length} S({m},{n})", m, n,
                                random_word(rng, length, m)))
    for sub, m, n, length in (("fox", 2, 2, 150), ("fox", 3, 3, 30),
                              ("sigma", 2, 2, 150), ("sigma", 2, 3, 40),
                              ("wreath-embed", 2, 2, 150), ("wreath-embed", 3, 3, 30),
                              ("wreath-embed", 2, 4, 14)):
        word = random_word(rng, length, m)
        kind = {"fox": "matrix", "sigma": "sigma", "wreath-embed": "wreath"}[sub]
        ops.append(Op(f"{sub} len{length} S({m},{n})",
                      (sub, *_group(m, n), "--json", text(word)),
                      (kind, m, n, word)))
    for m, n, k, length in ((2, 3, 2, 40), (3, 2, 1, 200), (2, 4, 3, 16)):
        word = random_word(rng, length, m)
        ops.append(Op(f"project len{length} S({m},{n})->{k}",
                      ("project", *_group(m, n), "-k", str(k), "--json", text(word)),
                      ("project", m, n, k, word)))
    # Member words: a random word (in no proper term of the series), a
    # commutator (in G_2) and a commutator of commutators (in G_3).  Each
    # i gets its own word, so that fewer ops share one word's cost.
    for m, n, length, depth in ((2, 3, 30, 0), (2, 3, 8, 1), (2, 3, 3, 2),
                                (3, 2, 150, 0), (3, 2, 40, 1)):
        for i in range(2, n + 1):
            word = random_word(rng, length, m)
            if depth >= 1:
                word = commutator(word, random_word(rng, length, m))
            if depth == 2:
                word = commutator(word, commutator(random_word(rng, length, m),
                                                   random_word(rng, length, m)))
            for criterion in ("projection", "commutator"):
                ops.append(Op(
                    f"member len{len(word)} S({m},{n}) i={i} {criterion}",
                    ("member", *_group(m, n), "-i", str(i), "--criterion", criterion,
                     "--json", text(word)),
                    ("member", m, n, i, word),
                ))
    for m, n, length in ((2, 2, 100), (3, 2, 100), (2, 3, 20)):
        u, v = random_word(rng, length, m), random_word(rng, length, m)
        ops.append(Op(f"mul len{length}+{length} S({m},{n})",
                      ("mul", *_group(m, n), "--json", text(u), text(v)),
                      ("product", m, n, u + v)))
    u = random_word(rng, 25, 2)
    ops.append(Op("mul w*w^-1 len25 S(2,3)",
                  ("mul", *_group(2, 3), "--json", text(u), text(inverse(u))),
                  ("product", 2, 3, ())))
    for m, n, length in ((2, 2, 40), (2, 3, 12)):
        u, v = random_word(rng, length, m), random_word(rng, length, m)
        ops.append(Op(f"comm len{length} S({m},{n})",
                      ("comm", *_group(m, n), "--json", text(u), text(v)),
                      ("product", m, n, commutator(u, v))))
    return ops


# -- exact-linalg ----------------------------------------------------------


def int_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def laurent_matrix(rng: random.Random, size: int) -> dict[str, Any]:
    """size x size, 2 variables, 3 terms per entry, exponents in {-1,0,1}."""
    nonzero = [c for c in range(-3, 4) if c]
    rows = [
        [
            [{"exps": [rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))],
              "num": rng.choice(nonzero), "den": 1} for _ in range(3)]
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    return {"nvars": 2, "rows": rows}


def smith_op(name: str, matrix: list[list[Any]], **kw: Any) -> Op:
    return Op(name, ("rank", "--json", "-"), ("smith", matrix),
              stdin=json.dumps(matrix), cap_s=SMITH_CAP_S, **kw)


def laurent_op(name: str, matrix: dict[str, Any], rank_at_most: int, **tags: Any) -> Op:
    return Op(name, ("rank", "--kind", "laurent", "--json", "-"),
              ("laurent", matrix, rank_at_most), stdin=json.dumps(matrix), tags=tags)


def laurent_ladder_ops() -> list[Op]:
    """One fixed matrix per size, seeded by the size: the inputs of the
    size fit on every workload."""
    return [
        laurent_op(f"rank laurent {s}x{s} fixed", laurent_matrix(random.Random(s), s), s,
                   laurent_size=s)
        for s in LAURENT_LADDER
    ]


def exact_linalg(seed: int) -> list[Op]:
    ops = laurent_ladder_ops()
    ops.append(laurent_op("rank laurent 7x7 fixed", laurent_matrix(random.Random(7), 7), 7))
    ops.append(smith_op("rank smith 6x6 s0", int_matrix(random.Random(0), 6, 6)))
    ops.append(smith_op("rank smith 7x7 s0", int_matrix(random.Random(0), 7, 7),
                        known="capped"))
    ops.append(smith_op("rank smith 8x8 s1", int_matrix(random.Random(1), 8, 8),
                        known="capped"))
    ops.append(Op("rank ragged", ("rank", "--json", "-"), stdin="[[1, 2, 3], [4, 5]]",
                  expect=2, known="traceback"))

    rng = random.Random(f"exact-linalg:{seed}")
    # Enough ~3 ms Smith ops that the median execution falls well inside
    # their cluster, not at its edge next to the pdim and 3x3 Laurent ranks.
    for rows, cols in 3 * ((4, 4), (4, 4), (4, 4), (5, 5), (5, 5), (5, 5), (3, 5), (5, 4),
                           (3, 3), (3, 4), (4, 5), (5, 3), (2, 5), (5, 2)):
        ops.append(smith_op(f"rank smith {rows}x{cols}", int_matrix(rng, rows, cols)))
    dependent = int_matrix(rng, 4, 5)
    dependent.append([a - 2 * b for a, b in zip(dependent[0], dependent[1])])
    ops.append(smith_op("rank smith 5x5 rank<=4", dependent))
    for size in (3, 3, 3, 3, 4, 4, 4, 4, 5, 5):
        ops.append(laurent_op(f"rank laurent {size}x{size}", laurent_matrix(rng, size), size))
    # Row 4 = row 1 + row 2 over the Laurent ring, so the rank is at most 3.
    deficient = laurent_matrix(rng, 4)
    deficient["rows"][3] = [a + b for a, b in zip(deficient["rows"][0], deficient["rows"][1])]
    ops.append(laurent_op("rank laurent 4x4 rank<=3", deficient, 3))

    for m, count in ((2, 3), (3, 3)):
        for _ in range(count):
            gens = _subgroup(rng, m)
            ops.append(Op(f"pdim {len(gens)} generators S({m},2)",
                          ("pdim", "-m", str(m), "--json", *map(text, gens)),
                          ("pdim", m, gens)))
    for family, m, n in (("free-solvable", 2, 3), ("free-solvable", 3, 4), ("wreath", 2, 2)):
        ops.append(Op(f"pdim --family {family} m={m} n={n}",
                      ("pdim", "-m", str(m), "-n", str(n), "--family", family, "--json"),
                      ("family", family, m, n)))
    return ops


def _subgroup(rng: random.Random, m: int) -> list[Word]:
    """2-3 short generator words, the first with nonzero exponent sum, so
    the subgroup never dies in the abelianization (which exits 2)."""
    while True:
        gens = [random_word(rng, rng.randint(1, 6), m) for _ in range(rng.randint(2, 3))]
        if any(gens[0].count(i) != gens[0].count(-i) for i in range(1, m + 1)):
            return gens


# -- ball-solve ------------------------------------------------------------

#: (check name, samples): each verify op takes 5-50 ms.
VERIFY_SAMPLES = (("product_rule", 40), ("sigma", 40), ("no_torsion", 2),
                  ("series_criteria", 2), ("lex_drop", 1), ("rank_bounds", 8),
                  ("retraction", 8))


def solve_op(name: str, m: int, n: int, radius: int, equations: list[str],
             solutions: tuple[Any, ...] = ("diagonal",), *, via_stdin: bool = False,
             **kw: Any) -> Op:
    """`solutions` lists solutions the output must contain: "diagonal" stands
    for every tuple (a, ..., a) of one ball element, a word tuple for
    itself.  The identity tuple is always required."""
    argv = ["solve", *_group(m, n), "-r", str(radius)]
    if via_stdin:
        argv.append("-")
        stdin = "".join(f"{e}\n" for e in equations)
    else:
        for e in equations:
            argv += ["-e", e]
        stdin = None
    return Op(name, tuple(argv), ("solve", m, n, radius, tuple(equations), solutions),
              stdin=stdin, **kw)


def ball_solve(seed: int) -> list[Op]:
    ops = [
        solve_op("solve [$1,$2] r=3 S(2,2)", 2, 2, 3, ["[$1,$2]"]),
        solve_op("solve [$1,$2] r=3 S(2,3)", 2, 3, 3, ["[$1,$2]"]),
        solve_op("solve [$1,[x1,x2]] r=4 S(2,2)", 2, 2, 4, ["[$1,[x1,x2]]"],
                 (((-1, -2, 1, 2),),)),
        solve_op("solve [$1,[x1,x2]] r=4 S(2,3)", 2, 3, 4, ["[$1,[x1,x2]]"],
                 (((-1, -2, 1, 2),),)),
        solve_op("solve system [$1,$2];[$2,$3] r=2 S(2,2)", 2, 2, 2,
                 ["[$1,$2]", "[$2,$3]"], via_stdin=True),
        Op("solve assignment-cap exit 3",
           ("solve", *_group(2, 2), "-r", "3", "--assignment-cap", "100", "-e", "[$1,$2]"),
           ("empty",), expect=3),
        Op("solve parens-3000",
           ("solve", *_group(2, 2), "-r", "1", "-e", "(" * 3000 + "[$1,x1]" + ")" * 3000),
           expect=2, known="traceback"),
    ]
    rng = random.Random(f"ball-solve:{seed}")
    forms = ("[$1, {c}]", "$1 {c} $1^-1 {ci}", "[$1^2, {c}]")
    # Twelve 20-70 ms equations put the median execution inside their
    # cluster, whatever the seeded verify samples cost.
    for index, (n, radius) in enumerate(2 * ((2, 4), (2, 4), (2, 4), (3, 3), (3, 3), (3, 3))):
        c = random_word(rng, 3, 2)
        equation = forms[index % 3].format(c=text(c), ci=text(inverse(c)))
        # x = c commutes with c, so it solves all three forms.
        ops.append(solve_op(f"solve one-variable #{index} r={radius} S(2,{n})",
                            2, n, radius, [equation], ((c,),)))
    for index, (check, samples) in enumerate(VERIFY_SAMPLES):
        check_seed = seed * len(VERIFY_SAMPLES) + index
        ops.append(Op(f"verify {check} samples={samples}",
                      ("verify", "--only", check, "--samples", str(samples),
                       "--seed", str(check_seed)),
                      ("verify", check)))
    return ops


def warm_up_ops(ops: list[Op]) -> list[Op]:
    """One tiny op per subcommand and group among `ops`.

    The first call in a process fills the lru caches of groups, letter
    matrices and witnesses, as a user's first call would; run untimed,
    these keep that cost out of the timed ops.
    """
    tiny: dict[tuple[Any, ...], Op] = {}
    for op in ops:
        sub, argv = op.argv[0], op.argv
        if sub == "rank":
            laurent = "laurent" in argv
            tiny.setdefault(("rank", laurent), Op("warm-up", argv, stdin=(
                '{"nvars": 1, "rows": [[[{"exps": [1], "num": 1}]]]}' if laurent
                else "[[1, 2], [3, 4]]")))
        elif sub == "verify":
            tiny.setdefault(argv[:3], Op("warm-up", (*argv[:3], "--samples", "1")))
        elif sub == "pdim":
            tiny.setdefault(("pdim",), Op("warm-up", ("pdim", "-m", "2", "x1", "[x1,x2]")))
        else:  # argv starts with: subcommand -m m -n n
            criterion = "commutator" if "commutator" in argv else "projection"
            m = int(argv[2])
            word = text(tuple(x for i in range(1, m + 1) for x in (i, -i)) + (1,))
            tail = {"mul": (word, word), "comm": (word, word), "project": ("-k", "1", word),
                    "member": ("-i", "2", "--criterion", criterion, word),
                    "solve": ("-r", "1", "-e", "[$1,x1]")}.get(sub, (word,))
            tiny.setdefault((*argv[:5], criterion), Op("warm-up", (*argv[:5], *tail)))
    return list(tiny.values())


def _numbered(generate: Any) -> Any:
    """Suffix repeated op names with #2, #3, ... so that names are unique."""
    def numbered(seed: int) -> list[Op]:
        seen: dict[str, int] = {}
        out = []
        for op in generate(seed):
            seen[op.name] = seen.get(op.name, 0) + 1
            if seen[op.name] > 1:
                op = dataclasses.replace(op, name=f"{op.name} #{seen[op.name]}")
            out.append(op)
        return out
    return numbered


WORKLOADS = {
    "word-problem": _numbered(word_problem),
    "exact-linalg": _numbered(exact_linalg),
    "ball-solve": _numbered(ball_solve),
}


def probe_ops(workload: str) -> list[Op]:
    """Scaling inputs that `workload` lacks, run PROBE_ROUNDS times after
    its rounds.

    Every workload reports every end-to-end metric, so the three
    scaling fits need inputs everywhere; on its home workload each fit
    uses the ops of the timed rounds instead.
    """
    ops: list[Op] = []
    if workload != "word-problem":
        ops += ladder_ops(LADDER_K) + class_step_ops()
    if workload != "exact-linalg":
        ops += laurent_ladder_ops()
    return ops


def once_ops(workload: str) -> list[Op]:
    """Checked and recorded once per run, outside the timed rounds: the
    ladder top takes longer than a whole round."""
    if workload == "word-problem":
        return [dataclasses.replace(op, tags={}) for op in ladder_ops((LADDER_TOP,))]
    return []
