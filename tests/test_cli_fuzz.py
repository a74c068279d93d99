"""Generated command lines for every subcommand.

Each run must end with exit code 0, 2 or 3 (1 only for `verify`, whose
checks may fail), print at most one line on stderr and raise nothing out
of `main`.  The argv is always well formed for argparse; the values in
it (ranks, classes, indices, word text, matrix JSON) are generated.
Sizes are bounded, m <= 3, n <= 4, words <= 30 letters, radius <= 2 and
matrices <= 4x4, because canonical keys grow quickly with the class and
with the word.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidsolv.cli import main
from rigidsolv.errors import CapExceededError
from rigidsolv.linalg import LaurentPoly, laurent_rank_bareiss
from rigidsolv.verify import ALL_CHECKS
from rigidsolv.words import parse_letters

MAX_LETTERS = 30

TOKENS = [
    "x1", "x2", "x3", "X1", "X2", "X3", "x4", "x0", "$1", "$2", "$0",
    " ", "(", ")", "[", "]", "{", "}", ",", "^", "-", "0", "1", "2", "x", "$", "#",
]


def short(text):
    """Text that expands to at most MAX_LETTERS letters, or does not parse."""
    try:
        return len(parse_letters(text)) <= MAX_LETTERS
    except (ValueError, CapExceededError):
        return True


letters = st.sampled_from(["x1", "X1", "x2", "X2", "x3", "X3", "$1", "$2"])
grammar = st.recursive(
    letters,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(" ".join),
        st.tuples(inner, inner).map("[{0[0]},{0[1]}]".format),
        st.tuples(inner, inner).map("({0[0]})^({0[1]})".format),
        st.tuples(inner, st.integers(-3, 3)).map("({0[0]})^{0[1]}".format),
        inner.map("{{{}}}".format),
    ),
    max_leaves=6,
)
soup = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)
words = st.one_of(grammar, soup).filter(short)
ranks = st.sampled_from([0, 1, 2, 2, 3]).map(str)
classes = st.integers(-1, 4).map(str)
small = st.integers(-1, 5).map(str)
json_flag = st.sampled_from([[], ["--json"]])


@st.composite
def group_flags(draw):
    return [*draw(json_flag), "-m", draw(ranks), "-n", draw(classes)]


terms = st.lists(
    st.fixed_dictionaries({
        "exps": st.lists(st.integers(-2, 2), max_size=3),
        "num": st.integers(-3, 3),
        "den": st.integers(-2, 2),
    }),
    max_size=3,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats(-9, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["nvars", "rows", "exps", "num", "den"]), inner,
                      max_size=4),
    max_leaves=12,
)
def rectangular(entries):
    return st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols),
                              min_size=1, max_size=4)
    )


@st.composite
def laurent_text(draw):
    """A well-formed Laurent matrix: nvars 0..3, non-unit denominators,
    negative exponents, and with a row = row 1 + row 2 (concatenated term
    lists) half the time, so the rank falls short of full and the exact
    fallback runs."""
    nvars = draw(st.integers(0, 3))
    term = st.fixed_dictionaries({
        "exps": st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
        "num": st.integers(-3, 3),
        "den": st.sampled_from([1, 1, 2, -3, 4]),
    })
    rows = draw(rectangular(st.lists(term, max_size=3)))
    if len(rows) >= 3 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return json.dumps({"nvars": nvars, "rows": rows})


matrix_text = st.one_of(
    rectangular(st.integers(-9, 9)).map(json.dumps),
    st.lists(st.lists(st.integers(-9, 9), max_size=4), max_size=4).map(json.dumps),
    st.fixed_dictionaries({
        "nvars": st.integers(-1, 2),
        "rows": rectangular(terms) | st.lists(st.lists(terms, max_size=4), max_size=4),
    }).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=12),
)


@st.composite
def argv_for(draw, command):
    """(argv, stdin text) for one run of `command`."""
    if command in ("normalize", "fox", "sigma", "wreath-embed"):
        return [command, *draw(group_flags()), "--", draw(words)], ""
    if command in ("mul", "comm"):
        return [command, *draw(group_flags()), "--", draw(words), draw(words)], ""
    if command == "project":
        return [command, *draw(group_flags()), "-k", draw(small), "--", draw(words)], ""
    if command == "member":
        criterion = draw(st.sampled_from(["projection", "commutator"]))
        return [command, *draw(group_flags()), "-i", draw(small),
                "--criterion", criterion, "--", draw(words)], ""
    if command == "pdim":
        if draw(st.booleans()):
            family = draw(st.sampled_from(["free-solvable", "wreath"]))
            return [command, *draw(group_flags()), "--family", family], ""
        generators = draw(st.lists(words, max_size=3))
        return [command, *draw(json_flag), "-m", draw(ranks), "--", *generators], ""
    if command == "rank":
        kind = draw(st.sampled_from(["smith", "laurent"]))
        text = st.one_of(laurent_text(), matrix_text) if kind == "laurent" else matrix_text
        return [command, *draw(json_flag), "--kind", kind, "-"], draw(text)
    if command == "solve":
        argv = [command, "-m", draw(ranks), "-n", draw(classes),
                "-r", str(draw(st.integers(-1, 2))),
                "--assignment-cap", str(draw(st.integers(-1, 100)))]
        if draw(st.booleans()):
            argv += ["-v", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv += ["--ball-cap", str(draw(st.integers(-1, 50)))]
        equations = draw(st.lists(words, min_size=1, max_size=2))
        return argv + [f"--equation={text}" for text in equations], ""
    assert command == "verify"
    return [command, "--only", draw(st.sampled_from(sorted(ALL_CHECKS))),
            "--samples", str(draw(st.integers(-1, 2))),
            "--seed", str(draw(st.integers(0, 2**32))),
            *draw(st.sampled_from([[], ["--verbose"]]))], ""


def run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command",
    ["normalize", "mul", "comm", "project", "member", "fox", "sigma",
     "wreath-embed", "pdim", "rank", "solve", "verify"],
)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_generated_argv_holds_exit_contract(command, data):
    argv, stdin = data.draw(argv_for(command), label="argv")
    code, _, err = run(argv, stdin)
    assert code in (0, 1, 2, 3)
    assert code != 1 or command == "verify"
    assert err.count("\n") <= 1 and "Traceback" not in err


@given(text=laurent_text())
@settings(max_examples=40, deadline=None)
def test_generated_laurent_rank_is_exact(text):
    # Full-rank matrices end on the modular path, the others on Bareiss;
    # both must answer through `main` with exit 0 and the exact rank.
    code, out, err = run(["rank", "--kind", "laurent", "--json", "-"], text)
    data = json.loads(text)
    matrix = [[LaurentPoly.from_json(data["nvars"], entry) for entry in row]
              for row in data["rows"]]
    assert code == 0 and err == ""
    assert json.loads(out) == {"rank": laurent_rank_bareiss(matrix)}
