import contextlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from rigidsolv.cli import main
from rigidsolv.free_solvable import MAX_CLASS
from rigidsolv.verify import MAX_SAMPLES
from rigidsolv.words import word_to_str


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_commutator(capsys):
    code, out, _ = run(capsys, "normalize", "-m", "2", "-n", "2", "[x1,x2]")
    assert code == 0
    assert "trivial: false" in out
    assert "d[1]: -1*(0,0) + 1*(0,1)" in out
    assert "d[2]: 1*(0,0) + -1*(1,0)" in out


def test_normalize_empty_word_is_identity(capsys):
    code, out, _ = run(capsys, "normalize", "-m", "2", "-n", "2", "")
    assert code == 0
    assert "trivial: true" in out


def test_normalize_json_roundtrip(capsys):
    code, out, _ = run(capsys, "normalize", "--json", "-m", "2", "-n", "2", "x1")
    data = json.loads(out)
    assert data["m"] == 2 and data["n"] == 2
    assert data["body"]["top"]["body"] == [1, 0]


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "normalize", "-m", "2", "-n", "3", "[x1,x2] x2")
    _, second, _ = run(capsys, "normalize", "-m", "2", "-n", "3", "[x1,x2] x2")
    assert first == second


def test_mul_and_comm(capsys):
    code, out, _ = run(capsys, "mul", "-m", "2", "-n", "2", "x1", "X1")
    assert code == 0 and "trivial: true" in out
    code, out, _ = run(capsys, "comm", "-m", "2", "-n", "2", "x1", "x2")
    assert code == 0 and "trivial: false" in out
    code2, out2, _ = run(capsys, "normalize", "-m", "2", "-n", "2", "[x1,x2]")
    assert out2.replace("normalize", "") == out.replace("comm", "")


def test_project(capsys):
    code, out, _ = run(capsys, "project", "-m", "2", "-n", "2", "-k", "1", "[x1,x2]")
    assert code == 0
    assert "vector: (0,0)" in out


def test_member_both_criteria(capsys):
    for criterion in ("projection", "commutator"):
        code, out, _ = run(
            capsys,
            "member", "-m", "2", "-n", "2", "-i", "2",
            "--criterion", criterion, "[x1,x2]",
        )
        assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "member", "-m", "2", "-n", "2", "-i", "2", "x1")
    assert out.strip() == "false"


def test_fox_and_sigma(capsys):
    code, out, _ = run(capsys, "fox", "-m", "2", "-n", "2", "[x1,x2]")
    assert code == 0
    assert "base: S(2,1)" in out
    code, out, _ = run(capsys, "sigma", "-m", "2", "-n", "2", "x1")
    assert out.strip() == "-1*(0,0) + 1*(1,0)"


def test_wreath_embed(capsys):
    code, out, _ = run(capsys, "wreath-embed", "-m", "2", "-n", "2", "[x1,x2]")
    assert code == 0
    assert "codomain: Z^2 wr Z^2" in out


def test_pdim_subgroup_and_family(capsys):
    code, out, _ = run(capsys, "pdim", "-m", "2", "x1", "x2")
    assert code == 0 and out.strip() == "(2, 1)"
    code, out, _ = run(capsys, "pdim", "-m", "1", "-n", "1", "--family", "wreath")
    assert code == 0 and out.strip() == "(1, 1)"
    code, out, _ = run(
        capsys, "pdim", "--json", "-m", "2", "-n", "3", "--family", "free-solvable"
    )
    assert json.loads(out) == {"dimension": [2, 1, 1]}


def test_pdim_full_rank_m6_finishes():
    # Generator i is row i of random.Random(0)'s 6x6 matrix with entries in
    # [-9, 9], followed by [x1,x2].  Smith transforms of this exponent
    # lattice grew to 130-digit entries and ran past 15 s.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys; from rigidsolv.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [
        "pdim", "-m", "6",
        "x1^3 x2^4 x3^-8 x4^-1 x5^7 x6^6 [x1,x2]",
        "x1^3 x3^6 x4^2 x5^9 x6^-3 [x1,x2]",
        "x1^7 x2^-5 x4^-5 x5^-6 x6^-1 [x1,x2]",
        "x1^8 x2^-5 x4^-6 x5^-7 x6^1 [x1,x2]",
        "x1^6 x2^8 x3^-6 x4^2 x5^4 x6^1 [x1,x2]",
        "x1^-3 x2^8 x3^6 x4^5 x5^7 x6^-1 [x1,x2]",
    ]
    result = subprocess.run([sys.executable, "-c", code, *argv],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (0, "(6, 5)\n")


def test_rank_smith_and_laurent(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    matrix.write_text("[[2,0],[0,3]]")
    code, out, _ = run(capsys, "rank", str(matrix))
    assert code == 0
    assert "rank: 2" in out and "[1, 6]" in out

    laurent = tmp_path / "l.json"
    laurent.write_text(
        json.dumps(
            {
                "nvars": 1,
                "rows": [
                    [[{"exps": [1], "num": 1, "den": 1},
                      {"exps": [0], "num": -1, "den": 1}]],
                    [[{"exps": [0], "num": 1, "den": 1},
                      {"exps": [1], "num": -1, "den": 1}]],
                ],
            }
        )
    )
    code, out, _ = run(capsys, "rank", "--kind", "laurent", "--json", str(laurent))
    assert code == 0
    assert json.loads(out) == {"rank": 1}


def test_solve_inline_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "-m", "2", "-n", "2", "-r", "2", "-e", "$1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["params"]["nvars"] == 1

    system = tmp_path / "system.txt"
    system.write_text("# comment line\n$1\n\n[$1, x1]\n")
    code, out, _ = run(capsys, "solve", "-m", "2", "-n", "2", "-r", "2", str(system))
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_verify_exit_code_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "3", "--seed", "9")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) == 7
    code, out, _ = run(capsys, "verify", "--samples", "3", "--only", "lex_drop")
    assert code == 0
    assert len(json.loads(out)["checks"]) == 1


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "-m", "2", "-n", "2", "x1 )")
    assert code == 2
    assert "line 1, column 4" in err


def test_deep_nesting_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "-m", "2", "-n", "2",
                       "(" * 3000 + "x1" + ")" * 3000)
    assert code == 2
    assert "column 101" in err and "nested" in err
    code, _, err = run(capsys, "solve", "-m", "2", "-n", "2", "-r", "1",
                       "-e", "(" * 3000 + "[$1,x1]" + ")" * 3000)
    assert code == 2


@pytest.mark.parametrize(
    "word",
    [
        "x1^(" * 100 + "x2" + ")" * 100,
        "[x1," * 100 + "x2" + "]" * 100,
        "x1^99999999999",
    ],
)
def test_word_length_cap_exit_3(capsys, word):
    # Sugar nested inside the bracket cap grows exponentially; the
    # expansion is refused before it is built.
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", "-m", "2", "-n", "2", word)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: word too long") and err.count("\n") == 1


@pytest.mark.parametrize(
    "kind,matrix",
    [
        ("smith", [[1, 2, 3], [4, 5]]),
        ("smith", [[1.5, 2], [3, 4]]),
        ("smith", [[True, 2], [3, 4]]),
        ("smith", {"rows": [[1]]}),
        ("laurent", {"nvars": 1, "rows": 5}),
        ("laurent", {"nvars": 1, "rows": [[[]], []]}),
        ("laurent", {"nvars": True, "rows": [[[]]]}),
        ("laurent", {"nvars": 1, "rows": [[5]]}),
        ("laurent", {"nvars": 1, "rows": [[[{"exps": [1], "num": 0.5}]]]}),
        ("laurent", {"nvars": 1, "rows": [[[{"exps": [1], "num": 1, "den": 0}]]]}),
        ("laurent", [[1]]),
    ],
)
def test_rank_bad_shape_exit_2(tmp_path, capsys, kind, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run(capsys, "rank", "--kind", kind, "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cap_exceeded_exit_3(capsys):
    code, _, err = run(
        capsys,
        "solve", "-m", "2", "-n", "2", "-r", "8",
        "-e", "$1 $2 $3", "--assignment-cap", "10",
    )
    assert code == 3
    assert "search space too large" in err


def test_ball_cap_checked_before_counting_the_radius(capsys):
    # The reduced-word count stops once it passes --ball-cap, so a huge
    # radius costs a few steps, not one big-integer step per unit.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "solve", "-m", "2", "-n", "2", "-r", "1000000000", "-e", "x1 $1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ball too large") and err.count("\n") == 1


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_semantic_error_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "-m", "2", "-n", "2", "x3")
    assert code == 2
    assert "generator index" in err


def class_argv(command, n):
    """A two-letter input for each subcommand that takes a class -n."""
    group = ["-m", "2", "-n", str(n)]
    return {
        "normalize": ["normalize", *group, "x1 x2"],
        "mul": ["mul", *group, "x1", "x2"],
        "comm": ["comm", *group, "x1", "x2"],
        "project": ["project", *group, "-k", "1", "x1 x2"],
        "member": ["member", *group, "-i", "1", "x1 x2"],
        "fox": ["fox", *group, "x1 x2"],
        "sigma": ["sigma", *group, "x1 x2"],
        "wreath-embed": ["wreath-embed", *group, "x1 x2"],
        "pdim": ["pdim", *group, "--family", "wreath"],
        "solve": ["solve", *group, "-r", "1", "-e", "x1 $1"],
    }[command]


@pytest.mark.parametrize(
    "command",
    ["normalize", "mul", "comm", "project", "member", "fox", "sigma",
     "wreath-embed", "pdim", "solve"],
)
def test_class_cap_exit_3(capsys, command):
    # Above the cap the class is refused before any recursion into it.
    code, out, err = run(capsys, *class_argv(command, MAX_CLASS))
    assert code == 0 and out and err == ""
    code, out, err = run(capsys, *class_argv(command, MAX_CLASS + 1))
    assert code == 3 and out == ""
    assert err == f"error: class {MAX_CLASS + 1} exceeds cap {MAX_CLASS}\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_nonpositive_samples(capsys, samples):
    code, out, err = run(capsys, "verify", "--only", "lex_drop", "--samples", samples)
    assert code == 2 and out == ""
    assert err == f"error: samples must be at least 1, got {samples}\n"


def test_verify_samples_cap_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--only", "product_rule",
                         "--samples", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == f"error: samples 100000000 exceeds cap {MAX_SAMPLES}\n"


def test_verify_samples_at_cap_runs(capsys):
    code, out, _ = run(capsys, "verify", "--only", "retraction",
                       "--samples", str(MAX_SAMPLES))
    assert code == 0
    assert json.loads(out)["checks"][0]["samples"] == MAX_SAMPLES


def test_witness_chain_past_word_cap_exit_3(capsys):
    # The 11th witness word would have 2,446,676 letters.
    start = time.perf_counter()
    code, out, err = run(capsys, "member", "-m", "2", "-n", "11", "-i", "11",
                         "--criterion", "commutator", "x1")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: word too long: 2446676 letters")
    assert err.count("\n") == 1


def test_laurent_rank_cost_is_bounded_by_the_input_not_nvars(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nvars": 100_000_000, "rows": [[[]]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "--kind", "laurent", "--json", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, '{"rank": 0}\n', "")


SOLVE_OPS = [
    ["solve", "-m", "2", "-n", "3", "-r", "3", "-e", "[$1,$2]"],
    ["solve", "-m", "2", "-n", "2", "-r", "2", "-e", "[$1,$2]", "-e", "[$2,$3]"],
    ["solve", "-m", "2", "-n", "4", "-r", "3", "-e", "[$1,[x1,x2]]"],
]


def test_solve_output_does_not_depend_on_the_hash_seed():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        outputs[seed] = [
            subprocess.run([sys.executable, "-m", "rigidsolv", *argv], env=env,
                           capture_output=True, text=True, timeout=120,
                           check=True).stdout
            for argv in SOLVE_OPS
        ]
    assert all(outputs["1"])
    assert outputs["1"] == outputs["2"]


def test_long_word_json_writes_shared_elements_once(tmp_path):
    # A freely reduced 200-letter word in S(2,4) prints 56 MB of JSON,
    # the expanded tree of a DAG whose shared sub-elements are each
    # serialized once (8 s when every occurrence was rebuilt).
    rng = random.Random(2)
    letters = []
    while len(letters) < 200:
        letter = rng.choice((1, -1, 2, -2))
        if not letters or letters[-1] != -letter:
            letters.append(letter)
    path = tmp_path / "out.json"
    with open(path, "w", encoding="utf-8") as handle:
        with contextlib.redirect_stdout(handle):
            start = time.perf_counter()
            code = main(["normalize", "-m", "2", "-n", "4", "--json",
                         word_to_str(letters)])
            elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0
    assert path.stat().st_size > 50_000_000
