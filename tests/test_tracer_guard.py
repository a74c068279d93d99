"""The benchmark tracer still installs on the library.

`bench/tracer.py` wraps library names it looks up by attribute (class
methods through `vars(cls)[attr]`, functions through `getattr`), so a
renamed or deleted name breaks `bench/run.py --trace 1` without failing
any library test.  This test installs the tracer in a fresh interpreter
and runs one small op per subcommand through it; it only reads `bench/`.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from rigidsolv import cli
from rigidsolv.errors import CapExceededError

t = tracer.Tracer(CapExceededError)
tracer.install(t)
ops = json.loads(sys.argv[3])
codes = []
for argv in ops:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({
    "codes": codes,
    "per_layer": tracer.PER_LAYER,
    "metrics": t.metrics(),
    "module_self_s": t.self_time_by_module(),
}))
"""


def test_tracer_installs_and_traces_every_subcommand(tmp_path):
    smith = tmp_path / "smith.json"
    smith.write_text("[[2, 1], [4, 3]]")
    laurent = tmp_path / "laurent.json"
    laurent.write_text(json.dumps({"nvars": 1, "rows": [
        [[{"exps": [1], "num": 1, "den": 1}], [{"exps": [0], "num": 1, "den": 1}]],
    ]}))
    group = ["-m", "2", "-n", "3"]
    ops = [
        ["normalize", *group, "x1 x2^2"],
        ["mul", *group, "x1", "x2"],
        ["comm", *group, "x1", "x2"],
        ["project", *group, "-k", "2", "[x1,x2]"],
        ["member", *group, "-i", "2", "--criterion", "commutator", "[x1,x2]"],
        ["fox", *group, "[x1,x2] x1"],
        ["sigma", *group, "x1 X2"],
        ["wreath-embed", *group, "[x1,x2] x2"],
        ["pdim", "-m", "2", "x1", "[x1,x2]"],
        ["pdim", *group, "--family", "wreath"],
        ["rank", str(smith)],
        ["rank", "--kind", "laurent", str(laurent)],
        ["solve", "-m", "2", "-n", "2", "-r", "1", "-e", "[$1,x1]"],
        ["verify", "--only", "sigma", "--samples", "1"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         json.dumps(ops)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["codes"] == [0] * len(ops)
    assert set(data["per_layer"]) <= set(data["metrics"])
    assert data["metrics"]["cli.main.calls"] == len(ops)
    # Only the `solve -r 1` op builds a ball: the identity and the 4 words
    # of length 1, each tried by one product in the group.
    assert data["metrics"]["free_solvable.ball.elements"] == 5
    assert data["metrics"]["free_solvable.ball.words_tried"] == 4
    # `wreath-embed` reads each coordinate row through the wrapped reader.
    assert data["metrics"]["wreath.to_function.calls"] > 0
    # Every wrapped layer recorded time, so every wrapper was reached.
    assert all(seconds > 0 for seconds in data["module_self_s"].values())
