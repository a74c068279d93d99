"""Tests of the benchmark itself: failure accounting, metric
definitions, seeded inputs and the oracles.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

import harness
import oracles
import ops
import run
import tracer

cli = run.import_program()


def _runner(main=None) -> harness.Runner:
    return harness.Runner(lambda: main or cli.main)


def test_wrong_exit_code_counts_as_failed() -> None:
    runner = _runner()
    op = ops.Op("bad generator", ("normalize", "-m", "2", "-n", "2", "x9"))
    record = runner.run(op, 0)
    assert record.exit == 2
    assert record.status == "wrong_exit" and record.failed and record.unexpected


def test_wrong_answer_counts_as_failed() -> None:
    runner = _runner()
    # The oracle is told the product is x1 x1; the command computes x1 x2.
    op = ops.Op("mul", ("mul", "-m", "2", "-n", "2", "--json", "x1", "x2"),
                ("product", 2, 2, (1, 1)))
    record = runner.run(op, 0)
    assert record.status == "ok"
    runner.check_all()
    assert record.status == "wrong_answer" and record.failed and record.unexpected


def test_repeats_share_the_verdict_and_must_match() -> None:
    runner = _runner()
    op = ops.Op("mul", ("mul", "-m", "2", "-n", "2", "--json", "x1", "x2"),
                ("product", 2, 2, (1, 2)))
    first, second, third = runner.run(op, 0), runner.run(op, 1), runner.run(op, 2)
    third.stdout_sha256 = "0" * 64
    runner.check_all()
    assert (first.status, second.status, third.status) == ("ok", "ok", "wrong_answer")
    wrong = ops.Op("mul", op.argv, ("product", 2, 2, (2, 1)))
    runner = _runner()
    records = [runner.run(wrong, index) for index in range(2)]
    runner.check_all()
    assert [r.status for r in records] == ["wrong_answer", "wrong_answer"]


def test_cap_and_traceback_count_as_failed() -> None:
    def slow(argv: list[str]) -> int:
        time.sleep(5)
        return 0

    def broken(argv: list[str]) -> int:
        raise IndexError("boom")

    capped = _runner(slow).run(ops.Op("slow", ("x",), cap_s=0.05, known="capped"), 0)
    assert capped.status == "capped" and capped.latency_s < 1
    assert capped.failed and not capped.unexpected
    crashed = _runner(broken).run(ops.Op("broken", ("x",), expect=2), 0)
    assert crashed.status == "traceback" and crashed.unexpected


def test_known_defect_fails_as_listed() -> None:
    op = next(op for op in ops.word_problem(0) if op.name == "normalize parens-3000")
    record = _runner().run(op, 0)
    assert record.status == "traceback" and not record.unexpected


def _records(latencies: list[float], failed: int = 0) -> list[harness.Record]:
    out = [harness.Record(ops.Op(f"op{i}", ()), 0, t, 0, "ok")
           for i, t in enumerate(latencies)]
    for record in out[:failed]:
        record.status = "traceback"
    return out


def test_tail_has_ten_ops_beyond_it_and_failures_sort_last() -> None:
    records = _records([float(i) for i in range(1, 41)])
    assert harness.tail(records) == (30.0, 75.0, 40)
    # The three fastest ops failed: they count as slower than any success.
    records = _records([float(i) for i in range(1, 41)], failed=3)
    assert harness.tail(records)[0] == 33.0
    assert harness.median_latency(_records([1.0, 2.0, 3.0, 10.0])) == 2.5


def test_scaled_latency_uses_host_speed_except_when_capped() -> None:
    record = harness.Record(ops.Op("op", ()), 0, 0.5, 0, "ok", speed=1.5)
    assert record.scaled_s == 0.75
    record.status = "capped"
    assert record.scaled_s == 0.5
    records = [harness.Record(ops.Op(f"op{i}", ()), i // 2, 0.25, 0, "ok", speed=2.0)
               for i in range(6)]
    records[0].status = "capped"
    # Rounds of 2 ops at 0.5 s scaled each; round 0 completed 1 op in 0.75 s.
    assert harness.scaled_ops_per_s(records) == 2.0


def test_runner_brackets_each_op_with_speed_samples() -> None:
    runner = harness.Runner(lambda: cli.main, scaled=True)
    first, second = (runner.run(op, 0) for op in ops.ladder_ops((3, 4)))
    for record in (first, second):
        assert record.status == "ok" and 0 < record.speed < float("inf")
        assert record.scaled_s == record.latency_s * record.speed
    assert _runner().run(ops.ladder_ops((3,))[0], 0).speed == 1.0


def test_slope_recovers_power_law() -> None:
    points = {k: [0.5 * k ** 2, 0.5 * k ** 2 * 1.01, 0.5 * k ** 2 / 1.01] for k in (1, 2, 4, 8)}
    assert harness.slope(points) == pytest.approx(2.0)


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_inputs_are_seeded_and_names_unique(workload: str) -> None:
    generate = ops.WORKLOADS[workload]
    assert run.input_digest(generate(3)) == run.input_digest(generate(3))
    assert run.input_digest(generate(3)) != run.input_digest(generate(4))
    names = [op.name for op in generate(3)]
    assert len(names) == len(set(names))
    # The same number of ops every seed keeps the tail rank and
    # failed_ratio comparable across seeds.
    assert len(generate(3)) == len(generate(4))


def test_laurent_lower_bound_sees_dependent_rows() -> None:
    matrix = ops.laurent_matrix(random.Random(5), 3)
    assert oracles.laurent_rank_lower_bound(matrix) == 3
    matrix["rows"][2] = matrix["rows"][0]
    assert oracles.laurent_rank_lower_bound(matrix) == 2


def test_smith_oracle() -> None:
    assert oracles._check_smith({"rank": 2, "invariant_factors": [1, 6]}, [[2, 0], [0, 3]]) is None
    assert oracles._check_smith({"rank": 2, "invariant_factors": [2, 3]}, [[2, 0], [0, 3]])
    assert oracles._check_smith({"rank": 2, "invariant_factors": [1, 6]}, [[2, 4], [1, 2]])


def test_tracer_counts_layers() -> None:
    trace = tracer.Tracer(harness.OpCapExceeded)
    tracer.install(trace)
    runner = _runner()
    record = runner.run(ops.ladder_ops((3,))[0], 0)
    runner.check_all()
    assert record.status == "ok"
    metrics = trace.metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["words.parse.letters_out"] == 3
    assert metrics["magnus.eval_word.letters"] == 3
    assert metrics["magnus.split_mul.n2.calls"] == 3
    # The three products translate coordinate rows of 0, 1 and 2 terms.
    assert metrics["group_ring.translate.terms_in"] == 3
    assert metrics["free_solvable.mul.n1.calls"] >= 3
    assert all(name in metrics for name in tracer.PER_LAYER)
    # Self times partition the op's span: they add up to its duration.
    assert 0 < sum(trace.self_time_by_module().values()) <= record.latency_s


def test_benchmark_json_lists_every_metric() -> None:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracer.unit_of(name) for name in tracer.PER_LAYER}
