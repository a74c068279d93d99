"""rigidsolv benchmark: one seeded workload per run, checked outputs,
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 bench/run.py --workload word-problem --seed 0 --seconds 15 --trace 0

Run it from a source checkout: the program is imported from `src/` next
to this directory.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the per-op records,
machine info and the metrics are also written to `bench/results/`.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import harness
import speed
import tracer as tracing
from ops import PROBE_ROUNDS, ROUND_S, WORKLOADS, once_ops, probe_ops, warm_up_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: Fresh interpreters launched to time import plus one trivial op.
SETUP_LAUNCHES = 21
#: Traced ops run slower; their caps stretch by this factor.
TRACE_CAP_SCALE = 4.0
#: Each run must end within 180 s; the traced child gets what is left.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "failed_ratio": "fraction",
    "setup_s": "s", "peak_rss_mb": "MiB", "word_len_exponent": "1",
    "class_step_ratio": "1", "laurent_size_exponent": "1",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program() -> Any:
    """Import rigidsolv from this checkout's src/, never from elsewhere."""
    if not (SRC / "rigidsolv" / "cli.py").is_file():
        raise SystemExit(f"error: no rigidsolv source under {SRC}")
    sys.path.insert(0, str(SRC))
    import rigidsolv.cli

    if Path(rigidsolv.cli.__file__).resolve().parent != SRC / "rigidsolv":
        raise SystemExit(f"error: imported rigidsolv from {rigidsolv.cli.__file__}")
    return rigidsolv.cli


def measure_setup() -> tuple[float, list[float]]:
    """Median scaled wall time of fresh `python -m rigidsolv normalize`
    launches, each bracketed by host speed samples; also the unscaled
    times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "rigidsolv", "normalize", "-m", "2", "-n", "2", "x1"]
    times, scaled = [], []
    after = speed.sample()
    for _ in range(SETUP_LAUNCHES):
        before = after
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        after = speed.sample()
        scaled.append(times[-1] * speed.NOMINAL_S / ((before + after) / 2))
        if proc.returncode != 0 or "trivial: false" not in proc.stdout:
            raise SystemExit(f"error: setup launch failed: {proc.stderr[-500:]}")
    return statistics.median(scaled), times


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, math.ceil(seconds / ROUND_S[workload]))


def machine_info() -> dict[str, Any]:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "platform": platform.platform()}


def source_identity() -> dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rigidsolv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def input_digest(ops: list[Any]) -> str:
    return hashlib.sha256(json.dumps([op.spec() for op in ops]).encode()).hexdigest()


def end_to_end(run: dict[str, Any], setup_s: float) -> tuple[dict[str, float], dict[str, Any]]:
    timed = run["timed"]
    tail_s, percentile, count = harness.tail(timed)
    scaling = timed + run["untimed"]
    values = {
        "ops_per_s": harness.scaled_ops_per_s(timed),
        "op_p50_ms": harness.median_latency(timed) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "failed_ratio": sum(r.failed for r in timed) / len(timed),
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "word_len_exponent": harness.word_len_exponent(scaling),
        "class_step_ratio": harness.class_step_ratio(scaling),
        "laurent_size_exponent": harness.laurent_size_exponent(scaling),
    }
    return values, {"tail_percentile": percentile, "tail_op_count": count}


def run_untraced(cli: Any, ops: list[Any], rounds: int, probes: list[Any],
                 once: list[Any], scaled: bool) -> dict[str, Any]:
    """Timed rounds, then the untimed probe rounds and once-per-run ops;
    every output is checked after the last op."""
    runner = harness.Runner(lambda: cli.main, scaled=scaled)
    for op in warm_up_ops(ops + probes + once):
        runner.execute(op)
    walls = harness.run_rounds(runner, ops, range(rounds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = list(runner.records)
    if probes:
        harness.run_rounds(runner, probes, range(-1, -1 - PROBE_ROUNDS, -1))
    if once:
        harness.run_rounds(runner, once, [-1])
    runner.check_all()
    return {"timed": timed, "untimed": runner.records[len(timed):], "walls": walls,
            "peak_rss_mb": peak_rss_mb}


def traced_child(args: argparse.Namespace, cli: Any, ops: list[Any]) -> int:
    """One traced round; prints per-layer metrics as the last line."""
    tracer = tracing.Tracer(harness.OpCapExceeded)
    runner = harness.Runner(lambda: cli.main, cap_scale=TRACE_CAP_SCALE,
                            on_op=lambda index: setattr(tracer, "op_id", index))
    for op in warm_up_ops(ops):
        runner.execute(op)
    tracing.install(tracer)
    walls = harness.run_rounds(runner, ops, [0])
    metrics = tracer.metrics()
    metrics["trace.ops_per_s"] = harness.ops_per_s(runner.records, walls)
    metrics["cli.output_bytes"] = sum(r.output_bytes for r in runner.records)
    for code in range(4):
        metrics[f"cli.exit.{code}"] = sum(r.exit == code for r in runner.records)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.span_table()))
    print(json.dumps({
        "metrics": metrics,
        "self_time_by_module": tracer.self_time_by_module(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "records": [[r.op.name, r.status, r.stdout_sha256, r.latency_s] for r in runner.records],
    }))
    return 0


def run_traced(args: argparse.Namespace, started: float) -> dict[str, Any]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
            "--traced-child"]
    budget = max(10.0, RUN_BUDGET_S - (time.perf_counter() - started))
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise SystemExit(f"error: traced run failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    cli = import_program()
    ops = WORKLOADS[args.workload](args.seed)
    if args.traced_child:
        return traced_child(args, cli, ops)
    probes, once = ((probe_ops(args.workload), once_ops(args.workload)) if args.trace == 0
                    else ([], []))
    digest = input_digest(ops + probes + once)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per round, "
          f"inputs sha256 {digest}")
    result: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "inputs_sha256": digest, "machine": machine_info(),
                              **source_identity()}
    if args.trace == 0:
        setup_s, setup_times = measure_setup()
        rounds = rounds_for(args.workload, args.seconds)
        run = run_untraced(cli, ops, rounds, probes, once, scaled=True)
        metrics, extra = end_to_end(run, setup_s)
        records = run["timed"] + run["untimed"]
        result.update(rounds=rounds, round_walls_s=run["walls"], setup_launches_s=setup_times,
                      **extra)
        print(f"tail: p{extra['tail_percentile']:.2f} of {extra['tail_op_count']} ops")
    else:
        run = run_untraced(cli, ops, 1, [], [], scaled=False)
        records = run["timed"]
        untraced_ops_per_s = harness.ops_per_s(records, run["walls"])
        traced = run_traced(args, started)
        metrics = traced["metrics"]
        metrics["trace.untraced_ops_per_s"] = untraced_ops_per_s
        metrics["trace.overhead"] = untraced_ops_per_s / metrics["trace.ops_per_s"]
        # Tracing must not change an answer: compare with the checked
        # untraced outputs, op by op.
        for (name, status, sha, _), record in zip(traced["records"], records):
            if record.status == "ok" and (name, status, sha) != (
                    record.op.name, "ok", record.stdout_sha256):
                record.status, record.detail = "wrong_answer", "traced output differs"
        shares = traced["self_time_by_module"]
        total = sum(shares.values()) or 1.0
        result.update(self_time_by_module=shares, spans_file=traced["spans_file"],
                      traced_records=traced["records"])
        print("self time by module: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    failures = [r for r in records if r.failed]
    unexpected = [r for r in failures if r.unexpected]
    for record in failures:
        print(f"{'FAILED' if record.unexpected else 'known failure'}: {record.op.name} "
              f"[{record.status}] {record.detail}")
    units = (END_TO_END_UNITS if args.trace == 0
             else {name: tracing.unit_of(name) for name in tracing.PER_LAYER})
    line = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(unexpected),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result.update(summary=line, records=[r.to_json() for r in records])
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"records: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
