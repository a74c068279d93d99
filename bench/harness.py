"""Closed-loop execution of ops in this process, and the metrics.

One op is one `rigidsolv.cli.main(argv)` call; the next starts only
after the previous returns.  Standard output and error are captured in
memory, `-` inputs are served from memory, and a per-op cap is enforced
with SIGALRM, so no thread or process is started while measuring.
Before, during (on SIGPROF) and after every timed op the reference
kernel of `speed.py` measures the host's speed, and the time metrics
use latencies scaled to its nominal speed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import speed
from oracles import check_output
from ops import Op

#: A speed sample is reused as the next op's "before" sample when no
#: more than this many seconds lie between them.
SAMPLE_REUSE_S = 0.05
#: CPU seconds between the host speed samples taken inside a running op.
IN_OP_SAMPLE_S = 0.02


class OpCapExceeded(Exception):
    """Raised from SIGALRM inside an op that outlived its cap."""


@dataclass
class Record:
    """Outcome of one op execution."""

    op: Op
    round: int
    latency_s: float
    exit: int | None
    status: str  # ok, capped, traceback, wrong_exit, wrong_answer
    detail: str = ""
    stdout_sha256: str = ""
    output_bytes: int = 0
    #: speed.NOMINAL_S / the reference kernel's mean time around and
    #: during the op.
    speed: float = 1.0
    #: Time spent on speed samples inside the op, not in `latency_s`.
    sampling_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def scaled_s(self) -> float:
        """Latency at the nominal host speed.  A capped op stopped at a
        wall-clock cap, so its latency is not scaled."""
        return self.latency_s if self.status == "capped" else self.latency_s * self.speed

    @property
    def unexpected(self) -> bool:
        """Failed, and not in the way the op is listed to fail."""
        return self.failed and self.status != self.op.known

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.op.name,
            "params": {"argv": _short_argv(self.op.argv), "expect": self.op.expect,
                       "cap_s": self.op.cap_s, "known": self.op.known, **self.op.tags},
            "round": self.round,
            "latency_s": self.latency_s,
            "scaled_latency_s": self.scaled_s,
            "speed": self.speed,
            "sampling_s": self.sampling_s,
            "exit": self.exit,
            "status": self.status,
            "detail": self.detail,
            "output_bytes": self.output_bytes,
        }


def _short_argv(argv: Iterable[str]) -> list[str]:
    return [a if len(a) <= 80 else f"{a[:60]}...({len(a)} chars)" for a in argv]


class Runner:
    """Runs ops and keeps their records; checks the first ok output of
    each op with its oracle and later outputs against the first.  With
    `scaled`, host speed is sampled before and after every op and every
    IN_OP_SAMPLE_S CPU seconds inside it; the time spent on samples
    inside the op is taken out of its latency."""

    def __init__(self, main: Callable[[], Callable[[list[str]], int]], cap_scale: float = 1.0,
                 on_op: Callable[[int], None] | None = None, scaled: bool = False):
        # `main` is looked up on every call so that tracing wrappers
        # installed on rigidsolv.cli.main are the ones called; `on_op`
        # hears the index of each op's record before the op starts.
        self.main = main
        self.cap_scale = cap_scale
        self.on_op = on_op
        self.scaled = scaled
        self._last_sample = (-math.inf, 0.0)  # (taken at, seconds)
        self._in_op: list[float] = []
        self.records: list[Record] = []
        self.stdout_of: dict[str, str] = {}
        self._armed = False
        signal.signal(signal.SIGALRM, self._alarm)
        if scaled:
            signal.signal(signal.SIGPROF, self._sample_in_op)

    def _alarm(self, signum: int, frame: Any) -> None:
        if self._armed:
            raise OpCapExceeded()

    def _sample_in_op(self, signum: int, frame: Any) -> None:
        if self._armed:
            start = time.perf_counter()
            speed.kernel()
            self._in_op.append(time.perf_counter() - start)

    def execute(self, op: Op) -> tuple[float, int | None, str, str, str]:
        """Run one op: latency, exit code, status, stdout, detail."""
        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        if op.stdin is not None:
            sys.stdin = io.StringIO(op.stdin)
        code: int | None = None
        status, detail = "exit", ""
        main = self.main()
        self._in_op = []
        start = time.perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, op.cap_s * self.cap_scale)
        if self.scaled:
            signal.setitimer(signal.ITIMER_PROF, IN_OP_SAMPLE_S, IN_OP_SAMPLE_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(op.argv))
        except OpCapExceeded:
            status = "capped"
        except SystemExit as stop:  # argparse usage errors
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception as error:  # an uncaught exception is a traceback
            status, detail = "traceback", f"{type(error).__name__}: {str(error)[:200]}"
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_PROF, 0)
            latency = time.perf_counter() - start - math.fsum(self._in_op)
            sys.stdin = saved_stdin
        return latency, code, status, out.getvalue(), detail

    def speed_sample(self) -> float:
        taken_at, seconds = self._last_sample
        if time.perf_counter() - taken_at > SAMPLE_REUSE_S:
            seconds = speed.sample()
        return seconds

    def run(self, op: Op, round_index: int) -> Record:
        if self.on_op is not None:
            self.on_op(len(self.records))
        before = self.speed_sample() if self.scaled else 0.0
        latency, code, status, stdout, detail = self.execute(op)
        host_speed = 1.0
        if self.scaled:
            after = speed.sample()
            self._last_sample = (time.perf_counter(), after)
            host_speed = speed.NOMINAL_S / statistics.fmean([before, *self._in_op, after])
        digest = hashlib.sha256(_untimed(op, stdout).encode()).hexdigest()
        if status == "exit":
            status = "ok" if code == op.expect else "wrong_exit"
            if status == "wrong_exit":
                detail = f"exit {code}, expected {op.expect}"
        record = Record(op, round_index, latency, code, status, detail, digest,
                        len(stdout.encode()), host_speed, math.fsum(self._in_op))
        if status == "ok":
            self.stdout_of.setdefault(op.name, stdout)
        self.records.append(record)
        return record

    def check_all(self) -> None:
        """Apply the oracles outside the timed region.

        The first ok execution of each op is checked by its oracle; a later
        one shares that verdict if it printed the same bytes and fails if
        it did not.
        """
        verdicts: dict[str, tuple[str, str | None]] = {}
        for record in self.records:
            if record.status != "ok":
                continue
            name = record.op.name
            if name not in verdicts:
                # The oracle gets the call's whole wall time, which a
                # time the program reports about itself must fit in.
                verdicts[name] = (record.stdout_sha256, check_output(
                    record.op.check, self.stdout_of[name],
                    record.latency_s + record.sampling_s))
            first_sha256, problem = verdicts[name]
            if record.stdout_sha256 != first_sha256:
                problem = "output differs from the first execution"
            if problem:
                record.status, record.detail = "wrong_answer", problem


def _untimed(op: Op, stdout: str) -> str:
    """The output without the wall times `verify` reports, which differ
    from run to run."""
    if op.argv[0] != "verify":
        return stdout
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    for check in payload.get("checks", []):
        check.pop("elapsed", None)
    return json.dumps(payload, sort_keys=True)


def run_rounds(runner: Runner, ops: list[Op], labels: Iterable[int]) -> list[float]:
    """Closed loop over one copy of `ops` per round label; returns the
    wall seconds of each round."""
    walls = []
    for label in labels:
        start = time.perf_counter()
        for op in ops:
            runner.run(op, label)
        walls.append(time.perf_counter() - start)
    return walls


def ops_per_s(records: list[Record], walls: list[float]) -> float:
    """Median over rounds of completed (not capped) ops per wall second."""
    return statistics.median(
        sum(r.status != "capped" for r in records if r.round == index) / wall
        for index, wall in enumerate(walls))


def scaled_ops_per_s(records: list[Record]) -> float:
    """Median over rounds of completed (not capped) ops per second of
    scaled op latency."""
    rounds: dict[int, list[Record]] = {}
    for record in records:
        rounds.setdefault(record.round, []).append(record)
    return statistics.median(
        sum(r.status != "capped" for r in rs) / sum(r.scaled_s for r in rs)
        for rs in rounds.values())


# -- metrics ---------------------------------------------------------------


def latency_order(records: list[Record]) -> list[Record]:
    """Fastest first; failed ops sort after every success, since a failed
    op misses any latency limit."""
    return sorted(records, key=lambda r: (r.failed, r.scaled_s))


def tail(records: list[Record]) -> tuple[float, float, int]:
    """Scaled latency at the highest percentile with exactly 10 ops
    beyond it: (latency in seconds, percentile, op count)."""
    ordered = latency_order(records)
    count = len(ordered)
    if count <= 10:
        raise ValueError(f"{count} ops: a tail needs more than 10")
    return ordered[count - 11].scaled_s, 100.0 * (count - 10) / count, count


def median_latency(records: list[Record]) -> float:
    ordered = latency_order(records)
    count = len(ordered)
    middle = [ordered[(count - 1) // 2], ordered[count // 2]]
    return (middle[0].scaled_s + middle[1].scaled_s) / 2


def slope(points: dict[float, list[float]]) -> float:
    """Least-squares slope of log(median y) against log x."""
    xs = [math.log(x) for x in sorted(points)]
    ys = [math.log(statistics.median(points[x])) for x in sorted(points)]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            / sum((x - mean_x) ** 2 for x in xs))


def by_tag(records: list[Record], tag: str) -> dict[Any, list[Record]]:
    out: dict[Any, list[Record]] = {}
    for record in records:
        if tag in record.op.tags and record.status == "ok":
            out.setdefault(record.op.tags[tag], []).append(record)
    return out


def word_len_exponent(records: list[Record]) -> float:
    ladder = by_tag(records, "ladder_k")
    return slope({k: [r.scaled_s for r in rs] for k, rs in ladder.items()})


def class_step_ratio(records: list[Record]) -> float:
    """Geometric mean over n = 2->3 and 3->4 of the ratio of median
    normalize times of the same words."""
    times: dict[int, list[float]] = {}
    for record in records:
        if "class_step" in record.op.tags and record.status == "ok":
            times.setdefault(record.op.tags["level"], []).append(record.scaled_s)
    medians = {n: statistics.median(ts) for n, ts in times.items()}
    return math.sqrt(medians[3] / medians[2] * medians[4] / medians[3])


def laurent_size_exponent(records: list[Record]) -> float:
    sizes = by_tag(records, "laurent_size")
    return slope({s: [r.scaled_s for r in rs] for s, rs in sizes.items()})
