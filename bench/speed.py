"""Host speed, measured by a fixed pure-Python reference kernel.

The shared host this benchmark runs on changes speed by up to 2x, in
phases of a few seconds to minutes, and CPU time slows with wall time,
so neither removes it.  All Python code slows together, so each op's
latency is scaled by the speed of the host while it ran:

    scaled latency = latency * NOMINAL_S / reference time,

where the reference time is the mean of the kernel's timings taken
just before the op, just after it, and inside it on a CPU-time timer
(`harness.Runner`).  A scaled latency is the op's latency on a host
where the kernel takes NOMINAL_S.  The kernel multiplies small sparse
polynomials kept in dicts keyed by exponent tuples, with int and
Fraction coefficients, through a method call per product: the dict,
tuple and arithmetic mix of `group_ring`, `magnus` and `linalg`.

Measured on a 2-core Xeon over two minutes each (quartile distance /
median of repeated op latencies): `normalize x1^400` and
`solve [$1,$2] r=3 S(2,3)` spread by 0.47 and 0.30 raw, 0.07 and 0.14
scaled by samples before and after, and 0.05 and 0.05 with samples
inside the op as well.  A sample before and after is the median of 5
timings, which tracked the host better than one timing or the fastest
of several.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Reference time of the kernel that scaled latencies are quoted at:
#: about its time in the fast phases of a shared 2-core Xeon.
NOMINAL_S = 0.0012
#: Kernel timings per sample; their median is kept, so that a garbage
#: collection or an interrupt in one of them does not count.
REPEATS = 5


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], object]):
        self.terms = terms

    def mul(self, other: "_Poly") -> "_Poly":
        out: dict[tuple[int, int], object] = {}
        for (a0, a1), ca in self.terms.items():
            for (b0, b1), cb in other.terms.items():
                key = (a0 + b0, a1 + b1)
                out[key] = out.get(key, 0) + ca * cb
        return _Poly({k: v for k, v in out.items() if v})


def kernel() -> int:
    p = _Poly({(0, 0): 1, (1, 0): 2, (0, 1): -3, (1, 1): 5})
    q = _Poly({(0, 0): Fraction(1, 3), (-1, 0): 2, (0, -1): -1})
    acc = p
    for i in range(6):
        acc = acc.mul(q if i % 2 else p)
    return len(sorted(map(str, acc.terms)))


def sample() -> float:
    """The kernel's wall time now, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
