"""Host speed, sampled inside a benchmark child while it runs.

On a shared VM the speed of a vCPU swings by up to 2x within a second, with
the neighbours' load.  Steal time is not the cause: the process's CPU time
swings just as much as its wall time, so timing with `process_time` does not
help.  A tiny probe does not see the swings either; a probe shaped like
slcc's own work does.  So a fixed piece of such work (`probe`: a sparse
product of two dict-of-exponent-tuple polynomials and a short `Fraction`
sum, about 0.7 ms) is timed from a SIGALRM handler every `PERIOD_S` seconds,
between the program's bytecodes.  The harmonic mean of the probe times in a
window measures the host's speed over that window, and

    normalized = (elapsed - probe time in the window) * REF_PROBE_S / hmean

is the window's time at the reference speed, where one probe takes
`REF_PROBE_S`.  Over one invocation this cuts the spread between fresh runs
from about 0.16 (interquartile range over median) to 0.02-0.04.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# a fixed scale within the probe's range on the tuning host (0.4-0.9 ms on a
# 2-core shared VM, Python 3.11), so normalized times read as seconds there
REF_PROBE_S = 0.0006

_A = {(i, j, k): i + j - k for i in range(5) for j in range(4) for k in range(3)}
_B = {(i, j, k): i * j + k + 1 for i in range(3) for j in range(3) for k in range(2)}
_F = [Fraction(i + 1, 7 + i) for i in range(40)]


def probe() -> float:
    """Seconds taken by one fixed piece of slcc-like work."""
    begin = time.perf_counter()
    out: dict[tuple[int, int, int], int] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    total = Fraction(0)
    for f in _F:
        total += f * f
    return time.perf_counter() - begin


def factor(samples: list[float]) -> float:
    """REF_PROBE_S over the harmonic mean of `samples`: the share of a
    window's time that the reference host would have needed."""
    return REF_PROBE_S * sum(1 / s for s in samples) / len(samples)


class Sampler:
    """Probe times taken every PERIOD_S seconds while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        """A position in `samples`, to cut a window at."""
        return len(self.samples)

    def burst(self, count: int) -> list[float]:
        """`count` probes now, outside the periodic samples."""
        return [probe() for _ in range(count)]
