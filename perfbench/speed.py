"""Speed probe: converts the child's wall times to seconds at a fixed
interpreter speed.

On a shared host the same pure-Python work can take from 0.26 to 0.40 s
from one minute to the next; the process's CPU time drifts just as much,
because the core itself runs slower, and the two cores of the machine drift
independently of each other.  A calibration loop run in another process or
between commands therefore does not track it.

``SpeedProbe`` runs a fixed loop of PROBE_ITERS iterations in this very
thread every PERIOD_S seconds of wall time (a SIGALRM handler, so about 2%
of the time) and times it with the thread's CPU clock, which a wait for the
GIL or for a core does not advance.  The relative speed at that moment is
``REF_NS / probe_ns``; a wall-time interval between two probes counts
``length * REF_NS / probe_ns`` reference seconds, the later probe standing
for the interval it closes (signals wait until a long C call returns, so the
probe right after it is the one nearest to that call).  REF_NS is a
constant, about the probe's typical time on a two-vCPU Xeon virtual machine,
so reference seconds stay close to seconds there.
"""

from __future__ import annotations

import signal
import time

PROBE_ITERS = 10_000
PERIOD_S = 0.05
REF_NS = 1_000_000


def _probe_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []  # (wall time, REF_NS / ns)

    def _probe(self, signum=None, frame=None) -> None:
        c0 = time.thread_time_ns()
        _probe_loop(PROBE_ITERS)
        ns = max(time.thread_time_ns() - c0, 1)
        self.samples.append((self.clock(), REF_NS / ns))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()  # closes the last interval

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds in the wall-time interval [a, b]."""
        return ref_seconds(self.samples, a, b)


def ref_seconds(samples: list[tuple[float, float]], a: float, b: float) -> float:
    """Integral over [a, b] of the relative speed, where each sample's speed
    holds from the previous sample's time up to its own, and the last
    sample's speed holds after it."""
    if not samples or b <= a:
        return 0.0
    total, prev = 0.0, a
    for t, speed in samples:
        if t <= a:
            continue
        end = min(t, b)
        total += (end - prev) * speed
        prev = end
        if t >= b:
            return total
    return total + (b - prev) * samples[-1][1]
