"""Host-speed correction of op timings.

The benchmark runs on a few vCPUs of a shared host.  Co-tenants slow a
vCPU down, in episodes of seconds to minutes, by up to about 2x: steal
time stays 0 and the process's CPU time grows with its wall time, so
neither the scheduler nor CPU time shows it.  Medians of raw times then
move by a quarter from one run to the next with the same code.

A ``Sampler`` in the child times a fixed pure-Python probe every
``PERIOD_S`` of wall time (``ITIMER_REAL``), during set-up and during the
op.  The probe runs twice per tick and only the second, warm run is kept,
so the program's own cache footprint barely moves it.  The ticks are
uniform in wall time, so the op did

    work = wall * mean(REF_PROBE_NS / probe_i)

seconds of work at the reference speed, the speed at which one probe
takes ``REF_PROBE_NS``: an uncontended vCPU of the 2-core Intel Xeon
(KVM, Python 3.11.7) the benchmark was tuned on.  The reference is a
constant, not a quantile of the run's own probes, because a run can spend
all of its time in a contended state.  On other hardware every corrected
time is scaled by one factor, which cancels when two commits are compared
on one machine.  Time spent in the ticks is subtracted from wall and CPU
time before any of this.  Per-layer (traced) runs use no sampler.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.005
REF_PROBE_NS = 24000.0


def probe() -> int:
    """Fixed interpreter work: integer arithmetic, tuples, a small dict."""
    table = {}
    x = 1
    for i in range(150):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[i & 31] = (x, i)
    return x


class Sampler:
    """Probe times (ns) in wall-clock ticks, and the seconds the ticks
    took, so that callers can subtract them."""

    def __init__(self):
        self.probes: list[int] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        probe()
        t1 = time.perf_counter_ns()
        probe()
        t2 = time.perf_counter_ns()
        self.probes.append(t2 - t1)
        self.spent_s += (t2 - t0) / 1e9

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.probes), self.spent_s


def speed(probes: list[int]) -> float:
    """Mean speed over the probes as a share of the reference speed; 1.0
    without probes."""
    if not probes:
        return 1.0
    return statistics.fmean(REF_PROBE_NS / p for p in probes)
