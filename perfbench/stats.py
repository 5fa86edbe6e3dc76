"""Order statistics over op outcomes, failure-aware.

A failed op ranks as slower than every completed op.  When the rank a
percentile asks for lands on a failed op, the value reported is the
run's whole measurement budget (``--seconds``), so a fix that turns a
failure into a completed op can only lower a percentile.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail_rank(n: int) -> int:
    """1-based nearest rank of the highest percentile with at least
    ``TAIL_BEYOND`` ops beyond it; never below the median rank."""
    return max(n - TAIL_BEYOND, median_rank(n))


def median_rank(n: int) -> int:
    return max(1, math.ceil(n / 2))


def ranked(times: list[float | None]) -> list[float]:
    """Op times in ascending order, a failed op (``None``) as +inf."""
    return sorted(math.inf if t is None else t for t in times)


def at_rank(times: list[float | None], rank: int, penalty: float) -> float:
    value = ranked(times)[rank - 1]
    return penalty if value == math.inf else value


def latency(times: list[float | None], penalty: float) -> dict:
    """Median and tail of op times, with the tail's percentile."""
    n = len(times)
    k = tail_rank(n)
    return {"p50": at_rank(times, median_rank(n), penalty),
            "tail": at_rank(times, k, penalty),
            "tail_percentile": 100.0 * k / n, "n": n}


def median(values: list[float]) -> float:
    return statistics.median(values)
