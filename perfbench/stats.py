"""Small statistics helpers shared by the benchmark and its tests.

Everything here is pure arithmetic on lists of floats, so it is tested
directly (``test_helpers.py``) without running a workload.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

#: A percentile only counts when at least this many samples lie above it.
MIN_SAMPLES_ABOVE = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def samples_above(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the *q*-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def percentile_counts(values: Sequence[float], q: float) -> bool:
    """Whether the *q*-th percentile has the required samples above it."""
    return bool(values) and samples_above(values, q) >= MIN_SAMPLES_ABOVE


def highest_counted_percentile(
    values: Sequence[float], candidates: Iterable[float] = (99, 95, 90, 75, 50)
) -> float:
    """The highest candidate percentile that still counts, or 0 if none does."""
    for q in sorted(candidates, reverse=True):
        if percentile_counts(values, q):
            return float(q)
    return 0.0


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(value <= 0 for value in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values: Sequence[float]) -> float:
    """Median (the 50th percentile)."""
    return percentile(values, 50.0)


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations.

    An operation whose output check fails counts as failed exactly like one
    that raised; nothing is retried, so ``failed <= attempted`` always.
    """
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} out of range for attempted={attempted}")
    return failed / attempted


class Tally:
    """Attempted / failed operation accounting for one run.

    An operation fails when it raises or gets an error response, or when
    its output check fails.  Nothing is retried, and an operation counts as
    failed at most once, whatever went wrong with it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: Dict[str, str] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, key: str, reason: str) -> None:
        """Mark operation *key* failed (the first reason is kept)."""
        self._failed.setdefault(key, reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def reasons(self) -> List[str]:
        return [f"{key}: {reason}" for key, reason in sorted(self._failed.items())]
