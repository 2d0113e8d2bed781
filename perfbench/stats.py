"""Summary statistics for timing samples."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count). With n samples sorted
    ascending, the value is the one with exactly ``beyond`` samples ranked
    above it, which sits at percentile 100 * (n - beyond) / n.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n
