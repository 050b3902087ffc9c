"""Order statistics shared by the benchmark and its compare mode."""

from __future__ import annotations

import math
import statistics


def quartiles(values):
    """(q1, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """(p, value) for the highest whole percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p < 50:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * n))  # nearest rank
    return p, ordered[rank - 1]


def describe(values):
    """'median (n=..., p..=...)' for printing a timing."""
    t = tail(values)
    extra = f", p{t[0]}={t[1]:.6g}" if t else ""
    return f"{statistics.median(values):.6g} (n={len(values)}{extra})"
