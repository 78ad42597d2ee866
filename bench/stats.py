"""Order statistics shared by the benchmark's reports."""

from __future__ import annotations

import math

# candidate tail percentiles, highest first
LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_q(n):
    """The highest percentile on LADDER with at least ten of n samples beyond
    it; 100 (the maximum) when there are fewer than twenty samples."""
    return next((q for q in LADDER if n * (1 - q / 100) >= 10 - 1e-9), 100.0)


def percentile(values, q):
    """Nearest-rank q-th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]
