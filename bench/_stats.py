"""Statistics shared by the benchmark and its comparison tool.

One place for the numbers every performance claim rests on:

* :func:`median` and :func:`quartiles` — quartiles use
  ``statistics.quantiles(values, n=4)`` (the "exclusive" method), the
  same estimator the spread check applies to ten runs of one metric;
* :func:`rel_iqr` — the distance between the quartiles as a share of
  the median, the benchmark's measure of run-to-run spread;
* :func:`tail` — the highest percentile that still has at least ten
  samples beyond it, returned with the sample count, so a tail is never
  quoted from two or three samples;
* :func:`sign_test_ci` — a distribution-free confidence interval for
  the median from order statistics (exact binomial);
* :func:`pair_rule` — the claim rule: a change wins at least nine
  tenths of the paired runs (ties count for neither) and the medians
  differ by more than the parent's own interquartile range.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles :func:`tail` may report, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values: Sequence[float]) -> float:
    """The sample median; raises ``ValueError`` on an empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) by ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median: the spread of a sample as a share."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def tail(values: Sequence[float],
         beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)`` using the nearest-rank
    percentile, or ``None`` when even the median has fewer than
    ``beyond`` samples above it (``n < 2 * beyond``).
    """
    n = len(values)
    ordered = sorted(values)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= beyond:
            best = (pct, ordered[rank - 1], n)
    return best


def _binom_cdf(k: int, n: int) -> float:
    """P(B <= k) for B ~ Binomial(n, 1/2)."""
    if k < 0:
        return 0.0
    return sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n


def sign_test_ci(values: Sequence[float], confidence: float = 0.95) \
        -> Tuple[float, float, float]:
    """Order-statistic confidence interval for the median.

    Returns ``(lo, hi, achieved)``: the widest-needed pair of order
    statistics ``(x_(k), x_(n-k+1))`` whose coverage is at least
    ``confidence``, and that coverage.  With too few samples to reach
    ``confidence`` the interval is ``(min, max)`` and ``achieved`` says
    how much it really covers (n=9 gives the 2nd and 8th values at
    ~96%).
    """
    n = len(values)
    if n == 0:
        raise ValueError("confidence interval of an empty sample")
    ordered = sorted(values)
    alpha = (1.0 - confidence) / 2.0
    k = 0
    while k + 1 <= n // 2 and _binom_cdf(k, n) <= alpha:
        k += 1
    # x_(k) .. x_(n-k+1) (1-based) covers with 1 - 2 * P(B <= k - 1)
    k = max(k, 1)
    achieved = 1.0 - 2.0 * _binom_cdf(k - 1, n)
    return ordered[k - 1], ordered[n - k], achieved


def pair_rule(base: Sequence[float], change: Sequence[float],
              better: str = "lower") -> Dict[str, object]:
    """Judge a claimed gain from paired runs (``base[i]`` vs ``change[i]``).

    The change claims a gain only when it wins at least 9/10 of all
    pairs (ties count for neither side) *and* its median beats the
    base median by more than the base's interquartile range.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not "
                         f"{better!r}")
    if len(base) != len(change) or not base:
        raise ValueError("pair_rule needs equally many base and change "
                         "runs, at least one")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    q1, base_median, q3 = quartiles(base)
    change_median = median(change)
    gap = sign * (base_median - change_median)
    claim = wins >= 0.9 * len(base) and gap > (q3 - q1)
    return {
        "pairs": len(base),
        "wins": wins,
        "losses": losses,
        "ties": len(base) - wins - losses,
        "base_median": base_median,
        "change_median": change_median,
        "gap": gap,
        "base_iqr": q3 - q1,
        "claim": claim,
    }
