"""Metrics for the co-simulation kernel: counters, histograms, registry.

The kernel's single scalar (:attr:`Simulator.activations`) answers "how
much did this simulation cost?" but not "*where* did the cost go?".
The :class:`MetricsRegistry` answers the second question: per-process
activation counts, per-process and per-resource wait-time histograms,
per-bus transfer counters — the measurement substrate every performance
experiment (E3's abstraction ladder first among them) builds on.

All metrics are plain Python objects with O(1) updates; nothing here
touches the kernel unless a :class:`repro.cosim.trace.Tracer` is
attached, so a tracerless simulation pays nothing.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import _domain


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}={self.value})"


class Histogram:
    """A fixed-bucket histogram of non-negative samples.

    Default buckets are powers of two in model-time units (ns by the
    framework's convention), which spans everything from single clock
    phases to whole-simulation latencies in ~30 buckets.  Exact count,
    sum, min, max, and mean are tracked alongside the buckets.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> None:
        self.name = name
        if bounds is None:
            bounds = [2.0 ** i for i in range(31)]  # 1 ns .. ~1 s
        self.bounds: List[float] = sorted(bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect_left on bounds)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.buckets[lo] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (bucket upper bound containing it);
        ``q`` must be in [0, 1]."""
        _domain.real("q", q, least=0, most=1)
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (non-empty buckets only)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": {
                (f"le_{self.bounds[i]:g}" if i < len(self.bounds) else "inf"):
                    n
                for i, n in enumerate(self.buckets) if n
            },
        }

    def snapshot(self) -> Dict[str, Any]:
        """Lossless state dump (full bucket array + bounds), the form
        :meth:`merge_snapshot` can fold back in.  Unlike :meth:`to_dict`
        this keeps every bucket, so worker-process deltas can be shipped
        over a pipe and re-aggregated exactly."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bounds must match — histograms with different bucketing cannot
        be merged without losing information, so that is an error.
        """
        if list(snap["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge snapshot with "
                f"different bounds"
            )
        for i, n in enumerate(snap["buckets"]):
            self.buckets[i] += n
        self.count += snap["count"]
        self.total += snap["total"]
        if snap["count"]:
            if snap["min"] < self.min:
                self.min = snap["min"]
            if snap["max"] > self.max:
                self.max = snap["max"]

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.3g})"
        )


class MetricsRegistry:
    """Get-or-create store of named counters and histograms.

    Naming convention is dotted paths, e.g. ``process.cpu.activations``
    or ``resource.sysbus.grant.wait_ns``, so the summary table groups
    naturally and exports stay greppable.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    @property
    def counters(self) -> Dict[str, Counter]:
        """All counters by name."""
        return dict(self._counters)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """All histograms by name."""
        return dict(self._histograms)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of every metric."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
            },
        }

    def snapshot(self) -> Dict[str, Any]:
        """A lossless, JSON-serializable dump of every metric.

        Unlike :meth:`to_dict` (a reporting form), a snapshot carries
        full histogram state and round-trips through
        :meth:`merge`: take one in a worker process, ship it back with
        the cell's result, and fold it into the parent registry so
        counters stay truthful at any worker count.
        """
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (typically a worker's delta) into
        this registry.  Counters add; histograms merge bucket-wise
        (creating them with the snapshot's bounds on first sight)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, hsnap in snap.get("histograms", {}).items():
            h = self._histograms.get(name)
            if h is None:
                h = self.histogram(name, bounds=hsnap["bounds"])
            h.merge_snapshot(hsnap)

    def summary_table(self) -> str:
        """An aligned, human-readable table of all metrics."""
        lines: List[str] = []
        if self._counters:
            width = max(len(n) for n in self._counters)
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(
                    f"  {name:<{width}}  {self._counters[name].value}"
                )
        if self._histograms:
            width = max(len(n) for n in self._histograms)
            lines.append("histograms:")
            header = (
                f"  {'name':<{width}}  {'count':>7} {'mean':>10} "
                f"{'min':>10} {'max':>10} {'p90':>10}"
            )
            lines.append(header)
            for name in sorted(self._histograms):
                h = self._histograms[name]
                lines.append(
                    f"  {name:<{width}}  {h.count:>7} {h.mean:>10.2f} "
                    f"{(h.min if h.count else 0.0):>10.2f} "
                    f"{(h.max if h.count else 0.0):>10.2f} "
                    f"{h.quantile(0.9):>10.2f}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._histograms)} histograms)"
        )
