#!/usr/bin/env python3
"""Regression gate over the committed BENCH_*.json records.

Compares a baseline directory of benchmark records (typically the
committed ones) against a freshly generated set and fails (exit 1) on
any regression beyond tolerance.  Only machine-portable metrics are
compared — ratios, overhead fractions, and exact model results — never
raw wall-clock numbers, so the gate is meaningful when the baseline
was recorded on different hardware.  Hardware-dependent metrics carry
a ``min_cpus`` gate (like BENCH_sweep's parallel speedup, which is
meaningless on the 1-CPU boxes that recorded some baselines).

Usage:
    python benchmarks/compare_bench.py \\
        --baseline /tmp/bench_baseline --current benchmarks \\
        [--tolerance 0.2]
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Metric:
    """One comparable metric of a benchmark record.

    ``sense`` is how to read the number: ``higher`` (speedups — fail
    when the current value drops more than tolerance below baseline),
    ``lower`` (fractions of a reference — fail when it grows more than
    tolerance above), ``abs`` (overheads near zero, where relative
    comparison is noise — fail when the absolute drift exceeds
    ``tol``), ``floor`` (speedup ratios whose run-to-run variance
    exceeds any sane relative band — fail only when the current value
    drops below the absolute floor ``tol``), or ``exact`` (model
    results that must never move).
    """

    key: str
    sense: str
    tol: float = 0.0       # absolute drift budget / floor value
    min_cpus: int = 0      # skip unless both machines had this many


METRICS = {
    "BENCH_isa.json": [
        # ratio noise between runs exceeds 20%, so these gate on the
        # acceptance floors rather than the recorded baseline
        Metric("decode_speedup", "floor", tol=1.5),
        Metric("speedup_vs_baseline", "floor", tol=2.0),
        Metric("speedup_vs_step", "floor", tol=1.5),
        Metric("fig3_activations", "exact"),
        Metric("e18_histogram", "exact"),
    ],
    "BENCH_translate.json": [
        # translated tier vs run_block: run-to-run ratio noise exceeds
        # a relative band, so gate on the acceptance floor — and the
        # E18 histogram under translation must never move
        Metric("speedup_vs_block", "floor", tol=2.0),
        Metric("e18_histogram", "exact"),
    ],
    "BENCH_sweep.json": [
        Metric("warm_fraction", "lower"),
        Metric("speedup_parallel4", "higher", min_cpus=4),
        # run-to-run ratio variance exceeds a relative band; gate the
        # campaign path on its acceptance floor instead
        Metric("speedup_campaign4", "floor", tol=2.0, min_cpus=4),
    ],
    # overheads as exact call counts over the bare run_cell loop; the
    # wall-clock medians beside them are reported, not gated (their
    # run-to-run drift on a shared host exceeds any useful band)
    "BENCH_obs.json": [
        Metric("disabled_call_overhead", "abs", tol=0.01),
        Metric("enabled_call_overhead", "abs", tol=0.01),
    ],
    "BENCH_telemetry.json": [
        Metric("disabled_call_overhead", "abs", tol=0.01),
        Metric("enabled_call_overhead", "abs", tol=0.01),
    ],
    "BENCH_fault.json": [
        # the idle injector's cost as an exact call count; the
        # wall-clock overhead beside it keeps its wide drift band
        Metric("idle_injector_extra_calls", "exact"),
        Metric("idle_injector_overhead", "abs", tol=0.05),
        Metric("histogram", "exact"),
    ],
    "BENCH_explore.json": [
        # the explorer is model-deterministic: warm runs always serve
        # every genome from cache, and the archive-dedup savings are a
        # ratio of deterministic integer counters
        Metric("cache_hit_ratio", "exact"),
        Metric("evaluation_savings", "exact"),
        # GA vs random at equal budget: gate the aggregate ratio on
        # its acceptance floor (per-seed ratios are bimodal)
        Metric("hv_ratio", "floor", tol=1.0),
        Metric("speedup_explore4", "floor", tol=2.0, min_cpus=4),
    ],
}


def record_cpus(record: dict) -> int:
    """CPU count the record was measured on (recorded, else this box)."""
    return int(record.get("cpus") or os.cpu_count() or 1)


def compare_metric(
    metric: Metric, base: dict, cur: dict, tolerance: float
) -> Optional[str]:
    """Returns a failure message, or None when the metric passes."""
    if metric.key not in base or metric.key not in cur:
        return None  # metric not in both records: nothing to compare
    b, c = base[metric.key], cur[metric.key]
    if metric.min_cpus and (record_cpus(base) < metric.min_cpus
                            or record_cpus(cur) < metric.min_cpus):
        return None
    if metric.sense == "exact":
        if b != c:
            return f"{metric.key}: {b!r} -> {c!r} (must be identical)"
    elif metric.sense == "abs":
        if abs(c - b) > metric.tol:
            return (f"{metric.key}: {b} -> {c} "
                    f"(drift {abs(c - b):.3f} > {metric.tol})")
    elif metric.sense == "floor":
        if c < metric.tol:
            return (f"{metric.key}: {c} below floor {metric.tol} "
                    f"(baseline {b})")
    elif metric.sense == "higher":
        if c < b / (1.0 + tolerance):
            return (f"{metric.key}: {b} -> {c} "
                    f"(> {tolerance:.0%} regression)")
    elif metric.sense == "lower":
        if c > b * (1.0 + tolerance):
            return (f"{metric.key}: {b} -> {c} "
                    f"(> {tolerance:.0%} regression)")
    else:  # pragma: no cover - registry is static
        raise ValueError(f"unknown sense {metric.sense!r}")
    return None


def compare_dirs(baseline: Path, current: Path, tolerance: float):
    """Returns (failures, skipped, compared) message lists."""
    failures, skipped, compared = [], [], []
    for name, metrics in sorted(METRICS.items()):
        base_file, cur_file = baseline / name, current / name
        if not base_file.exists() or not cur_file.exists():
            missing = base_file if not base_file.exists() else cur_file
            skipped.append(f"{name}: missing {missing}")
            continue
        base = json.loads(base_file.read_text())
        cur = json.loads(cur_file.read_text())
        for metric in metrics:
            problem = compare_metric(metric, base, cur, tolerance)
            if problem is not None:
                failures.append(f"{name}: {problem}")
            elif metric.key in base and metric.key in cur:
                compared.append(
                    f"{name}: {metric.key} "
                    f"{base[metric.key]} -> {cur[metric.key]} ok")
            else:
                skipped.append(f"{name}: {metric.key} absent")
    return failures, skipped, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on >tolerance regressions between BENCH runs")
    parser.add_argument("--baseline", required=True, type=Path,
                        help="directory holding the baseline BENCH_*.json")
    parser.add_argument("--current", required=True, type=Path,
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative regression budget (default 0.20)")
    args = parser.parse_args(argv)

    failures, skipped, compared = compare_dirs(
        args.baseline, args.current, args.tolerance)
    for line in compared:
        print(f"  ok    {line}")
    for line in skipped:
        print(f"  skip  {line}")
    for line in failures:
        print(f"  FAIL  {line}", file=sys.stderr)
    print(f"{len(compared)} compared, {len(skipped)} skipped, "
          f"{len(failures)} regressions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
