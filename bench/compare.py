#!/usr/bin/env python3
"""Compare two sets of benchmark results: BASE (the parent) and CHANGE.

Usage::

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are each a directory of result documents written by
``bench/run.py --out`` (or a single such file).  Runs pair up by
seed, so run both sides on the same seeds.

For every (workload, end-to-end metric) the verdict is one of:

* ``improved`` — the change wins at least 9/10 of the paired runs and
  its median beats the base median by more than the base's IQR;
* ``worse`` — the change's median is worse than the base median by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the spread between runs of either side is wider
  than the bound, so "no change" cannot be shown, and not every change
  run beats every base run;
* ``within bound`` — otherwise.

From traced results it also prints the exact counts that differ and a
table of which layer's self time moved.  Exits 1 when any metric is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import _stats
from layers import COUNTS, LAYER_TIMES

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: a gain (or a moved layer) needs at least this many runs paired by seed
MIN_PAIRS = 10

#: (workload, traced) -> metric -> seed -> value
Runs = Dict[Tuple[str, bool], Dict[str, Dict[int, float]]]


def load(path: Path) -> Runs:
    """Every metric value in the result documents under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Runs = defaultdict(lambda: defaultdict(dict))
    for file in files:
        if file.name.endswith(".spans.json"):
            continue
        doc = json.loads(file.read_text())
        for name, result in doc.get("workloads", {}).items():
            for metric, entry in result.get("metrics", {}).items():
                if entry.get("value") is not None:
                    runs[(name, result["trace"])][metric][
                        result["seed"]] = entry["value"]
    return runs


def paired(base: Dict[int, float], change: Dict[int, float]) \
        -> Tuple[List[float], List[float]]:
    seeds = sorted(set(base) & set(change))
    return [base[s] for s in seeds], [change[s] for s in seeds]


def verdict(base: Dict[int, float], change: Dict[int, float],
            better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median; positive = worse)."""
    b_values, c_values = list(base.values()), list(change.values())
    b_med, c_med = _stats.median(b_values), _stats.median(c_values)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - b_med) / abs(b_med)
    b_pairs, c_pairs = paired(base, change)
    if len(b_pairs) >= MIN_PAIRS \
            and _stats.pair_rule(b_pairs, c_pairs, better)["claim"]:
        return "improved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    spread = max(_stats.rel_iqr(b_values), _stats.rel_iqr(c_values))
    all_better = all(sign * (b - c) > 0 for b in b_values
                     for c in c_values)
    if spread > bound and not all_better:
        return "unresolved", worse_by
    return "within bound", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two sets of bench/run.py results")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    contract = json.loads(CONTRACT.read_text())
    base, change = load(args.base), load(args.change)
    workloads = [w["name"] for w in contract["workloads"]]
    worse = False

    print(f"{'workload':16} {'metric':12} {'base':>11} {'change':>11} "
          f"{'worse by':>8}  verdict (bound)")
    for name in workloads:
        for spec in contract["end_to_end"]:
            b = base[(name, False)].get(spec["name"], {})
            c = change[(name, False)].get(spec["name"], {})
            if not b or not c:
                continue
            result, worse_by = verdict(b, c, spec["better"], spec["bound"])
            worse |= result == "worse"
            print(f"{name:16} {spec['name']:12} "
                  f"{_stats.median(list(b.values())):11.5g} "
                  f"{_stats.median(list(c.values())):11.5g} "
                  f"{worse_by:+8.1%}  {result} ({spec['bound']:.0%}, "
                  f"n={len(b)}/{len(c)})")

    print("\nexact counts (traced runs) that differ:")
    differ = False
    for name in workloads:
        for count in COUNTS:
            b = base[(name, True)].get(count, {})
            c = change[(name, True)].get(count, {})
            for seed in sorted(set(b) & set(c)):
                if b[seed] != c[seed]:
                    differ = True
                    print(f"  {name:16} {count:26} seed {seed}: "
                          f"{int(b[seed])} -> {int(c[seed])} "
                          f"({int(c[seed]) - int(b[seed]):+d})")
    if not differ:
        print("  none")

    print("\nlayer self time per iteration (traced runs, medians):")
    print(f"  {'workload':16} {'layer':24} {'base s':>10} {'change s':>10} "
          f"{'delta':>8}  moved")
    for name in workloads:
        for layer in LAYER_TIMES:
            b = base[(name, True)].get(layer, {})
            c = change[(name, True)].get(layer, {})
            if not b or not c:
                continue
            b_med = _stats.median(list(b.values()))
            c_med = _stats.median(list(c.values()))
            b_pairs, c_pairs = paired(b, c)
            moved = "-" if len(b_pairs) >= MIN_PAIRS \
                else f"({len(b_pairs)} pairs)"
            if len(b_pairs) >= MIN_PAIRS:
                if _stats.pair_rule(b_pairs, c_pairs, "lower")["claim"]:
                    moved = "less time"
                elif _stats.pair_rule(b_pairs, c_pairs, "higher")["claim"]:
                    moved = "more time"
            print(f"  {name:16} {layer:24} {b_med:10.4g} {c_med:10.4g} "
                  f"{(c_med - b_med) / b_med if b_med else 0.0:+8.1%}  "
                  f"{moved}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
