#!/usr/bin/env python3
"""End-to-end benchmark: what users run, end-to-end and per layer.

Five workloads (``bench/workloads.py``) each run in their own fresh
child process, one after another, with ``workers=1``.  The untraced
run reports the end-to-end metrics; a separate traced run (``--trace
1`` / ``--traced``) reports per-layer self time and exact counts.

Usage (from the repository root)::

    python3 bench/run.py --workload coproc-campaign --seed 7 \\
        --seconds 16 --trace 0
    PYTHONPATH=src python bench/run.py --seed 7 --out run.json
    python3 bench/run.py --seed 7 --traced --out traced.json
    python3 bench/run.py --smoke --out smoke.json

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
iteration ran and passed its correctness checks.

The end-to-end metrics (host time, tracing off):

* ``setup_s`` — child start until imports and inputs are ready, plus
  how much longer the first call of the workload takes than the second
  (lazy set-up, timed on a tiny input); the median over five fresh
  children;
* ``run_s`` — median wall time of one iteration (for
  ``msgpipe-store`` the cold campaign only);
* ``cells_per_s`` — cells completed (faults plus golden; genomes
  requested for exploration) per second of timed wall;
* ``peak_rss_mb`` — the measured child's peak resident set.

Also reported, but not gated: ``run_tail_s`` (the highest percentile
with at least ten iterations beyond it, once a run has 40), ``replay_s``
(``msgpipe-store``'s warm replay), and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import _stats
from workloads import REFERENCE_PROBE_S, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

#: units of the layer metrics that scale with host speed
TIME_UNITS = ("s", "ms", "us", "ns")

SETUP_SAMPLES = 5          # fresh children timed to "ready" per run
CHILD_BUDGET_S = 170.0     # one workload, setup children included


class ChildFailed(RuntimeError):
    """A child process exited badly or printed no result."""


def spawn(workload: str, seed: int, seconds: float, *, trace=False,
          smoke=False, setup_only=False, spans: Optional[Path] = None,
          deadline: float) -> Dict[str, Any]:
    """Run one child to completion; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # fixed string hashing, so set iteration order is the same every run
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--spans", str(spans)] if spans else []
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed(f"{workload}: no time left for another child")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child killed after "
                          f"{timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str, **extra) -> Dict[str, Any]:
    return dict(value=value, unit=unit, **extra)


def at_reference(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took ``probe_s``, restated at
    the reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def e2e_metrics(setups: List[Dict], child: Dict) -> Dict[str, Dict]:
    """The end-to-end metrics (and the ungated extras) of one run."""
    out: Dict[str, Dict] = {}
    samples = [at_reference(c["ready_s"] + c["excess_s"], c["setup_probe_s"])
               for c in setups]
    out["setup_s"] = metric(
        _stats.median(samples), "s", n=len(samples),
        ready_s=[c["ready_s"] for c in setups],
        first_call_excess_s=[c["excess_s"] for c in setups])
    probes = child["probe_s"]
    runs = [at_reference(t, p) for t, p in zip(child["run_s"], probes)]
    walls = [at_reference(t, p) for t, p in zip(child["wall_s"], probes)]
    out["run_s"] = metric(_stats.median(runs), "s", n=len(runs),
                          raw=_stats.median(child["run_s"]))
    out["cells_per_s"] = metric(sum(child["cells"]) / sum(walls), "1/s",
                                raw=sum(child["cells"])
                                / sum(child["wall_s"]))
    out["peak_rss_mb"] = metric(child["rss_mb"], "MB")
    found = _stats.tail(runs)
    if found is not None and found[0] >= 75.0:
        pct, value, n = found
        out["run_tail_s"] = metric(value, "s", percentile=pct, n=n)
    else:
        out["run_tail_s"] = metric(
            None, "s", n=len(runs),
            reason=f"{len(runs)} iterations; a tail needs 40")
    if child["replay_s"]:
        replays = [at_reference(t, p)
                   for t, p in zip(child["replay_s"], probes)]
        out["replay_s"] = metric(_stats.median(replays), "s",
                                 n=len(replays))
    out["host_speed"] = metric(REFERENCE_PROBE_S / _stats.median(probes),
                               "ratio")
    return out


def layer_metrics(child: Dict) -> Dict[str, Dict]:
    """The traced run's per-layer metrics, overhead included; layer
    times are restated at the reference host speed."""
    speed = REFERENCE_PROBE_S / _stats.median(child["probe_s"])
    out = {
        name: (dict(entry, value=entry["value"] * speed)
               if entry["unit"] in TIME_UNITS and entry["value"] is not None
               else entry)
        for name, entry in child["layers"].items()
    }
    out["host_speed"] = metric(speed, "ratio")
    ratios = [traced / untraced for untraced, traced in child["pairs"]]
    out["trace.overhead"] = metric(_stats.median(ratios) - 1.0, "ratio",
                                   n=len(ratios))
    out["host.cpu_frac"] = metric(child["cpu_frac"], "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spans: Optional[Path]) -> Dict[str, Any]:
    """All children of one workload; the workload's result document."""
    deadline = time.perf_counter() + CHILD_BUDGET_S
    doc: Dict[str, Any] = {"seed": seed, "trace": trace, "smoke": smoke}
    try:
        setups = []
        if not (trace or smoke):
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(name, seed, seconds, setup_only=True,
                                    deadline=deadline))
        child = spawn(name, seed, seconds, trace=trace, smoke=smoke,
                      spans=spans, deadline=deadline)
    except (ChildFailed, ValueError, KeyError) as exc:
        doc.update(attempted=1, failed=1, failures=[str(exc)], metrics={})
        return doc
    setups.append(child)
    attempted = sum(c["attempted"] for c in setups)
    failures = [f for c in setups for f in c["failures"]]
    doc.update(attempted=attempted, failed=len(failures),
               failures=failures, digest=child.get("digest"),
               failed_frac=len(failures) / max(1, attempted),
               cpu_frac=child.get("cpu_frac"))
    if not child.get("run_s") or (trace and "layers" not in child):
        doc["metrics"] = {}
    elif trace:
        doc["metrics"] = layer_metrics(child)
        doc["missing"] = child["missing"]
    else:
        doc["metrics"] = e2e_metrics(setups, child)
        doc["samples"] = {key: child[key] for key in (
            "run_s", "wall_s", "cells", "replay_s", "probe_s")}
    return doc


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark over five workloads")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="timed loop length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one iteration per workload")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result document as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    seconds = 0.0 if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    # the last line carries exactly the metrics BENCHMARK.json names
    contract = json.loads(CONTRACT.read_text())
    wanted = [m["name"] for m in
              contract["per_layer" if trace else "end_to_end"]]
    out_path = Path(args.out) if args.out else None
    result = {"benchmark": "bench/run.py", "seed": args.seed,
              "seconds": seconds, "trace": trace, "smoke": args.smoke,
              "python": platform.python_version(),
              "nproc": os.cpu_count(), "workloads": {}}
    metrics: Dict[str, Dict] = {}
    for name in names:
        spans = (out_path.with_name(f"{out_path.stem}.{name}.spans.json")
                 if out_path and trace else None)
        doc = run_workload(name, args.seed, seconds, trace, args.smoke,
                           spans)
        result["workloads"][name] = doc
        for failure in doc["failures"]:
            print(f"FAIL {name}: {failure}", file=sys.stderr)
        for key, entry in doc["metrics"].items():
            notes = "".join(
                f" {k}={fmt(v)}" for k, v in entry.items()
                if k in ("percentile", "n", "reason"))
            print(f"{name:16} {key:26} {fmt(entry['value']):>12} "
                  f"{entry['unit']}{notes}")
        print(f"{name:16} {'failed_frac':26} "
              f"{fmt(doc.get('failed_frac', 1.0)):>12} ratio")
        prefix = "" if args.workload else f"{name}/"
        for key in wanted:
            entry = doc["metrics"].get(key)
            if entry is not None:
                metrics[prefix + key] = {"value": entry["value"],
                                         "unit": entry["unit"]}

    attempted = sum(d["attempted"] for d in result["workloads"].values())
    failed = sum(d["failed"] for d in result["workloads"].values())
    correct = failed == 0 and all(
        d["metrics"] for d in result["workloads"].values())
    result.update(correct=correct, attempted=attempted, failed=failed)
    if out_path:
        out_path.write_text(json.dumps(result, indent=2, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
