"""E22 — Flight-recorder overhead: disabled vs armed telemetry.

The flight recorder (:mod:`repro.obs.live`) extends the zero-cost
discipline to *live* telemetry: every producer is guarded by a single
``if <emitter> is not None``, and the armed path is rate-limited to
one monotonic-clock compare between emissions.  This benchmark times
the same 12-cell grid three ways and records the statistics in
``BENCH_telemetry.json``:

* **reference** — a bare ``run_cell`` loop, no engine bookkeeping;
* **disabled** — ``run_sweep`` with no recorder (the guards are
  evaluated and always skip);
* **enabled** — ``run_sweep`` with a :class:`JsonlRecorder` armed
  (run marks, rate-limited heartbeats, flushed per sample).

Same interleaved methodology as ``test_bench_obs.py``: the overhead
under test is percent-scale, the same order as scheduler noise, so
the variants run A/B/C within each round and the reported number is
the median paired overhead with a sign-test confidence interval.
Asserted: **both** the disabled and the enabled median overhead stay
under 3% — unlike full span tracing, an armed flight recorder is
bounded too, because rate-limiting caps its sample count regardless
of grid size.
"""

import json
import sys
import time
from pathlib import Path

from repro.obs import JsonlRecorder, read_samples
from repro.sweep import expand_grid, run_cell, run_sweep

# the one statistics helper, shared with the end-to-end benchmark
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from _stats import median, sign_test_ci  # noqa: E402

GRID = dict(
    generators=["layered", "pipeline"],
    n_tasks=[12],
    heuristics=["greedy", "kl", "annealing", "vulcan", "cosyma", "gclp"],
    seeds=range(1),
)

#: Interleaved A/B/C rounds; at n=9 the (2nd, 8th) order statistics
#: bound the median at ~96% confidence (see test_bench_obs.py).
ROUNDS = 9

RESULT_FILE = Path(__file__).parent / "BENCH_telemetry.json"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_flight_recorder_overhead_is_bounded(benchmark, tmp_path):
    configs = expand_grid(**GRID)
    assert len(configs) == 12

    def reference():
        return [run_cell(c) for c in configs]

    def disabled():
        return run_sweep(configs, workers=1)

    flights = iter(tmp_path / f"flight-{i}.jsonl"
                   for i in range(ROUNDS + 1))

    def enabled():
        recorder = JsonlRecorder(next(flights))
        table = run_sweep(configs, workers=1, recorder=recorder)
        recorder.close()
        return table, recorder.path

    def measure():
        """ROUNDS interleaved A/B/C rounds of paired timings."""
        rounds = []
        last = None
        for _ in range(ROUNDS):
            rows, ref_s = _timed(reference)
            disabled_table, dis_s = _timed(disabled)
            enabled_out, en_s = _timed(enabled)
            rounds.append((ref_s, dis_s, en_s))
            last = (rows, disabled_table, enabled_out)
        return rounds, last

    reference()  # warm imports, generators, cost tables
    enabled()
    rounds, last = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows, disabled_table, (table, flight_path) = last

    # the timed runs computed the same cells, byte-identically
    assert [dict(r) for r in disabled_table] == rows
    assert table.to_json() == disabled_table.to_json()

    # the armed run really recorded a flight log
    samples = read_samples(flight_path)
    kinds = {s.kind for s in samples}
    assert "run" in kinds and "heartbeat" in kinds

    # paired per-round overheads: drift hits all three variants alike
    disabled_overheads = [(d - r) / r for r, d, _ in rounds]
    enabled_overheads = [(e - r) / r for r, _, e in rounds]
    disabled_overhead = median(disabled_overheads)
    enabled_overhead = median(enabled_overheads)
    dis_ci = sign_test_ci(disabled_overheads)[:2]
    en_ci = sign_test_ci(enabled_overheads)[:2]

    assert disabled_overhead < 0.03, (
        f"unarmed flight-recorder sweep is {disabled_overhead:.1%} "
        f"over the bare run_cell loop at the median of {ROUNDS} "
        f"interleaved rounds (budget: 3%; ~96% CI "
        f"[{dis_ci[0]:.1%}, {dis_ci[1]:.1%}])"
    )
    assert enabled_overhead < 0.03, (
        f"armed flight-recorder sweep is {enabled_overhead:.1%} over "
        f"the bare run_cell loop at the median of {ROUNDS} interleaved "
        f"rounds (budget: 3%; ~96% CI "
        f"[{en_ci[0]:.1%}, {en_ci[1]:.1%}])"
    )

    record = {
        "cells": len(configs),
        "rounds": ROUNDS,
        "reference_s": round(median([r for r, _, _ in rounds]), 4),
        "disabled_s": round(median([d for _, d, _ in rounds]), 4),
        "enabled_s": round(median([e for _, _, e in rounds]), 4),
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "disabled_overhead_ci96": [round(x, 4) for x in dis_ci],
        "enabled_overhead_ci96": [round(x, 4) for x in en_ci],
        "flight_samples": len(samples),
    }
    RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)
