"""E22 — Flight-recorder overhead: disabled vs armed telemetry.

The flight recorder (:mod:`repro.obs.live`) extends the zero-cost
discipline to *live* telemetry: every producer is guarded by a single
``if <emitter> is not None`` (in a run's session, which holds the
emitter), and the armed path is rate-limited to one monotonic-clock
compare between emissions.  This benchmark runs
the same 12-cell grid three ways and records the results in
``BENCH_telemetry.json``:

* **reference** — a bare ``run_cell`` loop, no engine bookkeeping;
* **disabled** — ``run_sweep`` with no session (the guards are
  evaluated and always skip);
* **enabled** — ``run_sweep`` with a session holding a
  :class:`JsonlRecorder` (run marks, rate-limited heartbeats, flushed
  per sample).

Asserted on exact per-sweep counts, as in ``test_bench_obs.py``:
**both** the disabled and the armed sweep make under 3% more calls
than the bare loop (every Python and builtin call, cProfile's total,
so the recorder's JSON encoding and file writes count too), and the
armed sweep writes no more samples than the rate limit allows — two
run marks, the forced final heartbeat, and one heartbeat per started
interval — whatever the grid size.  Unlike full span tracing, an
armed flight recorder is bounded too.

Wall clock is reported, not asserted, with the same interleaved
methodology as ``test_bench_obs.py``: the variants run A/B/C within
each round and the record keeps the median paired overhead with a
sign-test confidence interval.
"""

import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

from repro.obs import JsonlRecorder, Obs, read_samples
from repro.obs.live import DEFAULT_HEARTBEAT_S
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

#: The bound on what a sweep may add over the bare loop, in calls.
BOUND = 0.03

RESULT_FILE = Path(__file__).parent / "BENCH_telemetry.json"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _calls(fn):
    """``fn()`` and the number of Python and builtin function calls it
    made (cProfile's total)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, pstats.Stats(profile).total_calls


def _sample_cap(elapsed_s: float) -> int:
    """Samples a sweep of ``elapsed_s`` may write: the start and finish
    marks, the forced final heartbeat, and one rate-limited heartbeat
    per started interval (the first fires at once)."""
    return 4 + int(elapsed_s / DEFAULT_HEARTBEAT_S)


def test_flight_recorder_overhead_is_bounded(benchmark, tmp_path):
    configs = expand_grid(**GRID)
    assert len(configs) == 12

    def reference():
        return [run_cell(c) for c in configs]

    def disabled():
        return run_sweep(configs, workers=1)

    flights = iter(tmp_path / f"flight-{i}.jsonl"
                   for i in range(ROUNDS + 2))

    def enabled():
        recorder = JsonlRecorder(next(flights))
        start = time.perf_counter()
        table = run_sweep(configs, workers=1, obs=Obs(recorder=recorder))
        elapsed = time.perf_counter() - start
        recorder.close()
        return table, recorder.path, elapsed

    armed = []

    def measure():
        """ROUNDS interleaved A/B/C rounds of paired timings."""
        rounds = []
        last = None
        for _ in range(ROUNDS):
            rows, ref_s = _timed(reference)
            disabled_table, dis_s = _timed(disabled)
            enabled_out, en_s = _timed(enabled)
            armed.append(enabled_out)
            rounds.append((ref_s, dis_s, en_s))
            last = (rows, disabled_table, enabled_out)
        return rounds, last

    reference()  # warm imports, generators, cost tables
    disabled()
    enabled()
    # exact per-sweep counts, one counted run of each variant
    counted_rows, ref_calls = _calls(reference)
    counted_table, dis_calls = _calls(disabled)
    counted_flight, en_calls = _calls(enabled)
    rounds, last = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows, disabled_table, (table, flight_path, _elapsed) = last

    # the timed and counted runs computed the same cells, byte-identically
    assert [dict(r) for r in disabled_table] == rows == counted_rows
    assert table.to_json() == disabled_table.to_json()
    assert counted_table.to_json() == disabled_table.to_json()
    assert counted_flight[0].to_json() == disabled_table.to_json()

    # the armed run really recorded a flight log
    samples = read_samples(flight_path)
    kinds = {s.kind for s in samples}
    assert "run" in kinds and "heartbeat" in kinds

    # every armed sweep, counted or timed, wrote within the rate limit
    flights_written = [(len(read_samples(path)), elapsed)
                       for _table, path, elapsed in [counted_flight, *armed]]
    for written, elapsed in flights_written:
        assert written <= _sample_cap(elapsed), (
            f"armed sweep of {elapsed:.3f} s wrote {written} samples; "
            f"the rate limit allows {_sample_cap(elapsed)}")

    # paired per-round overheads: drift hits all three variants alike
    disabled_overheads = [(d - r) / r for r, d, _ in rounds]
    enabled_overheads = [(e - r) / r for r, _, e in rounds]
    disabled_overhead = median(disabled_overheads)
    enabled_overhead = median(enabled_overheads)
    dis_ci = sign_test_ci(disabled_overheads)[:2]
    en_ci = sign_test_ci(enabled_overheads)[:2]

    disabled_calls = (dis_calls - ref_calls) / ref_calls
    enabled_calls = (en_calls - ref_calls) / ref_calls
    assert disabled_calls < BOUND, (
        f"unarmed flight-recorder sweep makes {dis_calls - ref_calls} "
        f"calls ({disabled_calls:.2%}) over the bare run_cell loop's "
        f"{ref_calls} (budget: {BOUND:.0%}); wall clock, median of "
        f"{ROUNDS} interleaved rounds: {disabled_overhead:+.1%} (~96% CI "
        f"[{dis_ci[0]:.1%}, {dis_ci[1]:.1%}])"
    )
    assert enabled_calls < BOUND, (
        f"armed flight-recorder sweep makes {en_calls - ref_calls} "
        f"calls ({enabled_calls:.2%}) over the bare run_cell loop's "
        f"{ref_calls} (budget: {BOUND:.0%}); wall clock, median of "
        f"{ROUNDS} interleaved rounds: {enabled_overhead:+.1%} (~96% CI "
        f"[{en_ci[0]:.1%}, {en_ci[1]:.1%}])"
    )

    record = {
        "cells": len(configs),
        "reference_calls": ref_calls,
        "disabled_calls": dis_calls,
        "enabled_calls": en_calls,
        "disabled_call_overhead": round(disabled_calls, 5),
        "enabled_call_overhead": round(enabled_calls, 5),
        "flight_samples_max": max(n for n, _ in flights_written),
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
