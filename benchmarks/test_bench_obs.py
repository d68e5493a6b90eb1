"""E17 — Observability overhead: disabled vs enabled instrumentation.

The observability layer promises the kernel tracer's zero-cost
discipline across the whole stack: every hot-path hook is guarded by a
single ``if probe is not None`` / ``if span_tracer is not None``, so a
sweep that attaches nothing must run at raw-computation speed.  This
benchmark runs the same 12-cell grid three ways and records the
results in ``BENCH_obs.json``:

* **reference** — a bare ``run_cell`` loop, no engine bookkeeping and
  no observability arguments at all;
* **disabled** — ``run_sweep`` with no tracer, probe, or metrics
  attached (the guards are evaluated and always skip);
* **enabled** — ``run_sweep`` with a :class:`SpanTracer`, a
  :class:`ProgressProbe` wired to the span tracer's event stream, and
  a :class:`MetricsRegistry` all attached.

Asserted: the disabled sweep makes under 3% more calls than the
reference loop.  A call count is exact — every Python and builtin
function call of one sweep, cProfile's total — so it resolves 3%
where wall clock cannot: the grid runs in tens of milliseconds, and
scheduler noise on a shared host moves a nine-round median by more
than the bound.  The enabled variant's count is recorded honestly but
not bounded: paying for telemetry when you ask for it is fine; paying
when you didn't is not.

Wall clock is still measured and reported, not asserted: the three
variants run **interleaved**, A/B/C within each of :data:`ROUNDS`
rounds, so slow drift (thermal, cron, page cache) hits all three
alike; the per-round overhead is a paired measurement; and the record
keeps the **median** across rounds with a nonparametric sign-test
confidence interval from the order statistics.
"""

import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

from repro.cosim.metrics import MetricsRegistry
from repro.obs import ProgressProbe, SpanTracer, convergence_sink
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

#: Interleaved A/B/C rounds.  With 9 paired samples the (2nd, 8th)
#: order statistics bound the median at ~96% confidence
#: (sign test: 2 * P[Binomial(9, 1/2) <= 1] ≈ 0.039).
ROUNDS = 9

#: The bound on what a sweep may add over the bare loop, in calls.
BOUND = 0.03

RESULT_FILE = Path(__file__).parent / "BENCH_obs.json"


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


def test_disabled_observability_is_free(benchmark):
    configs = expand_grid(**GRID)
    assert len(configs) == 12

    def reference():
        return [run_cell(c) for c in configs]

    def disabled():
        return run_sweep(configs, workers=1)

    def enabled():
        spans = SpanTracer()
        probe = ProgressProbe(sink=convergence_sink(spans))
        metrics = MetricsRegistry()
        table = run_sweep(configs, workers=1, span_tracer=spans,
                          probe=probe, metrics=metrics)
        return table, spans, probe, metrics

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
    disabled()
    enabled()
    # exact per-sweep counts, one counted run of each variant
    counted_rows, ref_calls = _calls(reference)
    counted_table, dis_calls = _calls(disabled)
    _counted, en_calls = _calls(enabled)
    rounds, last = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows, disabled_table, enabled_out = last
    table, spans, probe, metrics = enabled_out

    # the timed and counted runs computed the same cells
    assert [dict(r) for r in disabled_table] == rows == counted_rows
    assert table.to_json() == disabled_table.to_json()
    assert counted_table.to_json() == disabled_table.to_json()

    # the enabled run really collected telemetry
    assert len(spans.spans_named("cell")) == len(configs)
    assert len(probe) > len(configs)
    counters = metrics.snapshot()["counters"]
    assert counters["sweep.worker.cells"] == len(configs)

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
        f"disabled-observability sweep makes {dis_calls - ref_calls} "
        f"calls ({disabled_calls:.2%}) over the bare run_cell loop's "
        f"{ref_calls} (budget: {BOUND:.0%}); wall clock, median of "
        f"{ROUNDS} interleaved rounds: {disabled_overhead:+.1%} (~96% CI "
        f"[{dis_ci[0]:.1%}, {dis_ci[1]:.1%}])"
    )

    record = {
        "cells": len(configs),
        "reference_calls": ref_calls,
        "disabled_calls": dis_calls,
        "enabled_calls": en_calls,
        "disabled_call_overhead": round(disabled_calls, 5),
        "enabled_call_overhead": round(enabled_calls, 5),
        "rounds": ROUNDS,
        "reference_s": round(median([r for r, _, _ in rounds]), 4),
        "disabled_s": round(median([d for _, d, _ in rounds]), 4),
        "enabled_s": round(median([e for _, _, e in rounds]), 4),
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "disabled_overhead_ci96": [round(x, 4) for x in dis_ci],
        "enabled_overhead_ci96": [round(x, 4) for x in en_ci],
        "spans": len(spans.finished),
        "probe_records": len(probe),
    }
    RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)
