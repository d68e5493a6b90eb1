"""E11 — Sweep-engine throughput: serial vs parallel vs warm.

The ROADMAP north star asks for running experiments "as fast as the
hardware allows".  This benchmark drives a 64-cell grid (2 generators x
2 cost models x 4 deterministic heuristics x 4 seeds) through
``repro.sweep`` four ways and records the wall-clock for each in
``BENCH_sweep.json``:

* **cold serial** — ``workers=1``, the median of five rounds, each
  against a fresh empty :class:`~repro.campaign.store.CampaignStore`;
* **cold parallel** — ``workers=4`` with no store: four shards on a
  temporary store the run deletes;
* **cold campaign** — ``workers=4`` shards against an empty store of
  the caller's (the durable, resumable execution path);
* **warm** — ``workers=1``, the median of five rounds against the last
  serial round's store (every cell served from it).

Both serial timings are medians because one cold sweep takes about a
tenth of a second: a single round of either swings the warm fraction
by more than the comparison gate allows.

Asserted: the warm run finishes in < 10% of the cold-serial time with
zero recomputation (checked via metrics counters, not timing), all
four tables are byte-identical, and a re-run against the populated
campaign store computes nothing.  The >= 2x speedup criteria (no-store
parallel and campaign) are asserted only when the machine actually has >= 4
CPUs — on fewer cores the honest numbers are still recorded in the
JSON.
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.campaign import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.obs import Obs
from repro.sweep import expand_grid, run_sweep

# the one statistics helper, shared with the end-to-end benchmark
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from _stats import median  # noqa: E402

GRID = dict(
    generators=["layered", "forkjoin"],
    n_tasks=[10],
    cost_models=["default", "comm_heavy"],
    heuristics=["greedy", "vulcan", "cosyma", "gclp"],
    seeds=range(4),
)

RESULT_FILE = Path(__file__).parent / "BENCH_sweep.json"

#: timed rounds of the cold-serial and of the warm sweep
ROUNDS = 5


def _timed_sweep(configs, workers, cache, metrics=None):
    start = time.perf_counter()
    table = run_sweep(configs, workers=workers, cache=cache,
                      obs=Obs(metrics=metrics))
    return table, time.perf_counter() - start


def test_sweep_serial_parallel_cached(benchmark, tmp_path):
    configs = expand_grid(**GRID)
    assert len(configs) >= 64

    serial_times = []
    serial_docs = set()
    for round_n in range(ROUNDS):
        serial_cache = CampaignStore(tmp_path / f"serial{round_n}.sqlite")
        serial_table, seconds = _timed_sweep(configs, 1, serial_cache)
        serial_docs.add(serial_table.to_json())
        serial_times.append(seconds)
    assert len(serial_docs) == 1
    serial_s = median(serial_times)

    parallel_table, parallel_s = _timed_sweep(configs, 4, None)

    # determinism: worker count must not leak into the results
    assert parallel_table.to_json() == serial_table.to_json()

    # campaign path: 4 shards against a durable SQLite store
    campaign_store = CampaignStore(tmp_path / "campaign.sqlite")
    campaign_table, campaign_s = _timed_sweep(configs, 4, campaign_store)
    assert campaign_table.to_json() == serial_table.to_json()

    # the populated store resumes with zero recomputation
    resume_metrics = MetricsRegistry()
    resumed, _ = _timed_sweep(configs, 4, campaign_store, resume_metrics)
    assert resume_metrics.counter("sweep.cells.computed").value == 0
    assert resumed.to_json() == serial_table.to_json()

    # warm runs: everything served from the last serial round's store
    def warm_rounds():
        rounds = []
        for _ in range(ROUNDS):
            metrics = MetricsRegistry()
            table, seconds = _timed_sweep(configs, 1, serial_cache, metrics)
            rounds.append((table, metrics, seconds))
        return rounds

    warm = benchmark.pedantic(warm_rounds, rounds=1, iterations=1)
    for warm_table, metrics, _seconds in warm:
        assert warm_table.to_json() == serial_table.to_json()
        assert metrics.counter("sweep.cells.computed").value == 0
        assert metrics.counter("sweep.cache.hits").value == len(configs)
    warm_s = median([seconds for _table, _metrics, seconds in warm])
    assert warm_s < 0.10 * serial_s

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    campaign_speedup = (serial_s / campaign_s if campaign_s > 0
                        else float("inf"))
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert speedup >= 2.0
        assert campaign_speedup >= 2.0, (
            f"4-shard campaign run only {campaign_speedup:.2f}x over "
            f"serial on a {cpus}-CPU box (floor: 2x)"
        )

    record = {
        "cells": len(configs),
        "cpus": cpus,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup_parallel4": round(speedup, 3),
        "campaign_s": round(campaign_s, 4),
        "speedup_campaign4": round(campaign_speedup, 3),
        "warm_s": round(warm_s, 4),
        "warm_fraction": round(warm_s / serial_s, 4),
    }
    RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)
