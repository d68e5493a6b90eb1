"""Observed runs: merged worker timelines, truthful parent counters.

The observation contract, first for sweeps in detail, then for all
three campaign drivers (sweep, fault campaign, explorer) alike:

* an observed run produces ONE merged Perfetto trace that validates
  structurally, with per-cell spans attributed to ``<kind> worker``
  lanes;
* parent-registry counters equal the sum of worker deltas, identical
  at workers=1 and workers=2, with a store or without;
* observation must not change the result document (byte-identical).
"""

import json

import pytest

from repro.campaign import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.explore import ExploreSpec, explore
from repro.fault import SCENARIOS, run_campaign, sample_faults
from repro.obs import (
    Obs,
    ProgressProbe,
    SpanTracer,
    convergence_sink,
    validate_trace_events,
)
from repro.sweep import expand_grid, run_cell, run_sweep


def small_grid(heuristics=("greedy", "vulcan"), seeds=range(2)):
    return expand_grid(
        generators=("layered", "pipeline"),
        n_tasks=(6,),
        heuristics=heuristics,
        seeds=seeds,
    )


def observed_sweep(grid, workers):
    spans = SpanTracer()
    probe = ProgressProbe(sink=convergence_sink(spans))
    metrics = MetricsRegistry()
    table = run_sweep(grid, workers=workers,
                      obs=Obs(metrics=metrics, spans=spans, probe=probe))
    return table, spans, probe, metrics


def run_cell_observed(config):
    """One cell under a sweep worker session: (record, its payload)."""
    worker = Obs.worker("sweep")
    return run_cell(config, obs=worker), worker.payload()


class TestRunCellObserved:
    def test_row_identical_to_unobserved(self):
        grid = small_grid()
        for config in grid:
            record, obs = run_cell_observed(config)
            assert record == run_cell(config)

    def test_payload_is_json_serializable_and_complete(self):
        config = small_grid()[0]
        _record, obs = run_cell_observed(config)
        obs = json.loads(json.dumps(obs))  # survives the store column
        names = [s["name"] for s in obs["spans"]["spans"]]
        assert "cell" in names
        assert "build_problem" in names
        assert "partition" in names
        assert obs["probe"], "no convergence records shipped"
        assert obs["metrics"]["counters"]["sweep.worker.cells"] == 1
        # probe records are tagged with their cell for separability
        assert all(r["cell"] == config.fingerprint[:12]
                   for r in obs["probe"])

    def test_cell_span_encloses_phases(self):
        _record, obs = run_cell_observed(small_grid()[0])
        spans = {s["name"]: s for s in obs["spans"]["spans"]}
        cell = spans["cell"]
        for phase in ("build_problem", "partition"):
            assert cell["start"] <= spans[phase]["start"]
            assert spans[phase]["end"] <= cell["end"]
            assert spans[phase]["depth"] == cell["depth"] + 1


class TestMergedTimeline:
    def test_two_worker_sweep_yields_one_valid_merged_trace(self):
        grid = small_grid()
        table, spans, probe, _metrics = observed_sweep(grid, workers=2)
        doc = spans.to_perfetto()
        assert validate_trace_events(doc) == []
        parsed = json.loads(doc)
        cells = [e for e in parsed["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "cell"]
        assert len(cells) == len(grid)

    def test_cell_spans_attributed_to_worker_lanes(self):
        grid = small_grid()
        _table, spans, _probe, _metrics = observed_sweep(grid, workers=2)
        parent_pid = spans.pid
        cell_pids = {s.pid for s in spans.spans_named("cell")}
        assert parent_pid not in cell_pids, (
            "cells must run (and be attributed) in workers, not parent"
        )
        for pid in cell_pids:
            assert spans.lane_names[pid].startswith("sweep worker")
        # parent keeps its own lane with the enclosing sweep span
        sweep_spans = spans.spans_named("sweep")
        assert len(sweep_spans) == 1
        assert sweep_spans[0].pid == parent_pid

    def test_convergence_events_reach_the_merged_timeline(self):
        grid = small_grid(heuristics=("greedy",))
        _table, spans, probe, _metrics = observed_sweep(grid, workers=2)
        converge = [e for e in spans.events
                    if e.name == "converge:greedy"]
        assert len(converge) == len(probe.records)


class TestWorkerMetricAggregation:
    def test_parent_counters_equal_sum_of_worker_deltas(self):
        grid = small_grid()
        _t1, _s1, _p1, metrics1 = observed_sweep(grid, workers=1)
        _t2, _s2, _p2, metrics2 = observed_sweep(grid, workers=2)
        c1 = metrics1.snapshot()["counters"]
        c2 = metrics2.snapshot()["counters"]
        worker_keys = {k for k in c1
                       if k.startswith(("heuristic.", "sweep.worker."))}
        assert worker_keys, "no worker-side counters were aggregated"
        for key in sorted(worker_keys):
            assert c1[key] == c2[key], (
                f"{key}: {c1[key]} at workers=1 vs {c2[key]} at workers=2"
            )
        assert c1["sweep.worker.cells"] == len(grid)

    def test_moves_counter_matches_table_column(self):
        grid = small_grid()
        table, _spans, _probe, metrics = observed_sweep(grid, workers=2)
        counters = metrics.snapshot()["counters"]
        for name in ("greedy", "vulcan"):
            table_total = sum(r["moves_evaluated"] for r in table
                              if r["config"]["heuristic"] == name)
            assert counters[f"heuristic.{name}.moves_evaluated"] == \
                table_total

    def test_probe_streams_merge_across_workers(self):
        grid = small_grid()
        _table, _spans, probe1, _m = observed_sweep(grid, workers=1)
        _table, _spans, probe2, _m = observed_sweep(grid, workers=2)
        assert len(probe1) == len(probe2)
        assert probe1.algorithms() == probe2.algorithms()


class TestObservationDoesNotPerturb:
    def test_table_byte_identical_with_and_without_observation(self):
        grid = small_grid()
        plain = run_sweep(grid, workers=1)
        observed, _s, _p, _m = observed_sweep(grid, workers=2)
        assert observed.to_json() == plain.to_json()

    def test_cache_entries_carry_no_obs_payload(self, tmp_path):
        grid = small_grid(heuristics=("greedy",), seeds=range(1))
        cache = CampaignStore(tmp_path / "cache.sqlite")
        observed_sweep_table, _s, _p, _m = (
            run_sweep(grid, workers=1, cache=cache,
                      obs=Obs(spans=SpanTracer())),
            None, None, None,
        )
        for record in observed_sweep_table:
            assert "obs" not in record
            assert "spans" not in record
        # a plain run against the observed run's cache reads identically
        replay = run_sweep(grid, workers=1, cache=cache)
        assert replay.to_json() == observed_sweep_table.to_json()

    def test_cache_hits_skip_workers_but_emit_events(self, tmp_path):
        grid = small_grid()
        cache = CampaignStore(tmp_path / "cache.sqlite")
        run_sweep(grid, workers=1, cache=cache)
        spans = SpanTracer()
        metrics = MetricsRegistry()
        table = run_sweep(grid, workers=2, cache=cache,
                          obs=Obs(metrics=metrics, spans=spans))
        assert table.stats.computed == 0
        hits = [e for e in spans.events if e.name == "cache.hit"]
        assert len(hits) == len(grid)
        assert not spans.spans_named("cell")
        assert metrics.snapshot()["counters"].get(
            "sweep.worker.cells", 0) == 0


# ----------------------------------------------------------------------
# one contract, three drivers
# ----------------------------------------------------------------------
FAULTS = sample_faults(SCENARIOS["msgpipe"].targets, 4, seed=0)
EXPLORE_SPEC = ExploreSpec(population=4, generations=2, n_tasks=(8,),
                           heuristics=("greedy", "kl"))

#: kind → (run it, returning its document; the span each cell records)
DRIVERS = {
    "sweep": (lambda workers, cache, obs: run_sweep(
        small_grid(), workers=workers, cache=cache, obs=obs).to_json(),
        "cell"),
    "fault": (lambda workers, cache, obs: run_campaign(
        "msgpipe", FAULTS, workers=workers, cache=cache,
        obs=obs).to_json(), "fault_cell"),
    "explore": (lambda workers, cache, obs: explore(
        EXPLORE_SPEC, workers=workers, cache=cache, obs=obs).to_json(),
        "genome"),
}


@pytest.mark.parametrize("store", [False, True],
                         ids=["no-store", "store"])
@pytest.mark.parametrize("kind", sorted(DRIVERS))
def test_one_observation_contract(kind, store, tmp_path):
    """Observed at 1 and 2 workers, each driver's document is
    byte-identical to its plain run (cold, and warm from a store), its
    cells' spans sit on ``<kind> worker`` lanes of one valid merged
    trace, and its counters do not depend on the worker count."""
    run, cell_span = DRIVERS[kind]
    plain = run(1, None, None)
    counters = {}
    for workers in (1, 2):
        cache = (CampaignStore(tmp_path / f"w{workers}.sqlite")
                 if store else None)
        spans = SpanTracer()
        metrics = MetricsRegistry()
        assert run(workers, cache, Obs(metrics=metrics, spans=spans)) \
            == plain
        assert validate_trace_events(spans.to_perfetto()) == []
        cells = spans.spans_named(cell_span)
        assert cells, f"no {cell_span} spans merged at workers={workers}"
        for span in cells:
            assert spans.lane_names[span.pid].startswith(
                f"{kind} worker ")
        # the campaign.* counters describe the execution path (store
        # queue or in-process loop), not the work
        counters[workers] = {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if not name.startswith("campaign.")
        }
    assert counters[1] == counters[2]
    if store:
        # warm: the store serves every cell, observed or not
        spans = SpanTracer()
        assert run(2, cache, Obs(spans=spans)) == plain
        assert not spans.spans_named(cell_span)
