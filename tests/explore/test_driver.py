"""The differential test layer pinning the explorer's contract.

These are the acceptance criteria of the exploration subsystem, stated
as executable invariants:

* **worker-count independence** — the same spec produces byte-identical
  result JSON at 1 and 4 workers;
* **cache closure** — a warm second run recomputes zero genomes and
  still produces identical bytes (asserted from metrics counters, not
  timing);
* **execution-path equivalence** — JSON cache mode and durable
  store mode produce byte-identical results (and the store resumes
  warm);
* **GA never worse than its DoE seed** — per-generation archive
  hypervolume is monotone nondecreasing from generation 0;
* **front soundness** — every evaluated row is on the front or
  dominated by a front member, never both.
"""

import json

import pytest

from repro.campaign import CampaignStore
from repro.cosim.metrics import MetricsRegistry
from repro.explore import (
    ExploreSpec,
    dominates,
    explore,
    random_search,
)
from repro.obs.spans import SpanTracer
from repro.partition.seeding import ProgressProbe

#: Small but real: three generations over both objective arities.
SPEC_2D = ExploreSpec(population=6, generations=3, n_tasks=(8,),
                      heuristics=("greedy", "kl", "cosyma"))
SPEC_3D = ExploreSpec(population=8, generations=3,
                      scenario="coproc", scenario_faults=12)


@pytest.fixture(scope="module")
def result_3d():
    return explore(SPEC_3D, workers=1)


@pytest.fixture(scope="module")
def baseline_json(result_3d):
    return result_3d.to_json()


class TestDeterminism:
    def test_repeat_run_byte_identical(self, baseline_json):
        assert explore(SPEC_3D, workers=1).to_json() == baseline_json

    def test_four_workers_byte_identical(self, baseline_json):
        assert explore(SPEC_3D, workers=4).to_json() == baseline_json

    def test_2d_worker_independence(self):
        assert explore(SPEC_2D, workers=1).to_json() == \
            explore(SPEC_2D, workers=2).to_json()

    @pytest.mark.slow
    def test_ga_seed_changes_the_search(self, baseline_json):
        import dataclasses
        reseeded = dataclasses.replace(SPEC_3D, ga_seed=1)
        assert explore(reseeded, workers=1).to_json() != baseline_json


class TestCacheClosure:
    @pytest.mark.slow
    def test_warm_run_recomputes_nothing(self, tmp_path,
                                         baseline_json):
        cache = CampaignStore(tmp_path / "cache.sqlite")
        cold = explore(SPEC_3D, workers=1, cache=cache)
        assert cold.to_json() == baseline_json
        assert cold.stats.computed > 0

        metrics = MetricsRegistry()
        warm = explore(SPEC_3D, workers=1, cache=cache,
                       metrics=metrics)
        assert warm.to_json() == baseline_json
        assert warm.stats.computed == 0
        counters = metrics.to_dict()["counters"]
        assert "explore.genomes.computed" not in counters
        assert counters["explore.cache.hits"] > 0

    @pytest.mark.slow
    def test_store_mode_matches_cache_mode(self, tmp_path,
                                           baseline_json):
        store = CampaignStore(tmp_path / "dse.sqlite")
        pooled = explore(SPEC_3D, workers=2, cache=store)
        assert pooled.to_json() == baseline_json
        # resume warm from the committed store, serial this time
        warm = explore(SPEC_3D, workers=1, cache=store)
        assert warm.to_json() == baseline_json
        assert warm.stats.computed == 0


class TestGANeverWorse:
    def test_hypervolume_monotone_from_doe_seed(self, result_3d):
        hvs = [h["hypervolume"] for h in result_3d.history]
        assert len(hvs) == SPEC_3D.generations
        for prev, cur in zip(hvs, hvs[1:]):
            assert cur >= prev - 1e-12, hvs

    def test_best_scalar_never_regresses(self, result_3d):
        bests = [h["best_scalar"] for h in result_3d.history]
        running = bests[0]
        for b in bests[1:]:
            running = min(running, b)
        # the archive is elitist: the final best is the running best
        assert result_3d.ranking()[0]["scalar"] == \
            pytest.approx(running)


class TestFrontSoundness:
    def test_exactly_one_front_membership(self, result_3d):
        front_fps = {row["fingerprint"]
                     for row in result_3d.front_rows()}
        points = {row["fingerprint"]: tuple(row["objectives"])
                  for row in result_3d.rows}
        assert len(front_fps) == len(result_3d.front_rows())
        for fp, point in points.items():
            dominated = any(
                dominates(points[other], point)
                for other in points if other != fp
            )
            assert (fp not in front_fps) == dominated

    def test_front_sorted_by_objectives_then_fingerprint(
            self, result_3d):
        rows = result_3d.front_rows()
        keys = [(tuple(r["objectives"]), r["fingerprint"])
                for r in rows]
        assert keys == sorted(keys)

    def test_json_is_canonical(self, result_3d):
        doc = json.loads(result_3d.to_json())
        assert doc["version"] == 1
        assert doc["objectives"] == ["cost", "latency_ns", "exposure"]
        assert len(doc["front"]) == len(result_3d.front_rows())
        assert len(doc["history"]) == SPEC_3D.generations
        # volatile stats never leak into the serialized result
        assert "stats" not in doc and "elapsed" not in json.dumps(doc)


class TestObservability:
    def test_observed_run_identical_bytes(self, baseline_json):
        tracer = SpanTracer()
        probe = ProgressProbe()
        metrics = MetricsRegistry()
        observed = explore(SPEC_3D, workers=2, span_tracer=tracer,
                           probe=probe, metrics=metrics)
        assert observed.to_json() == baseline_json
        assert len(probe.to_dicts()) == SPEC_3D.generations
        assert len(tracer.spans_named("generation")) == \
            SPEC_3D.generations
        assert tracer.spans_named("genome"), \
            "worker-side genome spans should merge into the timeline"
        counters = metrics.to_dict()["counters"]
        assert counters["explore.generations"] == SPEC_3D.generations
        assert counters["explore.worker.genomes"] == \
            counters["explore.genomes.computed"]


class TestRandomBaseline:
    def test_random_search_deterministic(self):
        a = random_search(SPEC_2D, evaluations=10)
        b = random_search(SPEC_2D, evaluations=10)
        assert a.to_json() == b.to_json()

    def test_random_search_shares_the_cache(self, tmp_path):
        cache = CampaignStore(tmp_path / "cache.sqlite")
        random_search(SPEC_2D, evaluations=10, cache=cache)
        warm = random_search(SPEC_2D, evaluations=10, cache=cache)
        assert warm.stats.computed == 0


class TestSpecValidation:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            ExploreSpec(population=1)

    def test_rejects_zero_generations(self):
        with pytest.raises(ValueError):
            ExploreSpec(generations=0)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            explore(SPEC_2D, workers=0)
