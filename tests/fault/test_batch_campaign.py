"""Campaign-level byte-identity for the vectorized batch tier.

``run_campaign(..., batch=True)`` may only change wall clock, never a
byte of the result: the full ``to_json()`` document — golden record,
rows, histogram, by-kind table, figures of merit — must be identical
batch on/off, cold/warm, at any cache fill.  These tests pin that at
E18/E24 campaign shape (200 faults, seed 7) and cover the no-op paths
(kernel-bound scenarios, store mode is exercised in
``tests/campaign``).
"""

import pytest

from repro.fault import (
    CPU_FLAGS,
    SCENARIOS,
    classify,
    run_campaign,
    run_scenario,
    run_sw_batch,
    run_sw_sweep,
    sample_faults,
)
from repro.campaign import CampaignStore

E24_FAULTS = 200
E24_SEED = 7


def swmac_faults(n=E24_FAULTS, seed=E24_SEED):
    return sample_faults(SCENARIOS["swmac"].targets, n, seed=seed)


class TestSwmacScenario:
    def test_golden_is_a_valid_reference(self):
        golden = run_scenario("swmac")
        assert golden["completed"] and not golden["detected"]
        assert golden["error"] is None

    def test_targets_restrict_sampling_to_cpu_kinds(self):
        kinds = {fault.kind for fault in swmac_faults(30)}
        assert kinds == {"cpu_reg_flip", "cpu_pc_flip", "cpu_flag_flip"}

    def test_all_outcome_classes_reachable(self):
        """The E24 campaign must exercise the full taxonomy, or the
        dependability table it feeds is vacuous."""
        result = run_campaign("swmac", swmac_faults(), batch=True)
        hist = result.histogram()
        missing = [outcome for outcome, n in hist.items() if n == 0]
        assert not missing, f"outcome classes never seen: {missing}"


class TestBatchIdentity:
    @pytest.mark.slow
    def test_batch_equals_scalar_cold(self):
        faults = swmac_faults()
        scalar = run_campaign("swmac", faults)
        batch = run_campaign("swmac", faults, batch=True)
        assert batch.to_json() == scalar.to_json()

    def test_batch_equals_scalar_small(self):
        faults = swmac_faults(40)
        scalar = run_campaign("swmac", faults)
        batch = run_campaign("swmac", faults, batch=True)
        assert batch.to_json() == scalar.to_json()

    def test_warm_and_partial_cache_identical(self, tmp_path):
        """A store half-filled by one run, then extended by a second,
        then replayed fully warm — every variant yields the document
        the forked (batch) run gives with no store."""
        faults = swmac_faults(60)
        reference = run_campaign("swmac", faults, batch=True).to_json()
        cache = CampaignStore(tmp_path / "cells.sqlite")
        run_campaign("swmac", faults[:30], batch=True, cache=cache)
        extended = run_campaign("swmac", faults, batch=True, cache=cache)
        assert extended.to_json() == reference
        warm = run_campaign("swmac", faults, batch=True, cache=cache)
        assert warm.to_json() == reference
        assert warm.stats.computed == 0

    def test_scalar_cache_feeds_batch_run(self, tmp_path):
        """Cells stored by scalar runs must be indistinguishable from
        forked ones — same fingerprints, same records — and serve a
        batch-flagged run entirely."""
        faults = swmac_faults(30)
        cache = CampaignStore(tmp_path / "cells.sqlite")
        scalar = run_campaign("swmac", faults, cache=cache)
        assert scalar.to_json() == \
            run_campaign("swmac", faults, batch=True).to_json()
        batch = run_campaign("swmac", faults, batch=True, cache=cache)
        assert batch.to_json() == scalar.to_json()
        assert batch.stats.cache_hits == len(faults) + 1

    def test_kernel_scenario_batch_flag_is_a_noop(self):
        faults = sample_faults(SCENARIOS["coproc"].targets, 12, seed=3)
        scalar = run_campaign("coproc", faults)
        batch = run_campaign("coproc", faults, batch=True)
        assert batch.to_json() == scalar.to_json()


class TestSweepLanes:
    def test_input_sweep_matches_scalar_seeded_runs(self):
        """run_sw_sweep: one seed per lane, each record identical to a
        scalar run with that seed poked into the image."""
        from repro.fault.scenarios import (
            SW_SEED_ADDR,
            _build_sw_cpu,
            _drive_sw,
            _sw_record,
        )

        scenario = SCENARIOS["swmac"]
        seeds = [0, 1, 0x1234, 0xBEEF, 7, 7]
        records, stats = run_sw_sweep(scenario, seeds)
        assert len(records) == len(seeds)
        for seed, record in zip(seeds, records):
            cpu = _build_sw_cpu(scenario)
            cpu.memory.ram[SW_SEED_ADDR] = seed
            _drive_sw(cpu, scenario.software.budget)
            assert record == _sw_record(scenario, cpu, None)
        assert stats.lanes == len(seeds)

    def test_sweep_lanes_classify_like_campaign_cells(self):
        """A golden lane riding in a fault batch classifies masked."""
        scenario = SCENARIOS["swmac"]
        records, _stats = run_sw_batch(scenario, [None, None])
        assert classify(records[0], records[1]) == "masked"
