"""Software fault cells: one path, forked from one checkpointed golden run.

Every swmac cell starts as a copy of its scenario's golden run
(``repro.fault.scenarios._golden``, DESIGN §14) on every execution
path: the in-process loop, store shards and temporary stores.  These
tests check that path against an independent reference — the same
fault run from retirement 0 (``_build_sw_cpu``, ``arm_cpu_fault``,
``_drive_sw``) — check that every execution path gives the same
document, pin when the golden memo runs golden again, and keep the
retired ``batch`` keyword of ``run_campaign`` a no-op: the whole
``to_json()`` document (golden record, rows, histogram, by-kind table,
figures of merit) is the same with it on or off, cold, warm and at any
store fill.
"""

import dataclasses

import pytest

from repro.campaign import CampaignStore
from repro.fault import (
    SCENARIOS,
    FaultSpec,
    InjectionError,
    classify,
    run_campaign,
    run_scenario,
    run_sw_batch,
    sample_faults,
)
from repro.fault import scenarios
from repro.fault.inject import arm_cpu_fault
from repro.fault.scenarios import (
    _build_sw_cpu,
    _drive_sw,
    _golden,
    _sw_record,
    run_sw_scenario,
)
from repro.isa import BatchCpu
from repro.isa.instructions import CustomOp

E24_FAULTS = 200
E24_SEED = 7


def swmac_faults(n=E24_FAULTS, seed=E24_SEED):
    return sample_faults(SCENARIOS["swmac"].targets, n, seed=seed)


def from_zero(scenario, fault):
    """The reference: ``fault`` armed on a fresh CPU and run from
    retirement 0, its error folded into the record."""
    cpu = _build_sw_cpu(scenario)
    if fault is not None:
        arm_cpu_fault(cpu, fault)
    error = None
    try:
        _drive_sw(cpu, scenario.software.budget)
    except Exception as exc:
        error = {"type": type(exc).__name__, "message": str(exc)[:200]}
    return _sw_record(scenario, cpu, error)


def with_software(**changes):
    """swmac with its software workload changed."""
    base = SCENARIOS["swmac"]
    return dataclasses.replace(
        base, software=dataclasses.replace(base.software, **changes))


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
        result = run_campaign("swmac", swmac_faults())
        hist = result.histogram()
        missing = [outcome for outcome, n in hist.items() if n == 0]
        assert not missing, f"outcome classes never seen: {missing}"

    def test_non_cpu_faults_are_rejected(self):
        fault = FaultSpec(kind="signal_flip", target="enable")
        with pytest.raises(InjectionError, match="only has a CPU surface"):
            run_sw_scenario(SCENARIOS["swmac"], fault)


class TestWorkloadValidation:
    @pytest.mark.parametrize("field,value", [
        ("budget", float("nan")), ("budget", 0), ("budget", -5),
        ("budget", 2.5), ("budget", True),
        ("out_len", 0), ("out_len", 2.5),
        ("verdict_index", 7),
    ])
    def test_bad_values_name_their_field(self, field, value):
        """A NaN budget used to run forever, 0 made every cell a hang,
        and a bad output window raised IndexError after the whole run."""
        with pytest.raises(ValueError, match=field):
            with_software(**{field: value})


class TestOnePath:
    @pytest.mark.parametrize("seed", [7, 1, 2])
    def test_records_equal_from_zero_runs(self, seed):
        scenario = SCENARIOS["swmac"]
        result = run_campaign("swmac", swmac_faults(seed=seed))
        assert result.golden == from_zero(scenario, None)
        for row in result.rows:
            fault = FaultSpec.from_dict(row["fault"])
            assert row["record"] == from_zero(scenario, fault), row["label"]

    def test_every_execution_path_gives_one_document(self, tmp_path,
                                                     monkeypatch):
        """In-process, a store at one and at two workers, and a
        temporary store, each from an empty golden memo, so that store
        shards run golden themselves."""
        memo = {}
        monkeypatch.setattr(scenarios, "_GOLDEN", memo)
        faults = swmac_faults()
        reference = run_campaign("swmac", faults).to_json()
        for workers, name in ((1, "w1.sqlite"), (2, "w2.sqlite"),
                              (2, None)):
            memo.clear()
            store = CampaignStore(tmp_path / name) if name else None
            try:
                doc = run_campaign("swmac", faults, workers=workers,
                                   cache=store).to_json()
            finally:
                if store is not None:
                    store.close()
            assert doc == reference, (workers, name)


@pytest.fixture
def golden_runs(monkeypatch):
    """The budgets of every golden run, from an empty memo and a fresh
    stock ISA (both restored afterwards)."""
    monkeypatch.setattr(scenarios, "_GOLDEN", {})
    monkeypatch.setattr(scenarios, "_ISA", None)
    runs = []
    run = BatchCpu.run

    def counting(self, budget):
        runs.append(budget)
        return run(self, budget)

    monkeypatch.setattr(BatchCpu, "run", counting)
    return runs


class TestGoldenMemo:
    def test_two_campaigns_run_golden_once(self, golden_runs):
        run_campaign("swmac", swmac_faults(20))
        run_campaign("swmac", swmac_faults(20, seed=1))
        assert golden_runs == [SCENARIOS["swmac"].software.budget]

    def test_an_isa_version_bump_runs_golden_again(self, golden_runs):
        faults = swmac_faults(20)
        before = run_campaign("swmac", faults).to_json()
        scenarios._stock_isa().add_custom(
            CustomOp("mulx", 0x80, lambda a, b: a * b))
        assert run_campaign("swmac", faults).to_json() == before
        run_campaign("swmac", faults)
        assert len(golden_runs) == 2

    def test_each_workload_gets_its_own_golden(self, golden_runs):
        base, longer = SCENARIOS["swmac"], with_software(budget=16_000)
        assert run_sw_scenario(longer) == run_sw_scenario(base)
        assert golden_runs == [16_000, 8_000]
        assert _golden(base.software) is not _golden(longer.software)

    def test_a_program_that_never_halts_keeps_at_most_128_checkpoints(
            self, golden_runs):
        spin = with_software(source="spin: j spin", budget=10**6)
        record = run_sw_scenario(dataclasses.replace(spin, name="spin"))
        assert record["error"]["type"] == "HangDetected"
        assert record["activations"] == 10**6
        assert len(_golden(spin.software).checkpoints) <= 128


class TestBatchIdentity:
    """The retired ``batch`` keyword changes no byte of a document."""

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
        the run with no store gives."""
        faults = swmac_faults(60)
        reference = run_campaign("swmac", faults).to_json()
        cache = CampaignStore(tmp_path / "cells.sqlite")
        run_campaign("swmac", faults[:30], cache=cache)
        extended = run_campaign("swmac", faults, cache=cache)
        assert extended.to_json() == reference
        warm = run_campaign("swmac", faults, batch=True, cache=cache)
        assert warm.to_json() == reference
        assert warm.stats.computed == 0

    def test_scalar_cache_feeds_batch_run(self, tmp_path):
        """Cells stored by one run serve a ``batch=True`` run
        entirely: same fingerprints, same records."""
        faults = swmac_faults(30)
        cache = CampaignStore(tmp_path / "cells.sqlite")
        scalar = run_campaign("swmac", faults, cache=cache)
        batch = run_campaign("swmac", faults, batch=True, cache=cache)
        assert batch.to_json() == scalar.to_json()
        assert batch.stats.cache_hits == len(faults) + 1

    def test_kernel_scenario_batch_flag_is_a_noop(self):
        faults = sample_faults(SCENARIOS["coproc"].targets, 12, seed=3)
        scalar = run_campaign("coproc", faults)
        batch = run_campaign("coproc", faults, batch=True)
        assert batch.to_json() == scalar.to_json()


class TestSweepLanes:
    def test_sweep_lanes_classify_like_campaign_cells(self):
        """Two golden cells from ``run_sw_batch`` classify masked."""
        records = run_sw_batch(SCENARIOS["swmac"], [None, None])
        assert classify(records[0], records[1]) == "masked"
