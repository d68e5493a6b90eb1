"""Tests for the campaign runner, classifier, and dependability report."""

import json

import pytest

from repro.fault import (
    OUTCOMES,
    CampaignError,
    FaultSpec,
    InjectionError,
    SCENARIOS,
    Scenario,
    System,
    cell_fingerprint,
    classify,
    run_campaign,
    run_scenario,
    sample_faults,
)
from repro.obs import Obs
from repro.obs.spans import SpanTracer
from repro.campaign import CampaignStore


GOLDEN = {"completed": True, "detected": False, "data": [1, 2, 3],
          "error": None}


def _record(**overrides):
    rec = dict(GOLDEN)
    rec.update(overrides)
    return rec


class TestClassify:
    def test_masked(self):
        assert classify(GOLDEN, _record()) == "masked"

    def test_sdc_on_output_difference(self):
        assert classify(GOLDEN, _record(data=[1, 2, 9])) == "sdc"

    def test_detected_beats_sdc(self):
        faulty = _record(data=[1, 2, 9], detected=True)
        assert classify(GOLDEN, faulty) == "detected"

    def test_incomplete_run_is_a_hang(self):
        faulty = _record(completed=False, data=[1])
        assert classify(GOLDEN, faulty) == "hang"

    def test_watchdog_error_is_a_hang(self):
        faulty = _record(
            completed=False, data=[],
            error={"type": "HangDetected", "message": "stalled"})
        assert classify(GOLDEN, faulty) == "hang"

    def test_any_other_error_is_a_crash(self):
        for err_type in ("CpuError", "SimulationError", "ZeroDivisionError"):
            faulty = _record(
                completed=False, data=[],
                error={"type": err_type, "message": "boom"})
            assert classify(GOLDEN, faulty) == "crash"

    def test_every_record_lands_in_exactly_one_class(self):
        # the precedence chain is total: membership in OUTCOMES is
        # enough, uniqueness is by construction (single return)
        for faulty in [
            _record(),
            _record(data=[9]),
            _record(detected=True),
            _record(completed=False),
            _record(error={"type": "X", "message": ""}),
        ]:
            assert classify(GOLDEN, faulty) in OUTCOMES


class TestFingerprints:
    def test_golden_and_fault_cells_distinct(self):
        fault = FaultSpec(kind="msg_drop", target="a", index=1)
        assert cell_fingerprint("msgpipe", None) != \
            cell_fingerprint("msgpipe", fault)

    def test_scenario_name_is_part_of_the_key(self):
        fault = FaultSpec(kind="proc_spin", target="s", time=1.0)
        assert cell_fingerprint("msgpipe", fault) != \
            cell_fingerprint("coproc", fault)


class TestCampaign:
    def test_rows_follow_input_order_and_histogram_is_total(self):
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 10, seed=2)
        result = run_campaign("msgpipe", faults)
        assert [r["fault"] for r in result.rows] == \
            [f.to_dict() for f in faults]
        hist = result.histogram()
        assert set(hist) == set(OUTCOMES)  # zero-filled classes present
        assert sum(hist.values()) == len(faults)

    def test_duplicate_faults_computed_once(self):
        fault = FaultSpec(kind="msg_drop", target="a", index=1)
        result = run_campaign("msgpipe", [fault, fault, fault])
        assert len(result.rows) == 3
        assert result.stats.duplicates == 2
        assert result.stats.computed == 2  # golden + one cell
        assert len({r["outcome"] for r in result.rows}) == 1

    def test_histogram_identical_across_worker_counts(self):
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 12, seed=5)
        serial = run_campaign("msgpipe", faults, workers=1)
        pooled = run_campaign("msgpipe", faults, workers=2)
        assert [r["outcome"] for r in serial.rows] == \
            [r["outcome"] for r in pooled.rows]
        assert serial.to_json() == pooled.to_json()

    def test_cache_makes_reruns_incremental(self, tmp_path):
        cache = CampaignStore(tmp_path / "cache.sqlite")
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 6, seed=1)
        first = run_campaign("msgpipe", faults, cache=cache)
        assert first.stats.cache_hits == 0
        again = run_campaign("msgpipe", faults, cache=cache)
        assert again.stats.computed == 0
        # every distinct cell (golden + faults) now comes from the cache
        assert again.stats.cache_hits + again.stats.duplicates == \
            len(faults) + 1
        assert again.to_json() == first.to_json()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_campaign("ghost", [])

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("name", ["coproc", "swmac"])
    def test_cpu_register_off_the_file_rejected(self, name, batch):
        """A malformed CPU fault stops the campaign with the arming
        helper's InjectionError, unwrapped, on every scenario, never a
        crash row; the retired ``batch`` keyword, still accepted and
        ignored, does not change that."""
        bad = FaultSpec(kind="cpu_reg_flip", target="cpu", index=16,
                        count=5)
        with pytest.raises(InjectionError) as info:
            run_campaign(name, [bad], batch=batch)
        assert str(info.value) == "cpu_reg_flip: no register r16"
        with pytest.raises(InjectionError, match="no register r16"):
            run_scenario(name, bad)

    def test_invalid_golden_raises_campaign_error(self, monkeypatch):
        # a scenario whose golden run never completes is unusable as a
        # classification reference
        broken = SCENARIOS["msgpipe"]

        def build_broken(sim):
            system, summarize = broken.build(sim)

            def bad_summary():
                record = summarize()
                record["completed"] = False
                return record

            return system, bad_summary

        monkeypatch.setitem(
            SCENARIOS, "broken",
            Scenario(name="broken", targets=broken.targets,
                     horizon=broken.horizon, build=build_broken))
        with pytest.raises(CampaignError, match="golden run"):
            run_campaign("broken", [])

    def test_dependability_table_mentions_every_kind_and_coverage(self):
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 14, seed=3)
        result = run_campaign("msgpipe", faults)
        table = result.dependability_table()
        for kind in {f.kind for f in faults}:
            assert kind in table
        assert "detection coverage" in table
        assert "TOTAL" in table

    def test_to_json_is_loadable_and_versioned(self):
        result = run_campaign(
            "msgpipe",
            [FaultSpec(kind="msg_corrupt", target="a", index=1, bit=2)])
        doc = json.loads(result.to_json())
        assert doc["version"] >= 1
        assert doc["histogram"]["detected"] == 1
        assert doc["rows"][0]["label"]

    def test_span_tracer_gets_per_fault_spans(self):
        spans = SpanTracer()
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 4, seed=0)
        result = run_campaign("msgpipe", faults, obs=Obs(spans=spans))
        cells = spans.spans_named("fault_cell")
        # golden + 4 faults (minus duplicates, of which there are none)
        assert len(cells) == 5
        assert spans.spans_named("campaign")
        labels = {s.attrs["fault"] for s in cells}
        assert "golden" in labels
        # the observed path must not perturb the records
        plain = run_campaign("msgpipe", faults)
        assert result.to_json() == plain.to_json()

    def test_failed_golden_check_closes_the_campaign_span(
            self, monkeypatch):
        """The span closes when the run ends, not when the error's
        traceback is collected: the error is held while the span is
        checked."""
        import repro.fault.campaign as campaign

        run_scenario = campaign.run_scenario

        def broken_golden(scenario, fault):
            record = run_scenario(scenario, fault)
            if fault is None:
                record["completed"] = False
            return record

        monkeypatch.setattr(campaign, "run_scenario", broken_golden)
        spans = SpanTracer()
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 2, seed=0)
        with pytest.raises(CampaignError) as excinfo:
            run_campaign("msgpipe", faults, obs=Obs(spans=spans))
        assert "not a valid reference" in str(excinfo.value)
        assert spans.current is None, "campaign span left open"
        (span,) = spans.spans_named("campaign")
        assert span.end >= span.start

    def test_coverage_figures_bounded(self):
        faults = sample_faults(SCENARIOS["msgpipe"].targets, 10, seed=7)
        result = run_campaign("msgpipe", faults)
        assert 0.0 <= result.detection_coverage() <= 1.0
        assert 0.0 <= result.safe_ratio() <= 1.0


class TestCoprocCampaign:
    def test_all_five_classes_reachable_on_the_full_stack(self):
        faults = sample_faults(SCENARIOS["coproc"].targets, 33, seed=7)
        result = run_campaign("coproc", faults)
        hist = result.histogram()
        assert all(hist[outcome] > 0 for outcome in OUTCOMES), hist
