"""Cross-engine byte-identity acceptance tests for the translated tier.

The whole-subsystem form of the DESIGN §13 contract: not just single
CPUs, but the E18 and E24 fault-campaign dependability tables and an
E21 ``explore()`` front must serialize to *byte-identical* JSON with the
block translator at its default and switched off, and with a warm vs
cold block cache.  The switch is
:func:`repro.isa.translate.auto_translation`, the one the benchmarks
use too.  By default a CPU builds its translator on its first
``run_block`` call long enough to hold a block: the CPU-resident
``swmac`` runs translate, while ``coproc``'s backplane-stepped CPU
never does (``TestBudgetRule``).
"""

import dataclasses

import pytest

from repro.cosim.backplane import Backplane, RegisterAdapter
from repro.cosim.kernel import Simulator
from repro.cosim.translevel import RegisterDevice
from repro.explore import ExploreSpec, explore
from repro.fault import SCENARIOS, run_campaign, sample_faults
from repro.fault.scenarios import run_scenario
from repro.isa import translate
from repro.isa.assembler import assemble
from repro.isa.cpu import MAX_BLOCK_LEN, Cpu, Memory
from repro.isa.instructions import Isa
from repro.isa.translate import BlockTranslator, auto_translation

pytestmark = pytest.mark.slow  # whole-subsystem runs: smoke lane skips

CAMPAIGN_FAULTS = 48  # smaller than E18's 200 for test budget; the
CAMPAIGN_SEED = 7     # full-size E18 gate lives in BENCH_translate

#: A smoke-sized E21 spec (the full SPEC_3D shape, scaled down).
SMOKE_SPEC = ExploreSpec(population=4, generations=2,
                         scenario="coproc", scenario_faults=6)


def campaign_json(enabled, name="coproc"):
    faults = sample_faults(
        SCENARIOS[name].targets, CAMPAIGN_FAULTS, seed=CAMPAIGN_SEED
    )
    with auto_translation(enabled):
        return run_campaign(name, faults, workers=1).to_json()


class TestCampaignIdentity:
    def test_e18_table_byte_identical_translation_on_off(self):
        assert campaign_json(True) == campaign_json(False)

    def test_e24_table_byte_identical_translation_on_off(self):
        assert campaign_json(True, "swmac") == campaign_json(False, "swmac")

    def test_e18_table_byte_identical_warm_vs_cold(self):
        """Back-to-back campaigns under one enablement: the second run
        re-enters already-translated scenarios and must not drift."""
        faults = sample_faults(
            SCENARIOS["coproc"].targets, CAMPAIGN_FAULTS,
            seed=CAMPAIGN_SEED,
        )
        with auto_translation(True):
            cold = run_campaign("coproc", faults, workers=1).to_json()
            warm = run_campaign("coproc", faults, workers=1).to_json()
        assert cold == warm

    def test_eager_translation_identical_to_default_threshold(
            self, monkeypatch):
        """A warm process-wide block cache hands every CPU its blocks
        translated from their first entry (no cold-path delegation
        warm-up); a cold one delegates cold blocks first — same bytes."""
        faults = sample_faults(
            SCENARIOS["swmac"].targets, 16, seed=CAMPAIGN_SEED
        )
        monkeypatch.setattr(translate, "_SHARED", {})
        with auto_translation(True):
            cold = run_campaign("swmac", faults, workers=1).to_json()
            assert translate._SHARED
            eager = run_campaign("swmac", faults, workers=1).to_json()
        assert eager == cold


class TestScenarioIdentity:
    @pytest.mark.parametrize("name", ["coproc", "msgpipe", "swmac"])
    def test_golden_record_identical(self, name):
        with auto_translation(False):
            off = run_scenario(name)
        with auto_translation(True):
            on = run_scenario(name)
        assert off == on

    def test_faulted_record_identical(self):
        for name in ("coproc", "swmac"):
            faults = sample_faults(SCENARIOS[name].targets, 6, seed=3)
            for fault in faults:
                with auto_translation(False):
                    off = run_scenario(name, fault)
                with auto_translation(True):
                    on = run_scenario(name, fault)
                assert off == on, (name, fault)


class TestExploreIdentity:
    def test_e21_front_byte_identical_translation_on_off(self):
        with auto_translation(False):
            off = explore(SMOKE_SPEC, workers=1).to_json()
        with auto_translation(True):
            on = explore(SMOKE_SPEC, workers=1).to_json()
        assert on == off

    def test_e21_front_byte_identical_warm_vs_cold(self):
        with auto_translation(True):
            cold = explore(SMOKE_SPEC, workers=1).to_json()
            warm = explore(SMOKE_SPEC, workers=1).to_json()
        assert cold == warm

    def test_reseeded_spec_still_identical_on_off(self):
        spec = dataclasses.replace(SMOKE_SPEC, ga_seed=1)
        with auto_translation(False):
            off = explore(spec, workers=1).to_json()
        with auto_translation(True):
            on = explore(spec, workers=1).to_json()
        assert on == off


LOOP_ASM = """
        li   r1, 20
loop:   addi r2, r2, 3
        sw   r2, 0x200(r0)
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
"""


def loop_cpu():
    memory = Memory()
    memory.load_image(assemble(LOOP_ASM).image)
    return Cpu(Isa(), memory)


def backplane_cpu(batch_instructions):
    """A CPU the backplane steps ``batch_instructions`` at a time, its
    stores going to a register device; returns the CPU after the run."""
    sim = Simulator()
    cpu = loop_cpu()
    backplane = Backplane(sim, cpu, batch_instructions=batch_instructions)
    backplane.mount(0x200, 4, RegisterAdapter(RegisterDevice(sim, "d", 4)))
    backplane.start()
    sim.run()
    assert cpu.halted
    return cpu


class TestBudgetRule:
    def test_cpu_run_builds_a_translator(self):
        cpu = loop_cpu()
        cpu.run_block(MAX_BLOCK_LEN - 1)
        assert cpu.translator is None
        cpu.run()
        assert isinstance(cpu.translator, BlockTranslator)
        assert cpu.translator.translations > 0

    @pytest.mark.parametrize("batch_instructions", [1, 4, MAX_BLOCK_LEN - 1])
    def test_backplane_stepped_cpu_never_builds_a_translator(
            self, batch_instructions):
        assert backplane_cpu(batch_instructions).translator is None

    def test_auto_translation_off_stops_both(self):
        with auto_translation(False):
            cpu = loop_cpu()
            cpu.run()
            assert cpu.translator is None
            assert backplane_cpu(MAX_BLOCK_LEN).translator is None
        # the switch is scoped: the default is back afterwards
        assert backplane_cpu(MAX_BLOCK_LEN).translator is not None
