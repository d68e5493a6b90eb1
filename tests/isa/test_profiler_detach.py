"""Profiler attach/detach lifecycle.

An attached profiler is a CPU observer, which runs ``run_block`` one
observed step at a time on the interpreted tier; these tests pin the
contract that ``detach()`` (or the context-manager form) re-engages
the installed tier while leaving the collected profile readable."""

import pytest

from repro.fault.inject import FaultInjector, System
from repro.fault.spec import FaultSpec
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa
from repro.isa.profiler import Profiler
from repro.isa.translate import install

LOOP_PROGRAM = """
        addi r1, r0, 0
        addi r2, r0, 20
    loop:
        mul  r3, r1, r1
        addi r1, r1, 1
        bne  r1, r2, loop
        halt
"""


def make_cpu():
    isa = Isa()
    prog = assemble(LOOP_PROGRAM, isa)
    mem = Memory()
    mem.load_image(prog.image)
    return Cpu(isa, mem, pc=prog.entry)


def forbid_slow_path(cpu):
    def boom(*args):
        raise AssertionError("observed step taken with no observers")

    cpu._observed_step = boom


def forbid_all_but_translated(cpu):
    """Only the translated tier may execute from here on — even the
    interpreted loop trips this, so run with full budgets."""

    def boom(*args):
        raise AssertionError("untranslated tier used")

    cpu._observed_step = boom
    cpu._run_block_fast = boom


class TestGuards:
    """Each guard below fails the test that takes the path it forbids."""

    def test_forbid_slow_path_fires_on_an_observed_step(self):
        cpu = make_cpu()
        forbid_slow_path(cpu)
        Profiler(cpu)
        with pytest.raises(AssertionError, match="observed step"):
            cpu.run_block(8)

    @pytest.mark.parametrize("observed", [False, True])
    def test_forbid_all_but_translated_fires_off_the_translator(
            self, observed):
        cpu = make_cpu()
        install(cpu, hot_threshold=1)
        forbid_all_but_translated(cpu)
        if observed:
            Profiler(cpu)
        with pytest.raises(AssertionError, match="untranslated"):
            cpu.run_block(1)  # below any block: the interpreted tier


class TestDetach:
    def test_attach_and_detach_toggle_the_observer(self):
        cpu = make_cpu()
        profiler = Profiler(cpu)
        assert profiler.attached
        assert cpu.observers
        profiler.detach()
        assert not profiler.attached
        assert not cpu.observers

    def test_detach_is_idempotent(self):
        cpu = make_cpu()
        profiler = Profiler(cpu)
        profiler.detach()
        profiler.detach()
        assert not cpu.observers

    def test_detach_removes_only_its_own_observer(self):
        cpu = make_cpu()
        other = lambda pc, instr: None  # noqa: E731
        cpu.observers.append(other)
        Profiler(cpu).detach()
        assert cpu.observers == [other]

    def test_run_block_fast_path_reengages_after_detach(self):
        """The acceptance test: while attached, run_block takes one
        observed step per retirement; after detach it never does."""
        cpu = make_cpu()
        profiler = Profiler(cpu)

        observed = []
        orig = cpu._observed_step

        def counting():
            observed.append(cpu.pc)
            return orig()

        cpu._observed_step = counting
        cpu.run_block(8)
        assert len(observed) == 8, "observers armed but fast path taken"
        assert profiler.total_instructions == 8

        profiler.detach()
        forbid_slow_path(cpu)
        cpu.run()  # must finish entirely on the fast path
        assert cpu.halted

    def test_profile_stays_readable_and_frozen_after_detach(self):
        cpu = make_cpu()
        profiler = Profiler(cpu)
        cpu.run_block(10)
        profiler.detach()
        seen = profiler.total_instructions
        assert seen == 10
        cpu.run()
        # detached: later execution is not observed
        assert profiler.total_instructions == seen
        assert cpu.instr_count > seen
        assert profiler.report()  # still renders


class TestTranslatedTierReengage:
    """Regression (ISSUE 9): detaching a profiler or disarming a fault
    injector must re-enable the *translated* tier, not just the
    interpreted ``run_block`` loop — no sticky disabled state."""

    def test_profiler_detach_reengages_translated_tier(self):
        cpu = make_cpu()
        translator = install(cpu, hot_threshold=1)
        profiler = Profiler(cpu)
        cpu.run_block(8)  # observed: one interpreted step at a time
        assert translator.translations == 0
        assert profiler.total_instructions == 8

        profiler.detach()
        forbid_all_but_translated(cpu)
        cpu.run_block(1 << 30)  # full budget: no remainder delegation
        assert cpu.halted
        assert translator.translations > 0

    def test_injector_disarm_reengages_translated_tier(self):
        """An armed fault is a retirement trigger, not an observer: it
        already runs the translated tier before it fires, and after
        ``disarm()`` nothing but the translated tier runs."""
        cpu = make_cpu()
        translator = install(cpu, hot_threshold=1)
        injector = FaultInjector(System(sim=None, cpu=cpu))
        # count 9: still armed (unfired) through the 8 steps below
        injector.arm(FaultSpec(kind="cpu_reg_flip", target="cpu",
                               index=3, bit=0, count=9))
        forbid_slow_path(cpu)
        cpu.run_block(8)
        assert translator.translations > 0
        ((_kind, trigger),) = injector._hooks
        assert not trigger.fired and cpu._triggers

        injector.disarm()
        assert not cpu.observers and not cpu._triggers
        forbid_all_but_translated(cpu)
        cpu.run_block(1 << 30)
        assert cpu.halted
        assert not trigger.fired

    def test_disarm_is_idempotent_and_scoped(self):
        cpu = make_cpu()
        other = lambda pc, instr: None  # noqa: E731
        cpu.observers.append(other)
        injector = FaultInjector(System(sim=None, cpu=cpu))
        injector.arm(FaultSpec(kind="cpu_reg_flip", target="cpu",
                               index=3, bit=0, count=1))
        assert cpu.observers == [other]
        assert len(cpu._triggers) == 1
        injector.disarm()
        injector.disarm()
        assert cpu.observers == [other]
        assert cpu._triggers == []
        assert injector.armed == []

    def test_translated_run_matches_interpreted_after_detach(self):
        plain = make_cpu()
        with Profiler(plain):
            plain.run_block(8)
        plain.run()

        translated = make_cpu()
        install(translated, hot_threshold=1)
        with Profiler(translated):
            translated.run_block(8)
        translated.run()

        assert translated.halted and plain.halted
        assert translated.regs == plain.regs
        assert translated.instr_count == plain.instr_count
        assert translated.cycle_count == plain.cycle_count


class TestContextManager:
    def test_with_block_detaches_on_exit(self):
        cpu = make_cpu()
        with Profiler(cpu) as profiler:
            assert profiler.attached
            cpu.run_block(8)
        assert not profiler.attached
        assert not cpu.observers
        assert profiler.total_instructions == 8
        forbid_slow_path(cpu)
        cpu.run()
        assert cpu.halted

    def test_with_block_detaches_on_exception(self):
        cpu = make_cpu()
        with pytest.raises(RuntimeError):
            with Profiler(cpu) as profiler:
                raise RuntimeError("boom")
        assert not profiler.attached
        assert not cpu.observers

    def test_full_run_profile_matches_plain_profiler(self):
        plain_cpu = make_cpu()
        plain = Profiler(plain_cpu)
        plain_cpu.run()
        managed_cpu = make_cpu()
        with Profiler(managed_cpu) as managed:
            managed_cpu.run()
        assert managed.opcode_histogram() == plain.opcode_histogram()
        assert managed.total_cycles == plain.total_cycles
