"""Tests for the fault injectors, one mechanic at a time.

Each test builds the smallest system exposing one injection surface,
arms one fault, and asserts the precise corruption — plus the
"zero-cost when idle" discipline: an attached-but-unarmed injector
must neither change the simulation nor allocate during the run.
"""

import json

import pytest

from repro.cosim.kernel import HangDetected, Simulator, Watchdog
from repro.cosim.msglevel import Channel
from repro.cosim.signals import Signal
from repro.cosim.translevel import RegisterDevice
from repro.fault import (
    FaultInjector,
    FaultSpec,
    InjectionError,
    System,
    arm_fault,
    run_scenario,
)
from repro.fault import inject as inject_mod
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu
from repro.isa.instructions import Isa


# ----------------------------------------------------------------------
# state flips: signals and device registers
# ----------------------------------------------------------------------
class TestStateFlips:
    def test_signal_flip_changes_value_and_fires_changed(self):
        sim = Simulator()
        sig = Signal(sim, "s", init=5)
        seen = []

        def watcher():
            value = yield sig.changed
            seen.append((sim.now, value))

        sim.process(watcher(), name="watcher")
        arm_fault(System(sim, signals={"s": sig}),
                  FaultSpec(kind="signal_flip", target="s", bit=1,
                            time=10.0))
        sim.run()
        assert sig.value == 7
        assert seen == [(10.0, 7)]

    def test_reg_flip_mutates_exactly_one_bit(self):
        sim = Simulator()
        device = RegisterDevice(sim, "d", 4)
        device.regs[2] = 9
        arm_fault(System(sim, devices={"d": device}),
                  FaultSpec(kind="reg_flip", target="d", index=2,
                            bit=0, time=5.0))
        sim.run()
        assert device.regs == [0, 0, 8, 0]

    def test_unknown_signal_rejected(self):
        sim = Simulator()
        with pytest.raises(InjectionError, match="no signal"):
            arm_fault(System(sim),
                      FaultSpec(kind="signal_flip", target="ghost"))

    def test_unknown_device_rejected(self):
        sim = Simulator()
        with pytest.raises(InjectionError, match="no register device"):
            arm_fault(System(sim),
                      FaultSpec(kind="reg_flip", target="ghost"))


# ----------------------------------------------------------------------
# CPU architectural state
# ----------------------------------------------------------------------
COUNTER_ASM = """
        addi r1, r0, 0
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        halt
"""


def _fresh_cpu():
    cpu = Cpu(Isa())
    cpu.memory.load_image(assemble(COUNTER_ASM).image)
    return cpu


class TestCpuFaults:
    def test_reg_flip_after_nth_instruction(self):
        cpu = _fresh_cpu()
        # after instruction 3 r1 == 2; flip bit 4 -> 18; two more
        # increments land on 20
        arm_fault(System(Simulator(), cpu=cpu),
                  FaultSpec(kind="cpu_reg_flip", target="cpu", index=1,
                            bit=4, count=3))
        cpu.run()
        assert cpu.regs[1] == 20

    def test_pc_flip_redirects_control_flow(self):
        cpu = _fresh_cpu()
        # after instruction 2 pc == 2; bit 0 flips it to 3, skipping
        # one increment
        arm_fault(System(Simulator(), cpu=cpu),
                  FaultSpec(kind="cpu_pc_flip", target="cpu", bit=0,
                            count=2))
        cpu.run()
        assert cpu.halted
        assert cpu.regs[1] == 3

    def test_flag_flip_halts_early(self):
        cpu = _fresh_cpu()
        arm_fault(System(Simulator(), cpu=cpu),
                  FaultSpec(kind="cpu_flag_flip", target="cpu",
                            flag="halted", count=2))
        cpu.run()
        assert cpu.regs[1] == 1

    def test_saboteur_fires_exactly_once(self):
        cpu = _fresh_cpu()
        injector = arm_fault(
            System(Simulator(), cpu=cpu),
            FaultSpec(kind="cpu_reg_flip", target="cpu", index=1,
                      bit=0, count=1))
        cpu.run()
        ((_kind, saboteur),) = injector._hooks
        assert saboteur.fired
        assert injector.armed  # the spec stayed registered
        # one flip of bit 0 at r1==0 -> 1, then four increments -> 5
        assert cpu.regs[1] == 5
        assert cpu.observers == []  # it left as it fired

    def test_profiler_beside_saboteur_sees_every_retirement(self):
        """A saboteur detaching mid-retirement must not hide that
        retirement from an observer attached after it."""
        from repro.isa.profiler import Profiler

        cpu = _fresh_cpu()
        arm_fault(System(Simulator(), cpu=cpu),
                  FaultSpec(kind="cpu_reg_flip", target="cpu", index=1,
                            bit=0, count=2))
        profiler = Profiler(cpu)
        cpu.run()
        assert sum(profiler.pc_counts.values()) == cpu.instr_count == 6
        # r1==1 after instruction 2, flipped to 0, three more -> 3
        assert cpu.regs[1] == 3

    def test_fired_saboteur_hands_back_the_fast_tier(self):
        cpu = _fresh_cpu()
        arm_fault(System(Simulator(), cpu=cpu),
                  FaultSpec(kind="cpu_reg_flip", target="cpu", index=1,
                            bit=0, count=1))
        assert cpu.run_block(1)[0] == 1
        assert cpu.observers == []

        def forbidden(*args):
            raise AssertionError("observed step taken after the fault fired")

        cpu._observed_step = forbidden
        cpu.run()
        assert cpu.halted and cpu.regs[1] == 5

    def test_fired_saboteur_hands_back_within_the_call(self):
        """One run_block call runs the whole faulted program on the
        installed tier: up to the fault, the fault, then the rest — no
        observed step is taken."""
        cpu = _fresh_cpu()
        arm_fault(System(Simulator(), cpu=cpu),
                  FaultSpec(kind="cpu_reg_flip", target="cpu", index=1,
                            bit=0, count=2))
        stepped = []
        step = cpu._observed_step
        cpu._observed_step = lambda: stepped.append(cpu.pc) or step()
        assert cpu.run_block(100) == (6, 6, None)
        assert stepped == []
        assert cpu.halted and cpu.regs[1] == 3

    def test_cpu_fault_needs_a_cpu(self):
        with pytest.raises(InjectionError, match="no CPU"):
            arm_fault(System(Simulator()),
                      FaultSpec(kind="cpu_pc_flip", target="cpu",
                                count=1))

    def test_bad_register_index_rejected(self):
        with pytest.raises(InjectionError, match="no register"):
            arm_fault(System(Simulator(), cpu=_fresh_cpu()),
                      FaultSpec(kind="cpu_reg_flip", target="cpu",
                                index=16, count=1))


# ----------------------------------------------------------------------
# message-boundary faults
# ----------------------------------------------------------------------
def _pipe(fault=None, n_sent=4, run_until=1000.0):
    """Producer sends 1..n on one channel; collector drains it.

    Returns (received values, receive times).
    """
    sim = Simulator()
    chan = Channel(sim, "c", latency_per_message=2.0)
    got, times = [], []

    def producer():
        for i in range(1, n_sent + 1):
            yield from chan.send(i)

    def collector():
        while True:
            item = yield from chan.receive()
            got.append(item)
            times.append(sim.now)

    sim.process(producer(), name="producer")
    sim.process(collector(), name="collector")
    if fault is not None:
        arm_fault(System(sim, channels={"c": chan}), fault)
    sim.run(until=run_until)
    return got, times


class TestMessageFaults:
    def test_clean_pipe_delivers_in_order(self):
        got, _ = _pipe()
        assert got == [1, 2, 3, 4]

    def test_drop_loses_exactly_one_message(self):
        got, _ = _pipe(FaultSpec(kind="msg_drop", target="c", index=1))
        assert got == [1, 3, 4]

    def test_dup_delivers_twice(self):
        got, _ = _pipe(FaultSpec(kind="msg_dup", target="c", index=1))
        assert got == [1, 2, 2, 3, 4]

    def test_delay_preserves_content_but_not_timing(self):
        clean, clean_times = _pipe()
        got, times = _pipe(
            FaultSpec(kind="msg_delay", target="c", index=1,
                      delay=50.0))
        assert got == clean
        assert times[0] == clean_times[0]
        assert times[1] >= clean_times[1] + 50.0

    def test_reorder_swaps_adjacent_messages(self):
        got, _ = _pipe(
            FaultSpec(kind="msg_reorder", target="c", index=1))
        assert got == [1, 3, 2, 4]

    def test_reorder_of_final_message_loses_it(self):
        # nothing follows message 3, so the held message never ships —
        # the classifier sees this as a lost message (hang/sdc), which
        # is exactly what a real late-reorder does to a finite stream
        got, _ = _pipe(
            FaultSpec(kind="msg_reorder", target="c", index=3))
        assert got == [1, 2, 3]

    def test_corrupt_flips_payload_bit(self):
        got, _ = _pipe(
            FaultSpec(kind="msg_corrupt", target="c", index=2, bit=0))
        assert got == [1, 2, 2, 4]

    def test_unknown_channel_rejected(self):
        with pytest.raises(InjectionError, match="no channel"):
            arm_fault(System(Simulator()),
                      FaultSpec(kind="msg_drop", target="ghost"))

    def test_two_faults_stack_on_one_channel(self):
        sim = Simulator()
        chan = Channel(sim, "c")
        got = []

        def producer():
            for i in range(1, 5):
                yield from chan.send(i)

        def collector():
            while True:
                got.append((yield from chan.receive()))

        sim.process(producer())
        sim.process(collector())
        system = System(sim, channels={"c": chan})
        injector = FaultInjector(system)
        injector.arm(FaultSpec(kind="msg_corrupt", target="c", index=0,
                               bit=3))
        injector.arm(FaultSpec(kind="msg_drop", target="c", index=2))
        sim.run(until=100.0)
        assert got == [9, 2, 4]


# ----------------------------------------------------------------------
# timing faults
# ----------------------------------------------------------------------
class TestTimingFaults:
    def test_proc_spin_is_caught_by_the_watchdog(self):
        # a spin at t=3 never lets model time pass 3.0 — without the
        # watchdog this run would literally never return, which is the
        # whole point of the timing-fault kind
        sim = Simulator()
        arm_fault(System(sim),
                  FaultSpec(kind="proc_spin", target="sab", time=3.0))
        with pytest.raises(HangDetected, match="fault.sab"):
            sim.run(watchdog=Watchdog(max_stalled_activations=50))
        assert sim.now == 3.0

    def test_saboteur_is_quiet_before_its_trigger_time(self):
        sim = Simulator()
        arm_fault(System(sim),
                  FaultSpec(kind="proc_spin", target="sab", time=50.0))
        marks = []

        def worker():
            yield sim.timeout(10.0)
            marks.append(sim.now)

        sim.process(worker(), name="worker")
        with pytest.raises(HangDetected):
            sim.run(watchdog=Watchdog(max_stalled_activations=100))
        assert marks == [10.0]
        assert sim.now == 50.0


# ----------------------------------------------------------------------
# the idle injector is free
# ----------------------------------------------------------------------
class TestZeroCostWhenIdle:
    def test_unarmed_injector_run_is_byte_identical(self):
        baseline = run_scenario("msgpipe")  # builds its own injector...
        sim = Simulator()
        from repro.fault.scenarios import SCENARIOS
        system, summarize = SCENARIOS["msgpipe"].build(sim)
        # ...but prove a *separately* attached one changes nothing
        FaultInjector(system)
        sim.run(until=SCENARIOS["msgpipe"].horizon)
        record = summarize()
        record.update(scenario="msgpipe", error=None, sim_time=sim.now,
                      activations=sim.activations)
        assert json.dumps(record, sort_keys=True) == \
            json.dumps(baseline, sort_keys=True)

    def test_unarmed_injector_allocates_nothing_during_run(self):
        """tracemalloc must see zero allocations attributable to
        inject.py while a fault-free simulation runs — attachment is
        construction-time only."""
        import tracemalloc

        from repro.fault.scenarios import SCENARIOS

        run_scenario("msgpipe")  # warm caches
        sim = Simulator()
        system, _ = SCENARIOS["msgpipe"].build(sim)
        FaultInjector(system)
        tracemalloc.start(10)
        try:
            sim.run(until=SCENARIOS["msgpipe"].horizon)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, inject_mod.__file__)]
        ).statistics("filename")
        allocated = sum(s.size for s in stats)
        assert allocated == 0, (
            f"inject.py allocated {allocated} bytes with no fault armed"
        )

    def test_clean_run_never_constructs_a_saboteur(self, monkeypatch):
        """Poisoned constructors: a golden run must not touch any
        injection machinery at all."""
        def poisoned(*args, **kwargs):
            raise AssertionError(
                "saboteur constructed during a fault-free run"
            )

        monkeypatch.setattr(inject_mod._CpuSaboteur, "__init__",
                            poisoned)
        monkeypatch.setattr(inject_mod._MessageSaboteur, "__init__",
                            poisoned)
        monkeypatch.setattr(inject_mod, "_flip_later", poisoned)
        monkeypatch.setattr(inject_mod, "_spin_later", poisoned)
        record = run_scenario("coproc")
        assert record["completed"] and not record["detected"]
