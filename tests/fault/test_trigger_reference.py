"""CPU fault triggers against an independent reference.

A ``cpu_*`` fault is a one-shot retirement *trigger* the CPU owns
(``Cpu.add_trigger``, armed by ``arm_cpu_fault``): the fast tiers run
up to the due retirement, fire it, and run on.  The reference,
``ObserverSaboteur`` (``tests/fault/observer_reference.py``), is a
verbatim copy of the class ``_CpuSaboteur`` in ``repro/fault/inject.py``
as it stood when a CPU fault was a retirement *observer*: it sat on
``cpu.observers``, counted the retirements it saw, fired at retirement
``max(1, count)`` and detached itself.  It shares no code with the
trigger mechanism.

The reference CPU is ``ReferenceCpu`` (``tests/isa/r32_harness.py``),
a frozen interpreter that shares no execution code with
``repro.isa.cpu``, run one ``step()`` at a time with that observer
attached.  The CPU under test arms the same faults through
``arm_cpu_fault`` and is driven by ``run_block`` in random chunks of
1–9 steps, interpreted or translated.  Every comparison is exact: the
full architectural snapshot, every per-call ``(steps, cycles,
access)`` tuple, the error message, which fault fired at which
retirement and in what order, and a profiler's ``(pc, opcode)``
stream.
"""

import contextlib
import hashlib
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cosim.backplane import Backplane, RegisterAdapter
from repro.cosim.kernel import Simulator
from repro.cosim.translevel import RegisterDevice
from repro.fault import SCENARIOS, FaultSpec, run_campaign, sample_faults
from repro.fault import inject as inject_mod
from repro.fault import scenarios
from repro.fault.inject import FaultInjector, System, arm_cpu_fault
from repro.fault.spec import CPU_FLAGS
from repro.isa import BatchCpu
from repro.isa import batch as batch_mod
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.instructions import Instruction, Isa, Opcode
from repro.isa.profiler import Profiler
from repro.isa.translate import install

from tests.fault.observer_reference import ObserverSaboteur
from tests.fault.test_pins import DOCUMENT_SHA256
from tests.isa.r32_harness import (
    BUDGET,
    COMMON,
    ENC,
    ReferenceCpu,
    chunks_st,
    instr_st,
    make_cpu,
    make_ref,
    program_words,
    snapshot,
)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
class _LoggedObserver(ObserverSaboteur):
    """The reference, logging ``(spec, instr_count)`` as it fires."""

    __slots__ = ("log",)

    def __call__(self, pc: int, instr: Any) -> None:
        fired = self.fired
        super().__call__(pc, instr)
        if self.fired and not fired:
            self.log.append((self.spec, self.cpu.instr_count))


@contextlib.contextmanager
def logged_triggers(log):
    """Within the block, ``arm_cpu_fault`` arms triggers that also log
    ``(spec, instr_count)`` as they fire."""
    plain = inject_mod._CpuSaboteur

    class Logged(plain):
        __slots__ = ()

        def __call__(self) -> None:
            super().__call__()
            log.append((self.spec, self.cpu.instr_count))

    inject_mod._CpuSaboteur = Logged
    try:
        yield
    finally:
        inject_mod._CpuSaboteur = plain


class StreamProfiler(Profiler):
    """A profiler that also keeps the raw ``(pc, opcode)`` stream."""

    def __init__(self, cpu: Cpu) -> None:
        self.stream = []
        super().__init__(cpu)

    def _observe(self, pc, instr) -> None:
        self.stream.append((pc, instr.opcode))
        super()._observe(pc, instr)


def drive(block, cpu, chunks, budget=BUDGET):
    """Call ``block`` in the chunk sizes given (cycled) until halt,
    budget or error; returns ``(per-call tuples, error message)``."""
    calls = []
    done = 0
    i = 0
    try:
        while done < budget and not cpu.halted:
            call = block(min(chunks[i % len(chunks)], budget - done))
            i += 1
            calls.append(call)
            assert call[2] is None
            done += call[0]
        return calls, None
    except CpuError as exc:
        return calls, str(exc)


def forbid_step_loop(cpu):
    def boom(*args):
        raise AssertionError("step taken with no observer")

    cpu.step = boom
    cpu._observed_step = boom


def run_reference(image, faults, chunks, profiler=None):
    cpu = make_ref(image)
    log = []
    prof = StreamProfiler(cpu) if profiler == "before" else None
    for spec in faults:
        saboteur = _LoggedObserver(cpu, spec)
        saboteur.log = log
        cpu.observers.append(saboteur)
    if profiler == "after":
        prof = StreamProfiler(cpu)
    calls, error = drive(cpu.run_block, cpu, chunks)
    return cpu, calls, error, log, prof


def run_trigger(image, faults, chunks, translated=False, profiler=None):
    cpu = make_cpu(image)
    if translated:
        install(cpu, hot_threshold=1)
    log = []
    prof = StreamProfiler(cpu) if profiler == "before" else None
    with logged_triggers(log):
        for spec in faults:
            arm_cpu_fault(cpu, spec)
    if profiler == "after":
        prof = StreamProfiler(cpu)
    if prof is None:
        forbid_step_loop(cpu)
    calls, error = drive(cpu.run_block, cpu, chunks)
    return cpu, calls, error, log, prof


def assert_trigger_matches(image, faults, chunks, translated=False,
                           profiler=None):
    ref, ref_calls, ref_error, ref_log, ref_prof = run_reference(
        image, faults, chunks, profiler)
    cpu, calls, error, log, prof = run_trigger(
        image, faults, chunks, translated, profiler)
    assert error == ref_error
    assert calls == ref_calls
    assert snapshot(cpu) == snapshot(ref)
    assert log == ref_log
    if profiler is not None:
        assert prof.stream == ref_prof.stream
    # every fault either fired or is still pending
    assert len(cpu._triggers) == len(faults) - len(log)
    return cpu, log


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: 0 and 1 both fire at the first retirement; the last range is past
#: the end of every run the harness allows
count_st = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(2, 40),
    st.integers(BUDGET, BUDGET + 50),
)
reg_flip = st.builds(
    lambda index, bit, count: FaultSpec(
        kind="cpu_reg_flip", target="cpu",
        index=index, bit=bit, count=count),
    st.integers(0, 15), st.integers(0, 31), count_st)
pc_flip = st.builds(
    lambda bit, count: FaultSpec(
        kind="cpu_pc_flip", target="cpu", bit=bit, count=count),
    st.integers(0, 11), count_st)
flag_flip = st.builds(
    lambda flag, count: FaultSpec(
        kind="cpu_flag_flip", target="cpu", flag=flag, count=count),
    st.sampled_from(CPU_FLAGS), count_st)
fault_st = st.one_of(reg_flip, pc_flip, flag_flip)

#: an interrupt handler at the default ``ivec``: count entries, return
HANDLER = {
    0x40: ENC.encode(Instruction(int(Opcode.ADDI), rd=13, rs1=13, imm=1)),
    0x41: ENC.encode(Instruction(int(Opcode.RETI))),
}


# ----------------------------------------------------------------------
# the property: random programs × random faults × every driver shape
# ----------------------------------------------------------------------
RANDOM_RUNS = dict(
    instrs=st.lists(instr_st, min_size=1, max_size=20),
    faults=st.lists(fault_st, min_size=1, max_size=2),
    chunks=chunks_st,
    handler=st.booleans(),
    translated=st.booleans(),
    profiler=st.sampled_from([None, "before", "after"]),
)


def check_random_run(instrs, faults, chunks, handler, translated,
                     profiler):
    image = program_words(instrs)
    if handler:
        image.update(HANDLER)
    assert_trigger_matches(image, faults, chunks, translated, profiler)


class TestTriggerMatchesObserver:
    @settings(max_examples=400, **COMMON)
    @given(**RANDOM_RUNS)
    def test_random_programs(self, **run):
        check_random_run(**run)

    @pytest.mark.slow
    @settings(max_examples=2000, **COMMON)
    @given(**RANDOM_RUNS)
    def test_random_programs_exhaustive(self, **run):
        check_random_run(**run)


# ----------------------------------------------------------------------
# fixed cases
# ----------------------------------------------------------------------
COUNTER_ASM = """
        addi r1, r0, 0
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        addi r1, r1, 1
        halt
"""


def counter_image():
    return dict(assemble(COUNTER_ASM).image)


def cpu_fault(kind, count, **fields):
    return FaultSpec(kind=kind, target="cpu", count=count, **fields)


@pytest.mark.parametrize("translated", [False, True])
@pytest.mark.parametrize("chunk", [1, 2, 5, 6, 9])
class TestFixedCases:
    def test_halted_flip_on_halt_retirement_resumes(self, translated,
                                                     chunk):
        # halt retires as instruction 6; the flip un-halts the CPU, which
        # re-executes the halt it is still parked on
        spec = cpu_fault("cpu_flag_flip", 6, flag="halted")
        cpu, log = assert_trigger_matches(
            counter_image(), [spec], (chunk,), translated)
        assert cpu.halted and cpu.instr_count == 7
        assert log == [(spec, 6)]

    @pytest.mark.parametrize("faults", [
        # equal counts: each pair fires at one retirement, in arm order
        [cpu_fault("cpu_reg_flip", 3, index=1, bit=4),
         cpu_fault("cpu_pc_flip", 3, bit=0)],
        [cpu_fault("cpu_flag_flip", 2, flag="irq_enabled"),
         cpu_fault("cpu_flag_flip", 2, flag="irq_pending")],
        [cpu_fault("cpu_flag_flip", 2, flag="irq_pending"),
         cpu_fault("cpu_reg_flip", 2, index=13, bit=2)],
        [cpu_fault("cpu_reg_flip", 1, index=1, bit=0),
         cpu_fault("cpu_reg_flip", 0, index=1, bit=0)],
        # different counts, armed out of due order
        [cpu_fault("cpu_reg_flip", 4, index=1, bit=3),
         cpu_fault("cpu_reg_flip", 2, index=1, bit=5)],
        [cpu_fault("cpu_flag_flip", 4, flag="irq_pending"),
         cpu_fault("cpu_pc_flip", 1, bit=1)],
    ])
    def test_two_faults_on_one_cpu(self, translated, chunk, faults):
        image = counter_image()
        image.update(HANDLER)
        _cpu, log = assert_trigger_matches(
            image, faults, (chunk,), translated)
        assert len(log) == len(faults)

    def test_disarm_before_the_fault_is_due(self, translated, chunk):
        spec = cpu_fault("cpu_reg_flip", 5, index=1, bit=4)
        image = counter_image()

        ref = make_ref(image)
        saboteur = ObserverSaboteur(ref, spec)
        ref.observers.append(saboteur)
        first = [ref.run_block(3)]
        ref.observers.remove(saboteur)
        ref_calls, _ = drive(ref.run_block, ref, (chunk,))

        cpu = make_cpu(image)
        if translated:
            install(cpu, hot_threshold=1)
        injector = FaultInjector(System(sim=None, cpu=cpu))
        injector.arm(spec)
        ((_kind, trigger),) = injector._hooks
        assert cpu.run_block(3) == first[0]
        injector.disarm()
        assert cpu._triggers == [] and cpu.observers == []
        forbid_step_loop(cpu)
        calls, _ = drive(cpu.run_block, cpu, (chunk,))

        assert calls == ref_calls
        assert snapshot(cpu) == snapshot(ref)
        assert not trigger.fired and not saboteur.fired
        assert cpu.regs[1] == 4


# ----------------------------------------------------------------------
# a backplane run: the due retirement is a deferred LW/SW
# ----------------------------------------------------------------------
EXT_ASM = """
        addi r1, r0, 5
        sw   r1, 0x200(r0)     ; external, deferred
        lw   r2, 0x200(r0)     ; external, deferred
        add  r3, r2, r1
        sw   r3, 0x201(r0)     ; external, deferred
        halt
        .org 0x40
        addi r13, r13, 1
        reti
"""


def backplane_run(arm, batch, cls=Cpu):
    """Run EXT_ASM under a backplane on a ``cls`` CPU; ``arm(cpu)`` sets
    the fault up."""
    sim = Simulator()
    isa = Isa()
    memory = Memory()
    memory.load_image(assemble(EXT_ASM, isa).image)
    cpu = cls(isa, memory)
    device = RegisterDevice(sim, "dev", 4)
    backplane = Backplane(sim, cpu, batch_instructions=batch)
    backplane.mount(0x200, 4, RegisterAdapter(device))
    calls = []
    block = cpu.run_block

    def recording(max_steps):
        result = block(max_steps)
        calls.append(result)
        return result

    cpu.run_block = recording
    prof = arm(cpu)
    backplane.start()
    error = None
    try:
        sim.run()
    except CpuError as exc:
        error = str(exc)
    state = (snapshot(cpu), calls, list(device.regs), sim.now, error)
    return state, prof


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("profiled", [False, True])
@pytest.mark.parametrize("spec", [
    cpu_fault("cpu_reg_flip", 2, index=1, bit=3),     # at the first SW
    cpu_fault("cpu_reg_flip", 3, index=2, bit=1),     # at the LW
    cpu_fault("cpu_pc_flip", 2, bit=0),               # skips the LW
    cpu_fault("cpu_flag_flip", 3, flag="irq_pending"),
    cpu_fault("cpu_reg_flip", 5, index=3, bit=0),     # at the last SW
])
def test_backplane_deferred_access_is_the_due_retirement(spec, profiled,
                                                         batch):
    def reference(cpu):
        prof = StreamProfiler(cpu)
        cpu.observers.append(ObserverSaboteur(cpu, spec))
        return prof

    def trigger(cpu):
        arm_cpu_fault(cpu, spec)
        if profiled:
            return StreamProfiler(cpu)
        forbid_step_loop(cpu)
        return None

    want, ref_prof = backplane_run(reference, batch, ReferenceCpu)
    got, prof = backplane_run(trigger, batch)
    assert got == want
    assert want[0]["instr_count"] >= spec.count
    if profiled:
        assert prof.stream == ref_prof.stream


# ----------------------------------------------------------------------
# a forked cell's continuation: the helper arms after instr_count was set
# ----------------------------------------------------------------------
LANE_ASM = """
        addi r1, r0, 0
        addi r2, r0, 0
        beq  r1, r0, skip      ; runs flipped at retirement 1 fall through
        addi r2, r2, 7
skip:   addi r3, r0, 3
loop:   addi r2, r2, 1
        addi r3, r3, -1
        bne  r3, r0, loop
        halt
"""


@pytest.mark.parametrize("chunk", [1, 3, 9])
def test_finish_lane_arms_after_instr_count_was_set(chunk):
    image = dict(assemble(LANE_ASM).image)
    flip_r1 = cpu_fault("cpu_reg_flip", 1, index=1, bit=0)
    late = [
        cpu_fault("cpu_reg_flip", 8, index=2, bit=5),
        cpu_fault("cpu_pc_flip", 6, bit=1),
        cpu_fault("cpu_flag_flip", 9, flag="halted"),
    ]
    # a checkpoint after every retirement: the late cells fork from
    # golden past the beq, their faults due at the next retirement
    golden = BatchCpu(Isa(), image)
    with mock.patch.object(batch_mod, "CHECKPOINT_SPACING", 1):
        golden.run(100)
    assert golden.fork_at(max(1, flip_r1.count) - 1).instr_count == 0
    for spec in late:
        cpu = golden.fork_at(max(1, spec.count) - 1)
        steps = cpu.instr_count
        assert steps == max(1, spec.count) - 1 > 0
        arm_cpu_fault(cpu, spec, retired=steps)
        calls, error = drive(cpu.run_block, cpu, (chunk,), BUDGET - steps)
        ref, _calls, ref_error, _log, _prof = run_reference(
            image, [spec], (chunk,))
        assert error == ref_error
        assert snapshot(cpu) == snapshot(ref)
        assert not cpu._triggers


# ----------------------------------------------------------------------
# whole campaigns: a faulted run never takes an observed step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["swmac", "coproc"])
def test_faulted_campaign_never_steps(monkeypatch, name):
    calls = []

    def poisoned(label):
        def boom(self, *args):
            calls.append(label)
            raise AssertionError(f"Cpu.{label} called")
        return boom

    scenario = SCENARIOS[name]
    if scenario.software is not None:
        # golden's one liveness replay is observed by design; the cells
        # must not be
        scenarios._golden(scenario.software)
    monkeypatch.setattr(Cpu, "step", poisoned("step"))
    monkeypatch.setattr(Cpu, "_observed_step", poisoned("_observed_step"))
    faults = sample_faults(scenario.targets, 200, seed=7)
    doc = run_campaign(name, faults).to_json()
    assert calls == []
    assert hashlib.sha256(doc.encode()).hexdigest() == DOCUMENT_SHA256[name]
