"""Campaign workloads: small, fully deterministic mixed HW/SW systems.

Each :class:`Scenario` builds one closed system (kernel + devices +
channels, optionally a co-simulated R32 CPU), declares its injectable
target space for :func:`repro.fault.spec.sample_faults`, and knows how
to summarize a finished run into a JSON-stable *outcome record*.  The
campaign layer diffs faulty records against the golden one, so a record
contains only what identity should be judged on: the observable output
stream, the completion flag, and the system's own error-detection
verdict — **not** the finish time (a delayed-but-correct run is
*masked*, per the usual SBFI outcome taxonomy).

Three scenarios:

* ``coproc`` — the full stack: an R32 program streams words from an rx
  FIFO through a MAC coprocessor (register rung) while keeping a
  software shadow of the accumulation, then reports hardware result,
  software result, an agreement verdict, and an end marker over a
  message-rung channel.  The built-in redundancy is the *detection*
  mechanism faults are measured against.
* ``msgpipe`` — message rung only (no CPU, fast): a producer streams
  parity-protected words to a transform stage that checks parity,
  doubles the payload, and forwards it re-protected to a trusting
  consumer.  Upstream corruption is detectable; downstream corruption
  is silent.
* ``swmac`` — software only (no kernel, no devices): a pure-R32
  duplicated multiply-accumulate over an LCG input stream, with the
  redundant copy as the detection mechanism.  Because the whole run is
  CPU-resident, every one of its cells starts as a copy of one
  checkpointed golden run (:class:`repro.isa.BatchCpu`, DESIGN §14;
  EXPERIMENTS E24).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro import _domain
from repro.cosim.backplane import (
    Backplane,
    MessageAdapter,
    RegisterAdapter,
)
from repro.cosim.kernel import HangDetected, Simulator, Watchdog
from repro.cosim.msglevel import Channel
from repro.cosim.signals import Clock, Signal
from repro.cosim.translevel import FifoDevice, RegisterDevice
from repro.fault.inject import (
    MASK32,
    FaultInjector,
    InjectionError,
    System,
    arm_cpu_fault,
)
from repro.fault.spec import CPU_KINDS, FaultSpec
from repro.isa.instructions import N_REGS

#: Default stall budget: generous against every legitimate burst of
#: same-time activity in these scenarios, tiny against a real spin.
DEFAULT_WATCHDOG = Watchdog(max_stalled_activations=4000)

#: Sentinel distinguishing "use the default watchdog" from "none".
_USE_DEFAULT = object()

#: Assembled program images, keyed by assembly source.
_IMAGES: Dict[str, Dict[int, int]] = {}


def _image(source: str) -> Dict[int, int]:
    """The assembled image of ``source``, assembled once per process.

    Sharing one dict is safe because every consumer copies it:
    ``Memory.load_image`` into RAM, directly or inside ``BatchCpu``.
    """
    image = _IMAGES.get(source)
    if image is None:
        from repro.isa.assembler import assemble

        image = _IMAGES[source] = assemble(source).image
    return image


#: The stock ISA every scenario CPU runs on (see :func:`_stock_isa`).
_ISA: Optional[Any] = None


def _stock_isa() -> Any:
    """The stock ISA, built once per process and shared by every
    scenario CPU, so each cell finds its decode and operand caches warm.

    An ISA whose ``version`` moved (a custom op was added or its cycles
    edited, through any CPU that ran on it) is never handed out again:
    the next call builds a fresh one.
    """
    global _ISA
    if _ISA is None or _ISA.version:
        from repro.isa.instructions import Isa

        _ISA = Isa()
    return _ISA


#: Checkpointed golden runs, keyed by workload, each with the stock ISA
#: it ran on (see :func:`_golden`).
_GOLDEN: Dict[SoftwareWorkload, Tuple[Any, Any]] = {}


def _golden(sw: SoftwareWorkload) -> Any:
    """The checkpointed golden run of ``sw``, a
    :class:`~repro.isa.BatchCpu` run once per process and stock ISA.

    An entry is valid while :func:`_stock_isa` returns the ISA it ran
    on, so a custom op or a cycle-table edit runs golden again.
    """
    isa = _stock_isa()
    entry = _GOLDEN.get(sw)
    if entry is None or entry[0] is not isa:
        from repro.isa.batch import BatchCpu

        golden = BatchCpu(isa, _sw_image(sw))
        golden.run(sw.budget)
        entry = _GOLDEN[sw] = (isa, golden)
    return entry[1]


@dataclass(frozen=True)
class SoftwareWorkload:
    """A pure-software (CPU-only) workload: one R32 program whose whole
    observable outcome lives in memory when it halts.

    Such scenarios need no simulation kernel — the instruction
    ``budget`` plays the watchdog's role — and, because every run is
    CPU-resident, each of its cells forks from one golden run
    (:class:`repro.isa.BatchCpu`, see :func:`run_sw_scenario`).
    ``budget`` and ``out_len`` must be ints >= 1 and ``verdict_index``
    an index into the output window; anything else raises
    ``ValueError`` naming the field.
    """

    #: assembly source of the program
    source: str
    #: instruction budget; exceeding it raises ``HangDetected``
    budget: int
    #: base address of the output window the record is read from
    out_base: int
    #: number of output words in the record's ``data``
    out_len: int
    #: last output word of a completed run
    end_marker: int
    #: ``data`` index of the self-check verdict (0 = mismatch caught)
    verdict_index: int
    #: data address the program reads its input seed from
    seed_addr: int

    def __post_init__(self) -> None:
        _domain.count("budget", self.budget, 1)
        _domain.count("out_len", self.out_len, 1)
        _domain.count("verdict_index", self.verdict_index, 0, self.out_len)


@dataclass(frozen=True)
class Scenario:
    """One campaign workload."""

    name: str
    #: target-space description consumed by ``sample_faults``
    targets: Dict[str, Any]
    #: model-time horizon bounding every run
    horizon: float
    #: builds the system; returns (System, summarize) where
    #: ``summarize()`` yields the post-run outcome fields
    build: Optional[
        Callable[[Simulator], Tuple[System, Callable[[], Dict[str, Any]]]]
    ] = None
    #: set instead of ``build`` for kernel-less CPU-only workloads
    software: Optional[SoftwareWorkload] = None


# ----------------------------------------------------------------------
# coproc: R32 + MAC coprocessor + FIFO + message channel
# ----------------------------------------------------------------------
FIFO_BASE = 0x200   # DATA / STATUS / LEVEL
MAC_BASE = 0x210    # OPA / OPB / ACC / CTL
OUT_BASE = 0x220    # message window (write = send)

COPROC_WORDS = [7, 21, 1, 255, 33, 129, 64, 5]
COPROC_COEFF = 3
END_MARKER = 0xD0E

COPROC_ASM = f"""
        li   r7, {COPROC_COEFF}     ; coefficient
        li   r8, {len(COPROC_WORDS)} ; words to process
        li   r9, 0                  ; processed so far
        li   r6, 0                  ; software shadow accumulator
poll:   lw   r1, {FIFO_BASE + 1}(r0) ; FIFO STATUS
        andi r1, r1, 1
        beq  r1, r0, poll
        lw   r1, {FIFO_BASE}(r0)    ; FIFO DATA
        sw   r1, {MAC_BASE}(r0)     ; MAC OPA
        sw   r7, {MAC_BASE + 1}(r0) ; MAC OPB
        li   r2, 1
        sw   r2, {MAC_BASE + 3}(r0) ; MAC CTL: ACC += OPA*OPB
        mul  r3, r1, r7             ; software shadow of the same MAC
        add  r6, r6, r3
        addi r9, r9, 1
        bne  r9, r8, poll
        lw   r2, {MAC_BASE + 2}(r0) ; MAC ACC
        sw   r2, {OUT_BASE}(r0)     ; report hardware result
        sw   r6, {OUT_BASE}(r0)     ; report software result
        li   r4, 1
        beq  r2, r6, agree
        li   r4, 0
agree:  sw   r4, {OUT_BASE}(r0)     ; agreement verdict
        li   r5, {END_MARKER}
        sw   r5, {OUT_BASE}(r0)     ; end marker
        halt
"""


class MacDevice(RegisterDevice):
    """Multiply-accumulate coprocessor on the register rung.

    Writing CTL with bit 0 set folds OPA*OPB into ACC.
    """

    OPA, OPB, ACC, CTL = 0, 1, 2, 3

    def __init__(self, sim: Simulator, name: str = "mac") -> None:
        super().__init__(sim, name, 4, access_time=2.0)

    def on_write(self, index: int, value: int) -> None:
        super().on_write(index, value)
        if index == self.CTL and value & 1:
            self.regs[self.ACC] = (
                self.regs[self.ACC]
                + self.regs[self.OPA] * self.regs[self.OPB]
            ) & MASK32


def _build_coproc(
    sim: Simulator,
) -> Tuple[System, Callable[[], Dict[str, Any]]]:
    from repro.isa.cpu import Cpu

    cpu = Cpu(_stock_isa())
    cpu.memory.load_image(_image(COPROC_ASM))
    plane = Backplane(sim, cpu, clock_period=10.0, batch_instructions=4)

    fifo = FifoDevice(sim, "rx", depth=16, access_time=2.0)
    mac = MacDevice(sim, "mac")
    out = Channel(
        sim, "out", latency_per_message=4.0, latency_per_word=1.0
    )
    plane.mount(FIFO_BASE, 3, RegisterAdapter(fifo))
    plane.mount(MAC_BASE, 4, RegisterAdapter(mac))
    plane.mount(OUT_BASE, 1, MessageAdapter(to_hw=out))

    enable = Signal(sim, "enable", init=0)
    clk = Clock(sim, "clk", period=20.0, until=2000.0)

    def starter() -> Generator:
        yield sim.timeout(10.0)
        enable.set(1)

    def producer() -> Generator:
        yield from enable.wait_for(1)
        for word in COPROC_WORDS:
            yield from clk.rising_edge()
            fifo.push(word)

    received: List[int] = []

    def monitor() -> Generator:
        for _ in range(4):
            item = yield from out.receive()
            received.append(item)

    sim.process(starter(), name="starter")
    sim.process(producer(), name="producer")
    sim.process(monitor(), name="monitor")
    plane.start()

    system = System(
        sim,
        cpu=cpu,
        signals={"enable": enable, "clk": clk},
        devices={"rx": fifo, "mac": mac},
        channels={"out": out},
    )

    def summarize() -> Dict[str, Any]:
        completed = cpu.halted and len(received) == 4
        return {
            "completed": completed,
            # verdict word 0 = the shadow computation caught a mismatch
            "detected": completed and received[2] == 0,
            "data": list(received),
        }

    return system, summarize


# ----------------------------------------------------------------------
# msgpipe: parity-protected producer -> transform -> trusting consumer
# ----------------------------------------------------------------------
PIPE_WORDS = [5, 9, 12, 33, 7, 21]
PIPE_OK, PIPE_BAD = 0x600D, 0xBAD


def _xor(words: List[int]) -> int:
    return reduce(lambda a, b: a ^ b, words, 0)


def _build_msgpipe(
    sim: Simulator,
) -> Tuple[System, Callable[[], Dict[str, Any]]]:
    a = Channel(sim, "a", latency_per_message=2.0, latency_per_word=1.0)
    b = Channel(sim, "b", latency_per_message=2.0, latency_per_word=1.0)
    enable = Signal(sim, "enable", init=0)

    def starter() -> Generator:
        yield sim.timeout(5.0)
        enable.set(1)

    def producer() -> Generator:
        yield from enable.wait_for(1)
        for word in PIPE_WORDS:
            yield from a.send(word)
        yield from a.send(_xor(PIPE_WORDS))

    def transform() -> Generator:
        words: List[int] = []
        for _ in range(len(PIPE_WORDS)):
            word = yield from a.receive()
            words.append(word)
        parity = yield from a.receive()
        ok = parity == _xor(words)
        doubled = [(w * 2) & MASK32 for w in words]
        for word in doubled:
            yield from b.send(word)
        yield from b.send(_xor(doubled))
        yield from b.send(PIPE_OK if ok else PIPE_BAD)

    received: List[int] = []
    expected = len(PIPE_WORDS) + 2

    def consumer() -> Generator:
        for _ in range(expected):
            item = yield from b.receive()
            received.append(item)

    sim.process(starter(), name="starter")
    sim.process(producer(), name="producer")
    sim.process(transform(), name="transform")
    sim.process(consumer(), name="consumer")

    system = System(
        sim,
        signals={"enable": enable},
        channels={"a": a, "b": b},
    )

    def summarize() -> Dict[str, Any]:
        completed = len(received) == expected
        return {
            "completed": completed,
            "detected": completed and received[-1] == PIPE_BAD,
            "data": list(received),
        }

    return system, summarize


# ----------------------------------------------------------------------
# swmac: pure-software duplicated MAC over an LCG stream
# ----------------------------------------------------------------------
SW_SEED_ADDR = 0x100    # program input: LCG seed word
SW_OUT_BASE = 0x300     # 4-word output window
SW_SEED = 0x1234        # golden seed baked into the image
SW_ITERS = 400
SW_COEFF = 3
SW_BUDGET = 8_000

SWMAC_ASM = f"""
        lw   r1, {SW_SEED_ADDR}(r0) ; x = input seed
        li   r10, 75                ; LCG multiplier
        li   r11, 74                ; LCG increment
        li   r12, {SW_ITERS}        ; iterations
        li   r2, 0                  ; i
        li   r3, 0                  ; accumulator A
        li   r4, 0                  ; accumulator B (redundant copy)
        li   r7, {SW_COEFF}         ; coefficient
loop:   mul  r1, r1, r10            ; x = 75*x + 74  (mod 2^32)
        add  r1, r1, r11
        mul  r5, r1, r7             ; term = x * coeff
        add  r3, r3, r5             ; A += term
        add  r4, r4, r5             ; B += term
        xor  r6, r3, r4             ; running agreement scratch
        addi r2, r2, 1
        bne  r2, r12, loop
        sw   r3, {SW_OUT_BASE}(r0)  ; result A
        sw   r4, {SW_OUT_BASE + 1}(r0) ; result B
        li   r5, 1
        beq  r3, r4, agree
        li   r5, 0
agree:  sw   r5, {SW_OUT_BASE + 2}(r0) ; agreement verdict
        li   r8, {END_MARKER}
        sw   r8, {SW_OUT_BASE + 3}(r0) ; end marker
        halt
"""

def _sw_image(sw: SoftwareWorkload) -> Dict[int, int]:
    """The image of a software workload: its program plus the golden
    input seed word (unless the program sets that word itself)."""
    image = dict(_image(sw.source))
    image.setdefault(sw.seed_addr, SW_SEED)
    return image


def _build_sw_cpu(scenario: Scenario) -> Any:
    """A fresh CPU at retirement 0 of ``scenario``'s program (the
    from-zero run that forked cells are tested against)."""
    from repro.isa.cpu import Cpu

    cpu = Cpu(_stock_isa())
    cpu.memory.load_image(_sw_image(scenario.software))
    return cpu


def _drive_sw(cpu: Any, budget: int, steps: int = 0) -> None:
    """Run a software-scenario CPU to completion on the scalar tiers.

    ``steps`` is what the CPU has already spent of ``budget``: a forked
    cell's retirements (golden's steps equal its retirements), or 0
    for the from-zero reference run.  Raises
    :class:`~repro.cosim.kernel.HangDetected` when the instruction
    budget is exhausted (the software analogue of the watchdog) and
    :class:`~repro.isa.CpuError` on an external access, mirroring
    ``Cpu.run``.
    """
    from repro.isa.cpu import CpuError

    while not cpu.halted:
        if steps >= budget:
            raise HangDetected(
                f"instruction budget {budget} exhausted "
                f"at pc={cpu.pc:#x}"
            )
        ran, _cycles, access = cpu.run_block(budget - steps)
        steps += ran
        if access is not None:
            raise CpuError(
                f"external access at {access.addr:#x} outside "
                f"co-simulation; mount the region synchronously or "
                f"run under a backplane"
            )


def _sw_record(
    scenario: Scenario,
    cpu: Any,
    error: Optional[Dict[str, str]],
) -> Dict[str, Any]:
    sw = scenario.software
    ram = cpu.memory.ram
    data = [ram.get(sw.out_base + i, 0) for i in range(sw.out_len)]
    completed = cpu.halted and data[-1] == sw.end_marker
    return {
        "completed": completed,
        "detected": completed and data[sw.verdict_index] == 0,
        "data": data,
        "scenario": scenario.name,
        "error": error,
        "sim_time": float(cpu.cycle_count),
        "activations": cpu.instr_count,
    }


def _sw_arm_check(scenario: Scenario, fault: FaultSpec) -> None:
    if fault.kind not in CPU_KINDS:
        raise InjectionError(
            f"{fault.kind}: software scenario "
            f"{scenario.name!r} only has a CPU surface"
        )


def _golden_never_reads(golden: Any, fault: FaultSpec) -> bool:
    """Whether ``fault`` changes only state that golden's remaining run
    never reads, so that the cell's record is golden's (DESIGN §14).

    That is a flip of a register golden does not read after the due
    retirement before writing it (:meth:`~repro.isa.BatchCpu.live_after`),
    or of ``irq_enabled``, which the engines read only while an
    interrupt is pending, and nothing raises one on a CPU without
    devices.  A register index past the file is never dead, so arming
    it raises as before.
    """
    if fault.kind == "cpu_flag_flip":
        return fault.flag == "irq_enabled"
    if fault.kind != "cpu_reg_flip" or fault.index >= N_REGS:
        return False
    return not golden.live_after(max(1, fault.count)) >> fault.index & 1


def run_sw_scenario(
    scenario: Scenario,
    fault: Optional[FaultSpec] = None,
) -> Dict[str, Any]:
    """Run one software scenario once, as a fork of its golden run.

    A fault that changes only state golden never reads again
    (:func:`_golden_never_reads`) gets golden's own record, with no
    copy and no run.  Any other cell starts as a copy of golden
    (:func:`_golden`) taken at the latest checkpoint before its fault
    is due (a fault-free cell: at golden's end), arms the fault
    counting the copy's retirements as already done, and runs on the
    scalar tiers.  The record is byte-identical to a run of the same
    fault from retirement 0.
    """
    sw = scenario.software
    golden = _golden(sw)
    if fault is None:
        cpu = golden.fork_at(sw.budget)
    else:
        _sw_arm_check(scenario, fault)
        if _golden_never_reads(golden, fault):
            return run_sw_scenario(scenario, None)
        cpu = golden.fork_at(max(1, fault.count) - 1)
        arm_cpu_fault(cpu, fault, retired=cpu.instr_count)
    error: Optional[Dict[str, str]] = None
    try:
        _drive_sw(cpu, sw.budget, steps=cpu.instr_count)
    except Exception as exc:  # folded into the record, by design
        error = {"type": type(exc).__name__, "message": str(exc)[:200]}
    return _sw_record(scenario, cpu, error)


def run_sw_batch(
    scenario: Scenario,
    faults: List[Optional[FaultSpec]],
) -> List[Dict[str, Any]]:
    """:func:`run_sw_scenario` over ``faults`` (``None`` = golden)."""
    return [run_sw_scenario(scenario, fault) for fault in faults]


SCENARIOS: Dict[str, Scenario] = {
    "coproc": Scenario(
        name="coproc",
        targets={
            "signals": ["enable", "clk"],
            "devices": {"rx": 3, "mac": 4},
            "channels": {"out": 4},
            "cpu": {"regs": 16, "max_count": 200, "pc_bits": 8},
            "time": (0.0, 2500.0),
            "data_bits": 16,
        },
        horizon=50_000.0,
        build=_build_coproc,
    ),
    "msgpipe": Scenario(
        name="msgpipe",
        targets={
            "signals": ["enable"],
            "channels": {"a": 7, "b": 8},
            "time": (0.0, 100.0),
            "data_bits": 16,
        },
        horizon=5_000.0,
        build=_build_msgpipe,
    ),
    "swmac": Scenario(
        name="swmac",
        targets={
            "cpu": {"regs": 16, "max_count": 3_000, "pc_bits": 8},
            "data_bits": 16,
            "kinds": list(CPU_KINDS),
        },
        horizon=float(SW_BUDGET),
        software=SoftwareWorkload(
            source=SWMAC_ASM,
            budget=SW_BUDGET,
            out_base=SW_OUT_BASE,
            out_len=4,
            end_marker=END_MARKER,
            verdict_index=2,
            seed_addr=SW_SEED_ADDR,
        ),
    ),
}


def run_scenario(
    name: str,
    fault: Optional[FaultSpec] = None,
    watchdog: Any = _USE_DEFAULT,
) -> Dict[str, Any]:
    """Run one scenario once, optionally with one fault armed.

    Returns the JSON-stable outcome record the campaign layer
    classifies; any exception the run raises (including
    :class:`~repro.cosim.kernel.HangDetected` from the watchdog) is
    folded into the record's ``error`` field rather than propagated, so
    a campaign worker never dies to a misbehaving cell.

    Software-only scenarios (``scenario.software`` set) have no kernel;
    ``watchdog`` is ignored for them and the workload's instruction
    budget bounds the run instead.
    """
    scenario = SCENARIOS[name]
    if scenario.software is not None:
        return run_sw_scenario(scenario, fault)
    if watchdog is _USE_DEFAULT:
        watchdog = DEFAULT_WATCHDOG
    sim = Simulator()
    system, summarize = scenario.build(sim)
    injector = FaultInjector(system)
    if fault is not None:
        injector.arm(fault)
    error: Optional[Dict[str, str]] = None
    try:
        sim.run(until=scenario.horizon, watchdog=watchdog)
    except Exception as exc:  # folded into the record, by design
        error = {"type": type(exc).__name__, "message": str(exc)[:200]}
    record = summarize()
    record.update(
        scenario=name,
        error=error,
        sim_time=sim.now,
        activations=sim.activations,
    )
    return record
