"""The co-simulation backplane: coupling the R32 CPU to hardware models.

Section 3.1: a co-simulation environment must "understand the semantics
of both the hardware and the software components and how actions in one
domain affect the state of the other".  The backplane is that coupling:

* the CPU runs as a simulation process, advancing model time by its
  cycle count (software semantics);
* loads/stores to *mounted* address windows are routed to an interface
  adapter that plays them out at a chosen abstraction level (hardware
  semantics): pin-level handshake, arbitrated bus transaction, register
  access, or message channel;
* hardware models raise CPU interrupts through :meth:`Backplane.irq`.

Because the adapter is chosen per mount, experiment E3 can hold the
software and the device logic constant and measure only the effect of
the interface abstraction level — reproducing Figure 3's
accuracy/cost ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Tuple

from repro.cosim.bus import SystemBus
from repro.cosim.kernel import Process, SimulationError, Simulator
from repro.cosim.trace import ACCESS
from repro.cosim.msglevel import Channel
from repro.cosim.pinlevel import PinBusMaster
from repro.cosim.translevel import RegisterDevice
from repro.isa.cpu import Cpu, ExternalAccess


class InterfaceAdapter:
    """Protocol for interface models mounted on the backplane.

    ``access`` is a generator (it may consume model time) returning the
    read value (ignored for writes).
    """

    def access(self, offset: int, value: int, is_write: bool) -> Generator:
        raise NotImplementedError


class PinLevelAdapter(InterfaceAdapter):
    """Figure 3, bottom rung: every access is a full pin-level handshake
    on the wires of the bus."""

    def __init__(self, master: PinBusMaster, base: int) -> None:
        self.master = master
        self.base = base

    def access(self, offset: int, value: int, is_write: bool) -> Generator:
        if is_write:
            yield from self.master.write(self.base + offset, value)
            return 0
        return (yield from self.master.read(self.base + offset))


class TransactionAdapter(InterfaceAdapter):
    """Bus-transaction rung: accesses become arbitrated timed transfers
    on a :class:`repro.cosim.bus.SystemBus`."""

    def __init__(self, bus: SystemBus, base: int) -> None:
        self.bus = bus
        self.base = base

    def access(self, offset: int, value: int, is_write: bool) -> Generator:
        if is_write:
            yield from self.bus.write(self.base + offset, [value])
            return 0
        data = yield from self.bus.read(self.base + offset, 1)
        return data[0]


class RegisterAdapter(InterfaceAdapter):
    """Register/interrupt rung: accesses are individual device-register
    reads/writes with a fixed latency, no arbitration."""

    def __init__(self, device: RegisterDevice) -> None:
        self.device = device

    def access(self, offset: int, value: int, is_write: bool) -> Generator:
        if is_write:
            yield from self.device.write(offset, value)
            return 0
        return (yield from self.device.read(offset))


class MessageAdapter(InterfaceAdapter):
    """OS rung: a write *sends* the word on the outbound channel, a read
    *receives* from the inbound channel (blocking), regardless of offset.

    This is the send/receive/wait modeling of [3]: all physical detail of
    the transport is abstracted into the channels' latency model.
    """

    def __init__(
        self,
        to_hw: Optional[Channel] = None,
        from_hw: Optional[Channel] = None,
    ) -> None:
        if to_hw is None and from_hw is None:
            raise ValueError("MessageAdapter needs at least one channel")
        self.to_hw = to_hw
        self.from_hw = from_hw

    def access(self, offset: int, value: int, is_write: bool) -> Generator:
        if is_write:
            if self.to_hw is None:
                raise SimulationError("write to receive-only message window")
            yield from self.to_hw.send(value)
            return 0
        if self.from_hw is None:
            raise SimulationError("read from send-only message window")
        return (yield from self.from_hw.receive())


@dataclass
class _Mount:
    base: int
    size: int
    adapter: InterfaceAdapter


class Backplane:
    """Runs a :class:`repro.isa.cpu.Cpu` inside a :class:`Simulator`.

    ``clock_period`` converts CPU cycles to model time.
    ``batch_instructions`` controls how many purely-internal instructions
    execute per simulation event: 1 gives instruction-granular timing,
    larger batches speed up long software stretches (interrupts are then
    recognized at batch boundaries, as in real instruction-set
    co-simulators).
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: Cpu,
        clock_period: float = 10.0,
        batch_instructions: int = 1,
    ) -> None:
        if not 0.0 < clock_period < math.inf:  # also rejects NaN
            raise ValueError(
                f"clock_period must be finite and positive, "
                f"got {clock_period!r}"
            )
        if batch_instructions < 1:
            raise ValueError("batch_instructions must be >= 1")
        self.sim = sim
        self.cpu = cpu
        self.clock_period = clock_period
        self.batch_instructions = batch_instructions
        self._mounts: List[_Mount] = []
        self.external_accesses = 0
        self.stall_time = 0.0
        self.process: Optional[Process] = None

    # ------------------------------------------------------------------
    def mount(self, base: int, size: int, adapter: InterfaceAdapter) -> None:
        """Map [base, base+size) to ``adapter`` and mark the window
        external in the CPU's memory."""
        self.cpu.memory.add_region(
            f"mount@{base:#x}", base, size, external=True
        )
        self._mounts.append(_Mount(base, size, adapter))

    def irq(self) -> None:
        """Raise the CPU interrupt line (for device models)."""
        self.cpu.raise_irq()

    def start(self, name: str = "cpu") -> Process:
        """Register the CPU driver process; returns it (join to wait for
        ``halt``)."""
        if self.process is not None:
            raise SimulationError("backplane already started")
        self.process = self.sim.process(self._drive(), name=name)
        return self.process

    # ------------------------------------------------------------------
    def _find(self, addr: int) -> _Mount:
        for mount in self._mounts:
            if mount.base <= addr < mount.base + mount.size:
                return mount
        raise SimulationError(f"no adapter mounted at {addr:#x}")

    def _drive(self) -> Generator:
        # Each run_block() call retires a run of internal instructions in
        # one Python frame (fast path; falls back to step() semantics
        # when observers are armed).  `steps` counts step()-equivalents
        # — retired instructions, taken IRQs, and the deferred access —
        # so the batch budget, and therefore the exact sequence of
        # timeouts and adapter activations, is identical to the old
        # one-step()-per-instruction loop at any batch_instructions.
        cpu = self.cpu
        period = self.clock_period
        timeout = self.sim.timeout
        while not cpu.halted:
            budget = self.batch_instructions
            while budget:
                steps, cycles, access = cpu.run_block(budget)
                budget -= steps
                if access is None:
                    # budget exhausted or halt retired: flush the batch
                    if cycles:
                        yield timeout(cycles * period)
                    break
                if cycles:
                    yield timeout(cycles * period)
                yield from self._service(access)
                if cpu.halted:
                    break
        return cpu.cycle_count

    def _service(self, access: ExternalAccess) -> Generator:
        mount = self._find(access.addr)
        self.external_accesses += 1
        started = self.sim.now
        value = yield from mount.adapter.access(
            access.addr - mount.base, access.value, access.is_write
        )
        elapsed = self.sim.now - started
        self.stall_time += elapsed
        if self.sim.tracer is not None:
            adapter = type(mount.adapter).__name__
            self.sim.tracer.emit(
                ACCESS, f"mount@{mount.base:#x}", addr=access.addr,
                write=access.is_write, adapter=adapter, stall=elapsed,
            )
            self.sim.tracer.metrics.counter(
                f"backplane.{adapter}.accesses"
            ).inc()
            self.sim.tracer.metrics.histogram(
                f"backplane.{adapter}.stall_ns"
            ).observe(elapsed)
        stall_cycles = int(round(elapsed / self.clock_period))
        self.cpu.complete_access(
            read_value=(value or 0), extra_cycles=stall_cycles
        )
