"""The co-simulation backplane: coupling the R32 CPU to hardware models.

Section 3.1: a co-simulation environment must "understand the semantics
of both the hardware and the software components and how actions in one
domain affect the state of the other".  The backplane is that coupling:

* the CPU runs as a simulation process, advancing model time by the
  cycles each ``run_block`` call returns and by each external access's
  adapter time; that access's own and stall cycles enter only
  ``cpu.cycle_count`` (software semantics, DESIGN §8);
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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro import _domain
from repro.cosim.bus import SystemBus
from repro.cosim.kernel import (
    Process,
    SimulationError,
    Simulator,
    Timeout,
    _Leap,
)
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


#: How many snapshots of a poll loop the driver keeps before it starts
#: over: a loop whose state has not come round by then is not leapt.
_POLL_HISTORY = 64


#: How many distinct delays a driver keeps a reusable ``Timeout`` for.
_REUSED_TIMEOUTS = 64


@dataclass
class _Mount:
    base: int
    size: int
    adapter: InterfaceAdapter
    #: the device behind a :class:`RegisterAdapter` (else None): a read
    #: of one of its :attr:`~RegisterDevice.PURE_READS` may start a leap
    device: Optional[RegisterDevice]
    #: whether the driver plays an access out itself, as one wait and
    #: :meth:`RegisterDevice.complete`: the device's ``read`` and
    #: ``write`` are :class:`RegisterDevice`'s own, which do just that
    direct: bool


class Backplane:
    """Runs a :class:`repro.isa.cpu.Cpu` inside a :class:`Simulator`.

    ``clock_period`` (finite and > 0) converts the cycles ``run_block``
    returns to model time (an external access takes its adapter's time
    instead).
    ``batch_instructions`` (an int >= 1) controls how many
    purely-internal instructions execute per simulation event: 1 gives
    instruction-granular timing, larger batches speed up long software
    stretches (interrupts are then recognized at batch boundaries, as in
    real instruction-set co-simulators).

    A CPU polling a quiescent system leaps (DESIGN §8).  After each
    external read the driver takes a snapshot, if the read was of a
    register its device declares free of side effects
    (:attr:`RegisterDevice.PURE_READS`) and nothing but the CPU can act
    before the horizon of the ``run()`` in progress.  When a snapshot's
    key (pc, registers, ``irq_enabled``, ``epc``, batch budget left and
    address read) repeats within one ``run()`` with no store in
    between, the driver walks that loop's timeouts to the last whole
    pass due by the horizon, credits the CPU's, memory's, devices' and
    its own counters as if each pass had run, and lands there in one
    wait.  Records, times and activation counts equal the eager run's.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: Cpu,
        clock_period: float = 10.0,
        batch_instructions: int = 1,
    ) -> None:
        self.sim = sim
        self.cpu = cpu
        self.clock_period = _domain.real("clock_period", clock_period,
                                         above=0)
        self.batch_instructions = _domain.count(
            "batch_instructions", batch_instructions, 1)
        #: the mounts and their bases, both in ascending base order
        self._mounts: List[_Mount] = []
        self._bases: List[int] = []
        #: delay -> the Timeout the driver yields for it, reused
        self._timeouts: Dict[float, Timeout] = {}
        self.external_accesses = 0
        self.stall_time = 0.0
        self.process: Optional[Process] = None

    # ------------------------------------------------------------------
    def mount(self, base: int, size: int, adapter: InterfaceAdapter) -> None:
        """Map [base, base+size) to ``adapter`` and mark the window
        external in the CPU's memory.  A :class:`RegisterAdapter`'s
        device is the one it holds now."""
        self.cpu.memory.add_region(
            f"mount@{base:#x}", base, size, external=True
        )
        device = adapter.device if type(adapter) is RegisterAdapter else None
        direct = (device is not None
                  and type(device).read is RegisterDevice.read
                  and type(device).write is RegisterDevice.write)
        at = bisect_right(self._bases, base)
        self._bases.insert(at, base)
        self._mounts.insert(at, _Mount(base, size, adapter, device, direct))

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
        at = bisect_right(self._bases, addr)
        if at:
            mount = self._mounts[at - 1]
            if addr < mount.base + mount.size:
                return mount
        raise SimulationError(f"no adapter mounted at {addr:#x}")

    def _timeout(self, delay: float) -> Timeout:
        """A new ``Timeout`` of ``delay``, kept for reuse while fewer
        than :data:`_REUSED_TIMEOUTS` delays are."""
        made = self.sim.timeout(delay)
        if len(self._timeouts) < _REUSED_TIMEOUTS:
            self._timeouts[delay] = made
        return made

    def _drive(self) -> Generator:
        # Each run_block() call retires a run of internal instructions
        # on the CPU's installed engine.  `steps` counts steps
        # — retired instructions, taken IRQs, and the deferred access —
        # so the batch budget, and therefore the exact sequence of
        # timeouts and adapter activations, is identical to a loop of
        # one step() per instruction at any batch_instructions.  A
        # direct mount's access is one wait and the device's completion
        # here; any other goes through _service's adapter generator.
        # Each delay's Timeout is made once and reused.
        #
        # A poll loop's history: `seen` maps each snapshot's key to the
        # length of `waits` and the CPU's instruction, cycle and load
        # counts when it was taken, and `waits` holds every wait of the
        # driver since the first snapshot as (delay, device read or
        # None, elapsed).  `seen` is None while there is no history.
        # The key holds the store count and the kernel's count of run()
        # and step() calls, so a repeat spans no store and no code run
        # between calls.
        cpu = self.cpu
        memory = cpu.memory
        sim = self.sim
        period = self.clock_period
        timeouts = self._timeouts
        seen: Optional[Dict[tuple, tuple]] = None
        waits: List[tuple] = []
        while not cpu.halted:
            budget = self.batch_instructions
            while budget:
                steps, cycles, access = cpu.run_block(budget)
                budget -= steps
                if cycles:
                    delay = cycles * period
                    if seen is not None:
                        waits.append((delay, None, 0.0))
                    yield timeouts.get(delay) or self._timeout(delay)
                if access is None:
                    break  # budget exhausted or halt retired
                mount = self._find(access.addr)
                if mount.direct:
                    self.external_accesses += 1
                    started = sim.now
                    device = mount.device
                    offset = access.addr - mount.base
                    device._check(offset)
                    delay = device.access_time
                    yield timeouts.get(delay) or self._timeout(delay)
                    value = device.complete(offset, access.value,
                                            access.is_write)
                    read = self._finish(access, mount, started, value)
                else:
                    read = yield from self._service(access, mount)
                if cpu.halted:
                    break
                if read is None or not self._alone():
                    seen = None
                    continue
                key = (cpu.pc, tuple(cpu.regs), cpu.irq_enabled, cpu.epc,
                       budget, access.addr, memory.stores, sim._calls)
                if seen is not None:
                    waits.append(read)
                    hit = seen.get(key)
                    if hit is not None:  # the state came round: a loop
                        leap = self._leap(waits[hit[0]:], *hit[1:])
                        if leap is not None:
                            yield leap
                    elif len(seen) < _POLL_HISTORY:
                        seen[key] = (len(waits), cpu.instr_count,
                                     cpu.cycle_count, memory.loads)
                        continue
                # (re)start the history at this snapshot
                seen = {key: (0, cpu.instr_count, cpu.cycle_count,
                              memory.loads)}
                waits = []
        return cpu.cycle_count

    def _alone(self) -> bool:
        """Whether nothing but the CPU's own instructions can act before
        the horizon: a ``run()`` with a finite horizon is in progress, no
        tracer is attached, no process but this driver is scheduled (a
        process blocked on an event waits for something only a store or
        a send could do), and no observer, trigger, pending IRQ or
        synchronous device region can change what the CPU does next."""
        sim, cpu = self.sim, self.cpu
        horizon = sim._horizon
        return (not sim._ready and not sim._queue
                and horizon is not None and horizon < math.inf
                and sim.tracer is None and not cpu.observers
                and not cpu._triggers and not cpu.irq_pending
                and all(region.external for region in cpu.memory._regions))

    def _leap(self, loop: List[tuple], instrs: int, cycles: int,
              loads: int) -> Optional[_Leap]:
        """The wait that runs every whole pass of ``loop`` due by the
        horizon, or None if not one is.

        ``loop`` lists the driver's waits over one pass, which ended in
        the state it began in; ``instrs``, ``cycles`` and ``loads`` are
        the CPU's counts where it began.  The walk reaches each
        activation time by the kernel's own repeated addition, and stops
        before a pass with one past the horizon, one that does not
        advance time (the watchdog would count a stall) or a read whose
        elapsed time differs from the recorded one (its stall cycles
        would).  The counters those passes change are credited here;
        the kernel credits the activations.
        """
        horizon = self.sim._horizon
        when, stall, passes = self.sim.now, self.stall_time, 0
        while True:
            at, total = when, stall
            for delay, device, elapsed in loop:
                started, at = at, at + delay
                if not started < at <= horizon:
                    break
                if device is not None:
                    if at - started != elapsed:
                        break
                    total += elapsed
            else:  # the whole pass is due by the horizon
                when, stall, passes = at, total, passes + 1
                continue
            break
        if not passes:
            return None
        cpu, memory = self.cpu, self.cpu.memory
        cpu.instr_count += passes * (cpu.instr_count - instrs)
        cpu.cycle_count += passes * (cpu.cycle_count - cycles)
        memory.loads += passes * (memory.loads - loads)
        for _delay, device, _elapsed in loop:
            if device is not None:
                device.reads += passes
                self.external_accesses += passes
        self.stall_time = stall
        return _Leap(when, passes * len(loop) - 1)

    def _service(self, access: ExternalAccess, mount: _Mount) -> Generator:
        """Play ``access`` out through ``mount``'s adapter generator and
        complete it (:meth:`_finish`)."""
        self.external_accesses += 1
        started = self.sim.now
        value = yield from mount.adapter.access(
            access.addr - mount.base, access.value, access.is_write
        )
        return self._finish(access, mount, started, value)

    def _finish(self, access: ExternalAccess, mount: _Mount,
                started: float, value: Optional[int]) -> Optional[tuple]:
        """Complete ``access``, begun at ``started`` and answered with
        ``value``: the instruction's cycles and the elapsed time in
        whole clock periods go to ``cpu.cycle_count`` only.

        Returns the driver's wait as ``(delay, device, elapsed)`` when
        the access read a register its device declares free of side
        effects (:attr:`RegisterDevice.PURE_READS`), else None.
        """
        sim = self.sim
        elapsed = sim.now - started
        self.stall_time += elapsed
        tracer = sim.tracer
        if tracer is not None:
            name = type(mount.adapter).__name__
            tracer.emit(
                ACCESS, f"mount@{mount.base:#x}", addr=access.addr,
                write=access.is_write, adapter=name, stall=elapsed,
            )
            tracer.metrics.counter(f"backplane.{name}.accesses").inc()
            tracer.metrics.histogram(
                f"backplane.{name}.stall_ns"
            ).observe(elapsed)
        self.cpu.complete_access(
            value or 0, int(round(elapsed / self.clock_period))
        )
        device = mount.device
        if (device is not None and not access.is_write
                and access.addr - mount.base in device.PURE_READS):
            return device.access_time, device, elapsed
        return None
