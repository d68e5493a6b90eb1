"""Register/interrupt-level interface modeling.

The "register reads/writes, interrupts" rung of Figure 3: software talks
to hardware through individual device-register accesses with a fixed
access latency, and hardware signals software through interrupt lines.
No bus occupancy or arbitration is modeled — each access is an isolated
timed action — so it is cheaper than the bus-transaction level but blind
to contention.
"""

from __future__ import annotations

from typing import FrozenSet, Generator, List, Optional

from repro import _domain
from repro.cosim.kernel import Event, SimulationError, Simulator
from repro.cosim.trace import IRQ, REG


class InterruptLine:
    """A level-sensitive interrupt request line.

    Hardware asserts it; software (or the CPU model) waits on it and must
    acknowledge to clear.  Statistics count assertions and total pending
    time so experiments can report interrupt latency.
    """

    def __init__(self, sim: Simulator, name: str = "irq") -> None:
        self.sim = sim
        self.name = name
        self._pending = False
        self._event = Event(sim, f"{name}.assert")
        self.assertions = 0
        self._asserted_at = 0.0
        self.total_latency = 0.0

    @property
    def pending(self) -> bool:
        """Whether the line is currently asserted."""
        return self._pending

    def assert_(self) -> None:
        """Raise the interrupt (idempotent while pending)."""
        if self._pending:
            return
        self._pending = True
        self.assertions += 1
        self._asserted_at = self.sim.now
        if self.sim.tracer is not None:
            self.sim.tracer.emit(IRQ, self.name, asserted=True)
        old, self._event = self._event, Event(self.sim, f"{self.name}.assert")
        old.succeed(self.sim.now)

    def acknowledge(self) -> None:
        """Clear the interrupt and account its service latency."""
        if not self._pending:
            raise SimulationError(f"ack of idle interrupt {self.name!r}")
        self._pending = False
        latency = self.sim.now - self._asserted_at
        self.total_latency += latency
        if self.sim.tracer is not None:
            self.sim.tracer.emit(IRQ, self.name, asserted=False)
            self.sim.tracer.metrics.histogram(
                f"irq.{self.name}.latency_ns"
            ).observe(latency)

    def wait(self) -> Generator:
        """Generator: block until the line is (or becomes) asserted."""
        if self._pending:
            return
        yield self._event

    @property
    def mean_latency(self) -> float:
        """Mean assert-to-acknowledge latency over all serviced IRQs."""
        serviced = self.assertions - (1 if self._pending else 0)
        return self.total_latency / serviced if serviced else 0.0


class RegisterDevice:
    """Base class for a device modeled as a register file.

    Subclasses override :meth:`on_read` / :meth:`on_write`.  The file
    holds ``n_registers`` (an int >= 1) registers.  Accesses
    cost ``access_time`` each (finite and >= 0) and are *not* arbitrated
    — the simplification that makes this level cheap and optimistic
    under contention.

    :attr:`PURE_READS` declares the registers whose :meth:`read` waits
    ``access_time`` and changes nothing but :attr:`reads`: ``on_read``
    returns a value that depends only on device state, and neither
    modifies that state nor wakes anything.  A CPU that polls only such
    registers while nothing else can run may leap to the horizon
    (DESIGN §8).  It is empty here, so a subclass opts in.
    """

    PURE_READS: FrozenSet[int] = frozenset()

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_registers: int,
        access_time: float = 2.0,
    ) -> None:
        _domain.count("n_registers", n_registers, 1)
        self.access_time = _domain.real("access_time", access_time, least=0)
        self.sim = sim
        self.name = name
        self.regs: List[int] = [0] * n_registers
        self.reads = 0
        self.writes = 0

    def on_read(self, index: int) -> int:
        """Hook: value returned for a read of register ``index``."""
        return self.regs[index]

    def on_write(self, index: int, value: int) -> None:
        """Hook: effect of writing ``value`` to register ``index``."""
        self.regs[index] = value

    def read(self, index: int) -> Generator:
        """Generator: timed read of one register."""
        self._check(index)
        yield self.sim.timeout(self.access_time)
        return self.complete(index, 0, False)

    def write(self, index: int, value: int) -> Generator:
        """Generator: timed write of one register."""
        self._check(index)
        yield self.sim.timeout(self.access_time)
        self.complete(index, value, True)

    def complete(self, index: int, value: int, is_write: bool) -> int:
        """The synchronous end of a checked access, once its
        ``access_time`` has passed: count it, record it for the tracer
        and run the hook.  Returns the value read (0 for a write).

        :meth:`read` and :meth:`write` end with it, and so does a
        :class:`repro.cosim.backplane.Backplane` playing out an access
        without their generators, so a subclass changes what an access
        does through the hooks and its timing through :meth:`read` and
        :meth:`write`.
        """
        tracer = self.sim.tracer
        if is_write:
            self.writes += 1
            if tracer is not None:
                self._trace_access(index, True)
            self.on_write(index, value)
            return 0
        self.reads += 1
        if tracer is not None:
            self._trace_access(index, False)
        return self.on_read(index)

    def _trace_access(self, index: int, is_write: bool) -> None:
        self.sim.tracer.emit(REG, self.name, index=index, write=is_write)
        self.sim.tracer.metrics.counter(
            f"device.{self.name}.accesses"
        ).inc()

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self.regs):
            raise SimulationError(
                f"device {self.name!r}: register index {index} out of range"
            )

    @property
    def accesses(self) -> int:
        """Total register accesses."""
        return self.reads + self.writes


class FifoDevice(RegisterDevice):
    """A device exposing a producer/consumer FIFO through registers.

    Register map: 0 = DATA (write pushes, read pops), 1 = STATUS
    (bit 0 = not-empty, bit 1 = full), 2 = LEVEL (occupancy).  It
    holds ``depth`` (an int >= 1) words.  Asserts ``irq`` when data
    becomes available.
    """

    DATA, STATUS, LEVEL = 0, 1, 2
    PURE_READS = frozenset({STATUS, LEVEL})  # a DATA read pops

    def __init__(
        self,
        sim: Simulator,
        name: str = "fifo",
        depth: int = 16,
        access_time: float = 2.0,
        irq: Optional[InterruptLine] = None,
    ) -> None:
        super().__init__(sim, name, 3, access_time)
        self.depth = _domain.count("depth", depth, 1)
        self.fifo: List[int] = []
        self.irq = irq
        self.overruns = 0

    def push(self, value: int) -> bool:
        """Hardware-side push; returns False (and counts an overrun) when
        the FIFO is full."""
        if len(self.fifo) >= self.depth:
            self.overruns += 1
            return False
        self.fifo.append(value)
        if self.irq is not None and not self.irq.pending:
            self.irq.assert_()
        return True

    def on_read(self, index: int) -> int:
        if index == self.DATA:
            if not self.fifo:
                return 0
            value = self.fifo.pop(0)
            if not self.fifo and self.irq is not None and self.irq.pending:
                self.irq.acknowledge()
            return value
        if index == self.STATUS:
            return (1 if self.fifo else 0) | (
                2 if len(self.fifo) >= self.depth else 0
            )
        return len(self.fifo)

    def on_write(self, index: int, value: int) -> None:
        if index == self.DATA:
            self.push(value)
        else:
            raise SimulationError(
                f"device {self.name!r}: register {index} is read-only"
            )
