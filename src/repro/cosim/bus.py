"""Bus-transaction-level modeling of the system bus.

The second rung of Figure 3: hardware/software interaction is modeled as
*bus transactions* — timed, arbitrated burst transfers that occupy the
shared bus — without simulating individual wire activity.  One transfer
costs O(1) simulation events but reproduces bus *occupancy* and
*contention*, so performance estimates are far better than the message
level while remaining much cheaper than the pin level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List

from repro import _domain
from repro.cosim.kernel import Resource, SimulationError, Simulator
from repro.cosim.trace import BUS

#: A slave handler: (offset, value, is_write) -> read value (ignored for
#: writes).  Handlers execute in zero model time; devices needing time
#: model it internally with wait states via ``extra_cycles``.
SlaveHandler = Callable[[int, int, bool], int]


@dataclass
class BusSlave:
    """An address-mapped slave device on the bus."""

    name: str
    base: int
    size: int
    handler: SlaveHandler
    extra_cycles: int = 0

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this slave's window."""
        return self.base <= addr < self.base + self.size


@dataclass
class BusStats:
    """Aggregate bus statistics for utilization/contention analysis."""

    transfers: int = 0
    words: int = 0
    busy_time: float = 0.0
    wait_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of elapsed time the bus was occupied."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class SystemBus:
    """A single shared system bus with FIFO arbitration.

    Timing model (all in model-time units):

    * ``arbitration_time`` — fixed cost to win the bus when idle;
    * ``setup_time`` — per-transaction address/command phase;
    * ``word_time`` — per-word data phase;
    * per-slave ``extra_cycles`` multiply ``word_time`` as wait states.

    The three times are finite and >= 0; a slave's ``base`` and
    ``extra_cycles`` are ints >= 0 and its ``size`` an int >= 1.

    This is exactly the level at which the paper's "communication"
    partitioning factor is evaluated: the synchronization and transfer
    overhead of crossing the hardware/software boundary.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "sysbus",
        arbitration_time: float = 1.0,
        setup_time: float = 1.0,
        word_time: float = 2.0,
    ) -> None:
        self.sim = sim
        self.name = name
        real = _domain.real
        self.arbitration_time = real("arbitration_time", arbitration_time,
                                     least=0)
        self.setup_time = real("setup_time", setup_time, least=0)
        self.word_time = real("word_time", word_time, least=0)
        self._grant = Resource(sim, f"{name}.grant")
        self._slaves: List[BusSlave] = []
        self.stats = BusStats()

    # ------------------------------------------------------------------
    def attach_slave(
        self,
        name: str,
        base: int,
        size: int,
        handler: SlaveHandler,
        extra_cycles: int = 0,
    ) -> BusSlave:
        """Map a slave device at [base, base+size)."""
        _domain.count("base", base)
        _domain.count("size", size, 1)
        _domain.count("extra_cycles", extra_cycles)
        for s in self._slaves:
            if s.base < base + size and base < s.base + s.size:
                raise ValueError(
                    f"slave {name!r} overlaps {s.name!r} "
                    f"([{s.base:#x}, {s.base + s.size:#x}))"
                )
        slave = BusSlave(name, base, size, handler, extra_cycles)
        self._slaves.append(slave)
        return slave

    def decode(self, addr: int) -> BusSlave:
        """Find the slave mapped at ``addr``."""
        for s in self._slaves:
            if s.contains(addr):
                return s
        raise SimulationError(f"bus {self.name!r}: no slave at {addr:#x}")

    def transfer_time(self, words: int, extra_cycles: int = 0) -> float:
        """Duration of a granted transfer of ``words`` words."""
        return self.setup_time + words * self.word_time * (1 + extra_cycles)

    # ------------------------------------------------------------------
    def write(self, addr: int, values: List[int]) -> Generator:
        """Generator: burst-write ``values`` starting at ``addr``."""
        yield from self._transfer(addr, values, True)

    def read(self, addr: int, words: int = 1) -> Generator:
        """Generator: burst-read ``words`` words starting at ``addr``;
        returns the list of values."""
        return (yield from self._transfer(addr, [0] * words, False))

    def _transfer(
        self, addr: int, values: List[int], is_write: bool
    ) -> Generator:
        if not values:
            raise SimulationError("zero-length bus transfer")
        slave = self.decode(addr)
        end = addr + len(values) - 1
        if not slave.contains(end):
            raise SimulationError(
                f"burst [{addr:#x}, {end:#x}] crosses out of {slave.name!r}"
            )
        request_time = self.sim.now
        yield from self._grant.acquire()
        waited = self.sim.now - request_time
        self.stats.wait_time += waited
        try:
            yield self.sim.timeout(self.arbitration_time)
            duration = self.transfer_time(len(values), slave.extra_cycles)
            yield self.sim.timeout(duration)
            self.stats.busy_time += self.arbitration_time + duration
            self.stats.transfers += 1
            self.stats.words += len(values)
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    BUS, self.name, addr=addr, words=len(values),
                    write=is_write, slave=slave.name, waited=waited,
                    duration=duration,
                )
                self.sim.tracer.metrics.counter(
                    f"bus.{self.name}.transfers"
                ).inc()
                self.sim.tracer.metrics.histogram(
                    f"bus.{self.name}.transfer_ns"
                ).observe(duration)
            results = []
            for i, value in enumerate(values):
                offset = addr + i - slave.base
                results.append(slave.handler(offset, value, is_write))
            return results
        finally:
            self._grant.release()

    @property
    def slaves(self) -> List[BusSlave]:
        """All attached slaves."""
        return list(self._slaves)
