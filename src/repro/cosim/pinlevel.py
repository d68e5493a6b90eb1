"""Pin-level (signal-activity) interface modeling.

The bottom rung of Figure 3, after Becker, Singh & Tell [4]: the
hardware/software interface is "the activity on the pins of a CPU or the
wires of a bus".  Every bus transaction is played out as a synchronous
request/acknowledge handshake on individual address/data/control signals,
clock edge by clock edge.

This is the reference model for timing (contention, wait states, and
handshake overhead all appear naturally) and the most expensive model to
simulate: every attached device wakes on every clock edge, so simulation
cost grows with *cycles*, not with *transfers*.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro import _domain
from repro.cosim.bus import SlaveHandler
from repro.cosim.kernel import Process, Resource, SimulationError, Simulator
from repro.cosim.signals import Clock, Signal, Trace
from repro.cosim.trace import PIN


class PinBus:
    """The physical wires of the system bus plus the master-side grant.

    Signals: ``addr``, ``wdata``, ``rdata`` (word-wide, modeled as ints),
    ``req``, ``wr``, ``ack`` (single-bit).  One clock drives everything.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: Clock,
        name: str = "pinbus",
        trace: Optional[Trace] = None,
    ) -> None:
        self.sim = sim
        self.clk = clock
        self.name = name
        self.addr = Signal(sim, f"{name}.addr", trace=trace)
        self.wdata = Signal(sim, f"{name}.wdata", trace=trace)
        self.rdata = Signal(sim, f"{name}.rdata", trace=trace)
        self.req = Signal(sim, f"{name}.req", trace=trace)
        self.wr = Signal(sim, f"{name}.wr", trace=trace)
        self.ack = Signal(sim, f"{name}.ack", trace=trace)
        self.grant = Resource(sim, f"{name}.grant")
        self.word_transfers = 0


class PinBusMaster:
    """A bus master driving the handshake protocol.

    Per word: win arbitration, present address/data/command on a rising
    clock edge, hold ``req`` until the selected slave raises ``ack``,
    latch read data, drop ``req``, and wait for ``ack`` to fall.  Minimum
    cost is two clock cycles per word plus arbitration.
    """

    def __init__(self, bus: PinBus, name: str = "master") -> None:
        self.bus = bus
        self.name = name
        self.transfers = 0

    def read(self, addr: int) -> Generator:
        """Generator: read one word; returns the value."""
        return (yield from self._word(addr, 0, False))

    def write(self, addr: int, value: int) -> Generator:
        """Generator: write one word."""
        yield from self._word(addr, value, True)

    def _word(self, addr: int, value: int, is_write: bool) -> Generator:
        bus = self.bus
        started = bus.sim.now
        yield from bus.grant.acquire()
        try:
            yield from bus.clk.rising_edge()
            bus.addr.set(addr)
            bus.wr.set(1 if is_write else 0)
            if is_write:
                bus.wdata.set(value)
            bus.req.set(1)
            while not bus.ack.value:
                yield from bus.clk.rising_edge()
            result = bus.rdata.value
            bus.req.set(0)
            while bus.ack.value:
                yield from bus.clk.rising_edge()
            bus.word_transfers += 1
            self.transfers += 1
            if bus.sim.tracer is not None:
                bus.sim.tracer.emit(
                    PIN, f"{bus.name}.{self.name}", addr=addr,
                    write=is_write, duration=bus.sim.now - started,
                )
                bus.sim.tracer.metrics.counter(
                    f"pin.{bus.name}.word_transfers"
                ).inc()
            return result
        finally:
            bus.grant.release()

    def burst_write(self, addr: int, values: List[int]) -> Generator:
        """Generator: write consecutive words (re-arbitrating per word, as
        the simple handshake protocol requires)."""
        for i, v in enumerate(values):
            yield from self.write(addr + i, v)

    def burst_read(self, addr: int, words: int) -> Generator:
        """Generator: read consecutive words; returns the list."""
        out = []
        for i in range(words):
            out.append((yield from self.read(addr + i)))
        return out


class PinBusSlave:
    """An address-decoded slave that serves the handshake protocol.

    ``wait_states`` extra clock cycles elapse between decode and ``ack``,
    modeling slow devices.  The handler has the same signature as the
    transaction-level :data:`repro.cosim.bus.SlaveHandler`, so the *same
    device logic* can be mounted at either abstraction level — the point
    of experiment E3.
    """

    def __init__(
        self,
        bus: PinBus,
        name: str,
        base: int,
        size: int,
        handler: SlaveHandler,
        wait_states: int = 0,
    ) -> None:
        _domain.count("base", base)
        _domain.count("size", size, 1)
        _domain.count("wait_states", wait_states)
        self.bus = bus
        self.name = name
        self.base = base
        self.size = size
        self.handler = handler
        self.wait_states = wait_states
        self.serviced = 0
        self.process: Process = bus.sim.process(
            self._serve(), name=f"{name}.pins"
        )

    def contains(self, addr: int) -> bool:
        """Address decode."""
        return self.base <= addr < self.base + self.size

    def _serve(self) -> Generator:
        bus = self.bus
        while True:
            yield from bus.clk.rising_edge()
            if not (bus.req.value and self.contains(bus.addr.value)):
                continue
            for _ in range(self.wait_states):
                yield from bus.clk.rising_edge()
            offset = bus.addr.value - self.base
            if bus.wr.value:
                self.handler(offset, bus.wdata.value, True)
            else:
                bus.rdata.set(self.handler(offset, 0, False))
            bus.ack.set(1)
            while bus.req.value:
                yield from bus.clk.rising_edge()
            bus.ack.set(0)
            self.serviced += 1


def run_until_complete(
    sim: Simulator,
    processes: List[Process],
    limit: float = 1e9,
) -> float:
    """Step the simulation until every process in ``processes`` has
    terminated (or ``limit`` model time is reached).

    Needed for pin-level models whose free-running clock would otherwise
    keep the event queue non-empty forever.
    """
    while any(p.alive for p in processes):
        if sim.now > limit:
            raise SimulationError(
                f"simulation exceeded time limit {limit}; "
                f"still alive: {[p.name for p in processes if p.alive]}"
            )
        if not sim.step():
            raise SimulationError(
                "deadlock: event queue drained with processes still alive"
            )
    return sim.now
