"""Differential tests for the register rung's direct access path.

A :class:`Backplane` plays an access to a :class:`RegisterAdapter`
mount whose device keeps :class:`RegisterDevice`'s own ``read`` and
``write`` as one wait and :meth:`RegisterDevice.complete`, without the
adapter's generators.  The reference is the same devices with ``read``
and ``write`` the standalone generators they were before that path
existed (``_Generic``), which the backplane can only run through the
adapter.  Hypothesis draws programs of loads, stores and ALU ops over
two register devices, a message window and RAM, the access times, the
clock period, the batch size, when a producer pushes FIFO words, the
horizons, a window wider than its device (an out-of-range register)
and a tracer.  Both paths must leave byte-identical tracer output and
identical errors, times (by ``repr``), activation and sequence counts,
pending wakeups, CPU, memory, device, channel and backplane state.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cosim.backplane import Backplane, MessageAdapter, RegisterAdapter
from repro.cosim.kernel import SimulationError, Simulator
from repro.cosim.msglevel import Channel
from repro.cosim.trace import Tracer
from repro.cosim.translevel import FifoDevice, InterruptLine, RegisterDevice
from repro.fault.scenarios import MacDevice
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa

FIFO, MAC, OUT, RAM = 0x200, 0x210, 0x220, 0x300


class _Generic:
    """``read`` and ``write`` as the standalone generators they were."""

    def read(self, index):
        self._check(index)
        yield self.sim.timeout(self.access_time)
        self.reads += 1
        if self.sim.tracer is not None:
            self._trace_access(index, False)
        return self.on_read(index)

    def write(self, index, value):
        self._check(index)
        yield self.sim.timeout(self.access_time)
        self.writes += 1
        if self.sim.tracer is not None:
            self._trace_access(index, True)
        self.on_write(index, value)


class GenericFifo(_Generic, FifoDevice):
    pass


class GenericMac(_Generic, MacDevice):
    pass


def build(generic, source, period, batch, fifo_time, mac_time, wide,
          pushes, tracer, plane_cls=Backplane):
    """A CPU running ``source`` against a FIFO, a MAC, a message window
    and RAM, a producer pushing ``pushes`` ((time, word) pairs) and a
    monitor draining the window."""
    sim = Simulator(tracer=Tracer() if tracer else None)
    isa = Isa()
    memory = Memory()
    memory.load_image(assemble(source, isa).image)
    plane = plane_cls(sim, Cpu(isa, memory), clock_period=period,
                      batch_instructions=batch)
    fifo = (GenericFifo if generic else FifoDevice)(
        sim, "rx", depth=4, access_time=fifo_time,
        irq=InterruptLine(sim, "rx.irq"))
    mac = (GenericMac if generic else MacDevice)(sim, "mac")
    mac.access_time = mac_time
    out = Channel(sim, "out", latency_per_message=3.0)
    plane.mount(FIFO, 3, RegisterAdapter(fifo))
    plane.mount(MAC, 5 if wide else 4, RegisterAdapter(mac))
    plane.mount(OUT, 1, MessageAdapter(to_hw=out))
    received = []

    def producer():
        at = 0.0
        for time, word in pushes:
            yield sim.timeout(time - at)
            at = time
            fifo.push(word)

    def monitor():
        while True:
            received.append((yield from out.receive()))

    sim.process(producer(), name="producer")
    sim.process(monitor(), name="monitor")
    plane.start()
    return sim, plane, (fifo, mac, out, received)


def state(sim, plane, parts):
    """Everything a model could see of the system."""
    fifo, mac, out, received = parts
    cpu = plane.cpu
    memory = cpu.memory

    def entries(lane):
        return sorted((seq, repr(when), proc.name, value, token)
                      for when, seq, proc, value, token in lane)

    return (
        repr(sim.now), sim.activations, sim._seq,
        [(p.name, p._token, p.alive) for p in sim.processes],
        entries(sim._queue), entries(sim._ready),
        cpu.pc, list(cpu.regs), cpu.halted, cpu.instr_count,
        cpu.cycle_count, cpu.pending_access,
        memory.loads, memory.stores, sorted(memory.ram.items()),
        plane.external_accesses, repr(plane.stall_time),
        fifo.reads, fifo.writes, list(fifo.fifo), list(fifo.regs),
        fifo.irq.pending, fifo.irq.assertions, repr(fifo.irq.total_latency),
        mac.reads, mac.writes, list(mac.regs),
        out.pending, list(received),
    )


def play(generic, system, horizons):
    """Run the system to each horizon; the state (or error) after each,
    then the tracer's JSON."""
    sim, plane, parts = build(generic, **system)
    assert [m.direct for m in plane._mounts] == [not generic] * 2 + [False]
    log = []
    for until in horizons:
        try:
            sim.run(until=until)
        except Exception as exc:  # the same error on both, or a bug
            log.append((type(exc).__name__, str(exc)))
        log.append(state(sim, plane, parts))
    if sim.tracer is not None:
        log.append(sim.tracer.to_json())
    return log


def source(ops):
    """Assembly for ``ops``, then a halt."""
    lines = []
    for op, reg, arg in ops:
        if op == "lw":
            lines.append(f"lw r{reg}, {arg}(r0)")
        elif op == "sw":
            lines.append(f"sw r{reg}, {arg}(r0)")
        elif op == "addi":
            lines.append(f"addi r{reg}, r{reg}, {arg}")
        elif op == "mul":
            lines.append(f"mul r{reg}, r{reg}, r{arg}")
        else:  # poll the FIFO's STATUS until a word is there
            lines += [f"p{len(lines)}: lw r{reg}, {FIFO + 1}(r0)",
                      f"andi r{reg}, r{reg}, 1",
                      f"beq r{reg}, r0, p{len(lines)}"]
    return "\n".join(lines + ["halt"])


#: device registers (the MAC's offset 4 exists only in a wide window),
#: the message window and RAM
READ_ADDRS = [FIFO, FIFO + 1, FIFO + 2, MAC, MAC + 1, MAC + 2, MAC + 3,
              MAC + 4, RAM]
WRITE_ADDRS = [FIFO, FIFO + 1, MAC, MAC + 1, MAC + 2, MAC + 3, MAC + 4,
               OUT, RAM]
reg_st = st.integers(1, 7)
op_st = st.one_of(
    st.tuples(st.just("lw"), reg_st, st.sampled_from(READ_ADDRS)),
    st.tuples(st.just("sw"), reg_st, st.sampled_from(WRITE_ADDRS)),
    st.tuples(st.just("addi"), reg_st, st.integers(-3, 9)),
    st.tuples(st.just("mul"), reg_st, reg_st),
    st.tuples(st.just("poll"), reg_st, st.none()),
)
TIMES = [0.0, 0.7, 2.0, 3.3, 41.0]
system_st = st.fixed_dictionaries({
    "source": st.lists(op_st, min_size=1, max_size=24).map(source),
    "period": st.sampled_from([10.0, 0.3, 7.1]),
    "batch": st.integers(1, 8),
    "fifo_time": st.sampled_from(TIMES),
    "mac_time": st.sampled_from(TIMES),
    "wide": st.booleans(),
    "pushes": st.lists(st.tuples(st.sampled_from([5.0, 60.0, 333.3]),
                                 st.integers(0, 9)),
                       max_size=5).map(sorted),
    "tracer": st.booleans(),
})
horizons_st = st.lists(
    st.sampled_from([0.0, 13.7, 250.0, 1000.0, 5000.0]),
    min_size=1, max_size=3).map(sorted)


class TestDirectMatchesAdapter:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(system=system_st, horizons=horizons_st)
    # the coproc shape: a poll, a DATA pop, MAC writes and a send
    @example(system=dict(
        source=source([("poll", 1, None), ("lw", 1, FIFO),
                       ("sw", 1, MAC), ("addi", 2, 1), ("sw", 2, MAC + 3),
                       ("lw", 3, MAC + 2), ("sw", 3, OUT)]),
        period=10.0, batch=4, fifo_time=2.0, mac_time=2.0, wide=False,
        pushes=[(60.0, 7)], tracer=True), horizons=[5000.0])
    # a wide window's out-of-range register raises on both paths
    @example(system=dict(
        source=source([("sw", 1, MAC + 4)]), period=10.0, batch=1,
        fifo_time=2.0, mac_time=2.0, wide=True, pushes=[], tracer=False),
        horizons=[1000.0])
    def test_direct_path_matches_adapter_path(self, system, horizons):
        assert play(False, system, horizons) == \
            play(True, system, horizons)


@pytest.mark.parametrize("make,direct", [
    (lambda sim: RegisterDevice(sim, "d", 4), True),
    (FifoDevice, True), (MacDevice, True),
    (GenericFifo, False), (GenericMac, False),
])
def test_only_stock_read_and_write_go_direct(make, direct):
    sim = Simulator()
    plane = Backplane(sim, Cpu(Isa(), Memory()))
    plane.mount(0x100, 3, RegisterAdapter(make(sim)))
    assert plane._mounts[0].direct is direct


def test_a_subclass_adapter_is_not_direct():
    class Logged(RegisterAdapter):
        pass

    sim = Simulator()
    plane = Backplane(sim, Cpu(Isa(), Memory()))
    plane.mount(0x100, 4, Logged(RegisterDevice(sim, "d", 4)))
    assert plane._mounts[0].direct is False
    assert plane._mounts[0].device is None


def test_mounts_resolve_in_any_order():
    """Mounts added out of address order each resolve to their own
    adapter, and an address between windows resolves to none."""
    sim = Simulator()
    plane = Backplane(sim, Cpu(Isa(), Memory()))
    adapters = {}
    for base in (0x300, 0x100, 0x200, 0):
        adapters[base] = RegisterAdapter(RegisterDevice(sim, f"d{base}", 4))
        plane.mount(base, 4, adapters[base])
    for base, adapter in adapters.items():
        for addr in range(base, base + 4):
            assert plane._find(addr).adapter is adapter
    for addr in (4, 0xFF, 0x104, 0x304, 1 << 31):
        with pytest.raises(SimulationError, match="no adapter mounted"):
            plane._find(addr)


def test_one_timeout_per_delay():
    """The driver yields one Timeout object per distinct delay."""
    yielded = []

    class Recording(Backplane):
        def _drive(self):
            gen = Backplane._drive(self)
            got = None
            while True:
                try:
                    command = gen.send(got)
                except StopIteration as stop:
                    return stop.value
                yielded.append(command)
                got = yield command

    system = dict(
        source=source([("poll", 1, None), ("lw", 1, FIFO), ("sw", 1, MAC),
                       ("sw", 1, MAC + 3), ("lw", 2, MAC + 2)] * 3),
        period=10.0, batch=2, fifo_time=2.0, mac_time=2.0, wide=False,
        pushes=[(5.0, 1), (60.0, 2), (333.3, 3)], tracer=False)
    sim, plane, _parts = build(False, plane_cls=Recording, **system)
    sim.run(until=5000.0)
    assert plane.cpu.halted and plane.external_accesses > 12
    by_delay = {}
    for command in yielded:
        by_delay.setdefault(command.delay, set()).add(id(command))
    assert len(yielded) > 2 * len(by_delay) >= 4
    assert all(len(ids) == 1 for ids in by_delay.values())
