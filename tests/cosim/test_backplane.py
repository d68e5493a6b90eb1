"""Backplane tests: the CPU coupled to hardware at all four levels."""

import pytest

from repro.cosim.backplane import (
    Backplane,
    MessageAdapter,
    PinLevelAdapter,
    RegisterAdapter,
    TransactionAdapter,
)
from repro.cosim.bus import SystemBus
from repro.cosim.kernel import SimulationError, Simulator
from repro.cosim.msglevel import Channel
from repro.cosim.pinlevel import (
    PinBus,
    PinBusMaster,
    PinBusSlave,
    run_until_complete,
)
from repro.cosim.signals import Clock
from repro.cosim.translevel import RegisterDevice
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa

LOOPBACK_PROGRAM = """
    li  r1, 5
    sw  r1, 0x800(r0)
    lw  r2, 0x800(r0)
    sw  r2, 0x400(r0)      ; result to plain RAM for checking
    halt
"""


def make_cpu(text):
    isa = Isa()
    prog = assemble(text, isa)
    mem = Memory()
    mem.load_image(prog.image)
    return Cpu(isa, mem)


def run_backplane(adapter_factory, program=LOOPBACK_PROGRAM):
    sim = Simulator()
    cpu = make_cpu(program)
    bp = Backplane(sim, cpu, clock_period=10.0)
    adapter = adapter_factory(sim)
    bp.mount(0x800, 16, adapter)
    proc = bp.start()
    run_until_complete(sim, [proc], limit=1e7)
    assert cpu.halted, "CPU did not halt"
    return sim, cpu, bp


def register_factory(sim):
    return RegisterAdapter(RegisterDevice(sim, "dev", 16, access_time=2.0))


def transaction_factory(sim):
    bus = SystemBus(sim, arbitration_time=1.0, setup_time=1.0, word_time=2.0)
    store = [0] * 16

    def ram(offset, value, is_write):
        if is_write:
            store[offset] = value
            return 0
        return store[offset]

    bus.attach_slave("ram", 0x800, 16, ram)
    return TransactionAdapter(bus, 0x800)


def pin_factory(sim):
    clk = Clock(sim, period=10.0)
    bus = PinBus(sim, clk)
    store = [0] * 16

    def ram(offset, value, is_write):
        if is_write:
            store[offset] = value
            return 0
        return store[offset]

    PinBusSlave(bus, "ram", base=0x800, size=16, handler=ram)
    return PinLevelAdapter(PinBusMaster(bus), base=0x800)


LEVELS = {
    "register": register_factory,
    "transaction": transaction_factory,
    "pin": pin_factory,
}


class TestFunctionalEquivalence:
    """E12: functional verification works at every abstraction level."""

    @pytest.mark.parametrize("level", sorted(LEVELS))
    def test_loopback_result_identical(self, level):
        _sim, cpu, _bp = run_backplane(LEVELS[level])
        assert cpu.memory.ram[0x400] == 5
        assert cpu.get_reg(2) == 5


class TestTimingLadder:
    """Figure 3: lower levels cost more time and more events."""

    def collect(self):
        stats = {}
        for level, factory in LEVELS.items():
            sim, cpu, bp = run_backplane(factory)
            stats[level] = (sim.now, sim.activations, bp.stall_time)
        return stats

    def test_pin_level_slowest_and_most_events(self):
        stats = self.collect()
        assert stats["pin"][0] > stats["transaction"][0]
        assert stats["pin"][1] > stats["transaction"][1]
        assert stats["pin"][1] > stats["register"][1]

    def test_stall_time_reflects_interface_cost(self):
        stats = self.collect()
        assert stats["pin"][2] > stats["transaction"][2] > 0
        assert stats["register"][2] > 0


class TestMessageLevel:
    def test_send_receive_with_echo_hardware(self):
        program = """
            li  r1, 10
            sw  r1, 0x900(r0)   ; send to HW
            lw  r2, 0x900(r0)   ; receive from HW
            sw  r2, 0x400(r0)
            halt
        """
        sim = Simulator()
        cpu = make_cpu(program)
        bp = Backplane(sim, cpu, clock_period=10.0)
        to_hw = Channel(sim, "to_hw")
        from_hw = Channel(sim, "from_hw")
        bp.mount(0x900, 4, MessageAdapter(to_hw=to_hw, from_hw=from_hw))

        def hardware():
            item = yield from to_hw.receive()
            yield from from_hw.send(item * 3)

        sim.process(hardware(), name="hw")
        bp.start()
        sim.run(until=1e6)
        assert cpu.halted
        assert cpu.memory.ram[0x400] == 30

    def test_write_to_receive_only_window_faults(self):
        sim = Simulator()
        cpu = make_cpu("sw r1, 0x900(r0)\nhalt")
        bp = Backplane(sim, cpu)
        bp.mount(0x900, 4, MessageAdapter(from_hw=Channel(sim, "c")))
        bp.start()
        with pytest.raises(SimulationError):
            sim.run(until=1e6)

    def test_adapter_requires_a_channel(self):
        with pytest.raises(ValueError):
            MessageAdapter()


class TestBackplaneMechanics:
    def test_unmounted_external_access_faults(self):
        sim = Simulator()
        cpu = make_cpu("sw r1, 0x800(r0)\nhalt")
        cpu.memory.add_region("ext", 0x800, 4, external=True)
        bp = Backplane(sim, cpu)
        bp.start()
        with pytest.raises(SimulationError):
            sim.run(until=1e6)

    def test_double_start_rejected(self):
        sim = Simulator()
        cpu = make_cpu("halt")
        bp = Backplane(sim, cpu)
        bp.start()
        with pytest.raises(SimulationError):
            bp.start()

    def test_bad_batch_size_rejected(self):
        sim = Simulator()
        cpu = make_cpu("halt")
        with pytest.raises(ValueError):
            Backplane(sim, cpu, batch_instructions=0)

    @pytest.mark.parametrize("batch", [
        float("nan"), 2.5, float("inf"), True, "4", 4.0,
    ])
    def test_batch_size_must_be_an_int(self, batch):
        """A NaN budget used to pass the ``< 1`` check and spin the
        driver without ever yielding; a fractional one ran fractional
        budgets.  Each is rejected, naming the field."""
        with pytest.raises(ValueError, match="batch_instructions"):
            Backplane(Simulator(), make_cpu("halt"),
                      batch_instructions=batch)

    def test_batching_preserves_functionality(self):
        results = []
        for batch in (1, 16):
            sim = Simulator()
            cpu = make_cpu(LOOPBACK_PROGRAM)
            bp = Backplane(sim, cpu, clock_period=10.0,
                           batch_instructions=batch)
            bp.mount(0x800, 16, register_factory(sim))
            bp.start()
            sim.run(until=1e6)
            results.append((cpu.memory.ram[0x400], cpu.cycle_count))
        assert results[0][0] == results[1][0] == 5

    def test_batching_reduces_activations(self):
        counts = []
        program = "\n".join(["addi r1, r1, 1"] * 100) + "\nhalt"
        for batch in (1, 32):
            sim = Simulator()
            cpu = make_cpu(program)
            bp = Backplane(sim, cpu, batch_instructions=batch)
            bp.start()
            sim.run(until=1e7)
            counts.append(sim.activations)
        assert counts[1] < counts[0] / 4

    def test_cpu_cycles_include_interface_stalls(self):
        def slow_register_factory(sim):
            return RegisterAdapter(
                RegisterDevice(sim, "dev", 16, access_time=50.0)
            )

        _sim, cpu_reg, _bp = run_backplane(slow_register_factory)
        # pure-software run of the same program with the window as RAM
        cpu_sw = make_cpu(LOOPBACK_PROGRAM)
        cpu_sw.run()
        assert cpu_reg.cycle_count > cpu_sw.cycle_count

    def test_external_access_counter(self):
        _sim, _cpu, bp = run_backplane(register_factory)
        assert bp.external_accesses == 2  # one sw + one lw


class TestInterruptCoupling:
    def test_device_interrupt_reaches_handler(self):
        program = """
                addi r1, r0, 0
            loop:
                addi r1, r1, 1
                addi r2, r0, 200
                bne  r1, r2, loop
                halt
            .org 0x40
            handler:
                addi r5, r5, 1
                reti
        """
        sim = Simulator()
        cpu = make_cpu(program)
        bp = Backplane(sim, cpu, clock_period=10.0)

        def device():
            yield sim.timeout(500.0)
            bp.irq()

        sim.process(device(), name="device")
        bp.start()
        sim.run(until=1e6)
        assert cpu.halted
        assert cpu.get_reg(5) == 1
        assert cpu.irq_count == 1
