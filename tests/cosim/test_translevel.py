"""Tests for register/interrupt-level devices."""

import pytest

from repro.cosim.kernel import SimulationError, Simulator
from repro.cosim.translevel import FifoDevice, InterruptLine, RegisterDevice


class TestInterruptLine:
    def test_assert_wakes_waiter(self):
        sim = Simulator()
        irq = InterruptLine(sim)
        log = []

        def handler():
            yield from irq.wait()
            log.append(sim.now)
            irq.acknowledge()

        def device():
            yield sim.timeout(6.0)
            irq.assert_()

        sim.process(handler())
        sim.process(device())
        sim.run()
        assert log == [6.0]
        assert not irq.pending

    def test_wait_on_pending_is_immediate(self):
        sim = Simulator()
        irq = InterruptLine(sim)
        irq.assert_()
        log = []

        def handler():
            yield sim.timeout(1.0)
            yield from irq.wait()
            log.append(sim.now)

        sim.process(handler())
        sim.run()
        assert log == [1.0]

    def test_assert_is_idempotent_while_pending(self):
        sim = Simulator()
        irq = InterruptLine(sim)
        irq.assert_()
        irq.assert_()
        assert irq.assertions == 1

    def test_ack_idle_rejected(self):
        sim = Simulator()
        irq = InterruptLine(sim)
        with pytest.raises(SimulationError):
            irq.acknowledge()

    def test_latency_accounting(self):
        sim = Simulator()
        irq = InterruptLine(sim)

        def device():
            yield sim.timeout(2.0)
            irq.assert_()

        def handler():
            yield from irq.wait()
            yield sim.timeout(5.0)
            irq.acknowledge()

        sim.process(device())
        sim.process(handler())
        sim.run()
        assert irq.mean_latency == pytest.approx(5.0)


class TestRegisterDevice:
    def test_read_write_with_latency(self):
        sim = Simulator()
        dev = RegisterDevice(sim, "dev", n_registers=4, access_time=3.0)
        got = []

        def proc():
            yield from dev.write(2, 99)
            value = yield from dev.read(2)
            got.append((value, sim.now))

        sim.process(proc())
        sim.run()
        assert got == [(99, 6.0)]
        assert dev.accesses == 2

    @pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
    def test_access_time_must_be_finite_and_non_negative(self, value):
        """Such a device used to fail only at its first access, from
        the kernel's Timeout."""
        with pytest.raises(ValueError, match="access_time"):
            RegisterDevice(Simulator(), "dev", 4, access_time=value)

    def test_only_declared_registers_are_pure(self):
        """A device declares no side-effect-free register unless it
        opts in; a FIFO declares STATUS and LEVEL, not DATA (a pop)."""
        assert RegisterDevice.PURE_READS == frozenset()
        assert FifoDevice.PURE_READS == {FifoDevice.STATUS,
                                         FifoDevice.LEVEL}

    def test_out_of_range_register(self):
        sim = Simulator()
        dev = RegisterDevice(sim, "dev", n_registers=2)

        def proc():
            yield from dev.read(5)

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestFifoDevice:
    def test_push_sets_status_and_irq(self):
        sim = Simulator()
        irq = InterruptLine(sim)
        dev = FifoDevice(sim, depth=2, irq=irq)
        assert dev.on_read(FifoDevice.STATUS) == 0
        dev.push(5)
        assert irq.pending
        assert dev.on_read(FifoDevice.STATUS) == 1
        dev.push(6)
        assert dev.on_read(FifoDevice.STATUS) == 3  # not-empty | full

    def test_overrun_counted(self):
        sim = Simulator()
        dev = FifoDevice(sim, depth=1)
        assert dev.push(1)
        assert not dev.push(2)
        assert dev.overruns == 1

    def test_data_read_pops_and_clears_irq_when_empty(self):
        sim = Simulator()
        irq = InterruptLine(sim)
        dev = FifoDevice(sim, depth=4, irq=irq)
        dev.push(10)
        dev.push(20)
        got = []

        def consumer():
            while True:
                status = yield from dev.read(FifoDevice.STATUS)
                if not status & 1:
                    break
                got.append((yield from dev.read(FifoDevice.DATA)))

        sim.process(consumer())
        sim.run()
        assert got == [10, 20]
        assert not irq.pending

    def test_write_to_readonly_register_rejected(self):
        sim = Simulator()
        dev = FifoDevice(sim)

        def proc():
            yield from dev.write(FifoDevice.STATUS, 1)

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_level_register(self):
        sim = Simulator()
        dev = FifoDevice(sim, depth=8)
        for i in range(3):
            dev.push(i)
        assert dev.on_read(FifoDevice.LEVEL) == 3
