"""Tests for message-level (send/receive/wait) channels."""

import pytest

from repro.cosim.kernel import Simulator
from repro.cosim.msglevel import Channel, Mailbox


class TestUnboundedChannel:
    def test_fifo_order(self):
        sim = Simulator()
        chan = Channel(sim, "c")
        got = []

        def producer():
            for i in range(5):
                yield from chan.send(i)

        def consumer():
            for _ in range(5):
                item = yield from chan.receive()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_receive_blocks_until_send(self):
        sim = Simulator()
        chan = Channel(sim, "c")
        got = []

        def consumer():
            item = yield from chan.receive()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(9.0)
            yield from chan.send("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 9.0)]

    def test_send_never_blocks(self):
        sim = Simulator()
        chan = Channel(sim, "c")

        def producer():
            for i in range(100):
                yield from chan.send(i)
            return sim.now

        proc = sim.process(producer())
        sim.run()
        assert proc.result == 0.0
        assert chan.pending == 100


class TestBoundedChannel:
    def test_send_blocks_when_full(self):
        sim = Simulator()
        chan = Channel(sim, "c", capacity=2)
        log = []

        def producer():
            for i in range(3):
                yield from chan.send(i)
                log.append(("sent", i, sim.now))

        def consumer():
            yield sim.timeout(10.0)
            item = yield from chan.receive()
            log.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        sent_times = {i: t for op, i, t in log if op == "sent"}
        assert sent_times[0] == 0.0
        assert sent_times[1] == 0.0
        assert sent_times[2] == 10.0  # blocked until the consumer drained one

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Channel(Simulator(), capacity=-1)

    @pytest.mark.parametrize("capacity", [float("nan"), 1.5, True, "2"])
    def test_capacity_must_be_none_or_an_int(self, capacity):
        """A NaN capacity used to behave as unbounded, 1.5 as 2 and
        True as 1; a string failed in the first comparison."""
        with pytest.raises(ValueError, match="capacity"):
            Channel(Simulator(), capacity=capacity)


class TestRendezvous:
    def test_sender_blocks_until_receiver(self):
        sim = Simulator()
        chan = Channel(sim, "c", capacity=0)
        log = []

        def producer():
            yield from chan.send("x")
            log.append(("send done", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield from chan.receive()
            log.append(("received", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("received", "x", 5.0) in log
        assert ("send done", 5.0) in log

    def test_receiver_first_rendezvous(self):
        sim = Simulator()
        chan = Channel(sim, "c", capacity=0)
        got = []

        def consumer():
            item = yield from chan.receive()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(3.0)
            yield from chan.send("y")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("y", 3.0)]


class TestLatencyModel:
    def test_message_latency_applied(self):
        sim = Simulator()
        chan = Channel(sim, "c", latency_per_message=4.0, latency_per_word=0.5)
        got = []

        def producer():
            yield from chan.send("data", words=8)

        def consumer():
            item = yield from chan.receive()
            got.append((item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [("data", 8.0)]  # 4 + 8*0.5

    def test_transfer_delay_formula(self):
        chan = Channel(Simulator(), latency_per_message=2.0,
                       latency_per_word=3.0)
        assert chan.transfer_delay(10) == pytest.approx(32.0)

    @pytest.mark.parametrize("value", [float("nan"), -5.0, float("inf")])
    def test_latency_per_message_must_be_finite_and_non_negative(
            self, value):
        """NaN and negative latencies used to deliver with no latency
        at all (``send`` skips a delay that is not > 0)."""
        with pytest.raises(ValueError, match="latency_per_message"):
            Channel(Simulator(), latency_per_message=value)

    @pytest.mark.parametrize("value", [float("nan"), -5.0, float("inf")])
    def test_latency_per_word_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="latency_per_word"):
            Channel(Simulator(), latency_per_word=value)


class TestWait:
    def test_wait_does_not_consume(self):
        sim = Simulator()
        chan = Channel(sim, "c")
        log = []

        def watcher():
            yield from chan.wait()
            log.append(("woke", sim.now, chan.pending))

        def producer():
            yield sim.timeout(2.0)
            yield from chan.send("m")

        sim.process(watcher())
        sim.process(producer())
        sim.run()
        assert log == [("woke", 2.0, 1)]

    def test_wait_on_nonempty_returns_immediately(self):
        sim = Simulator()
        chan = Channel(sim, "c")
        log = []

        def producer():
            yield from chan.send("m")

        def watcher():
            yield sim.timeout(1.0)
            yield from chan.wait()
            log.append(sim.now)

        sim.process(producer())
        sim.process(watcher())
        sim.run()
        assert log == [1.0]


class TestMailbox:
    def test_channel_created_once(self):
        sim = Simulator()
        box = Mailbox(sim)
        a = box.channel("ctrl", capacity=4)
        b = box.channel("ctrl")
        assert a is b
        assert a.capacity == 4
        assert len(list(box)) == 1

    def test_counting(self):
        sim = Simulator()
        chan = Channel(sim, "c")

        def producer():
            yield from chan.send(1)
            yield from chan.send(2)

        def consumer():
            yield from chan.receive()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert chan.sent == 2
        assert chan.received == 1
        assert chan.pending == 1
