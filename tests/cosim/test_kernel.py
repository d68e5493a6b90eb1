"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.cosim.kernel import (
    AnyOf,
    Event,
    HangDetected,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Timeout,
    Watchdog,
    _Leap,
)


class TestTimeouts:
    def test_single_timeout_advances_time(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(5.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [5.0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_timeout_delivers_value(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield Timeout(1.0, "hello")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["hello"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []

        def proc(tag):
            yield sim.timeout(3.0)
            log.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_run_until_stops_early(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        final = sim.run(until=10.0)
        assert final == 10.0
        # the pending timeout still fires on a later run
        sim.run()
        assert sim.now == 100.0

    def test_run_until_in_past_never_rewinds_time(self):
        """Regression: run(until < now) used to assign now = until,
        moving model time backwards."""
        sim = Simulator()

        def proc():
            yield sim.timeout(50.0)
            yield sim.timeout(50.0)

        sim.process(proc())
        sim.run(until=60.0)
        assert sim.now == 60.0
        # a stale horizon must be a no-op, not a time machine
        assert sim.run(until=10.0) == 60.0
        assert sim.now == 60.0
        # and the simulation still completes correctly afterwards
        sim.run()
        assert sim.now == 100.0

    def test_run_until_in_past_with_empty_queue(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)

        sim.process(proc())
        sim.run()
        assert sim.now == 5.0
        assert sim.run(until=1.0) == 5.0
        assert sim.now == 5.0


class TestEvents:
    def test_event_wakes_all_waiters_with_value(self):
        sim = Simulator()
        ev = sim.event("go")
        got = []

        def waiter(tag):
            v = yield ev
            got.append((tag, v, sim.now))

        def firer():
            yield sim.timeout(7.0)
            ev.succeed(42)

        sim.process(waiter("w1"))
        sim.process(waiter("w2"))
        sim.process(firer())
        sim.run()
        assert got == [("w1", 42, 7.0), ("w2", 42, 7.0)]

    def test_waiting_on_triggered_event_returns_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("past")
        got = []

        def waiter():
            v = yield ev
            got.append((v, sim.now))

        sim.process(waiter())
        sim.run()
        assert got == [("past", 0.0)]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def proc():
            yield "not a waitable"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestProcessJoin:
    def test_join_receives_return_value(self):
        sim = Simulator()
        got = []

        def child():
            yield sim.timeout(4.0)
            return "result"

        def parent():
            proc = sim.process(child(), name="child")
            value = yield proc
            got.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert got == [("result", 4.0)]

    def test_join_finished_process_is_immediate(self):
        sim = Simulator()
        got = []

        def child():
            return "early"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child(), name="child")
            yield sim.timeout(10.0)
            value = yield proc
            got.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert got == [("early", 10.0)]

    def test_alive_flag(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)

        proc = sim.process(child())
        assert proc.alive
        sim.run()
        assert not proc.alive


class TestAnyOf:
    def test_anyof_returns_first_event(self):
        sim = Simulator()
        fast = sim.event("fast")
        slow = sim.event("slow")
        got = []

        def racer():
            event, value = yield AnyOf([slow, fast])
            got.append((event.name, value, sim.now))

        def driver():
            yield sim.timeout(2.0)
            fast.succeed("f")
            yield sim.timeout(2.0)
            slow.succeed("s")

        sim.process(racer())
        sim.process(driver())
        sim.run()
        assert got == [("fast", "f", 2.0)]

    def test_anyof_requires_events(self):
        with pytest.raises(SimulationError):
            AnyOf([])

    def test_anyof_prunes_callbacks_on_losing_events(self):
        """Regression: callbacks registered on events that lose the race
        used to accumulate for the life of the run."""
        sim = Simulator()
        never = sim.event("never")  # loses every race

        def racer(rounds):
            for _ in range(rounds):
                winner = sim.event()
                sim.process(firer(winner))
                yield AnyOf([never, winner])

        def firer(ev):
            yield sim.timeout(1.0)
            ev.succeed()

        sim.process(racer(20))
        sim.run()
        assert len(never._callbacks) == 0

    def test_anyof_with_already_triggered_event_does_not_register(self):
        sim = Simulator()
        fired = sim.event("fired")
        fired.succeed("x")
        pending = sim.event("pending")
        got = []

        def racer():
            event, value = yield AnyOf([pending, fired])
            got.append((event.name, value))

        sim.process(racer())
        sim.run()
        assert got == [("fired", "x")]
        # the losing pending event keeps no dead closure
        assert len(pending._callbacks) == 0


class TestInterrupt:
    def test_interrupt_preempts_timeout(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
                log.append("slept full")
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, sim.now))
                yield sim.timeout(5.0)
                log.append(("resumed", sim.now))

        def interrupter(target):
            yield sim.timeout(10.0)
            target.interrupt("wakeup")

        proc = sim.process(sleeper())
        sim.process(interrupter(proc))
        sim.run()
        assert log == [("interrupted", "wakeup", 10.0), ("resumed", 15.0)]

    def test_stale_timeout_does_not_double_wake(self):
        """After an interrupt, the abandoned timeout must not resume the
        process a second time."""
        sim = Simulator()
        wakes = []

        def sleeper():
            try:
                yield sim.timeout(50.0)
            except Interrupt:
                pass
            wakes.append(sim.now)
            yield sim.timeout(100.0)
            wakes.append(sim.now)

        def interrupter(target):
            yield sim.timeout(10.0)
            target.interrupt()

        proc = sim.process(sleeper())
        sim.process(interrupter(proc))
        sim.run()
        assert wakes == [10.0, 110.0]

    def test_unhandled_interrupt_kills_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        def interrupter(target):
            yield sim.timeout(1.0)
            target.interrupt()

        proc = sim.process(sleeper())
        sim.process(interrupter(proc))
        sim.run()
        assert not proc.alive

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        proc = sim.process(quick())
        sim.run()
        proc.interrupt()  # must not raise
        sim.run()


class TestResource:
    def test_mutual_exclusion_and_fifo_order(self):
        sim = Simulator()
        res = Resource(sim, "bus")
        log = []

        def user(tag, hold):
            yield from res.acquire()
            log.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            log.append((tag, "out", sim.now))
            res.release()

        sim.process(user("a", 5.0))
        sim.process(user("b", 3.0))
        sim.process(user("c", 1.0))
        sim.run()
        assert log == [
            ("a", "in", 0.0), ("a", "out", 5.0),
            ("b", "in", 5.0), ("b", "out", 8.0),
            ("c", "in", 8.0), ("c", "out", 9.0),
        ]

    def test_no_barging_on_handoff(self):
        """A process that calls acquire at the moment of release must not
        jump ahead of an already-queued waiter."""
        sim = Simulator()
        res = Resource(sim, "r")
        order = []

        def holder():
            yield from res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield sim.timeout(1.0)
            yield from res.acquire()
            order.append(("waiter", sim.now))
            yield sim.timeout(5.0)
            res.release()

        def barger():
            yield sim.timeout(10.0)  # arrives exactly at release time
            yield from res.acquire()
            order.append(("barger", sim.now))
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.process(barger())
        sim.run()
        assert order[0][0] == "waiter"

    def test_release_idle_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_wait_accounting(self):
        sim = Simulator()
        res = Resource(sim)

        def first():
            yield from res.acquire()
            yield sim.timeout(8.0)
            res.release()

        def second():
            yield from res.acquire()
            res.release()

        sim.process(first())
        sim.process(second())
        sim.run()
        assert res.total_wait == pytest.approx(8.0)
        assert res.acquisitions == 2


class TestResourceInterrupt:
    """Regression tests for the grant-leak deadlock: an interrupted
    waiter used to leave its stale gate queued; release() would succeed
    it, the wakeup was dropped as stale, and the resource stayed busy
    forever."""

    def test_interrupted_waiter_does_not_leak_the_grant(self):
        sim = Simulator()
        res = Resource(sim, "r")
        log = []

        def holder():
            yield from res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def victim():
            yield sim.timeout(1.0)
            try:
                yield from res.acquire()
                log.append("victim acquired")  # pragma: no cover
            except Interrupt:
                log.append(("victim interrupted", sim.now))

        def survivor():
            yield sim.timeout(2.0)
            yield from res.acquire()
            log.append(("survivor acquired", sim.now))
            res.release()

        def interrupter(target):
            yield sim.timeout(5.0)
            target.interrupt()

        sim.process(holder())
        v = sim.process(victim())
        sim.process(survivor())
        sim.process(interrupter(v))
        sim.run()
        assert ("victim interrupted", 5.0) in log
        # the grant must reach the next live waiter at release time
        assert ("survivor acquired", 10.0) in log
        assert not res.busy

    def test_interrupted_sole_waiter_frees_resource_on_release(self):
        sim = Simulator()
        res = Resource(sim, "r")

        def holder():
            yield from res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def victim():
            yield sim.timeout(1.0)
            yield from res.acquire()  # dies on the unhandled interrupt

        def interrupter(target):
            yield sim.timeout(5.0)
            target.interrupt()

        sim.process(holder())
        v = sim.process(victim())
        sim.process(interrupter(v))
        sim.run()
        assert not v.alive
        assert not res.busy  # a later acquire would succeed immediately

    def test_interrupt_after_handoff_regrants_to_next_waiter(self):
        """Interrupt landing in the same instant as the grant: ownership
        was already handed to the victim, so it must pass it on."""
        sim = Simulator()
        res = Resource(sim, "r")
        log = []

        def holder():
            yield from res.acquire()
            yield sim.timeout(5.0)
            res.release()  # hands off to victim at t=5

        def victim():
            yield sim.timeout(1.0)
            try:
                yield from res.acquire()
                log.append("victim acquired")  # pragma: no cover
            except Interrupt:
                log.append("victim interrupted")

        def next_in_line():
            yield sim.timeout(2.0)
            yield from res.acquire()
            log.append(("next acquired", sim.now))
            res.release()

        def interrupter(target):
            # fires at t=5, scheduled after holder's release wakeup: the
            # pending interrupt wins over the grant delivery
            yield sim.timeout(5.0)
            target.interrupt()

        sim.process(holder())
        v = sim.process(victim())
        sim.process(next_in_line())
        sim.process(interrupter(v))
        sim.run()
        assert "victim interrupted" in log
        assert ("next acquired", 5.0) in log
        assert not res.busy

    def test_interrupted_waiter_can_reacquire_later(self):
        sim = Simulator()
        res = Resource(sim, "r")
        log = []

        def holder():
            yield from res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def persistent():
            yield sim.timeout(1.0)
            try:
                yield from res.acquire()
            except Interrupt:
                yield sim.timeout(20.0)  # back off, then retry
                yield from res.acquire()
                log.append(("reacquired", sim.now))
                res.release()

        def interrupter(target):
            yield sim.timeout(5.0)
            target.interrupt()

        sim.process(holder())
        p = sim.process(persistent())
        sim.process(interrupter(p))
        sim.run()
        assert log == [("reacquired", 25.0)]
        assert not res.busy


class TestResourceAccounting:
    """total_wait / acquisitions under contention and interruption."""

    def test_contended_waits_accumulate(self):
        sim = Simulator()
        res = Resource(sim, "r")

        def user(delay, hold):
            yield sim.timeout(delay)
            yield from res.acquire()
            yield sim.timeout(hold)
            res.release()

        # a: waits 0, holds [0,10); b: arrives 2, waits 8, holds [10,15);
        # c: arrives 4, waits 11, holds [15,18)
        sim.process(user(0.0, 10.0))
        sim.process(user(2.0, 5.0))
        sim.process(user(4.0, 3.0))
        sim.run()
        assert res.acquisitions == 3
        assert res.total_wait == pytest.approx(8.0 + 11.0)
        assert not res.busy

    def test_uncontended_acquires_record_zero_wait(self):
        sim = Simulator()
        res = Resource(sim, "r")

        def user(delay):
            yield sim.timeout(delay)
            yield from res.acquire()
            res.release()

        sim.process(user(0.0))
        sim.process(user(5.0))
        sim.run()
        assert res.acquisitions == 2
        assert res.total_wait == pytest.approx(0.0)

    def test_interrupted_waiter_counts_no_acquisition(self):
        sim = Simulator()
        res = Resource(sim, "r")

        def holder():
            yield from res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def victim():
            yield sim.timeout(1.0)
            try:
                yield from res.acquire()
            except Interrupt:
                pass

        def interrupter(target):
            yield sim.timeout(5.0)
            target.interrupt()

        sim.process(holder())
        v = sim.process(victim())
        sim.process(interrupter(v))
        sim.run()
        # only the holder's acquisition counts; the abandoned wait must
        # contribute neither an acquisition nor wait time
        assert res.acquisitions == 1
        assert res.total_wait == pytest.approx(0.0)

    def test_accounting_with_mixed_interrupt_and_contention(self):
        sim = Simulator()
        res = Resource(sim, "r")
        order = []

        def holder():
            yield from res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def victim():
            yield sim.timeout(1.0)
            try:
                yield from res.acquire()
            except Interrupt:
                order.append("victim out")

        def survivor():
            yield sim.timeout(2.0)
            yield from res.acquire()
            order.append("survivor in")
            yield sim.timeout(4.0)
            res.release()

        def interrupter(target):
            yield sim.timeout(3.0)
            target.interrupt()

        sim.process(holder())
        v = sim.process(victim())
        sim.process(survivor())
        sim.process(interrupter(v))
        sim.run()
        assert order == ["victim out", "survivor in"]
        assert res.acquisitions == 2
        # survivor arrived at 2, acquired at 10
        assert res.total_wait == pytest.approx(8.0)
        assert not res.busy


class TestAccounting:
    def test_activations_counted(self):
        sim = Simulator()

        def proc(n):
            for _ in range(n):
                yield sim.timeout(1.0)

        sim.process(proc(10))
        sim.run()
        # initial start + 10 timeouts = 11 activations
        assert sim.activations == 11


class TestLeap:
    """``_Leap`` as a kernel primitive, yielded from a bare generator:
    one jump over a run of a process's own timeouts, with nothing else
    due in between, leaves the kernel as those timeouts do."""

    DELAYS = [1.5, 0.7, 2.25, 0.3, 0.1] * 4
    START = 0.1  # off time zero, so the sums round

    def landing(self):
        when = self.START
        for delay in self.DELAYS:
            when += delay  # the kernel's repeated addition
        return when

    def play(self, leap, horizon, interrupt_at=None):
        sim = Simulator()
        log = []

        def walker():
            yield sim.timeout(self.START)
            if leap:
                yield _Leap(self.landing(), len(self.DELAYS) - 1)
            else:
                for delay in self.DELAYS:
                    yield sim.timeout(delay)
            log.append(("landed", repr(sim.now), sim.activations))
            try:
                while True:
                    yield sim.timeout(1.0)
                    log.append(("tick", repr(sim.now)))
            except Interrupt as irq:
                log.append(("interrupted", repr(sim.now), irq.cause))
                yield sim.timeout(0.5)
                log.append(("after", repr(sim.now)))

        walker_proc = sim.process(walker(), name="walker")
        if interrupt_at is not None:
            def interrupter():
                yield sim.timeout(interrupt_at)
                walker_proc.interrupt("stop")

            sim.process(interrupter(), name="interrupter")
        sim.run(until=horizon)
        pending = sorted((seq, repr(when), proc.name, value, token)
                         for when, seq, proc, value, token in sim._queue)
        return (log, repr(sim.now), sim.activations, sim._seq,
                [proc._token for proc in sim.processes], pending)

    @pytest.mark.parametrize("beyond", [0.5, 3.0, 40.0])
    def test_credits_equal_the_eager_timeouts(self, beyond):
        horizon = self.landing() + beyond
        assert self.play(True, horizon) == self.play(False, horizon)

    def test_a_landing_at_the_horizon_runs_in_that_run(self):
        horizon = self.landing()
        leapt = self.play(True, horizon)
        assert leapt == self.play(False, horizon)
        assert leapt[0] == [("landed", repr(horizon), 22)]
        assert leapt[1] == repr(horizon)

    @pytest.mark.parametrize("after", [0.4, 1.0, 2.6])
    def test_an_interrupt_after_the_landing(self, after):
        """The interrupt finds the wait token the eager timeouts leave,
        so it preempts the pending tick, which then goes stale."""
        interrupt_at = self.landing() + after
        leapt = self.play(True, 100.0, interrupt_at)
        assert leapt == self.play(False, 100.0, interrupt_at)
        assert [entry[0] for entry in leapt[0][-2:]] == \
            ["interrupted", "after"]


class TestWatchdog:
    """The kernel-level guard against processes that never make
    model-time progress (satellite fix: ``Kernel.run`` previously
    looped forever on a zero-delay spin)."""

    def test_spinning_process_raises_hang_detected(self):
        sim = Simulator()

        def spinner():
            while True:  # classic livelock: busy without advancing time
                yield sim.timeout(0.0)

        sim.process(spinner(), name="spinner")
        with pytest.raises(HangDetected) as exc:
            sim.run(watchdog=Watchdog(max_stalled_activations=500))
        assert "spinner" in str(exc.value)
        assert "t=0" in str(exc.value)

    def test_spin_after_progress_still_detected(self):
        sim = Simulator()

        def late_spinner():
            yield sim.timeout(7.0)
            while True:
                yield sim.timeout(0.0)

        sim.process(late_spinner(), name="late")
        with pytest.raises(HangDetected):
            sim.run(watchdog=Watchdog(max_stalled_activations=100))
        assert sim.now == 7.0

    def test_healthy_simulation_unaffected(self):
        def workload(sim):
            def proc():
                for _ in range(50):
                    yield sim.timeout(1.0)
            sim.process(proc())

        plain = Simulator()
        workload(plain)
        plain.run()

        watched = Simulator()
        workload(watched)
        watched.run(watchdog=Watchdog(max_stalled_activations=10))
        assert watched.now == plain.now == 50.0
        assert watched.activations == plain.activations

    def test_simultaneous_events_are_not_a_false_positive(self):
        sim = Simulator()
        done = []

        def one(i):
            yield sim.timeout(1.0)
            done.append(i)

        for i in range(200):  # 200 resumptions at the same instant
            sim.process(one(i))
        sim.run(watchdog=Watchdog(max_stalled_activations=500))
        assert len(done) == 200

    def test_until_horizon_respected_under_watchdog(self):
        sim = Simulator()

        def proc():
            while True:
                yield sim.timeout(10.0)

        sim.process(proc())
        assert sim.run(until=35.0, watchdog=Watchdog()) == 35.0

    def test_wall_clock_budget(self):
        sim = Simulator()

        def creeper():
            while True:  # advances model time: invisible to stall count
                yield sim.timeout(1.0)

        sim.process(creeper())
        with pytest.raises(HangDetected) as exc:
            sim.run(watchdog=Watchdog(
                wall_clock_s=0.02, check_every=16,
            ))
        assert "wall-clock" in str(exc.value)

    def test_bad_watchdog_parameters_rejected(self):
        with pytest.raises(ValueError):
            Watchdog(max_stalled_activations=0)
        with pytest.raises(ValueError):
            Watchdog(wall_clock_s=0.0)
        with pytest.raises(ValueError):
            Watchdog(check_every=0)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, True, "4", 9.0])
    def test_max_stalled_activations_must_be_an_int(self, value):
        """A NaN budget never fired on a zero-delay livelock, and a
        fractional one crashed the spin skip with a TypeError."""
        with pytest.raises(ValueError, match="max_stalled_activations"):
            Watchdog(max_stalled_activations=value)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, True, "4"])
    def test_check_every_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="check_every"):
            Watchdog(check_every=value)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -1.0, 0.0,
    ])
    def test_wall_clock_s_must_be_finite_and_positive(self, value):
        """A NaN budget never fired."""
        with pytest.raises(ValueError, match="wall_clock_s"):
            Watchdog(wall_clock_s=value)
