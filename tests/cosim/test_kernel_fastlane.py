"""Differential tests for the kernel's run loop.

The run loop fuses lane pick, resume, dispatch and scheduling into one
frame, keeps zero-delay wakeups in a FIFO lane beside the heap, and
lets a watchdog fast-forward a declared zero-time livelock.  None of
that may change what a model sees: simultaneous events fire in the
order they were scheduled, globally by ``(time, seq)``, and a hang is
reported after the same activations with the same message.  The
reference is ``_HeapOnlySimulator``, a self-contained scheduler that
routes *every* wakeup through the heap and resumes one process per
``step()`` with no fast-forward; hypothesis-generated workloads mixing
zero and non-zero delays, event fires, joins, interrupts, resource
contention, declared and plain spinners, horizons and tracers must
produce identical resume logs, times, activation counts and hang
messages on both.
"""

import heapq

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cosim.kernel import (
    AnyOf,
    HangDetected,
    Interrupt,
    Resource,
    SimulationError,
    Simulator,
    Spin,
    Watchdog,
)
from repro.cosim.trace import Tracer

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class _HeapOnlySimulator(Simulator):
    """Reference scheduler: every wakeup pays full heapq churn.

    It owns its whole execution path — schedule, step, resume, run and
    the watched loop, as the kernel had them before the loop was fused
    — and shares only the model classes (events, processes and the
    ``Process._dispatch`` that turns a yield into a wait).  Nothing the
    kernel's run loop does inline can reach it, so the differential
    never compares the kernel with itself.  The watched loop leaves out
    the wall-clock budget, which no deterministic test can diff.  One
    deliberate fix: the run loops drop a stale head and check the
    horizon again before stepping, so a stale wakeup below the horizon
    no longer lets ``run(until)`` resume a process past ``until`` (the
    pre-fusion loops did; see
    ``test_stale_head_does_not_carry_run_past_until``).
    """

    def _schedule(self, delay, proc, value, token):
        self._seq += 1
        heapq.heappush(
            self._queue, (self.now + delay, self._seq, proc, value, token)
        )

    def _peek_time(self):
        return self._queue[0][0] if self._queue else None

    def _drop_stale_head(self):
        queue = self._queue
        if queue and (not queue[0][2].alive
                      or queue[0][4] != queue[0][2]._token):
            heapq.heappop(queue)
            return True
        return False

    def step(self):
        queue = self._queue
        while queue:
            time, _seq, proc, value, token = heapq.heappop(queue)
            if time < self.now:
                raise SimulationError("time went backwards")
            if not proc.alive or token != proc._token:
                continue
            self.now = time
            self._resume(proc, value)
            return True
        return False

    def _resume(self, proc, value):
        self.activations += 1
        if self.tracer is not None:
            self.tracer.on_resume(proc)
        try:
            if proc._pending_interrupt is not None:
                exc, proc._pending_interrupt = proc._pending_interrupt, None
                if self.tracer is not None:
                    self.tracer.on_interrupt(proc, exc.cause)
                command = proc.gen.throw(exc)
            else:
                command = proc.gen.send(value)
        except StopIteration as stop:
            proc._finish(stop.value)
            return
        except Interrupt:
            proc._finish(None)
            return
        proc._dispatch(command)

    def run(self, until=None, watchdog=None):
        if watchdog is not None:
            return self._run_watched(until, watchdog)
        if until is None:
            while self.step():
                pass
            return self.now
        while True:
            head = self._peek_time()
            if head is None:
                break
            if head > until:
                self.now = max(self.now, until)
                return self.now
            if self._drop_stale_head():
                continue
            if not self.step():
                break
        return self.now

    def _run_watched(self, until, watchdog):
        last_now = self.now
        stalled = 0
        while True:
            head = self._peek_time()
            if head is None:
                break
            if until is not None and head > until:
                self.now = max(self.now, until)
                return self.now
            if self._drop_stale_head():
                continue
            if not self.step():
                break
            if self.now > last_now:
                last_now = self.now
                stalled = 0
            else:
                stalled += 1
                if stalled >= watchdog.max_stalled_activations:
                    raise HangDetected(
                        f"no model-time progress after {stalled} "
                        f"activations at t={self.now:g}; "
                        f"suspects: {self._stalled_suspects()}"
                    )
        return self.now


# ----------------------------------------------------------------------
# workload generator: per-process op scripts over shared events/resource
# ----------------------------------------------------------------------
N_EVENTS = 4

op_st = st.one_of(
    st.tuples(st.just("timeout"),
              st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, 7.0])),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("anyof"), st.integers(0, N_EVENTS - 2)),
    st.tuples(st.just("join"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("resource"),
              st.sampled_from([0.0, 0.0, 1.0])),
)

scripts_st = st.lists(
    st.lists(op_st, min_size=1, max_size=6), min_size=1, max_size=5)

# a spinner never returns: after its delay it yields a declared Spin
# ("spin") or a plain zero-delay timeout ("zspin") forever
spin_op_st = st.one_of(
    op_st,
    st.tuples(st.sampled_from(["spin", "zspin"]),
              st.sampled_from([0.0, 1.0, 2.5])),
)
spin_scripts_st = st.lists(
    st.lists(spin_op_st, min_size=1, max_size=6), min_size=1, max_size=5)

# successive watched runs: (until, stall budget); a later run may name
# an earlier horizon, so `until` in the past is exercised too
runs_st = st.lists(
    st.tuples(st.sampled_from([None, 0.0, 1.0, 2.5, 6.0, 30.0]),
              st.sampled_from([1, 2, 7, 40, 300])),
    min_size=1, max_size=4)


def run_workload(sim_cls, scripts, runs=None, traced=False):
    """Execute the scripted workload; return the full resume log.

    ``runs`` replaces the single unwatched ``run()`` with a sequence of
    watched ``run(until, watchdog)`` calls, each logging its end state
    or its hang message; ``traced`` attaches a :class:`Tracer` and adds
    its records to the result.
    """
    tracer = Tracer() if traced else None
    sim = sim_cls(tracer=tracer)
    events = [sim.event(f"e{i}") for i in range(N_EVENTS)]
    resource = Resource(sim, "res")
    procs = []
    log = []

    def body(pid, script):
        for n, (op, arg) in enumerate(script):
            log.append((pid, n, op, sim.now, sim.activations))
            if op == "timeout":
                got = yield sim.timeout(arg, value=(pid, n))
                log.append((pid, n, "woke", sim.now, got))
            elif op == "wait":
                if not events[arg].triggered:
                    got = yield events[arg]
                    log.append((pid, n, "got", sim.now, got))
            elif op == "fire":
                if not events[arg].triggered:
                    events[arg].succeed((pid, n))
            elif op == "anyof":
                pair = yield AnyOf(events[arg:arg + 2])
                log.append((pid, n, "any", sim.now, pair[1]))
            elif op == "join":
                if arg < len(procs) and procs[arg] is not None:
                    got = yield procs[arg]
                    log.append((pid, n, "joined", sim.now, got))
            elif op == "interrupt":
                if arg < len(procs) and procs[arg] is not None:
                    procs[arg].interrupt(cause=(pid, n))
            elif op == "resource":
                try:
                    yield from resource.acquire()
                except Interrupt:
                    log.append((pid, n, "intr", sim.now, None))
                    continue
                yield sim.timeout(arg)
                resource.release()
            elif op in ("spin", "zspin"):
                yield sim.timeout(arg)
                log.append((pid, n, "spinning", sim.now, sim.activations))
                waitable = Spin() if op == "spin" else sim.timeout(0.0)
                while True:
                    yield waitable
        return pid

    for pid, script in enumerate(scripts):
        # pad procs as we go so "join"/"interrupt" targets resolve the
        # same way on both simulators
        procs.append(None)
        gen = body(pid, script)

        def wrapper(gen=gen, pid=pid):
            try:
                result = yield from gen
            except Interrupt:
                log.append((pid, -1, "killed", sim.now, None))
                result = None
            return result

        procs[pid] = sim.process(wrapper(), name=f"p{pid}")

    if runs is None:
        final = sim.run()
        return log, final, sim.activations, sim.now
    ends = []
    for until, budget in runs:
        try:
            sim.run(until=until,
                    watchdog=Watchdog(max_stalled_activations=budget))
            ends.append(("ran", sim.now, sim.activations))
        except HangDetected as exc:
            ends.append(("hang", str(exc), sim.now, sim.activations))
    if tracer is None:
        return log, ends
    # the heap-only reference holds every wakeup in the heap, so the
    # queue depth on resume records is the one field that must differ
    records = [(r.time, r.kind, r.name,
                {k: v for k, v in r.data.items() if k != "queue"})
               for r in tracer.records]
    return log, ends, records


class TestSchedulingDifferential:
    @settings(max_examples=80, **COMMON)
    @given(scripts=scripts_st)
    def test_fast_lane_matches_heap_only(self, scripts):
        fast = run_workload(Simulator, scripts)
        ref = run_workload(_HeapOnlySimulator, scripts)
        assert fast == ref

    def test_simultaneous_events_fire_in_scheduling_order(self):
        """The documented determinism contract, pinned explicitly: a
        zero-delay wakeup scheduled *after* a timed wakeup landing at
        the same instant fires second (global (time, seq) order)."""
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            order = []

            def timed():
                yield sim.timeout(5.0)
                order.append("timed")

            def firer():
                yield sim.timeout(5.0)  # same instant, later seq
                order.append("firer")

            sim.process(timed(), name="timed")
            sim.process(firer(), name="firer")
            sim.run()
            assert order == ["timed", "firer"], sim_cls.__name__

    def test_zero_delay_storm_interleaves_with_heap_entries(self):
        """Zero-delay chains must not starve or overtake a same-time
        heap entry scheduled earlier."""

        def chain(sim, log, n):
            for i in range(n):
                log.append(("chain", i, sim.now))
                yield sim.timeout(0.0)

        def sleeper(sim, log):
            yield sim.timeout(0.0)
            log.append(("sleeper", 0, sim.now))
            yield sim.timeout(3.0)
            log.append(("sleeper", 1, sim.now))

        logs = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            log = []
            sim.process(chain(sim, log, 6), name="chain")
            sim.process(sleeper(sim, log), name="sleeper")
            sim.run()
            logs.append((log, sim.activations, sim.now))
        assert logs[0] == logs[1]


class TestRunHorizon:
    def make(self, sim_cls):
        sim = sim_cls()

        def ticker():
            while True:
                yield sim.timeout(0.0)
                yield sim.timeout(2.0)

        sim.process(ticker(), name="ticker")
        return sim

    @pytest.mark.parametrize("sim_cls", [Simulator, _HeapOnlySimulator])
    def test_until_stops_at_horizon(self, sim_cls):
        sim = self.make(sim_cls)
        assert sim.run(until=7.0) == 7.0
        assert sim.now == 7.0

    @pytest.mark.parametrize("sim_cls", [Simulator, _HeapOnlySimulator])
    def test_until_in_past_never_rewinds(self, sim_cls):
        sim = self.make(sim_cls)
        sim.run(until=6.0)
        assert sim.run(until=2.0) == 6.0
        assert sim.now == 6.0

    @pytest.mark.parametrize("sim_cls", [Simulator, _HeapOnlySimulator])
    def test_stale_head_does_not_carry_run_past_until(self, sim_cls):
        """An interrupt leaves the sleeper's t=2.5 wakeup stale at the
        heap head; it must not let run(until=6) resume the sleeper at
        t=8 (the loops before the fused one did)."""
        sim = sim_cls()
        log = []

        def sleeper():
            try:
                yield sim.timeout(2.5)
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(7.0)
            log.append(("woke", sim.now))

        proc = sim.process(sleeper(), name="sleeper")

        def poker():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.process(poker(), name="poker")
        assert sim.run(until=6.0) == 6.0
        assert log == [("interrupted", 1.0)]
        assert sim.run() == 8.0
        assert log == [("interrupted", 1.0), ("woke", 8.0)]

    def test_until_now_with_ready_entries_fires_them(self):
        """Entries in the zero-delay lane sit at the current time, so a
        horizon of exactly `now` must still let them fire."""
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(0.0)
            fired.append(sim.now)

        sim.process(proc(), name="p")
        sim.run(until=0.0)
        assert fired == [0.0]


class TestWatchdogFastLane:
    def test_spin_hang_detected_at_identical_point(self):
        """A zero-delay spin loop lives entirely in the fast lane; the
        watchdog must still see every resumption and both schedulers
        must kill the run at the same activation count."""
        counts = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()

            def spin():
                while True:
                    yield sim.timeout(0.0)

            sim.process(spin(), name="spinner")
            with pytest.raises(HangDetected) as err:
                sim.run(watchdog=Watchdog(max_stalled_activations=500))
            assert "spinner" in str(err.value)
            counts.append(sim.activations)
        assert counts[0] == counts[1]

    @settings(max_examples=25, **COMMON)
    @given(scripts=scripts_st)
    def test_watched_run_matches_unwatched(self, scripts):
        """A generous watchdog must not perturb scheduling at all."""
        plain = run_workload(Simulator, scripts)
        watched = run_workload_watched(scripts)
        assert plain == watched


def _spinner(sim, resumed=None, delay=0.0):
    yield sim.timeout(delay)
    spin = Spin()
    while True:
        if resumed is not None:
            resumed.append(sim.activations)
        yield spin


def _pending(sim):
    """Every queued wakeup as (seq, process, token, process token) —
    lane-independent, so both schedulers' states compare directly."""
    return sorted((e[1], e[2].name, e[4], e[2]._token)
                  for e in list(sim._ready) + sim._queue)


class TestSpinFastForward:
    """A declared zero-time livelock is skipped, never misreported."""

    @settings(max_examples=150, **COMMON)
    @given(scripts=spin_scripts_st, runs=runs_st)
    # stale heads: one past the horizon still advances `now` to it;
    # one at the horizon must not let the wakeup after it run past it
    @example(scripts=[[("timeout", 2.5)], [("interrupt", 0)]],
             runs=[(1.0, 7)])
    @example(scripts=[[("timeout", 1.0)], [("interrupt", 1)]],
             runs=[(0.0, 7)])
    def test_watched_runs_match_reference(self, scripts, runs):
        fast = run_workload(Simulator, scripts, runs)
        ref = run_workload(_HeapOnlySimulator, scripts, runs)
        assert fast == ref

    @settings(max_examples=60, **COMMON)
    @given(scripts=spin_scripts_st, runs=runs_st)
    def test_traced_runs_skip_nothing(self, scripts, runs):
        """With a tracer attached every spin is resumed and recorded:
        the trace equals the reference's, and the log and hang verdicts
        equal the untraced (fast-forwarded) run's."""
        log, ends, records = run_workload(Simulator, scripts, runs,
                                          traced=True)
        assert (log, ends, records) == run_workload(
            _HeapOnlySimulator, scripts, runs, traced=True)
        assert (log, ends) == run_workload(Simulator, scripts, runs)

    def test_verdict_identical_with_a_handful_of_resumes(self):
        results, resumes = [], []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            resumed = []

            def ticker():  # heap entries strictly later than the stall
                while True:
                    yield sim.timeout(5.0)

            sim.process(_spinner(sim, resumed, delay=3.0), name="spinner")
            sim.process(ticker(), name="ticker")
            with pytest.raises(HangDetected) as err:
                sim.run(watchdog=Watchdog(max_stalled_activations=4000))
            results.append((str(err.value), sim.now, sim.activations,
                            sim._seq, _pending(sim)))
            resumes.append(len(resumed))
        assert results[0] == results[1]
        assert "after 4000 activations at t=3;" in results[0][0]
        # the resume at t=3 advanced time; 4000 stalled ones follow
        assert resumes == [1, 4001]

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 999, 1000, 1001])
    def test_state_after_the_hang_is_the_slow_runs(self, budget):
        """Several spinners rotate through the ready lane; the
        fast-forward must leave the exact sequence numbers, wait tokens
        and order the slow run leaves, so a traced continuation resumes
        them identically."""
        outs = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            for name in ("a", "b", "c"):
                sim.process(_spinner(sim), name=name)
            with pytest.raises(HangDetected) as first:
                sim.run(watchdog=Watchdog(max_stalled_activations=budget))
            state = (str(first.value), sim.activations, sim._seq,
                     _pending(sim))
            tracer = sim.attach_tracer(Tracer())
            with pytest.raises(HangDetected) as second:
                sim.run(watchdog=Watchdog(max_stalled_activations=7))
            outs.append((state, str(second.value), sim.activations,
                         [(r.kind, r.name) for r in tracer.records]))
        assert outs[0] == outs[1]

    def test_pending_interrupt_blocks_the_fast_forward(self):
        """A Spin wakeup with an interrupt pending is a throw, not a
        spin.  The victim interrupts itself through an event callback,
        so the interrupt's own wakeup goes stale (and is skipped) before
        the victim's Spin reaches the head of the lane behind another
        spinner: only the pending-interrupt test stops the skip."""
        outs = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            log = []
            trip, go = sim.event("trip"), sim.event("go")

            def other():
                yield go
                spin = Spin()
                while True:
                    yield spin

            def victim():
                trip.succeed()  # its callback interrupts this process
                go.succeed()    # wakes the other spinner
                spin = Spin()
                try:
                    while True:
                        yield spin
                except Interrupt as exc:
                    log.append(("caught", exc.cause, sim.now,
                                sim.activations))
                yield sim.timeout(1.0)

            sim.process(other(), name="other")
            proc = sim.process(victim(), name="victim")
            trip.add_callback(lambda event: proc.interrupt("self"))
            with pytest.raises(HangDetected) as err:
                sim.run(watchdog=Watchdog(max_stalled_activations=50))
            outs.append((log, str(err.value), sim.activations))
        assert outs[0] == outs[1]
        assert outs[0][0] == [("caught", "self", 0.0, 4)]

    def test_same_time_heap_entry_blocks_the_fast_forward(self):
        """Two spinners and a sleeper all wake at t=1 from the heap.
        Once both spin, the ready lane holds only Spins, but the
        sleeper's wakeup is still due at t=1 and was scheduled first:
        it must fire before any skip."""
        outs = []
        for sim_cls in (Simulator, _HeapOnlySimulator):
            sim = sim_cls()
            log = []

            def sleeper():
                yield sim.timeout(1.0)
                log.append(("woke", sim.now, sim.activations))

            sim.process(_spinner(sim, delay=1.0), name="a")
            sim.process(_spinner(sim, delay=1.0), name="b")
            sim.process(sleeper(), name="sleeper")
            with pytest.raises(HangDetected) as err:
                sim.run(watchdog=Watchdog(max_stalled_activations=100))
            outs.append((log, str(err.value), sim.activations))
        assert outs[0] == outs[1]
        assert outs[0][0] == [("woke", 1.0, 6)]

    def test_plain_zero_delay_steps_never_reach_the_spin_check(
            self, monkeypatch):
        """Only a stall with a Spin at the head of the ready lane may
        pay for the O(spinners) check; a plain zero-delay spin and a
        legitimate burst pay O(1) and run every activation."""
        calls = []
        monkeypatch.setattr(Simulator, "_skip_spins",
                            lambda self, skipped: calls.append(skipped))
        sim = Simulator()
        ping, pong = sim.event("ping"), sim.event("pong")

        def burst():
            for _ in range(300):
                yield sim.timeout(0.0)
            ping.succeed()

        def answer():
            yield ping
            pong.succeed()

        def plain_spin():
            yield pong
            while True:
                yield sim.timeout(0.0)

        for body in (burst, answer, plain_spin):
            sim.process(body(), name=body.__name__)
        with pytest.raises(HangDetected, match="after 500 activations"):
            sim.run(watchdog=Watchdog(max_stalled_activations=500))
        assert calls == []
        assert sim.activations == 500


def run_workload_watched(scripts):
    """run_workload, but through the watched run loop."""
    original_run = Simulator.run

    def watched_run(self, until=None, watchdog=None):
        return original_run(
            self, until,
            watchdog or Watchdog(max_stalled_activations=10_000_000))

    Simulator.run = watched_run
    try:
        return run_workload(Simulator, scripts)
    finally:
        Simulator.run = original_run


class TestIntrospection:
    def test_repr_counts_both_lanes(self):
        sim = Simulator()

        def p():
            yield sim.timeout(0.0)
            yield sim.timeout(5.0)

        sim.process(p(), name="p")   # ready lane
        sim.process(p(), name="q")   # ready lane
        assert "pending=2" in repr(sim)

    def test_stalled_suspects_sees_ready_lane(self):
        sim = Simulator()

        def p():
            yield sim.timeout(0.0)

        sim.process(p(), name="zed")
        assert "zed" in sim._stalled_suspects()

    def test_slots_hold(self):
        """Event/Process carry no __dict__ anymore — attribute typos
        now fail loudly instead of silently growing per-object dicts."""
        sim = Simulator()
        event = sim.event("e")
        proc = sim.process((x for x in ()), name="p")
        for obj in (event, proc):
            with pytest.raises(AttributeError):
                obj.no_such_attribute = 1
            assert not hasattr(obj, "__dict__")
