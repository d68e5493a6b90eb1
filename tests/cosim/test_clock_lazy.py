"""Differential tests for the lazy clock.

A :class:`Clock` edge that nothing can observe only updates the value,
and a clock left as the last process scheduled in a ``run()`` leaps to
its last activation due by the horizon (DESIGN §8).  Neither may change
what a model sees.  The reference is ``_EagerClock``, the eager
clock: every edge a full ``Signal.set`` and a fresh ``Timeout``.  Hypothesis-generated workloads — waiters joining through
``rising_edge``, ``wait_for`` and ``AnyOf``, readers, flips at edge and
off-edge times, a ``changed`` event held and yielded later, processes
spawned and tracers or traces attached between runs, one to three
horizons mixed with ``step()`` — must leave identical times (by
``repr``), activation and sequence counts, cycles, values and
observations on both.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cosim.kernel import AnyOf, HangDetected, Simulator, Watchdog
from repro.cosim.signals import Clock, Trace
from repro.cosim.trace import Tracer

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class _EagerClock(Clock):
    """Reference: every edge runs ``set()`` and yields a new timeout."""

    def _drive(self, until):
        half = self.period / 2.0
        while until is None or self.sim.now < until:
            self.set(1)
            self.cycles += 1
            yield self.sim.timeout(half)
            self.set(0)
            yield self.sim.timeout(half)


# ----------------------------------------------------------------------
# workload generator: clock parameters, process scripts, run actions
# ----------------------------------------------------------------------
PERIODS = [0.3, 7.1, 10.0, 2.0]
#: on and off the edge grids of the periods above
UNTILS = [None, 0.0, 3.15, 20.0, 35.0, 101.3]
HORIZONS = [None, 0.0, 0.9, 5.0, 12.35, 35.0, 40.0, 213.7]
#: stands in for ``run()`` on a clock that never finishes
FOREVER = 250.0

op_st = st.one_of(
    st.tuples(st.just("timeout"),
              st.sampled_from([0.0, 0.3, 1.0, 2.5, 7.1, 13.0])),
    st.tuples(st.just("rise"), st.none()),
    st.tuples(st.just("wait_for"), st.integers(0, 1)),
    st.tuples(st.just("anyof"), st.none()),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("flip"), st.none()),
    st.tuples(st.just("hold"), st.none()),
    st.tuples(st.just("yield_held"), st.none()),
)
script_st = st.lists(op_st, min_size=1, max_size=6)

action_st = st.one_of(
    st.tuples(st.just("run"), st.sampled_from(HORIZONS)),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("spawn"), script_st),
    st.tuples(st.just("tracer"), st.none()),
    st.tuples(st.just("trace"), st.none()),
)
# one to three horizons, with step() and between-run changes mixed in
actions_st = st.lists(action_st, min_size=1, max_size=6).filter(
    lambda acts: 1 <= sum(a == "run" for a, _ in acts) <= 3)


def run_clock(clock_cls, period, until, scripts, actions):
    """Run the workload on one clock class; return everything a model
    could see of it."""
    sim = Simulator()
    clk = clock_cls(sim, "clk", period=period, until=until)
    other = sim.event("other")  # never fires: the losing AnyOf branch
    log = []
    helds = []  # every changed event a process took
    watches = []  # (tracer, trace) attached between runs

    def body(pid, script):
        held = None
        for n, (op, arg) in enumerate(script):
            if op == "timeout":
                yield sim.timeout(arg)
            elif op == "rise":
                yield from clk.rising_edge()
            elif op == "wait_for":
                yield from clk.wait_for(arg)
            elif op == "anyof":
                _event, got = yield AnyOf([clk.changed, other])
                log.append((pid, n, "any", got))
            elif op == "flip":
                clk.set(clk.value ^ 1)
            elif op == "hold":
                held = clk.changed
                helds.append(held)
            elif op == "yield_held" and held is not None:
                got = yield held
                log.append((pid, n, "held", got))
            log.append((pid, n, op, repr(sim.now), clk.value, clk.cycles))

    def spawn(script):
        pid = len(sim.processes)
        sim.process(body(pid, script), name=f"p{pid}")

    for script in scripts:
        spawn(script)
    for action, arg in actions:
        if action == "run":
            if arg is None and until is None:
                arg = FOREVER
            sim.run(until=arg)
        elif action == "step":
            sim.step()
        elif action == "spawn":
            spawn(arg)
        elif action == "tracer" and sim.tracer is None:
            watches.append(sim.attach_tracer(Tracer()))
        elif action == "trace" and clk.trace is None:
            clk.trace = Trace()
            watches.append(clk.trace)
        # the pending wakeups' times are what later runs will see, and a
        # held event that fired is what a later yield of it will see
        log.append((action, repr(sim.now), sim.activations, sim._seq,
                    clk.cycles, clk.value,
                    sorted(repr(entry[0]) for entry in sim._queue),
                    [event.triggered for event in helds]))
    seen = [[(r.time, r.kind, r.name, r.data) for r in w.records]
            if isinstance(w, Tracer) else list(w.entries) for w in watches]
    return log, seen


class TestLazyClockDifferential:
    @settings(max_examples=400, **COMMON)
    @given(period=st.sampled_from(PERIODS), until=st.sampled_from(UNTILS),
           scripts=st.lists(script_st, max_size=3), actions=actions_st)
    # a flip leaves the next rising edge without a change, so it fires
    # nothing: it must not release the event held across it
    @example(period=10.0, until=None,
             scripts=[[("timeout", 7.1), ("flip", None), ("hold", None),
                       ("timeout", 13.0), ("yield_held", None)]],
             actions=[("run", 213.7)])
    # a leap that starts off time zero lands where repeated addition
    # does, not at now + (landing - now): these miss it by an ulp
    @example(period=0.3, until=None, scripts=[[("timeout", 0.3)]],
             actions=[("run", 0.9)])
    @example(period=0.3, until=None, scripts=[[("timeout", 7.1)]],
             actions=[("run", 40.0), ("step", None)])
    @example(period=7.1, until=None,
             scripts=[[("timeout", 13.0), ("timeout", 13.0),
                       ("timeout", 13.0)]],
             actions=[("run", 213.7), ("step", None)])
    def test_lazy_matches_eager(self, period, until, scripts, actions):
        lazy = run_clock(Clock, period, until, scripts, actions)
        eager = run_clock(_EagerClock, period, until, scripts, actions)
        assert lazy == eager

    @settings(max_examples=200, **COMMON)
    @given(period=st.one_of(st.sampled_from(PERIODS),
                            st.floats(0.05, 20.0)),
           until=st.one_of(st.none(), st.floats(0.0, 300.0)),
           start=st.floats(0.0, 60.0), horizon=st.floats(0.0, 300.0))
    def test_leaps_land_on_the_eager_grid(self, period, until, start,
                                          horizon):
        """A leap from wherever the clock is left alone lands on the
        activation times repeated addition reaches; the step after the
        run shows the next one."""
        scripts = [[("timeout", start)]]
        actions = [("run", horizon), ("step", None)]
        assert run_clock(Clock, period, until, scripts, actions) == \
            run_clock(_EagerClock, period, until, scripts, actions)


def _counting(drive, resumes):
    """``drive`` wrapped to record the model time of every resume."""

    def counted(self, until):
        gen = drive(self, until)
        got = None
        while True:
            resumes.append(self.sim.now)
            try:
                command = gen.send(got)
            except StopIteration:
                return
            got = yield command

    return counted


def _resumes(clock_cls, period, until, horizon):
    """(state after run(horizon), driver resumes) of a lone clock."""
    resumes = []

    class Counting(clock_cls):
        _drive = _counting(clock_cls._drive, resumes)

    sim = Simulator()
    clk = Counting(sim, period=period, until=until)
    sim.run(until=horizon)
    return (repr(sim.now), sim.activations, sim._seq, clk.cycles,
            clk.value), len(resumes)


class TestLeap:
    @pytest.mark.parametrize("period,until,horizon", [
        (10.0, 35.0, None),   # today's overshoot: finishes at 40
        (10.0, 35.0, 40.0),
        (10.0, 35.0, 37.5),   # horizon between the last edge and finish
        (0.3, 100.0, None),
        (7.1, None, 1000.0),
        (2.0, 19.0, 100.0),
    ])
    def test_lone_clock_leaps_to_the_eager_state(self, period, until,
                                                 horizon):
        lazy, lazy_resumes = _resumes(Clock, period, until, horizon)
        eager, eager_resumes = _resumes(_EagerClock, period, until,
                                        horizon)
        assert lazy == eager
        assert lazy_resumes <= 3 < eager_resumes

    def test_overshoot_is_kept(self):
        sim = Simulator()
        clk = Clock(sim, period=10.0, until=35.0)
        assert sim.run() == 40.0
        assert (clk.cycles, clk.value, sim.activations) == (4, 0, 9)

    def test_step_never_leaps(self):
        sims = []
        for cls in (Clock, _EagerClock):
            sim = Simulator()
            clk = cls(sim, period=10.0, until=100.0)
            times = []
            while sim.step():
                times.append(sim.now)
            sims.append((times, sim.activations, sim._seq, clk.cycles))
        assert sims[0] == sims[1]
        assert len(sims[0][0]) == 21

    def test_unbounded_lone_clock_runs_edge_by_edge(self):
        """No ``until`` and no horizon: nothing finite to leap to, so a
        lone clock keeps running every edge (here until a wall-clock
        budget stops the run), each one counted once."""
        sim = Simulator()
        clk = Clock(sim, period=2.0)
        with pytest.raises(HangDetected, match="wall-clock budget"):
            sim.run(watchdog=Watchdog(wall_clock_s=0.05, check_every=64))
        edges = sim.activations
        assert edges > 64 and sim._seq == edges + 1  # + the spawn
        assert sim.now == edges - 1.0
        assert (clk.cycles, clk.value) == ((edges + 1) // 2, edges % 2)


def test_golden_coproc_resumes_the_clock_far_less(monkeypatch):
    """The E18 golden run credits all 201 activations of its clock, but
    resumes the driver for barely more than half of them: the clock
    leaps over the edges after the CPU halts.  The record is the eager
    clock's, byte for byte."""
    from repro.fault.scenarios import run_scenario

    resumes = []
    monkeypatch.setattr(Clock, "_drive", _counting(Clock._drive, resumes))
    lazy = run_scenario("coproc")
    monkeypatch.setattr(Clock, "_drive", _EagerClock._drive)
    assert lazy == run_scenario("coproc")
    assert lazy["activations"] == 300 and lazy["sim_time"] == 2000.0
    assert len(resumes) < 120
