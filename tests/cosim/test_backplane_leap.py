"""Differential tests for the backplane's poll leap.

A CPU that polls registers its devices declare free of side effects,
while nothing else can act before the horizon of a ``run()``, leaps to
the last whole pass of its loop due by the horizon (DESIGN §8).  That
may change nothing a model sees.  The reference is ``_EagerBackplane``,
the driver without the leap: every pass runs.  Hypothesis-generated
systems vary the clock period, the access time, the batch size, the
register polled and the horizons, and add what must block the leap or
leave the result equal: a process that raises an IRQ or pushes a FIFO
word later, a store or a DATA read inside the loop, a fault trigger due
inside it, a tracer, ``step()``, and changes made between runs.  Both
drivers must leave identical times (by ``repr``), activation and
sequence counts, process tokens, pending wakeups, CPU, memory and IRQ
state, backplane counters and device counters.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cosim.backplane import Backplane, RegisterAdapter
from repro.cosim.kernel import HangDetected, Simulator, Watchdog
from repro.cosim.msglevel import Channel
from repro.cosim.trace import Tracer
from repro.cosim.translevel import FifoDevice, RegisterDevice
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class _EagerBackplane(Backplane):
    """Reference: the driver without the poll leap."""

    def _drive(self):
        cpu = self.cpu
        period = self.clock_period
        timeout = self.sim.timeout
        while not cpu.halted:
            budget = self.batch_instructions
            while budget:
                steps, cycles, access = cpu.run_block(budget)
                budget -= steps
                if access is None:
                    if cycles:
                        yield timeout(cycles * period)
                    break
                if cycles:
                    yield timeout(cycles * period)
                yield from self._service(access)
                if cpu.halted:
                    break
        return cpu.cycle_count


FIFO = 0x200  # DATA, STATUS, LEVEL
#: what the loop does between its poll and its test, if anything
EXTRAS = {
    None: "",
    "store": "sw   r1, 0x300(r0)",    # a store to RAM each pass
    "data": f"lw   r3, {FIFO}(r0)",   # a DATA read pops: not pure
    "count": "addi r4, r4, 1",        # the state never comes round
}


def program(register, extra, handler="addi r6, r6, 1"):
    """Poll STATUS bit 0 or LEVEL until a word is there, store it, halt;
    the IRQ handler bumps r6 by default."""
    test = "andi r1, r1, 1" if register == "STATUS" else ""
    return f"""
            li   r5, 3
    poll:   lw   r1, {FIFO + getattr(FifoDevice, register)}(r0)
            {EXTRAS[extra]}
            {test}
            beq  r1, r0, poll
            lw   r2, {FIFO}(r0)
            sw   r2, 0x400(r0)
            halt
            .org 0x40
            {handler}
            reti
    """


class _UndeclaredFifo(FifoDevice):
    """A FIFO that declares no side-effect-free register (the default)."""

    PURE_READS = RegisterDevice.PURE_READS


def mount(plane_cls, sim, source, fifo, **options):
    """A backplane running ``source`` with ``fifo`` mounted at FIFO."""
    isa = Isa()
    memory = Memory()
    memory.load_image(assemble(source, isa).image)
    plane = plane_cls(sim, Cpu(isa, memory), **options)
    plane.mount(FIFO, 3, RegisterAdapter(fifo))
    return plane


def build(plane_cls, period, access, batch, register="STATUS",
          extra=None, push_at=None, irq_at=None, trigger=None,
          handler="addi r6, r6, 1", tracer=False, fifo_cls=FifoDevice):
    """A CPU polling a FIFO, a process blocked on a channel for good,
    and optionally a pusher, an IRQ raiser, a fault trigger and a
    tracer."""
    sim = Simulator()
    if tracer:
        sim.attach_tracer(Tracer())
    fifo = fifo_cls(sim, "rx", depth=4, access_time=access)
    plane = mount(plane_cls, sim, program(register, extra, handler), fifo,
                  clock_period=period, batch_instructions=batch)
    cpu = plane.cpu
    idle = Channel(sim, "idle")

    def listener():  # blocked on an event nothing sends
        yield from idle.receive()

    sim.process(listener(), name="listener")
    if push_at is not None:
        def pusher():
            yield sim.timeout(push_at)
            fifo.push(9)
        sim.process(pusher(), name="pusher")
    if irq_at is not None:
        def raiser():
            yield sim.timeout(irq_at)
            plane.irq()
        sim.process(raiser(), name="raiser")
    if trigger is not None:
        def flip():
            cpu.regs[7] ^= 1 << 3
        cpu.add_trigger(trigger, flip)
    plane.start()
    return sim, plane, fifo


def state(sim, plane, fifo):
    """Everything a model could see of the system."""
    cpu = plane.cpu
    memory = cpu.memory

    def entries(lane):
        return sorted((seq, repr(when), proc.name, value, token)
                      for when, seq, proc, value, token in lane)

    return (
        repr(sim.now), sim.activations, sim._seq,
        [(p.name, p._token, p.alive) for p in sim.processes],
        entries(sim._queue), entries(sim._ready),
        cpu.pc, list(cpu.regs), cpu.epc, cpu.halted, cpu.irq_pending,
        cpu.irq_enabled, cpu.instr_count, cpu.cycle_count, cpu.irq_count,
        memory.loads, memory.stores, sorted(memory.ram.items()),
        plane.external_accesses, repr(plane.stall_time),
        fifo.reads, fifo.writes, list(fifo.fifo),
    )


def play(plane_cls, system, actions):
    """Build the system, play the actions; return the state after each."""
    sim, plane, fifo = build(plane_cls, **system)
    log = []
    for action, arg in actions:
        try:
            if action == "run":
                sim.run(until=arg,
                        watchdog=Watchdog(max_stalled_activations=50))
            elif action == "step":
                sim.step()
            elif action == "tracer" and sim.tracer is None:
                sim.attach_tracer(Tracer())
            elif action == "push":  # between runs, from outside
                fifo.push(arg)
            elif action == "poke":  # between runs, from outside
                plane.cpu.regs[8] = arg
        except Exception as exc:  # the same error on both, or a bug
            log.append((type(exc).__name__, str(exc)))
        log.append((action, state(sim, plane, fifo)))
    if sim.tracer is not None:
        log.append([(r.time, r.kind, r.name, r.data)
                    for r in sim.tracer.records])
    return log


PERIODS = [10.0, 0.3, 7.1]
ACCESS_TIMES = [2.0, 0.7]
# longest first: hypothesis draws early entries most often
TIMES = [600.0, 123.4, 41.0, 3.3, 0.0]
HORIZONS = [2500.7, 1333.3, 1000.0, 480.0, 250.0, 37.9, 5.0, 0.0]

system_st = st.fixed_dictionaries({
    "period": st.sampled_from(PERIODS),
    "access": st.sampled_from(ACCESS_TIMES),
    "batch": st.integers(1, 8),
    "register": st.sampled_from(["STATUS", "LEVEL"]),
    # weighted towards systems that can leap
    "extra": st.sampled_from([None, None, None, "store", "data", "count"]),
    "push_at": st.one_of(st.none(), st.none(), st.sampled_from(TIMES)),
    "irq_at": st.one_of(st.none(), st.sampled_from(TIMES)),
    "trigger": st.one_of(st.none(), st.none(), st.integers(1, 80)),
})
action_st = st.one_of(
    st.tuples(st.just("run"), st.sampled_from(HORIZONS)),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("tracer"), st.none()),
    st.tuples(st.just("push"), st.integers(1, 5)),
    st.tuples(st.just("poke"), st.integers(0, 3)),
)
actions_st = st.lists(action_st, min_size=1, max_size=5).filter(
    lambda acts: 1 <= sum(a == "run" for a, _ in acts) <= 3)


class TestPollLeapDifferential:
    @settings(max_examples=250, **COMMON)
    @given(system=system_st, actions=actions_st)
    # a lone poller at coproc's batch size: a 3-step pass repeats its
    # timeouts every 4 passes
    @example(system=dict(period=10.0, access=2.0, batch=4,
                         register="STATUS", extra=None, push_at=None,
                         irq_at=None, trigger=None),
             actions=[("run", 2500.7)])
    # a word pushed between runs ends a loop the first run leapt
    @example(system=dict(period=0.3, access=0.7, batch=3,
                         register="LEVEL", extra=None, push_at=None,
                         irq_at=None, trigger=None),
             actions=[("run", 250.0), ("push", 2), ("run", 1000.0)])
    def test_leap_matches_eager(self, system, actions):
        assert play(Backplane, system, actions) == \
            play(_EagerBackplane, system, actions)


def _counting(drive, resumes):
    """``drive`` wrapped to record the model time of every resume."""

    def counted(self):
        gen = drive(self)
        got = None
        while True:
            resumes.append(self.sim.now)
            try:
                command = gen.send(got)
            except StopIteration as stop:
                return stop.value
            got = yield command

    return counted


def _resumes(plane_cls, horizon, **system):
    """(state after run(horizon), the driver's resume times)."""
    resumes = []

    class Counting(plane_cls):
        _drive = _counting(plane_cls._drive, resumes)

    sim, plane, fifo = build(Counting, **system)
    sim.run(until=horizon)
    return state(sim, plane, fifo), resumes


LONE = dict(period=10.0, access=2.0, batch=4)


class TestLeap:
    @pytest.mark.parametrize("period,access,batch", [
        (10.0, 2.0, 4), (0.3, 0.7, 1), (7.1, 2.0, 8), (0.3, 2.0, 5),
    ])
    def test_lone_poller_leaps_to_the_eager_state(self, period, access,
                                                  batch):
        system = dict(period=period, access=access, batch=batch)
        lazy, lazy_resumes = _resumes(Backplane, 5000.0, **system)
        eager, eager_resumes = _resumes(_EagerBackplane, 5000.0, **system)
        assert lazy == eager
        assert len(lazy_resumes) * 10 < len(eager_resumes)

    @pytest.mark.parametrize("system", [
        LONE,
        dict(period=0.3, access=0.7, batch=3, register="LEVEL"),
        dict(period=7.1, access=0.7, batch=8),
    ])
    def test_a_landing_exactly_at_the_horizon_runs(self, system):
        """Horizons at each of the eager driver's last activation times,
        and just before them: the activation at the horizon runs inside
        the run, and on the landings' grid it is the landing itself."""
        _state, times = _resumes(_EagerBackplane, 3000.0, **system)
        gaps = []
        for horizon in times[-24:]:
            for until in (horizon - 0.05, horizon):
                lazy, lazy_resumes = _resumes(Backplane, until, **system)
                eager, _ = _resumes(_EagerBackplane, until, **system)
                assert lazy == eager
                assert len(lazy_resumes) * 2 < len(times)
            assert lazy_resumes[-1] == horizon
            gaps.append(lazy_resumes[-1] - lazy_resumes[-2])
        assert max(gaps) > 200.0  # landed at the horizon

    @pytest.mark.parametrize("blocker", [
        dict(push_at=1200.0), dict(irq_at=1200.0), dict(extra="store"),
        dict(extra="data"), dict(extra="count"), dict(trigger=300),
        dict(tracer=True), dict(fifo_cls=_UndeclaredFifo),
    ])
    def test_what_blocks_the_leap(self, blocker):
        """Until the blocker is gone, every pass runs."""
        system = dict(LONE, **blocker)
        lazy, lazy_resumes = _resumes(Backplane, 1100.0, **system)
        eager, eager_resumes = _resumes(_EagerBackplane, 1100.0, **system)
        assert lazy == eager
        assert lazy_resumes == eager_resumes

    def test_step_never_leaps(self):
        runs = []
        for plane_cls in (Backplane, _EagerBackplane):
            sim, plane, fifo = build(plane_cls, **LONE)
            times = []
            while sim.now < 600.0 and sim.step():
                times.append(sim.now)
            runs.append((times, state(sim, plane, fifo)))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) > 40

    def test_no_horizon_runs_every_pass(self):
        """With no horizon there is nothing to leap to: a lone poller
        runs pass by pass until a wall-clock budget stops it, in the
        eager driver's state at that time."""
        sim, plane, fifo = build(Backplane, **LONE)
        with pytest.raises(HangDetected, match="wall-clock budget"):
            sim.run(watchdog=Watchdog(wall_clock_s=0.05, check_every=64))
        eager_sim, eager_plane, eager_fifo = build(_EagerBackplane, **LONE)
        eager_sim.run(until=sim.now)
        assert state(sim, plane, fifo) == \
            state(eager_sim, eager_plane, eager_fifo)
        assert sim.activations > 64

    def test_a_pending_irq_blocks_the_leap(self):
        """An IRQ raised just before a read completes is pending at that
        snapshot.  With a handler that changes nothing and ``epc``
        already at the poll, the state after the handler repeats the
        snapshot's, yet the IRQ is taken once, not every pass."""
        for irq_at in range(200, 300, 2):
            runs = []
            for plane_cls in (Backplane, _EagerBackplane):
                sim, plane, fifo = build(plane_cls, 10.0, 2.0, 1,
                                         irq_at=irq_at, handler="")
                plane.cpu.epc = 2  # the pc after the poll's load
                sim.run(until=3000.0)
                runs.append(state(sim, plane, fifo))
            assert runs[0] == runs[1]
            assert runs[0][14] == 1  # irq_count

    def test_time_that_stops_advancing_is_not_leapt(self):
        """At 1e17 ns every delay of the loop rounds away: time is stuck,
        so the run is a livelock for the watchdog, not a loop to leap
        (whose walk would never reach the horizon)."""
        runs = []
        for plane_cls in (Backplane, _EagerBackplane):
            sim = Simulator()
            fifo = FifoDevice(sim, "rx", access_time=0.7)
            plane = mount(plane_cls, sim, program("STATUS", None), fifo,
                          clock_period=0.3)

            def starter():
                yield sim.timeout(1e17)
                plane.start()

            sim.process(starter())
            with pytest.raises(HangDetected, match="no model-time") as exc:
                sim.run(until=2e17,
                        watchdog=Watchdog(max_stalled_activations=300))
            runs.append((str(exc.value), state(sim, plane, fifo)))
        assert runs[0] == runs[1]

    def test_changes_between_runs_are_seen(self):
        """What a loop saw in one run says nothing of the next: here a
        pass reads STATUS (kept) and LEVEL (tested, then cleared), and a
        word pushed between runs changes LEVEL but not STATUS, so the
        first snapshot of the second run repeats one of the first."""
        source = f"""
                li   r4, 2
        poll:   lw   r1, {FIFO + FifoDevice.STATUS}(r0)
                lw   r2, {FIFO + FifoDevice.LEVEL}(r0)
                beq  r2, r4, out
                li   r2, 0
                j    poll
        out:    halt
        """

        def play_split(plane_cls, first):
            sim = Simulator()
            fifo = FifoDevice(sim, "rx", access_time=2.0)
            fifo.push(1)
            plane = mount(plane_cls, sim, source, fifo)
            plane.start()
            sim.run(until=first)
            fifo.push(2)
            sim.run(until=2000.0)
            return state(sim, plane, fifo)

        for first in range(0, 200, 2):
            eager = play_split(_EagerBackplane, first)
            assert play_split(Backplane, first) == eager
            assert eager[9]  # the CPU saw the second word and halted


def test_e18_poll_cell_resumes_the_cpu_far_less(monkeypatch):
    """An E18 cell whose r8 flip leaves the word count out of reach
    polls FIFO STATUS from the clock's end to the 50,000 ns horizon.
    The record, with its 3,733 activations, is the eager driver's byte
    for byte, but the driver resumes for a fraction of them."""
    from repro.fault import FaultSpec, run_scenario

    fault = FaultSpec(kind="cpu_reg_flip", target="cpu", index=8, bit=4,
                      count=3)
    resumes = []
    monkeypatch.setattr(Backplane, "_drive",
                        _counting(Backplane._drive, resumes))
    lazy = run_scenario("coproc", fault)
    monkeypatch.setattr(Backplane, "_drive", _EagerBackplane._drive)
    assert lazy == run_scenario("coproc", fault)
    assert lazy["activations"] == 3733 and lazy["sim_time"] == 50000.0
    assert not lazy["completed"]
    assert len(resumes) < 200


def test_e18_campaign_makes_fewer_run_block_calls(monkeypatch):
    """The seed-7 E18 campaign's document is the eager driver's, and its
    CPU runs 7,949 blocks instead of 10,187."""
    from repro.fault import SCENARIOS, run_campaign, sample_faults

    faults = sample_faults(SCENARIOS["coproc"].targets, 200, seed=7)
    calls = []
    run_block = Cpu.run_block

    def counted(self, max_steps=1 << 30):
        calls.append(max_steps)
        return run_block(self, max_steps)

    monkeypatch.setattr(Cpu, "run_block", counted)
    lazy = run_campaign("coproc", faults).to_json()
    lazy_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(Backplane, "_drive", _EagerBackplane._drive)
    assert lazy == run_campaign("coproc", faults).to_json()
    assert (lazy_calls, len(calls)) == (7949, 10187)
