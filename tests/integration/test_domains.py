"""Every public numeric parameter keeps to its declared domain.

The table below names a callable, one of its numeric parameters and
that parameter's domain.  Each parameter is fed NaN, +inf, -inf, -1,
0, True, 2.5, None and the string "1"; an int parameter also gets 2.0.
A value inside the domain must be accepted, and where the callable
keeps it, kept exactly as given.  Any other value must raise
ValueError, or the site's own subclass, with a message naming the
parameter: never a TypeError from a comparison, a hang, or a failure
later inside the library.  Each case runs under an alarm.

No case starts a process.  An entry point that would spawn shards gets
only values it must reject, or no jobs.
"""

import ast
import math
import random
import signal
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

import pytest

import repro
from repro.asip.selection import select_instructions
from repro.campaign.service import run_cells, run_store_jobs
from repro.campaign.store import CampaignStore
from repro.cosim.backplane import Backplane
from repro.cosim.bus import SystemBus
from repro.cosim.kernel import Simulator, Watchdog
from repro.cosim.metrics import Histogram
from repro.cosim.msglevel import Channel
from repro.cosim.pinlevel import PinBus, PinBusSlave
from repro.cosim.signals import Clock
from repro.cosim.translevel import FifoDevice, RegisterDevice
from repro.cosynth.multiproc.library import Allocation
from repro.cosynth.multiproc.periodic import (
    PeriodicSpecError,
    periodic_synthesis,
)
from repro.cosynth.multithread import synthesize_multithreaded
from repro.estimate.communication import CommModel
from repro.estimate.hardware import HardwareEstimate
from repro.estimate.software import Processor
from repro.explore.doe import doe_population
from repro.explore.driver import ExploreSpec, explore, random_search
from repro.explore.evaluate import ProblemSpec
from repro.fault.campaign import run_campaign
from repro.fault.scenarios import SCENARIOS
from repro.fault.spec import FaultSpec, FaultSpecError, sample_faults
from repro.graph.algorithms import communication_clusters
from repro.graph.generators import (
    generate,
    periodic_taskset,
    random_layered_graph,
)
from repro.graph.kernels import fir, lms_update
from repro.graph.taskgraph import Edge, Task, TaskGraph
from repro.interface.spec import DeviceSpec, RegisterSpec
from repro.isa.assembler import assemble
from repro.isa.batch import BatchCpu
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import CUSTOM_BASE, CustomOp, Isa
from repro.isa.translate import BlockTranslator
from repro.partition import PartitionProblem
from repro.partition.annealing import simulated_annealing
from repro.partition.gclp import gclp_partition
from repro.partition.greedy import greedy_partition
from repro.partition.kl import kernighan_lin
from repro.partition.vulcan import vulcan_partition
from repro.spec.behavior import Compute, Loop, Send
from repro.sweep.config import SweepConfig
from repro.sweep.engine import run_sweep

#: seconds any one case may take
ALARM_S = 5


@dataclass(frozen=True)
class Count:
    """An int, never a bool, in [least, below); least None: unbounded."""

    least: Optional[int] = 0
    below: Optional[int] = None
    optional: bool = False
    integral = True

    def admits(self, value: Any) -> bool:
        if value is None:
            return self.optional
        return (type(value) is int
                and (self.least is None or value >= self.least)
                and (self.below is None or value < self.below))


@dataclass(frozen=True)
class Real:
    """An int or float, never a bool, finite (+inf too if ``inf``) and
    inside the interval: ``least``/``most`` closed, ``above``/``below``
    open."""

    least: Optional[float] = None
    above: Optional[float] = None
    most: Optional[float] = None
    below: Optional[float] = None
    optional: bool = False
    inf: bool = False
    integral = False

    def admits(self, value: Any) -> bool:
        if value is None:
            return self.optional
        if type(value) not in (int, float):
            return False
        if value == math.inf and self.inf:
            return True
        return (math.isfinite(value)
                and (self.least is None or value >= self.least)
                and (self.above is None or value > self.above)
                and (self.most is None or value <= self.most)
                and (self.below is None or value < self.below))


@dataclass(frozen=True)
class Entry:
    """``call(value)`` passes ``value`` as the parameter ``name``;
    ``kept(result)``, if given, reads back what the callable stored."""

    name: str
    call: Callable[[Any], Any]
    domain: Any
    error: type = ValueError
    kept: Optional[Callable[[Any], Any]] = None
    #: feed only values the domain rejects (the callable would spawn
    #: shard processes or run a whole campaign on a valid one)
    reject_only: bool = False
    #: values fed besides the common ones
    extra: tuple = ()


HOSTILE = (math.nan, math.inf, -math.inf, -1, 0, True, 2.5, None, "1")


# ----------------------------------------------------------------------
# small fixtures, built fresh per call
# ----------------------------------------------------------------------
def _cpu(source: str = "loop: j loop") -> Cpu:
    isa = Isa()
    memory = Memory()
    memory.load_image(assemble(source, isa).image)
    return Cpu(isa, memory)


def _halted_cpu() -> Cpu:
    cpu = _cpu("halt")
    cpu.run()
    return cpu


def _batch() -> BatchCpu:
    isa = Isa()
    batch = BatchCpu(isa, assemble("li r1, 1\nhalt", isa).image)
    batch.run(10)
    return batch


def _graph() -> TaskGraph:
    graph = TaskGraph("g")
    graph.add_task(Task("a", sw_time=4.0, period=100.0))
    graph.add_task(Task("b", sw_time=6.0, period=100.0))
    graph.add_edge("a", "b", volume=2.0)
    return graph


def _problem(**kwargs) -> PartitionProblem:
    return PartitionProblem(_graph(), **kwargs)


def _fault(**kwargs) -> FaultSpec:
    return FaultSpec(**{"kind": "reg_flip", "target": "mac", **kwargs})


def _frame(**changes) -> dict:
    """A coproc-like fault frame with ``changes`` applied; a dotted
    key ``cpu.regs`` changes an entry of the ``cpu`` table."""
    frame = {"signals": ["s"], "devices": {"mac": 4}, "channels": {"out": 4},
             "cpu": {"regs": 16, "max_count": 200, "pc_bits": 8},
             "time": (0.0, 100.0), "data_bits": 16}
    for key, value in changes.items():
        if key.startswith("cpu."):
            frame["cpu"] = {**frame["cpu"], key[4:]: value}
        elif key in ("devices", "channels"):
            frame[key] = {"x": value}
        else:
            frame[key] = value
    return frame


def _software(**kwargs):
    return replace(SCENARIOS["swmac"].software, **kwargs)


def _bus_slave(**kwargs) -> PinBusSlave:
    sim = Simulator()
    bus = PinBus(sim, Clock(sim))
    args = {"base": 0, "size": 4, **kwargs}
    return PinBusSlave(bus, "s", args["base"], args["size"],
                       lambda *a: 0, kwargs.get("wait_states", 0))


def _on_done(*args) -> None:
    raise AssertionError("no job may run")


_SPEC = ExploreSpec(population=2, generations=1)

# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
ENTRIES = [
    # cosim kernel, signals, devices, channels and buses
    Entry("max_stalled_activations",
          lambda v: Watchdog(max_stalled_activations=v), Count(1),
          kept=lambda w: w.max_stalled_activations),
    Entry("check_every", lambda v: Watchdog(check_every=v), Count(1),
          kept=lambda w: w.check_every),
    Entry("wall_clock_s", lambda v: Watchdog(wall_clock_s=v),
          Real(above=0, optional=True), kept=lambda w: w.wall_clock_s),
    Entry("until", lambda v: Simulator().run(until=v),
          Real(optional=True, inf=True)),
    Entry("period", lambda v: Clock(Simulator(), period=v), Real(above=0),
          kept=lambda c: c.period),
    Entry("until", lambda v: Clock(Simulator(), until=v),
          Real(optional=True)),
    Entry("clock_period",
          lambda v: Backplane(Simulator(), _cpu(), clock_period=v),
          Real(above=0), kept=lambda b: b.clock_period),
    Entry("batch_instructions",
          lambda v: Backplane(Simulator(), _cpu(), batch_instructions=v),
          Count(1), kept=lambda b: b.batch_instructions),
    Entry("capacity", lambda v: Channel(Simulator(), capacity=v),
          Count(0, optional=True), kept=lambda c: c.capacity),
    Entry("latency_per_message",
          lambda v: Channel(Simulator(), latency_per_message=v),
          Real(least=0), kept=lambda c: c.latency_per_message),
    Entry("latency_per_word",
          lambda v: Channel(Simulator(), latency_per_word=v),
          Real(least=0), kept=lambda c: c.latency_per_word),
    Entry("n_registers", lambda v: RegisterDevice(Simulator(), "d", v),
          Count(1)),
    Entry("access_time",
          lambda v: RegisterDevice(Simulator(), "d", 2, access_time=v),
          Real(least=0), kept=lambda d: d.access_time),
    Entry("depth", lambda v: FifoDevice(Simulator(), depth=v), Count(1),
          kept=lambda d: d.depth, extra=(-3, 1)),
    Entry("arbitration_time",
          lambda v: SystemBus(Simulator(), arbitration_time=v),
          Real(least=0), kept=lambda b: b.arbitration_time),
    Entry("setup_time", lambda v: SystemBus(Simulator(), setup_time=v),
          Real(least=0), kept=lambda b: b.setup_time),
    Entry("word_time", lambda v: SystemBus(Simulator(), word_time=v),
          Real(least=0), kept=lambda b: b.word_time),
    Entry("base", lambda v: SystemBus(Simulator()).attach_slave(
        "s", v, 4, lambda *a: 0), Count(0)),
    Entry("size", lambda v: SystemBus(Simulator()).attach_slave(
        "s", 0, v, lambda *a: 0), Count(1)),
    Entry("extra_cycles", lambda v: SystemBus(Simulator()).attach_slave(
        "s", 0, 4, lambda *a: 0, extra_cycles=v), Count(0)),
    Entry("base", lambda v: _bus_slave(base=v), Count(0)),
    Entry("size", lambda v: _bus_slave(size=v), Count(1)),
    Entry("wait_states", lambda v: _bus_slave(wait_states=v), Count(0)),
    Entry("q", lambda v: Histogram("h").quantile(v),
          Real(least=0, most=1)),
    # R32
    Entry("region 'd': base", lambda v: Memory().add_region(
        "d", v, 4, read_fn=lambda o: 0), Count(0)),
    Entry("region 'd': size", lambda v: Memory().add_region(
        "d", 0x100, v, read_fn=lambda o: 0), Count(1)),
    Entry("max_instructions", lambda v: _halted_cpu().run(v), Count(0)),
    Entry("max_steps", lambda v: _cpu().run_block(v), Count(None),
          extra=(3,)),
    Entry("budget", lambda v: BatchCpu(Isa(), {0: 0}).run(v), Count(1)),
    Entry("retired", lambda v: _batch().fork_at(v), Count(0)),
    Entry("retired", lambda v: _batch().live_after(v), Count(0)),
    Entry("cycles", lambda v: CustomOp("c", CUSTOM_BASE, max, cycles=v),
          Count(1), kept=lambda op: op.cycles),
    Entry("custom opcode", lambda v: CustomOp("c", v, max),
          Count(CUSTOM_BASE, 0x100)),
    Entry("area", lambda v: CustomOp("c", CUSTOM_BASE, max, area=v),
          Real(least=0), kept=lambda op: op.area),
    Entry("hot_threshold",
          lambda v: BlockTranslator(_cpu(), hot_threshold=v), Count(1),
          kept=lambda t: t.hot_threshold),
    Entry("max_blocks", lambda v: BlockTranslator(_cpu(), max_blocks=v),
          Count(1), kept=lambda t: t.max_blocks),
    # fault specs, frames and scenarios
    Entry("index", lambda v: _fault(index=v), Count(0), FaultSpecError,
          kept=lambda f: f.index),
    Entry("bit", lambda v: _fault(bit=v), Count(0, 32), FaultSpecError,
          kept=lambda f: f.bit),
    Entry("time", lambda v: _fault(time=v), Real(least=0), FaultSpecError,
          kept=lambda f: f.time),
    Entry("count", lambda v: _fault(count=v), Count(0), FaultSpecError,
          kept=lambda f: f.count),
    Entry("delay", lambda v: FaultSpec("msg_delay", "out", delay=v),
          Real(above=0), FaultSpecError, kept=lambda f: f.delay),
    Entry("delay", lambda v: _fault(delay=v), Real(least=0, most=0),
          FaultSpecError, kept=lambda f: f.delay),
    Entry("n", lambda v: sample_faults(_frame(), v), Count(0),
          FaultSpecError),
    Entry("seed", lambda v: sample_faults(_frame(), 3, seed=v),
          Count(None), FaultSpecError),
    Entry("time[0]", lambda v: sample_faults(_frame(time=(v, 100.0)), 3),
          Real(least=0, most=100), FaultSpecError),
    Entry("time[1]", lambda v: sample_faults(_frame(time=(5, v)), 3),
          Real(least=5), FaultSpecError, extra=(1, 5)),
    Entry("data_bits", lambda v: sample_faults(_frame(data_bits=v), 3),
          Count(1, 33), FaultSpecError, extra=(32, 33)),
    Entry("devices['x']", lambda v: sample_faults(_frame(devices=v), 8),
          Count(1), FaultSpecError),
    Entry("channels['x']", lambda v: sample_faults(_frame(channels=v), 8),
          Count(1), FaultSpecError),
    Entry("cpu.regs", lambda v: sample_faults(_frame(**{"cpu.regs": v}), 8),
          Count(2, 17), FaultSpecError, extra=(1, 16, 17, 40)),
    Entry("cpu.max_count",
          lambda v: sample_faults(_frame(**{"cpu.max_count": v}), 8),
          Count(2), FaultSpecError, extra=(1,)),
    Entry("cpu.pc_bits",
          lambda v: sample_faults(_frame(**{"cpu.pc_bits": v}), 8),
          Count(1, 33), FaultSpecError),
    Entry("budget", lambda v: _software(budget=v), Count(1),
          kept=lambda w: w.budget),
    Entry("out_len", lambda v: _software(out_len=v, verdict_index=0),
          Count(1), kept=lambda w: w.out_len),
    Entry("verdict_index", lambda v: _software(verdict_index=v),
          Count(0, SCENARIOS["swmac"].software.out_len),
          kept=lambda w: w.verdict_index),
    # drivers and the campaign service
    Entry("workers", lambda v: run_campaign("coproc", [], workers=v),
          Count(1), reject_only=True),
    Entry("workers", lambda v: run_sweep([], workers=v), Count(1)),
    Entry("workers", lambda v: explore(_SPEC, workers=v), Count(1),
          reject_only=True),
    Entry("evaluations", lambda v: random_search(_SPEC, v), Count(1),
          reject_only=True),
    Entry("workers", lambda v: run_cells([], "fault", v, _on_done),
          Count(1)),
    Entry("workers", lambda v: run_store_jobs(
        CampaignStore(":memory:"), "fault", [], v, _on_done), Count(1)),
    Entry("lease_s", lambda v: CampaignStore(":memory:", lease_s=v),
          Real(above=0), kept=lambda s: s.lease_s),
    Entry("max_attempts", lambda v: CampaignStore(":memory:",
                                                  max_attempts=v),
          Count(1), kept=lambda s: s.max_attempts),
    Entry("heartbeat_timeout_s",
          lambda v: CampaignStore(":memory:", heartbeat_timeout_s=v),
          Real(above=0, optional=True)),
    # explore, sweep configs and specs
    Entry("population", lambda v: ExploreSpec(population=v), Count(2),
          kept=lambda s: s.population),
    Entry("generations", lambda v: ExploreSpec(generations=v), Count(1),
          kept=lambda s: s.generations),
    Entry("ga_seed", lambda v: ExploreSpec(ga_seed=v), Count(None),
          kept=lambda s: s.ga_seed),
    Entry("mutation_rate", lambda v: ExploreSpec(mutation_rate=v),
          Real(least=0, most=1), kept=lambda s: s.mutation_rate),
    Entry("crossover_rate", lambda v: ExploreSpec(crossover_rate=v),
          Real(least=0, most=1), kept=lambda s: s.crossover_rate),
    Entry("immigrant_fraction", lambda v: ExploreSpec(immigrant_fraction=v),
          Real(least=0, most=1), kept=lambda s: s.immigrant_fraction),
    Entry("scenario_faults", lambda v: ExploreSpec(scenario_faults=v),
          Count(0), kept=lambda s: s.scenario_faults, extra=(-3,)),
    Entry("scenario_seed", lambda v: ExploreSpec(scenario_seed=v),
          Count(None), kept=lambda s: s.scenario_seed),
    Entry("size", lambda v: doe_population(_SPEC.space(), v, 0), Count(1)),
    Entry("n_tasks", lambda v: SweepConfig(n_tasks=v), Count(1),
          kept=lambda c: c.n_tasks),
    Entry("seed", lambda v: SweepConfig(seed=v), Count(None),
          kept=lambda c: c.seed),
    Entry("hw_parallelism", lambda v: SweepConfig(hw_parallelism=v),
          Count(1, optional=True), kept=lambda c: c.hw_parallelism),
    Entry("deadline_factor", lambda v: SweepConfig(deadline_factor=v),
          Real(above=0, optional=True), kept=lambda c: c.deadline_factor),
    Entry("area_budget_factor", lambda v: SweepConfig(area_budget_factor=v),
          Real(above=0, optional=True),
          kept=lambda c: c.area_budget_factor),
    Entry("hw_parallelism", lambda v: ProblemSpec(hw_parallelism=v),
          Count(1, optional=True), kept=lambda s: s.hw_parallelism),
    # graphs, tasks and kernels
    Entry("task 'x': sw_time", lambda v: Task("x", sw_time=v),
          Real(above=0), kept=lambda t: t.sw_time),
    Entry("task 'x': hw_time", lambda v: Task("x", hw_time=v),
          Real(above=0, optional=True)),
    Entry("task 'x': hw_area", lambda v: Task("x", hw_area=v),
          Real(least=0), kept=lambda t: t.hw_area),
    Entry("task 'x': sw_size", lambda v: Task("x", sw_size=v),
          Real(least=0), kept=lambda t: t.sw_size),
    Entry("task 'x': parallelism", lambda v: Task("x", parallelism=v),
          Real(least=1), kept=lambda t: t.parallelism),
    Entry("task 'x': modifiability", lambda v: Task("x", modifiability=v),
          Real(least=0, most=1), kept=lambda t: t.modifiability),
    Entry("task 'x': period", lambda v: Task("x", period=v),
          Real(above=0, optional=True), kept=lambda t: t.period),
    Entry("task 'x': deadline", lambda v: Task("x", deadline=v),
          Real(above=0, optional=True), kept=lambda t: t.deadline),
    Entry("task 'x': wcet['dsp']", lambda v: Task("x", wcet={"dsp": v}),
          Real(above=0)),
    Entry("edge a->b: volume", lambda v: Edge("a", "b", volume=v),
          Real(least=0), kept=lambda e: e.volume),
    Entry("n_tasks", lambda v: random_layered_graph(random.Random(0), v),
          Count(1)),
    Entry("n_tasks", lambda v: generate("pipeline", random.Random(0), v),
          Count(1)),
    Entry("width", lambda v: random_layered_graph(random.Random(0), 4, v),
          Count(1)),
    Entry("extra_edge_prob", lambda v: random_layered_graph(
        random.Random(0), 4, extra_edge_prob=v), Real(least=0, most=1)),
    Entry("period", lambda v: periodic_taskset(random.Random(0), 4, v),
          Real(above=0)),
    Entry("utilization", lambda v: periodic_taskset(
        random.Random(0), 4, utilization=v), Real(above=0)),
    Entry("n_clusters", lambda v: communication_clusters(_graph(), v),
          Count(1)),
    Entry("n_taps", fir, Count(1)),
    Entry("n_taps", lms_update, Count(1)),
    # estimators, behaviours, interfaces, ASIPs and co-synthesis
    Entry("sync_overhead_ns", lambda v: CommModel(sync_overhead_ns=v),
          Real(least=0), kept=lambda m: m.sync_overhead_ns),
    Entry("word_time_ns", lambda v: CommModel(word_time_ns=v),
          Real(least=0), kept=lambda m: m.word_time_ns),
    Entry("area", lambda v: HardwareEstimate(v, 1.0), Real(least=0)),
    Entry("latency_ns", lambda v: HardwareEstimate(1.0, v), Real(least=0)),
    Entry("clock_ns", lambda v: Processor("p", clock_ns=v), Real(above=0)),
    Entry("speed_factor", lambda v: Processor("p", speed_factor=v),
          Real(above=0)),
    Entry("cost", lambda v: Processor("p", cost=v), Real(least=0)),
    Entry("mem_words", lambda v: Processor("p", mem_words=v),
          Real(above=0)),
    Entry("duration_ns", lambda v: Compute(v), Real(least=0),
          kept=lambda c: c.duration_ns),
    Entry("hw_speedup", lambda v: Compute(1.0, hw_speedup=v),
          Real(above=0), kept=lambda c: c.hw_speedup),
    Entry("parallelism", lambda v: Compute(1.0, parallelism=v),
          Real(least=1), kept=lambda c: c.parallelism),
    Entry("words", lambda v: Send("c", words=v), Real(above=0),
          kept=lambda s: s.words),
    Entry("count", lambda v: Loop(v, ()), Count(0), kept=lambda lp: lp.count),
    Entry("wait_states", lambda v: DeviceSpec(
        "d", [RegisterSpec("r")], wait_states=v), Count(0)),
    Entry("area_budget", lambda v: select_instructions([], v),
          Real(least=0)),
    Entry("resolution", lambda v: select_instructions([], 10.0, v),
          Real(above=0)),
    Entry("counts['r32']", lambda v: Allocation.of({"r32": v}), Count(0)),
    Entry("u_bound", lambda v: periodic_synthesis(_graph(), u_bound=v),
          Real(above=0, most=1), PeriodicSpecError),
    Entry("max_threads", lambda v: synthesize_multithreaded(
        _graph(), max_threads=v), Count(1)),
    # partitioning
    Entry("hw_parallelism", lambda v: _problem(hw_parallelism=v),
          Count(1, optional=True), kept=lambda p: p.hw_parallelism),
    Entry("hw_area_budget", lambda v: _problem(hw_area_budget=v),
          Real(least=0, optional=True, inf=True),
          kept=lambda p: p.hw_area_budget),
    Entry("deadline_ns", lambda v: _problem(deadline_ns=v),
          Real(least=0, optional=True, inf=True),
          kept=lambda p: p.deadline_ns),
    Entry("annealing.cooling",
          lambda v: simulated_annealing(_problem(), cooling=v),
          Real(above=0, below=1)),
    Entry("annealing.final_temperature_ratio",
          lambda v: simulated_annealing(_problem(),
                                        final_temperature_ratio=v),
          Real(above=0, below=1)),
    Entry("annealing.initial_temperature",
          lambda v: simulated_annealing(_problem(), initial_temperature=v,
                                        steps_per_temperature=1),
          Real(above=0, optional=True)),
    Entry("annealing.steps_per_temperature",
          lambda v: simulated_annealing(_problem(),
                                        steps_per_temperature=v),
          Count(1)),
    Entry("gclp.base_threshold", lambda v: gclp_partition(
        _problem(), base_threshold=v),
          Real(least=0, most=1)),
    Entry("gclp.extremity_gain", lambda v: gclp_partition(
        _problem(), extremity_gain=v),
          Real(least=0)),
    Entry("vulcan.slack_factor", lambda v: vulcan_partition(
        _problem(), slack_factor=v),
          Real(above=0)),
    Entry("greedy.max_iterations",
          lambda v: greedy_partition(_problem(), max_iterations=v),
          Count(1)),
    Entry("kl.max_passes", lambda v: kernighan_lin(_problem(),
                                                   max_passes=v),
          Count(1)),
]


def _cases():
    for entry in ENTRIES:
        values = HOSTILE + ((2.0,) if entry.domain.integral else ()) \
            + entry.extra
        for value in values:
            if entry.reject_only and entry.domain.admits(value):
                continue
            yield pytest.param(entry, value,
                               id=f"{entry.name}-{value!r}")


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@pytest.mark.parametrize("entry,value", list(_cases()))
def test_domain(entry, value):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        if entry.domain.admits(value):
            result = entry.call(value)
            if entry.kept is not None:
                kept = entry.kept(result)
                assert kept is value or (type(kept) is type(value)
                                         and kept == value), kept
        else:
            with pytest.raises(entry.error) as info:
                entry.call(value)
            assert entry.name in str(info.value)
    except _Timeout:
        pytest.fail(f"{entry.name}={value!r} ran past {ALARM_S} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _names_bool(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "bool") or (
        isinstance(node, ast.Tuple) and any(map(_names_bool, node.elts)))


def test_only_the_helper_tells_bools_from_ints():
    """``isinstance(x, bool)`` is how a domain check tells True from 1;
    outside ``repro._domain`` it means the check has forked again."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "_domain.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and _names_bool(node.args[1])):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
