"""Operation scheduling for high-level synthesis.

Three classic schedulers, all producing a :class:`Schedule`:

* :func:`asap` / :func:`alap` — unconstrained earliest/latest schedules,
  used directly and as the mobility ranges for force-directed scheduling;
* :func:`list_schedule` — resource-constrained list scheduling with
  b-level priority (the workhorse of Gupta–De Micheli-style co-synthesis
  [6]);
* :func:`force_directed` — Paulin/Knight force-directed scheduling:
  minimize resource usage under a latency bound by balancing the
  operation distribution graphs.

Multi-cycle operations are supported: an op's latency in control steps
comes from the cheapest library component for its kind at the chosen
cycle time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.cdfg import CDFG, OpKind
from repro.hls.library import Component, ComponentLibrary, default_library


class SchedulingError(ValueError):
    """Raised for infeasible constraints."""


@dataclass
class Schedule:
    """A control-step assignment for every op in a CDFG.

    ``starts[op]`` is the first control step of the op; ``latencies[op]``
    how many steps it occupies (0 for inputs/constants/outputs, which are
    free).  ``assignment[op]`` names the component type chosen for each
    compute op.
    """

    cdfg: CDFG
    cycle_time: float
    starts: Dict[str, int] = field(default_factory=dict)
    latencies: Dict[str, int] = field(default_factory=dict)
    assignment: Dict[str, str] = field(default_factory=dict)

    def finish(self, name: str) -> int:
        """First step at which the op's result is available."""
        return self.starts[name] + self.latencies[name]

    @property
    def length(self) -> int:
        """Total schedule length in control steps."""
        return max(
            (self.finish(op.name) for op in self.cdfg.compute_ops()),
            default=0,
        )

    @property
    def latency_ns(self) -> float:
        """Schedule length in nanoseconds."""
        return self.length * self.cycle_time

    def verify(self) -> None:
        """Check precedence feasibility; raises on violation."""
        for op in self.cdfg.ops:
            if op.name not in self.starts:
                raise SchedulingError(f"op {op.name!r} not scheduled")
            for arg in op.args:
                if self.starts[op.name] < self.finish(arg):
                    raise SchedulingError(
                        f"op {op.name!r} starts at {self.starts[op.name]} "
                        f"before its input {arg!r} finishes at "
                        f"{self.finish(arg)}"
                    )

    def ops_active_at(self, step: int) -> List[str]:
        """Compute ops occupying control step ``step``."""
        return [
            op.name for op in self.cdfg.compute_ops()
            if self.starts[op.name] <= step < self.finish(op.name)
        ]

    def resource_usage(self) -> Dict[str, int]:
        """Peak simultaneous ops per component type — the FU count a
        binder cannot beat."""
        usage: Dict[str, int] = {}
        for step in range(self.length):
            here: Dict[str, int] = {}
            for name in self.ops_active_at(step):
                comp = self.assignment[name]
                here[comp] = here.get(comp, 0) + 1
            for comp, count in here.items():
                usage[comp] = max(usage.get(comp, 0), count)
        return usage


def _latency_and_assignment(
    cdfg: CDFG, library: ComponentLibrary, cycle_time: float,
    prefer_fast: bool = False,
) -> Tuple[Dict[str, int], Dict[str, str]]:
    latencies: Dict[str, int] = {}
    assignment: Dict[str, str] = {}
    for op in cdfg.ops:
        if not op.kind.is_compute:
            latencies[op.name] = 0
            continue
        comp = (library.fastest(op.kind) if prefer_fast
                else library.cheapest(op.kind))
        latencies[op.name] = comp.latency_cycles(cycle_time)
        assignment[op.name] = comp.name
    return latencies, assignment


def asap(
    cdfg: CDFG,
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
) -> Schedule:
    """Earliest-possible schedule (unbounded resources)."""
    library = library or default_library()
    latencies, assignment = _latency_and_assignment(cdfg, library, cycle_time)
    starts: Dict[str, int] = {}
    for name in cdfg.topological_order():
        op = cdfg.op(name)
        starts[name] = max(
            (starts[a] + latencies[a] for a in op.args), default=0
        )
    sched = Schedule(cdfg, cycle_time, starts, latencies, assignment)
    sched.verify()
    return sched


def alap(
    cdfg: CDFG,
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
    latency_bound: Optional[int] = None,
) -> Schedule:
    """Latest-possible schedule within ``latency_bound`` steps.

    Defaults to the ASAP length (the tightest feasible bound).
    """
    library = library or default_library()
    base = asap(cdfg, library, cycle_time)
    bound = latency_bound if latency_bound is not None else base.length
    if bound < base.length:
        raise SchedulingError(
            f"latency bound {bound} below critical path {base.length}"
        )
    latencies, assignment = base.latencies, base.assignment
    starts: Dict[str, int] = {}
    for name in reversed(cdfg.topological_order()):
        op = cdfg.op(name)
        users = cdfg.uses(name)
        if users:
            latest = min(starts[u] for u in users) - latencies[name]
        else:
            latest = bound - latencies[name]
        starts[name] = latest
    sched = Schedule(cdfg, cycle_time, starts, latencies, assignment)
    sched.verify()
    return sched


def list_schedule(
    cdfg: CDFG,
    resources: Dict[str, int],
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
) -> Schedule:
    """Resource-constrained list scheduling.

    ``resources`` maps component names to instance counts; every compute
    op must have at least one candidate type present.  Priority is
    b-level in steps (longest path to any sink), the standard heuristic.
    """
    library = library or default_library()
    latencies, _default_assign = _latency_and_assignment(
        cdfg, library, cycle_time
    )
    # candidate component types per op, restricted to provided resources
    candidates: Dict[str, List[Component]] = {}
    for op in cdfg.compute_ops():
        cands = [
            c for c in library.candidates(op.kind)
            if resources.get(c.name, 0) > 0
        ]
        if not cands:
            raise SchedulingError(
                f"no resource for op {op.name!r} ({op.kind.value}); "
                f"available: {sorted(resources)}"
            )
        candidates[op.name] = cands

    # b-level priority (in steps, using each op's cheapest-candidate latency)
    blevel: Dict[str, float] = {}
    for name in reversed(cdfg.topological_order()):
        succ_level = max((blevel[u] for u in cdfg.uses(name)), default=0.0)
        own = latencies[name] if cdfg.op(name).kind.is_compute else 0
        blevel[name] = succ_level + own

    starts: Dict[str, int] = {}
    assignment: Dict[str, str] = {}
    # non-compute ops resolve as their preds complete
    unscheduled = {op.name for op in cdfg.compute_ops()}
    # busy[name] = list of (instance_free_step) per component type
    free_at: Dict[str, List[int]] = {
        name: [0] * count for name, count in resources.items()
    }

    def data_ready(name: str) -> int:
        op = cdfg.op(name)
        ready = 0
        for arg in op.args:
            arg_op = cdfg.op(arg)
            if arg_op.kind.is_compute:
                if arg not in starts:
                    return -1
                ready = max(ready, starts[arg] + latencies[arg])
        return ready

    order = {name: i for i, name in enumerate(cdfg.topological_order())}
    step_guard = 0
    while unscheduled:
        ready_ops = [
            (name, data_ready(name)) for name in unscheduled
        ]
        ready_ops = [(n, r) for n, r in ready_ops if r >= 0]
        if not ready_ops:
            raise SchedulingError("no ready ops: dependency cycle?")
        ready_ops.sort(key=lambda nr: (-blevel[nr[0]], order[nr[0]]))
        scheduled_any = False
        for name, ready in ready_ops:
            best: Optional[Tuple[int, str, int]] = None  # (start, comp, idx)
            for comp in candidates[name]:
                lat = comp.latency_cycles(cycle_time)
                for idx, free in enumerate(free_at[comp.name]):
                    start = max(ready, free)
                    key = (start, comp.name, idx)
                    if best is None or key < best:
                        best = key
                        best_lat = lat
            start, comp_name, idx = best
            starts[name] = start
            latencies[name] = best_lat
            assignment[name] = comp_name
            free_at[comp_name][idx] = start + best_lat
            unscheduled.discard(name)
            scheduled_any = True
        if not scheduled_any:  # pragma: no cover - defensive
            step_guard += 1
            if step_guard > len(cdfg):
                raise SchedulingError("list scheduling livelock")

    # place sources and outputs
    for op in cdfg.ops:
        if op.kind.is_compute:
            continue
        if op.kind is OpKind.OUTPUT:
            starts[op.name] = max(
                (starts[a] + latencies[a] for a in op.args), default=0
            )
        else:
            starts[op.name] = 0
        latencies[op.name] = 0
    sched = Schedule(cdfg, cycle_time, starts, latencies, assignment)
    sched.verify()
    return sched


def force_directed(
    cdfg: CDFG,
    latency_bound: Optional[int] = None,
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
) -> Schedule:
    """Force-directed scheduling (Paulin & Knight).

    Minimizes peak resource usage under a latency bound by repeatedly
    fixing the (op, step) choice with the lowest *force* — the increase
    in the op's component-class distribution graph, so ops spread out
    over the available steps.
    """
    library = library or default_library()
    early = asap(cdfg, library, cycle_time)
    bound = latency_bound if latency_bound is not None else early.length
    late = alap(cdfg, library, cycle_time, bound)
    latencies, assignment = early.latencies, early.assignment

    compute = [op.name for op in cdfg.compute_ops()]
    lo = {n: early.starts[n] for n in compute}
    hi = {n: late.starts[n] for n in compute}

    def feasible_steps(name: str) -> List[int]:
        return list(range(lo[name], hi[name] + 1))

    def distribution(comp_name: str) -> List[float]:
        dg = [0.0] * max(bound, 1)
        for n in compute:
            if assignment[n] != comp_name:
                continue
            steps = feasible_steps(n)
            prob = 1.0 / len(steps)
            for s in steps:
                for k in range(latencies[n]):
                    if s + k < len(dg):
                        dg[s + k] += prob
        return dg

    unfixed = [n for n in compute if lo[n] != hi[n]]
    # process in a deterministic order; recompute forces each iteration
    while unfixed:
        best = None  # (force, order-key, name, step)
        dgs = {
            comp: distribution(comp)
            for comp in {assignment[n] for n in unfixed}
        }
        for name in unfixed:
            dg = dgs[assignment[name]]
            steps = feasible_steps(name)
            prob = 1.0 / len(steps)
            mean = {
                k: sum(
                    dg[s + k] for s in steps if s + k < len(dg)
                ) / len(steps)
                for k in range(latencies[name])
            }
            for step in steps:
                force = sum(
                    dg[step + k] - mean[k]
                    for k in range(latencies[name])
                    if step + k < len(dg)
                )
                key = (force, name, step)
                if best is None or key < best:
                    best = key
        _force, name, step = best
        lo[name] = hi[name] = step
        _propagate_bounds(cdfg, latencies, lo, hi, bound)
        unfixed = [n for n in unfixed if lo[n] != hi[n] and n != name]

    starts = {n: lo[n] for n in compute}
    for op in cdfg.ops:
        if op.kind.is_compute:
            continue
        if op.kind is OpKind.OUTPUT:
            starts[op.name] = max(
                (starts[a] + latencies[a] for a in op.args), default=0
            )
        else:
            starts[op.name] = 0
    sched = Schedule(cdfg, cycle_time, starts, latencies, assignment)
    sched.verify()
    return sched


def _propagate_bounds(
    cdfg: CDFG,
    latencies: Dict[str, int],
    lo: Dict[str, int],
    hi: Dict[str, int],
    bound: int,
) -> None:
    """Tighten ASAP/ALAP ranges after fixing an op (forward + backward)."""
    for name in cdfg.topological_order():
        if name not in lo:
            continue
        for arg in cdfg.op(name).args:
            if arg in lo:
                lo[name] = max(lo[name], lo[arg] + latencies[arg])
    for name in reversed(cdfg.topological_order()):
        if name not in hi:
            continue
        for user in cdfg.uses(name):
            if user in hi:
                hi[name] = min(hi[name], hi[user] - latencies[name])
        if hi[name] < lo[name]:
            raise SchedulingError(
                f"infeasible mobility range for {name!r} under bound {bound}"
            )
