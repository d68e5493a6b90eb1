"""Sensitivity-driven co-synthesis (Yen & Wolf [9]).

"Sensitivity-Driven Co-Synthesis of Distributed Embedded Systems":
iterative improvement where each candidate architectural modification is
evaluated by its *sensitivity* — the ratio of cost change to performance
change, measured by actually rescheduling the system.

Moves considered each iteration:

* **remove** a PE instance (cost down, makespan up?);
* **downgrade** an instance to the next cheaper type;
* **upgrade** an instance to the next costlier type (when infeasible);
* **add** an instance of any type (when infeasible).

While the deadline is met, the accepted move is the one that saves the
most cost per nanosecond of makespan given up (staying feasible); while
it is missed, the move that buys the most makespan per unit of cost.
Terminates when no move helps; the greedy trajectory is deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.estimate.communication import CommModel, DEFAULT
from repro.estimate.software import Processor, default_processor_library
from repro.graph.taskgraph import TaskGraph
from repro.cosynth.multiproc.ilp import SynthesisResult
from repro.cosynth.multiproc.library import Allocation
from repro.cosynth.multiproc.scheduler import schedule_on


def sensitivity_synthesis(
    graph: TaskGraph,
    deadline: float,
    library: Optional[Dict[str, Processor]] = None,
    comm: CommModel = DEFAULT,
    max_iterations: int = 200,
) -> Optional[SynthesisResult]:
    """Run sensitivity-driven iterative improvement.

    Starts from one instance of the fastest type and adds fast PEs until
    feasible (or gives up), then walks cost downhill.  Returns None only
    if no architecture within ``len(graph)`` fastest PEs is feasible.
    """
    library = library or default_processor_library()
    types_by_speed = sorted(
        library.values(),
        key=lambda p: (p.speed_factor / p.clock_ns, -p.cost),
    )
    types_by_cost = sorted(library.values(), key=lambda p: (p.cost, p.name))
    fastest = types_by_speed[-1]
    evaluations = 0

    counts: Dict[str, int] = {fastest.name: 1}

    def build() -> Allocation:
        return Allocation.of(counts, library)

    def measure(alloc: Allocation):
        nonlocal evaluations
        evaluations += 1
        return schedule_on(graph, alloc, comm)

    schedule = measure(build())
    # grow until feasible
    while not schedule.meets(deadline):
        if sum(counts.values()) >= max(len(graph), 1):
            return None
        counts[fastest.name] = counts.get(fastest.name, 0) + 1
        schedule = measure(build())

    best_alloc = build()
    best_schedule = schedule

    for _ in range(max_iterations):
        move = _best_move(
            graph, counts, best_schedule, deadline, library,
            types_by_cost, comm, measure,
        )
        if move is None:
            break
        counts, best_schedule, best_alloc = move

    return SynthesisResult(
        allocation=best_alloc,
        schedule=best_schedule,
        deadline=deadline,
        algorithm="sensitivity",
        evaluations=evaluations,
    )


def _neighbours(
    counts: Dict[str, int],
    types_by_cost: List[Processor],
) -> List[Dict[str, int]]:
    """Candidate architectures one move away."""
    names = [p.name for p in types_by_cost]
    out: List[Dict[str, int]] = []
    for k, n in counts.items():
        if n > 0:
            # remove one
            cand = dict(counts)
            cand[k] -= 1
            if sum(cand.values()) >= 1:
                out.append(cand)
            # change type (both directions)
            idx = names.index(k)
            for other_idx in (idx - 1, idx + 1):
                if 0 <= other_idx < len(names):
                    cand = dict(counts)
                    cand[k] -= 1
                    other = names[other_idx]
                    cand[other] = cand.get(other, 0) + 1
                    out.append(cand)
    # add one of anything
    for name in names:
        cand = dict(counts)
        cand[name] = cand.get(name, 0) + 1
        out.append(cand)
    # normalize (drop zero entries) and dedup
    seen = set()
    unique = []
    for cand in out:
        cand = {k: v for k, v in cand.items() if v > 0}
        key = tuple(sorted(cand.items()))
        if key and key not in seen:
            seen.add(key)
            unique.append(cand)
    return unique


def _best_move(
    graph, counts, current_schedule, deadline, library,
    types_by_cost, comm, measure,
):
    current_cost = Allocation.of(counts, library).cost
    feasible_now = current_schedule.meets(deadline)
    best = None
    for cand_counts in _neighbours(counts, types_by_cost):
        alloc = Allocation.of(cand_counts, library)
        if feasible_now and alloc.cost >= current_cost:
            continue  # only cost-reducing moves once feasible
        schedule = measure(alloc)
        if feasible_now:
            if not schedule.meets(deadline):
                continue
            # sensitivity: cost saved per ns of makespan given up
            saved = current_cost - alloc.cost
            slowdown = max(
                schedule.makespan - current_schedule.makespan, 1e-9
            )
            key = (-saved / slowdown, alloc.cost)
        else:
            speedup = current_schedule.makespan - schedule.makespan
            if speedup <= 0:
                continue
            key = (-speedup / max(alloc.cost - current_cost, 1e-9),
                   alloc.cost)
        if best is None or key < best[0]:
            best = (key, cand_counts, schedule, alloc)
    if best is None:
        return None
    _key, cand_counts, schedule, alloc = best
    return cand_counts, schedule, alloc
