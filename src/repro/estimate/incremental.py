"""Incremental hardware estimation with functional-unit sharing.

Reproduces the key idea of Vahid & Gajski, *Incremental Hardware
Estimation During Hardware/Software Functional Partitioning* (IEEE
Trans. VLSI 3(3), 1995), reference [18] of the paper: during iterative
partitioning, thousands of candidate moves must be evaluated, so the
hardware area of "the current hardware partition" must be maintained
*incrementally* rather than re-derived per move.

Model: functions placed in hardware execute mutually exclusively on a
shared datapath (the co-processor of Figure 8 serves one call at a
time), so the shared pool of each functional-unit type is the *maximum*
requirement over resident functions, not the sum.  Sharing is not free:
every additional function binding onto a pooled unit adds steering
(mux) area, and every resident function adds its own controller area.

The estimator keeps, per component type, a multiset of per-function
requirements; adds and removes update the pooled maximum in O(types)
and the area in O(1) from cached partial sums.  ``naive_additive_area``
gives the estimate a sharing-blind estimator would produce (each
function pays its standalone area) — the benchmark shows how far apart
the two land and how that changes accepted partitioning moves (E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.graph.cdfg import CDFG
from repro.graph.taskgraph import Task
from repro.hls.library import (
    ComponentLibrary,
    MUX_AREA,
    controller_area,
    default_library,
    register_area,
)
from repro.estimate.hardware import fu_requirements


#: steering overhead per extra function sharing one pooled FU
SHARING_MUX_LEGS = 2


def requirements_from_cdfg(
    cdfg: CDFG, library: Optional[ComponentLibrary] = None
) -> Dict[str, int]:
    """FU requirement vector of a behavior (see
    :func:`repro.estimate.hardware.fu_requirements`)."""
    return fu_requirements(cdfg, library or default_library())


def requirements_from_task(
    task: Task, library: Optional[ComponentLibrary] = None
) -> Dict[str, int]:
    """Synthesize a plausible FU requirement vector for a coarse task.

    Tasks carry only a scalar ``hw_area``; we decompose it into the stock
    adder/multiplier/logic mix of DSP datapaths (50% multiplier area,
    35% adder, 15% logic by cost), scaled by the task's parallelism.
    Deterministic, so partitioning results are reproducible.
    """
    library = library or default_library()
    mult = library.component("multiplier").area
    add = library.component("adder").area
    logic = library.component("logic_unit").area
    budget = max(task.hw_area, add)
    n_mult = max(0, int(budget * 0.5 / mult))
    n_add = max(1, int(budget * 0.35 / add))
    n_logic = max(0, int(budget * 0.15 / logic))
    out = {"adder": n_add}
    if n_mult:
        out["multiplier"] = n_mult
    if n_logic:
        out["logic_unit"] = n_logic
    return out


@dataclass
class _FunctionEntry:
    requirements: Dict[str, int]
    registers: int
    states: int


class IncrementalEstimator:
    """Maintains the area of a hardware partition under sharing.

    Usage in a partitioning inner loop::

        est = IncrementalEstimator()
        est.add("dct", {"adder": 2, "multiplier": 2}, registers=8, states=12)
        est.add("quant", {"adder": 1, "multiplier": 1}, registers=4, states=6)
        area_with_both = est.area
        est.remove("quant")      # O(types), not a re-estimate
    """

    def __init__(self, library: Optional[ComponentLibrary] = None) -> None:
        self.library = library or default_library()
        self._functions: Dict[str, _FunctionEntry] = {}
        # per component type: sorted multiset of requirements (small lists)
        self._pool: Dict[str, List[int]] = {}
        self._fu_area = 0.0
        self._mux_area = 0.0
        self.updates = 0

    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        requirements: Dict[str, int],
        registers: int = 4,
        states: int = 8,
    ) -> float:
        """Place a function into the hardware partition; returns the new
        total area."""
        if name in self._functions:
            raise ValueError(f"function {name!r} already resident")
        entry = _FunctionEntry(dict(requirements), registers, states)
        self._functions[name] = entry
        for comp, count in requirements.items():
            self._apply_pool_change(comp, count, adding=True)
        self._recount_mux()
        self.updates += 1
        return self.area

    def remove(self, name: str) -> float:
        """Remove a function from the partition; returns the new area."""
        entry = self._functions.pop(name, None)
        if entry is None:
            raise KeyError(f"function {name!r} not resident")
        for comp, count in entry.requirements.items():
            self._apply_pool_change(comp, count, adding=False)
        self._recount_mux()
        self.updates += 1
        return self.area

    def would_add(self, requirements: Dict[str, int]) -> float:
        """Marginal area of adding a function with ``requirements``
        (without mutating the estimator) — the quantity a partitioner
        compares against the function's software cost."""
        delta = 0.0
        for comp, count in requirements.items():
            pool = self._pool.get(comp, [])
            current_max = pool[-1] if pool else 0
            if count > current_max:
                delta += (count - current_max) * \
                    self.library.component(comp).area
            else:
                delta += SHARING_MUX_LEGS * MUX_AREA * min(count, current_max)
        return delta

    # ------------------------------------------------------------------
    def _apply_pool_change(self, comp: str, count: int, adding: bool) -> None:
        pool = self._pool.setdefault(comp, [])
        old_max = pool[-1] if pool else 0
        if adding:
            # insert keeping sorted order (pools are tiny)
            lo = 0
            while lo < len(pool) and pool[lo] < count:
                lo += 1
            pool.insert(lo, count)
        else:
            pool.remove(count)
        new_max = pool[-1] if pool else 0
        if new_max != old_max:
            self._fu_area += (new_max - old_max) * \
                self.library.component(comp).area
        if not pool:
            del self._pool[comp]

    def _recount_mux(self) -> None:
        """Steering area: each function beyond the first sharing a pooled
        type adds mux legs proportional to its requirement."""
        total = 0.0
        for comp, pool in self._pool.items():
            if len(pool) <= 1:
                continue
            # all but the largest requirement share existing units
            for count in pool[:-1]:
                total += SHARING_MUX_LEGS * MUX_AREA * count
        self._mux_area = total

    # ------------------------------------------------------------------
    @property
    def resident(self) -> List[str]:
        """Names of functions currently in the hardware partition."""
        return list(self._functions)

    @property
    def fu_area(self) -> float:
        """Area of the shared functional-unit pool."""
        return self._fu_area

    @property
    def area(self) -> float:
        """Total estimated hardware area of the partition."""
        regs = sum(e.registers for e in self._functions.values())
        states = sum(e.states for e in self._functions.values())
        signals = sum(sum(e.requirements.values())
                      for e in self._functions.values())
        ctrl = controller_area(states, signals) if self._functions else 0.0
        return self._fu_area + self._mux_area + register_area(regs) + ctrl

    def naive_additive_area(self) -> float:
        """What a sharing-blind estimator reports: every function pays
        its standalone FU + register + controller area."""
        total = 0.0
        for entry in self._functions.values():
            fu = sum(
                self.library.component(comp).area * count
                for comp, count in entry.requirements.items()
            )
            ctrl = controller_area(
                entry.states, sum(entry.requirements.values())
            )
            total += fu + register_area(entry.registers) + ctrl
        return total

    def sharing_savings(self) -> float:
        """Area saved by sharing vs the naive additive estimate."""
        return self.naive_additive_area() - self.area

    def __len__(self) -> int:
        return len(self._functions)


# ----------------------------------------------------------------------
# cache-aware set evaluation
# ----------------------------------------------------------------------
#
# The incremental estimator makes one *moving* partition cheap to track;
# a sweep evaluates thousands of *unrelated* partitions, many of which
# recur (different heuristics on the same problem probe overlapping
# subsets, and a re-run probes all of them again).  ``shared_area``
# memoizes the from-scratch evaluation of a whole function set under a
# canonical key.  Area does not depend on function *names* — only on the
# multiset of (requirements, registers, states) — so the key drops names
# entirely, which lets distinct tasks with identical characterizations
# share one cache line.

#: canonical form of one resident function:
#: (sorted (component, count) pairs, registers, states)
EntryKey = Tuple[Tuple[Tuple[str, int], ...], int, int]


def entry_key(
    requirements: Dict[str, int], registers: int, states: int
) -> EntryKey:
    """Canonical, hashable form of one function's area inputs."""
    return (tuple(sorted(requirements.items())), registers, states)


def _build_area(entries: Tuple[EntryKey, ...],
                library: Optional[ComponentLibrary]) -> float:
    est = IncrementalEstimator(library)
    for i, (req_items, registers, states) in enumerate(entries):
        est.add(f"f{i}", dict(req_items), registers=registers, states=states)
    return est.area


@lru_cache(maxsize=65536)
def _shared_area_default(entries: Tuple[EntryKey, ...]) -> float:
    return _build_area(entries, None)


def shared_area(
    entries: Tuple[EntryKey, ...],
    library: Optional[ComponentLibrary] = None,
) -> float:
    """Sharing-aware area of a set of functions, memoized.

    ``entries`` is a tuple of :func:`entry_key` values; order does not
    affect the estimate, so callers should pass the tuple sorted to
    maximize cache hits.  Only default-library queries are cached (a
    custom library is not hashable and rare on hot paths).
    """
    if not entries:
        return 0.0
    if library is None:
        return _shared_area_default(entries)
    return _build_area(entries, library)


def shared_area_cache_info():
    """Hit/miss statistics of the memoized set evaluator."""
    return _shared_area_default.cache_info()


def clear_shared_area_cache() -> None:
    """Drop every memoized set evaluation (for tests and benchmarks)."""
    _shared_area_default.cache_clear()
