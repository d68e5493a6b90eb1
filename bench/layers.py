"""Per-layer attribution for the traced run: wrappers, spans, self time.

The traced run wraps the public functions at each layer boundary from
the benchmark's own files — nothing under ``src/`` changes — and
records one span per call: (name, start, end, parent).  A layer's self
time is the time its spans cover minus the time their child spans
cover, so the self times of all spans plus the untraced remainder
("other") add up to the iteration's wall time.

The span recorder lives here rather than in ``repro.obs`` on purpose:
the benchmark must not change when the code it measures does.  For the
same reason every wrapper tolerates a missing target — a later change
that renames or deletes a wrapped function turns that layer's metrics
into ``None`` with a reason instead of breaking the run — and the
untraced run installs no wrapper at all.

Wrapped boundaries:

* class methods (``Simulator.run``, ``Cpu.run_block``, ``Isa.__init__``,
  ``BatchCpu.run``, ``FaultInjector.arm``, ``SweepConfig.build_problem``
  and the ``CampaignStore`` queue and result calls), patched on the
  class;
* module attributes looked up at call time (``assemble``,
  ``run_campaign``, ``run_fault_cell``, ``run_sw_batch``, ``explore``,
  ``run_genome``, ``measure_dependability``);
* registry entries: every ``SCENARIOS`` entry that has a ``build`` is
  swapped for ``dataclasses.replace(scenario, build=wrapped)``, and
  every ``HEURISTICS`` value is wrapped in place.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import statistics
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("campaign", "repro.fault.campaign", "run_campaign"),
    ("fault.cell", "repro.fault.campaign", "run_fault_cell"),
    ("fault.arm", "repro.fault.inject", "FaultInjector.arm"),
    ("cosim", "repro.cosim.kernel", "Simulator.run"),
    ("cpu", "repro.isa.cpu", "Cpu.run_block"),
    ("assemble", "repro.isa.assembler", "assemble"),
    ("isa.build", "repro.isa.instructions", "Isa.__init__"),
    ("batch.run", "repro.isa.batch", "BatchCpu.run"),
    ("batch.glue", "repro.fault.scenarios", "run_sw_batch"),
    ("store.write", "repro.campaign.store", "CampaignStore.enqueue"),
    ("store.write", "repro.campaign.store", "CampaignStore.claim"),
    ("store.write", "repro.campaign.store", "CampaignStore.commit"),
    ("store.write", "repro.campaign.store",
     "CampaignStore.drain_completed"),
    ("store.write", "repro.campaign.store", "CampaignStore.reclaim_stale"),
    ("store.read", "repro.campaign.store", "CampaignStore.get"),
    ("store.read", "repro.campaign.store",
     "CampaignStore.remaining_runnable"),
    ("store.read", "repro.campaign.store", "CampaignStore.failed_jobs"),
    ("store.read", "repro.campaign.store", "CampaignStore.queue_counts"),
    ("problem.build", "repro.sweep.config", "SweepConfig.build_problem"),
    ("explore", "repro.explore.driver", "explore"),
    ("explore.eval", "repro.explore.driver", "run_genome"),
    ("explore.dependability", "repro.explore.driver",
     "measure_dependability"),
)

#: (span name, module, registry attribute) of the wrapped registries.
SCENARIO_BUILDS = ("fault.build", "repro.fault.scenarios", "SCENARIOS")
HEURISTIC_CALLS = ("partition", "repro.partition", "HEURISTICS")


# ----------------------------------------------------------------------
# counts taken at the boundaries.  A hook is (before, after):
# ``before(args)`` returns a token, ``after(args, result, counts,
# token)`` adds to the counts; ``result`` is None when the call raised.
# ----------------------------------------------------------------------
def _activations(args):
    return args[0].activations


def _count_cosim(args, result, counts, before) -> None:
    # run() raises HangDetected on a stall; the counter is exact anyway
    counts["cosim.activations"] += args[0].activations - before


def _instructions(args):
    return args[0].instr_count


def _count_cpu(args, result, counts, before) -> None:
    # the step-equivalents run_block returns (retired instructions, taken
    # interrupts, a deferred access); a call that raised CpuError returns
    # nothing, so count what it retired before the fault
    counts["cpu.calls"] += 1
    counts["cpu.instrs"] += result[0] if result is not None \
        else args[0].instr_count - before


def _count_cell(args, result, counts, before) -> None:
    counts["fault.cells"] += 1
    fault = args[0][1]
    if result is not None and fault and fault["kind"] == "proc_spin":
        counts["cosim.spin_activations"] += result["activations"]


def _count_campaign(args, result, counts, before) -> None:
    # the document's sum, duplicate faults included (the kernel runs
    # each distinct fault once; cosim.activations counts that work).  A
    # campaign answered wholly from its cache (msgpipe-store's warm
    # replay) ran nothing and is left out.
    if result is not None and result.stats.computed:
        counts["campaign.record_activations"] += \
            result.golden["activations"] + sum(
                row["record"]["activations"] for row in result.rows)


def _count_batch(args, result, counts, before) -> None:
    if result is None:
        return
    stats = result[1]
    counts["batch.dispatches"] += stats.dispatches
    counts["batch.lane_instrs"] += stats.lane_instrs
    counts["batch.drained"] += stats.drained()
    counts["batch.lane_slots"] += stats.lanes * stats.steps


def _count_partition(args, result, counts, before) -> None:
    if result is not None:
        counts["partition.moves_evaluated"] += result.moves_evaluated


def _count_explore(args, result, counts, before) -> None:
    if result is not None:
        counts["explore.genomes"] += result.stats.computed


def _calls(name: str):
    def count(args, result, counts, before) -> None:
        counts[name] += 1
    return count


HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "cosim": (_activations, _count_cosim),
    "cpu": (_instructions, _count_cpu),
    "fault.cell": (None, _count_cell),
    "campaign": (None, _count_campaign),
    "assemble": (None, _calls("assemble.calls")),
    "isa.build": (None, _calls("isa.builds")),
    "batch.glue": (None, _count_batch),
    "store.write": (None, _calls("store.calls")),
    "store.read": (None, _calls("store.calls")),
    "partition": (None, _count_partition),
    "explore": (None, _count_explore),
}

#: exact counts reported from the traced run's first input, with the
#: span whose boundary takes each of them
COUNTS: Dict[str, Tuple[str, ...]] = {
    "cosim.activations": ("cosim",),
    "cosim.spin_activations": ("fault.cell",),
    "cpu.calls": ("cpu",),
    "cpu.instrs": ("cpu",),
    "assemble.calls": ("assemble",),
    "isa.builds": ("isa.build",),
    "batch.dispatches": ("batch.glue",),
    "batch.lane_instrs": ("batch.glue",),
    "batch.drained": ("batch.glue",),
    "fault.cells": ("fault.cell",),
    "campaign.record_activations": ("campaign",),
    "store.calls": ("store.write", "store.read"),
    "partition.moves_evaluated": ("partition",),
    "explore.genomes": ("explore",),
}

#: the errors a hook meets when the code it reads has changed shape
HOOK_ERRORS = (AttributeError, KeyError, IndexError, TypeError)


class Recorder:
    """Installs the wrappers and records spans and counts.

    One recorder serves a whole traced run.  :meth:`install` and
    :meth:`uninstall` bracket each traced iteration, so untraced
    iterations of the same process run the original functions.
    ``missing`` maps a span name whose target could not be wrapped (or
    ``"<span>#count"`` when its count hook failed) to the reason.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.missing: Dict[str, str] = {}
        self.spans: List[list] = []      # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span named ``name`` around every call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = HOOKS.get(name, (None, None))
        missing = self.missing

        def hook_failed(exc: Exception) -> None:
            missing.setdefault(f"{name}#count", f"count hook failed: "
                               f"{type(exc).__name__}: {exc}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = result = None
            if before is not None:
                try:
                    token = before(args)
                except HOOK_ERRORS as exc:
                    hook_failed(exc)
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
                if after is not None:
                    try:
                        after(args, result, counts, token)
                    except HOOK_ERRORS as exc:
                        hook_failed(exc)

        return wrapper

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        if self._restore:
            raise RuntimeError("wrappers are already installed")
        for name, module_name, path in self.targets:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.missing.setdefault(
                    name, f"target missing: {module_name}.{path} ({attr})")
                continue
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._install_registry(SCENARIO_BUILDS, self._wrap_scenario)
        self._install_registry(HEURISTIC_CALLS, self.wrap)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        # a class attribute inherited from a base is deleted, not
        # copied, on uninstall
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._restore.append(
            (owner, attr, getattr(owner, attr) if own else None, own))
        setattr(owner, attr, value)

    def _wrap_scenario(self, name: str, scenario: Any) -> Any:
        if getattr(scenario, "build", None) is None:
            return scenario
        return dataclasses.replace(scenario,
                                   build=self.wrap(name, scenario.build))

    def _install_registry(self, spec: Tuple[str, str, str],
                          wrap_entry: Callable[[str, Any], Any]) -> None:
        name, module_name, attr = spec
        owner, found = _resolve(module_name, attr)
        registry = getattr(owner, found) if owner is not None else None
        if not isinstance(registry, dict):
            self.missing.setdefault(
                name, f"registry missing: {module_name}.{attr}")
            return
        for key, entry in list(registry.items()):
            self._restore.append((registry, key, entry, None))
            registry[key] = wrap_entry(name, entry)

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own is None:           # registry entry
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """(owner, attribute) for ``module.path``, or (None, reason)."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        return None, f"import failed: {exc}"
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, f"no attribute {part!r}"
    if not hasattr(owner, attr):
        return None, f"no attribute {attr!r}"
    return owner, attr


# ----------------------------------------------------------------------
# from spans to layer metrics
# ----------------------------------------------------------------------
def fold(spans: List[list]) -> Dict[str, Any]:
    """Self and inclusive time per span name, plus cell durations.

    Returns ``{"self": {name: s}, "incl": {name: s}, "top": s,
    "cells": [s, ...]}``, where ``top`` is the time covered by spans
    without a parent.
    """
    self_s: Dict[str, float] = {}
    incl_s: Dict[str, float] = {}
    child_s = [0.0] * len(spans)
    top = 0.0
    cells: List[float] = []
    for name, start, end, parent in spans:
        duration = end - start
        incl_s[name] = incl_s.get(name, 0.0) + duration
        if parent is None:
            top += duration
        else:
            child_s[parent] += duration
        if name == "fault.cell":
            cells.append(duration)
    for index, (name, start, end, _parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) \
            + (end - start) - child_s[index]
    return {"self": self_s, "incl": incl_s, "top": top, "cells": cells}


#: self-time shares of the traced wall: metric -> span names.  With
#: ``other.self_pct`` (wall not covered by any span) they sum to 100.
SHARES: Dict[str, Tuple[str, ...]] = {
    "cosim.self_pct": ("cosim",),
    "cpu.self_pct": ("cpu",),
    "assemble.self_pct": ("assemble",),
    "isa.build_pct": ("isa.build",),
    "batch.run_pct": ("batch.run",),
    "batch.glue_pct": ("batch.glue",),
    "fault.build_pct": ("fault.build",),
    "fault.arm_pct": ("fault.arm",),
    "fault.cell_pct": ("fault.cell",),
    "campaign.overhead_pct": ("campaign",),
    "store.self_pct": ("store.write", "store.read"),
    "partition.self_pct": ("partition",),
    "problem.build_pct": ("problem.build",),
    "explore.self_pct": ("explore", "explore.eval",
                         "explore.dependability"),
}

#: per-iteration layer times (seconds): metric -> (kind, span names).
#: ``self`` sums self time, ``incl`` inclusive time, and ``drain`` is
#: run_sw_batch's inclusive time minus the BatchCpu.run inside it.
LAYER_TIMES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cosim.self_s": ("self", ("cosim",)),
    "cpu.self_s": ("self", ("cpu",)),
    "assemble.self_s": ("self", ("assemble",)),
    "isa.build_s": ("self", ("isa.build",)),
    "batch.run_s": ("self", ("batch.run",)),
    "batch.drain_s": ("drain", ("batch.glue", "batch.run")),
    "fault.build_s": ("self", ("fault.build",)),
    "fault.arm_s": ("self", ("fault.arm",)),
    "campaign.overhead_s": ("self", ("campaign",)),
    "store.write_s": ("self", ("store.write",)),
    "store.read_s": ("self", ("store.read",)),
    "partition.self_s": ("self", ("partition",)),
    "problem.build_s": ("self", ("problem.build",)),
    "explore.ga_s": ("self", ("explore",)),
    "explore.dependability_s": ("incl", ("explore.dependability",)),
}

#: efficiency ratios: metric -> (unit, layer time, count, scale)
RATIOS = {
    "cosim.ns_per_activation": ("ns", "cosim.self_s",
                                "cosim.activations", 1e9),
    "cpu.ns_per_instr": ("ns", "cpu.self_s", "cpu.instrs", 1e9),
    "partition.us_per_move": ("us", "partition.self_s",
                              "partition.moves_evaluated", 1e6),
}

NOT_ENTERED = "layer not entered by this workload"


def _layer_time(kind: str, names: Tuple[str, ...],
                folded: Dict[str, Any]) -> float:
    if kind == "drain":
        glue, inner = names
        return folded["incl"].get(glue, 0.0) \
            - folded["incl"].get(inner, 0.0)
    return sum(folded[kind].get(name, 0.0) for name in names)


def _percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def _null(unit: str, reason: str) -> Dict[str, Any]:
    return {"value": None, "unit": unit, "reason": reason}


def summarize_layers(iterations: List[Dict[str, Any]],
                     missing: Dict[str, str]) -> Dict[str, Dict]:
    """Layer metrics over the traced iterations.

    ``iterations`` holds, per traced iteration, ``{"wall": s, "folded":
    fold(spans), "counts": Counter}``; the first one ran the workload's
    own seed, and the exact counts are reported for it.  Layer times
    are medians over iterations; shares and ratios use totals.  Every
    metric is ``{"value", "unit"}``, plus a ``reason`` when the value
    is ``None``.
    """
    def missing_reason(names, suffix="") -> Optional[str]:
        gone = [missing[n + suffix] for n in names if n + suffix in missing]
        return "; ".join(gone) if gone else None

    out: Dict[str, Dict] = {}
    total_wall = sum(it["wall"] for it in iterations)
    totals: Counter = Counter()
    for it in iterations:
        totals.update(it["counts"])

    for metric, names in SHARES.items():
        reason = missing_reason(names)
        if reason:
            out[metric] = _null("%", reason)
            continue
        share = sum(_layer_time("self", names, it["folded"])
                    for it in iterations) / total_wall * 100.0
        out[metric] = {"value": share, "unit": "%"}
    other = sum(it["wall"] - it["folded"]["top"] for it in iterations)
    out["other.self_pct"] = {"value": other / total_wall * 100.0,
                             "unit": "%"}

    time_totals: Dict[str, float] = {}
    for metric, (kind, names) in LAYER_TIMES.items():
        per_iter = [_layer_time(kind, names, it["folded"])
                    for it in iterations]
        time_totals[metric] = sum(per_iter)
        reason = missing_reason(names)
        if reason is None and not any(
                names[0] in it["folded"]["incl"] for it in iterations):
            reason = NOT_ENTERED
        out[metric] = (_null("s", reason) if reason else
                       {"value": statistics.median(per_iter), "unit": "s"})

    first = iterations[0]["counts"]
    for name, sources in COUNTS.items():
        reason = missing_reason(sources) \
            or missing_reason(sources, "#count")
        out[name] = (_null("count", reason) if reason else
                     {"value": int(first.get(name, 0)), "unit": "count"})

    for metric, (unit, time_metric, count, scale) in RATIOS.items():
        reason = out[time_metric].get("reason") \
            or out[count].get("reason")
        if reason is None and not totals[count]:
            reason = f"no {count} recorded"
        out[metric] = (_null(unit, reason) if reason else {
            "value": time_totals[time_metric] / totals[count] * scale,
            "unit": unit,
        })

    slots = totals["batch.lane_slots"]
    out["batch.occupancy"] = (
        {"value": totals["batch.lane_instrs"] / slots, "unit": "ratio"}
        if slots else _null("ratio", out["batch.dispatches"].get("reason")
                            or NOT_ENTERED))

    cells = [c for it in iterations for c in it["folded"]["cells"]]
    for metric, pct in (("campaign.cell_p50_ms", 50.0),
                        ("campaign.cell_p99_ms", 99.0)):
        out[metric] = (
            {"value": _percentile(cells, pct) * 1e3, "unit": "ms",
             "n": len(cells)}
            if cells else _null("ms", missing_reason(("fault.cell",))
                                or "no fault cell ran outside the "
                                   "batch tier"))
    return out
