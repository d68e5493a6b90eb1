"""E18 — Fault-campaign throughput and zero-cost injector attachment.

Two claims, timed and asserted:

* **Throughput** — the campaign runner (golden + N faulty cells,
  classification, dependability table) sustains a useful faults/second
  rate; the measured rate lands in ``BENCH_fault.json`` for the
  experiment record.
* **Zero cost when idle** — attaching a :class:`FaultInjector` with no
  fault armed must not add work to the simulation: the attached golden
  run makes exactly the calls the bare run makes inside ``sim.run``
  (cProfile's count) and resumes processes as often.  The robustness
  suite proves byte-identity of the records; this benchmark prices the
  attachment itself.  The wall-clock overhead (min-of-repeats both
  sides) is recorded beside it, not asserted: on a golden run of tens
  of milliseconds a second job on the host moves it by more than any
  useful bound.

The kernel watchdog's cost is recorded too (it is opt-in, so it gets
an honest number rather than a bound).
"""

import cProfile
import json
import pstats
import time
from pathlib import Path

from repro.cosim.kernel import Simulator, Watchdog
from repro.fault import (
    FaultInjector,
    OUTCOMES,
    SCENARIOS,
    run_campaign,
    run_scenario,
    sample_faults,
)

REPEATS = 3
GOLDEN_LOOPS = 300
RESULT_FILE = Path(__file__).parent / "BENCH_fault.json"


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _calls(fn):
    """``fn()`` and the number of Python and builtin function calls it
    made (cProfile's total)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, pstats.Stats(profile).total_calls


def _golden_calls(attached):
    """(calls inside ``sim.run``, activations) of one msgpipe golden
    run, with or without an idle injector attached."""
    scenario = SCENARIOS["msgpipe"]
    sim = Simulator()
    system, summarize = scenario.build(sim)
    if attached:
        FaultInjector(system)
    _result, calls = _calls(lambda: sim.run(until=scenario.horizon))
    summarize()
    return calls, sim.activations


def _golden_pass():
    """One interleaved timing pass over the three golden variants.

    Each iteration times only ``sim.run`` (the claim is about the
    simulation hot loop, not scenario construction) and visits the
    variants back-to-back, so clock drift and cache effects land on
    all three alike instead of biasing whichever loop ran last.
    """
    scenario = SCENARIOS["msgpipe"]
    totals = {"bare": 0.0, "attached": 0.0, "watched": 0.0}
    for _ in range(GOLDEN_LOOPS):
        for name in totals:
            sim = Simulator()
            system, summarize = scenario.build(sim)
            if name == "attached":
                FaultInjector(system)
            watchdog = (
                Watchdog(max_stalled_activations=4000)
                if name == "watched" else None
            )
            start = time.perf_counter()
            sim.run(until=scenario.horizon, watchdog=watchdog)
            totals[name] += time.perf_counter() - start
            summarize()
    return totals


def test_campaign_throughput_and_idle_injector_cost(benchmark):
    faults = sample_faults(SCENARIOS["msgpipe"].targets, 60, seed=3)

    def campaign():
        return run_campaign("msgpipe", faults, workers=1)

    campaign()  # warm imports and code paths
    result, campaign_s = benchmark.pedantic(
        lambda: _best_of(REPEATS, campaign), rounds=1, iterations=1
    )
    faults_per_s = len(faults) / campaign_s

    # the timed campaign did real work: classes beyond masked appear
    hist = result.histogram()
    assert sum(hist.values()) == len(faults)
    assert sum(hist[o] for o in OUTCOMES if o != "masked") > 0

    best = {"bare": float("inf"), "attached": float("inf"),
            "watched": float("inf")}
    _golden_pass()  # warm every path before any timing
    for _ in range(REPEATS):
        for name, total in _golden_pass().items():
            best[name] = min(best[name], total)
    bare_s, attached_s, watched_s = (
        best["bare"], best["attached"], best["watched"])
    idle_overhead = (attached_s - bare_s) / bare_s
    watchdog_overhead = (watched_s - bare_s) / bare_s

    _golden_calls(True)  # warm every path before counting
    bare_calls, bare_activations = _golden_calls(False)
    attached_calls, attached_activations = _golden_calls(True)
    extra_calls = attached_calls - bare_calls
    assert (extra_calls, attached_activations) == (0, bare_activations), (
        f"idle FaultInjector adds {extra_calls} calls to the golden "
        f"run's {bare_calls} and {attached_activations - bare_activations}"
        f" activations to its {bare_activations} (must add neither)"
    )

    record = {
        "faults": len(faults),
        "repeats": REPEATS,
        "campaign_s": round(campaign_s, 4),
        "faults_per_s": round(faults_per_s, 1),
        "histogram": hist,
        "golden_loops": GOLDEN_LOOPS,
        "bare_golden_s": round(bare_s, 4),
        "attached_golden_s": round(attached_s, 4),
        "idle_injector_overhead": round(idle_overhead, 4),
        "golden_run_calls": bare_calls,
        "idle_injector_extra_calls": extra_calls,
        "watchdog_overhead": round(watchdog_overhead, 4),
    }
    RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)
