"""The benchmark's five workloads, and the child process that runs one.

Each workload calls the same public entry points the examples call —
``run_campaign`` (``examples/fault_campaign.py``) and ``explore``
(``examples/design_explore.py``) — in a closed loop with one client
and ``workers=1``: the next iteration starts when the previous one
returns.  Iteration ``i`` runs on inputs made from
``sub_seed(seed, i)``; iteration 0 uses the seed itself, so the
histograms pinned at seed 7 are the E18/E24 ones.

Inputs change from one iteration to the next because the work a
single input costs varies a lot between seeds (a 200-fault coproc
campaign takes 0.30-0.64 s depending on how many faults hang), and a
run must measure the program, not the luck of one seed: the median
over a run's many inputs moves by a few percent from seed to seed.

Run as a script, this file is one measured child process (``run.py``
spawns it; it is not meant to be run by hand)::

    python bench/workloads.py --workload NAME --seed N --seconds S \
        --spawned-at T [--trace] [--smoke] [--setup-only] [--spans FILE]

It prints one JSON object, the raw samples, as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

#: dependability histograms pinned at seed 7 (full size): E18 coproc,
#: msgpipe, and E24 swmac (scalar and batch must agree)
E18 = {"masked": 96, "sdc": 49, "detected": 6, "hang": 40, "crash": 9}
MSGPIPE = {"masked": 63, "sdc": 52, "detected": 28, "hang": 57, "crash": 0}
E24 = {"masked": 64, "sdc": 46, "detected": 16, "hang": 24, "crash": 50}


def sub_seed(seed: int, index: int) -> int:
    """The input seed of iteration ``index`` (the seed itself first)."""
    if index == 0:
        return seed
    hashed = hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()
    return int(hashed[:12], 16)


def digest(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


#: seconds :func:`probe` takes on the host the bounds were fixed on,
#: at its usual speed; time metrics are reported at this host speed
REFERENCE_PROBE_S = 0.004


def probe() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work touches no code under ``src/``, so only the host's speed
    moves it.  On a shared host that speed drifts by half over minutes
    (other tenants' load), which moves every timing with it; timing the
    probe right before and after each iteration lets the benchmark
    report times at one reference speed.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc, x = 0, 0.0
    for i in range(10_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = table.get(i & 1023, 0) + 1
        x += (i & 255) * 0.5 / (1.0 + (acc & 7))
    return time.perf_counter() - t0


class Campaign:
    """``run_campaign(scenario, sample_faults(targets, 200, seed))``."""

    #: faults per campaign at each input size; "tiny" times lazy set-up
    FAULTS = {"full": 200, "smoke": 20, "tiny": 5}

    def __init__(self, name: str, scenario: str, batch: bool = False,
                 pins: Optional[Dict] = None) -> None:
        self.name = name
        self.scenario = scenario
        self.batch = batch
        self.pins = pins or {}

    def setup(self) -> None:
        from repro.fault import SCENARIOS, sample_faults
        from repro.fault import campaign

        # looked up at call time, so the traced run's wrappers apply
        self.campaign = campaign
        self.sample_faults = sample_faults
        self.targets = SCENARIOS[self.scenario].targets

    def make_input(self, seed: int, size: str) -> Any:
        return self.sample_faults(self.targets, self.FAULTS[size],
                                  seed=seed)

    def run(self, faults) -> Tuple[Any, Dict[str, float]]:
        """One iteration: (result, component times if any)."""
        return self.campaign.run_campaign(
            self.scenario, faults, batch=self.batch), {}

    def judge(self, result) -> Tuple[str, int, List[str]]:
        """(document, cells, problems) of one iteration's result."""
        return result.to_json(), len(result.rows) + 1, []

    def histogram(self, doc: str) -> Dict[str, int]:
        return json.loads(doc)["histogram"]

    def final_check(self, faults, doc: str) -> List[str]:
        """Checks run once, untimed, on the seed's own input."""
        if not self.batch:
            return []
        scalar = self.campaign.run_campaign(self.scenario, faults)
        if scalar.to_json() != doc:
            return ["batch document differs from the scalar document"]
        return []


class StoreCampaign(Campaign):
    """msgpipe into a fresh ``CampaignStore``, then the same campaign
    again against the filled store (reads only)."""

    def setup(self) -> None:
        super().setup()
        from repro.campaign import CampaignStore

        self.store_class = CampaignStore

    def run(self, faults) -> Tuple[Any, Dict[str, float]]:
        TMP.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="store-", dir=TMP)
        try:
            t0 = time.perf_counter()
            store = self.store_class(Path(workdir) / "campaign.sqlite")
            cold = self.campaign.run_campaign(self.scenario, faults,
                                              cache=store)
            t1 = time.perf_counter()
            warm = self.campaign.run_campaign(self.scenario, faults,
                                              cache=store)
            store.close()
            t2 = time.perf_counter()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                TMP.rmdir()
            except OSError:  # another run's store is still there
                pass
        return (cold, warm), {"run_s": t1 - t0, "replay_s": t2 - t1}

    def judge(self, result) -> Tuple[str, int, List[str]]:
        cold, warm = result
        doc = cold.to_json()
        problems = []
        if warm.to_json() != doc:
            problems.append("warm replay document differs from the cold "
                            "one")
        if warm.stats.computed:
            problems.append(f"warm replay computed {warm.stats.computed} "
                            f"cells")
        return doc, len(cold.rows) + 1, problems


class Explore:
    """``explore(ExploreSpec(...), workers=1)`` on the coproc scenario.

    One generation: the DoE screening population is a pure function of
    the search space, so the work is the same at every seed; the seed
    picks the task-graph instance and the fault sample.  With bred
    generations the run time followed how many annealing genomes the
    GA happened to pick (20-850 ms each), and spread 20-45% between
    seeds.
    """

    name = "explore-coproc"
    pins: Dict = {}
    #: (population, dependability faults) at each input size
    SIZES = {"full": (24, 40), "smoke": (6, 10), "tiny": (2, 2)}

    def setup(self) -> None:
        from repro.explore import ExploreSpec, ProblemSpec, driver

        self.driver = driver
        self.spec_class = ExploreSpec
        self.problem_class = ProblemSpec

    def make_input(self, seed: int, size: str) -> Any:
        population, faults = self.SIZES[size]
        return self.spec_class(
            generators=("layered", "forkjoin"), n_tasks=(16,),
            population=population, generations=1,
            scenario="coproc", scenario_faults=faults,
            ga_seed=seed, scenario_seed=seed,
            problem=self.problem_class(seed=seed),
        )

    def run(self, spec) -> Tuple[Any, Dict[str, float]]:
        return self.driver.explore(spec, workers=1), {}

    def judge(self, result) -> Tuple[str, int, List[str]]:
        return result.to_json(), result.stats.requested, []

    def final_check(self, spec, doc: str) -> List[str]:
        return []


WORKLOADS = {
    w.name: w for w in (
        Campaign("coproc-campaign", "coproc", pins={7: E18}),
        StoreCampaign("msgpipe-store", "msgpipe", pins={7: MSGPIPE}),
        Campaign("swmac-scalar", "swmac", pins={7: E24}),
        Campaign("swmac-batch", "swmac", batch=True, pins={7: E24}),
        Explore(),
    )
}


# ----------------------------------------------------------------------
# the measured child
# ----------------------------------------------------------------------
class Child:
    """One workload in one process: the loop, the checks, the samples."""

    def __init__(self, workload, seed: int, seconds: float, smoke: bool,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = "smoke" if smoke else "full"
        self.trace = trace
        self.attempted = 0
        self.failures: List[str] = []
        self.first_spans: List[list] = []

    def fail(self, where: str, problem: str) -> None:
        self.failures.append(f"{where}: {problem}")

    def attempt(self, where: str, inp) -> Optional[Tuple[float, Dict,
                                                         str, int]]:
        """One iteration: (wall, component times, document, cells)."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result, times = self.workload.run(inp)
            wall = time.perf_counter() - t0
            doc, cells, problems = self.workload.judge(result)
        except Exception:  # counted as a failed iteration, run goes on
            self.fail(where, traceback.format_exc(limit=3))
            return None
        for problem in problems:
            self.fail(where, problem)
        return wall, times, doc, cells

    def check_same(self, where: str, doc: str, reference: str,
                   what: str) -> None:
        if digest(doc) != digest(reference):
            self.fail(where, f"document differs from {what}")

    def first_call_excess(self, tiny) -> float:
        """How much longer the first call takes than the second.

        Lazy set-up (imports inside functions, memo tables, assembly,
        code generation) costs the same whatever the input size, so a
        tiny input measures it without the noise of a full iteration.
        """
        first = self.attempt("first tiny iteration", tiny)
        second = self.attempt("second tiny iteration", tiny)
        if first is None or second is None:
            return 0.0
        self.check_same("second tiny iteration", second[2], first[2],
                        "the first tiny iteration's")
        return max(0.0, first[0] - second[0])

    def run(self, inp0, spans_path: Optional[str]) -> Dict[str, Any]:
        """The timed loop, then the checks on the seed's own input."""
        wl = self.workload
        # probe_s[i]: the probe timed around iteration i (mean of the
        # probes just before and just after it)
        out: Dict[str, Any] = {"wall_s": [], "run_s": [], "cells": [],
                               "replay_s": [], "probe_s": []}
        recorder = traced = None
        if self.trace:
            import layers

            recorder = layers.Recorder()
            traced = []
            out["pairs"] = []

        doc0 = None
        min_iters = 1 if self.size == "smoke" else 3
        cpu0, start = time.process_time(), time.perf_counter()
        before = probe()
        index = 0
        while index < min_iters \
                or time.perf_counter() - start < self.seconds:
            inp = inp0 if index == 0 else wl.make_input(
                sub_seed(self.seed, index), self.size)
            where = f"iteration {index}"
            got = self.attempt(where, inp)
            after = probe()
            if got is not None:
                wall, times, doc, cells = got
                out["probe_s"].append((before + after) / 2.0)
                out["wall_s"].append(wall)
                out["run_s"].append(times.get("run_s", wall))
                out["cells"].append(cells)
                if "replay_s" in times:
                    out["replay_s"].append(times["replay_s"])
                if index == 0:
                    doc0 = doc
                    self.check_pins(doc0)
                    out["digest"] = digest(doc0)
                if recorder is not None:
                    self.traced_iteration(recorder, traced, index, inp,
                                          doc, wall, out)
            index += 1
            before = after
        out["cpu_frac"] = (time.process_time() - cpu0) \
            / (time.perf_counter() - start)

        if doc0 is not None:
            if not self.trace:
                again = self.attempt("repeat of iteration 0", inp0)
                if again is not None:
                    self.check_same("repeat of iteration 0", again[2],
                                    doc0, "iteration 0's")
            for problem in wl.final_check(inp0, doc0):
                self.fail("final check", problem)

        if recorder is not None and traced:
            import layers

            out["layers"] = layers.summarize_layers(traced,
                                                    recorder.missing)
            out["missing"] = dict(recorder.missing)
            if spans_path:
                with open(spans_path, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent"],
                               "iteration": 0, "seed": self.seed,
                               "spans": self.first_spans}, fh)
        return out

    def check_pins(self, doc: str) -> None:
        pinned = self.workload.pins.get(self.seed) \
            if self.size == "full" else None
        if pinned is not None and self.workload.histogram(doc) != pinned:
            self.fail("iteration 0", f"histogram "
                      f"{self.workload.histogram(doc)} != pinned {pinned}")

    def traced_iteration(self, recorder, traced: List, index: int, inp,
                         untraced_doc: str, untraced_wall: float,
                         out: Dict) -> None:
        """The same input again, with the wrappers installed."""
        import layers

        recorder.reset()
        recorder.install()
        try:
            got = self.attempt(f"traced iteration {index}", inp)
        finally:
            recorder.uninstall()
        if got is None:
            return
        wall, _times, doc, _cells = got
        self.check_same(f"traced iteration {index}", doc, untraced_doc,
                        "the untraced document")
        out["pairs"].append([untraced_wall, wall])
        traced.append({"wall": wall, "folded": layers.fold(recorder.spans),
                       "counts": dict(recorder.counts)})
        if index == 0:
            # kept in memory, written when the run ends
            self.first_spans = list(recorder.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() just before spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", metavar="FILE")
    args = parser.parse_args(argv)

    # host speed just before set-up; with the probes right after it, it
    # brackets set-up the way the loop's probes bracket each iteration.
    # The probes' own time is not set-up.
    t0 = time.perf_counter()
    probe_before = statistics.median(probe() for _ in range(3))
    probe_cost = time.perf_counter() - t0

    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workload.setup()
    child = Child(workload, args.seed, args.seconds, args.smoke,
                  args.trace)
    inp0 = workload.make_input(sub_seed(args.seed, 0), child.size)
    tiny = workload.make_input(sub_seed(args.seed, 0), "tiny")
    ready_s = time.perf_counter() - args.spawned_at - probe_cost
    result: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "ready_s": ready_s,
                              "excess_s": child.first_call_excess(tiny)}
    probe_after = statistics.median(probe() for _ in range(3))
    result["setup_probe_s"] = (probe_before + probe_after) / 2.0
    if not args.setup_only:
        result.update(child.run(inp0, args.spans))
        result["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = child.attempted
    result["failures"] = child.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
