#!/usr/bin/env python3
"""Closed-loop design-space exploration from the command line.

Runs the DoE-seeded genetic explorer over (graph generator, task
count, heuristic + knobs, cost-tuning weights), evaluating genomes
through the campaign service (reusing a ``--store`` when given), and prints
the Pareto front plus the weighted-sum recommendation.  With
``--scenario coproc`` the front gains a third objective: fault
*exposure*, measured by a real (cached) fault-injection campaign.

The front is deterministic end to end: the same spec produces
byte-identical front JSON at any worker count, cold or warm, with or
without a durable SQLite store (``--smoke`` asserts exactly that,
plus, with ``--store``, that a warm re-run recomputes zero genomes).

Run:  python examples/design_explore.py
      python examples/design_explore.py --scenario coproc \\
          --population 16 --generations 5 --workers 4 --store dse.sqlite
      python examples/design_explore.py --store dse.sqlite --resume
      python examples/design_explore.py --smoke --out front.json
"""

import argparse
import sys
import time

from repro.cosim.metrics import MetricsRegistry
from repro.explore import (
    ExploreSpec,
    ProblemSpec,
    explore,
    random_search,
)
from repro.obs import Obs
from repro.obs.spans import SpanTracer
from repro.partition.seeding import ProgressProbe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="GA + DoE design-space exploration with Pareto "
                    "selection")
    parser.add_argument("--generators", default="layered,forkjoin",
                        help="comma list of graph generators")
    parser.add_argument("--n-tasks", default="8,12,16",
                        help="comma list of workload sizes")
    parser.add_argument("--heuristics",
                        default="greedy,kl,annealing,vulcan,cosyma,gclp",
                        help="comma list of partition heuristics")
    parser.add_argument("--population", type=int, default=16)
    parser.add_argument("--generations", type=int, default=5)
    parser.add_argument("--ga-seed", type=int, default=0)
    parser.add_argument("--problem-seed", type=int, default=0,
                        help="workload instance seed (fixed per run)")
    parser.add_argument("--scenario", default=None,
                        help="fault scenario for the exposure "
                             "objective (e.g. coproc); default: "
                             "2-objective cost x latency")
    parser.add_argument("--scenario-faults", type=int, default=40)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--store", metavar="FILE",
                        help="SQLite campaign store (reused across "
                             "runs, durable, resumable)")
    parser.add_argument("--resume", action="store_true",
                        help="with --store: narrate committed progress "
                             "before running (resume is automatic)")
    parser.add_argument("--random-baseline", action="store_true",
                        help="also run equal-budget random search and "
                             "compare front hypervolumes")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the exploration timeline as a "
                             "Perfetto JSON trace")
    parser.add_argument("--out", metavar="FILE",
                        help="write the front as canonical JSON")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="small search + determinism assertions: "
                             "serial == sharded front JSON, warm re-run "
                             "recomputes zero genomes")
    args = parser.parse_args(argv)

    if args.smoke:
        args.population = min(args.population, 8)
        args.generations = min(args.generations, 3)
        args.scenario_faults = min(args.scenario_faults, 12)

    spec = ExploreSpec(
        generators=tuple(args.generators.split(",")),
        n_tasks=tuple(int(n) for n in args.n_tasks.split(",")),
        heuristics=tuple(args.heuristics.split(",")),
        problem=ProblemSpec(seed=args.problem_seed),
        population=args.population,
        generations=args.generations,
        ga_seed=args.ga_seed,
        scenario=args.scenario,
        scenario_faults=args.scenario_faults,
    )

    if args.resume and not args.store:
        raise SystemExit("--resume requires --store")
    cache = None
    if args.store:
        from repro.campaign import CampaignStore

        cache = CampaignStore(args.store)
        if args.resume and not args.quiet:
            print(f"resume: {len(cache)} cells already committed in "
                  f"{args.store}")

    tracer = SpanTracer() if args.trace else None
    obs = Obs(metrics=MetricsRegistry(), spans=tracer,
              probe=ProgressProbe())

    if not args.quiet:
        backing = f"store {args.store}" if args.store else "off"
        print(f"explore: population={spec.population} "
              f"generations={spec.generations} "
              f"scenario={spec.scenario or 'none'} "
              f"workers={args.workers} results={backing}")
    t0 = time.perf_counter()
    result = explore(spec, workers=args.workers, cache=cache, obs=obs)
    elapsed = time.perf_counter() - t0

    if not args.quiet:
        print()
        for entry in result.history:
            print(f"  gen {entry['generation']}: "
                  f"archive={entry['archive']:>3} "
                  f"front={entry['front_size']:>3} "
                  f"hypervolume={entry['hypervolume']:.4f} "
                  f"best={entry['best_scalar']:.4f}")
        print()
    print(result.front_table())
    best = result.ranking()[0]
    print(f"\nweighted-sum pick: {best['fingerprint'][:12]} "
          f"(scalar {best['scalar']:.4f})")
    if not args.quiet:
        print(f"{result.stats.summary()}  [{elapsed:.2f}s wall]")

    if args.random_baseline:
        budget = spec.population * spec.generations
        baseline = random_search(spec, budget, workers=args.workers,
                                 cache=cache)
        # compare in one shared normalization so the volumes are
        # commensurable
        from repro.explore import normalized_hypervolume, \
            objective_bounds

        lo, hi = objective_bounds(result.points() + baseline.points())
        hv_ga = normalized_hypervolume(result.points(), lo, hi)
        hv_rand = normalized_hypervolume(baseline.points(), lo, hi)
        print(f"\nGA front hypervolume   {hv_ga:.4f}\n"
              f"random search (n={budget}) {hv_rand:.4f}")

    if args.smoke:
        # the acceptance contract, asserted live: byte-identical front
        # at 1 and 2 workers, and a warm re-run computes nothing
        serial = explore(spec, workers=1, cache=cache)
        assert serial.to_json() == result.to_json(), \
            "explore result differs across worker counts"
        if cache is not None:
            warm = explore(spec, workers=1, cache=cache)
            assert warm.to_json() == result.to_json(), \
                "warm re-run changed the front"
            assert warm.stats.computed == 0, \
                f"warm re-run recomputed {warm.stats.computed} genomes"
            print("\nsmoke: front identical at 1 and "
                  f"{args.workers} workers; warm re-run recomputed 0 "
                  "genomes")
        else:
            print("\nsmoke: front identical at 1 and "
                  f"{args.workers} workers")

    if args.trace:
        tracer.write_perfetto(args.trace)
        if not args.quiet:
            print(f"trace written to {args.trace}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.front_json())
        if not args.quiet:
            print(f"front JSON written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
