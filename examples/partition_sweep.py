#!/usr/bin/env python3
"""Parallel partition-heuristic sweep from the command line.

Fan a grid of (graph generator x cost model x heuristic x seed) cells
across worker processes and print the Section 5-style comparison table
over the swept workloads.

Grid syntax: each axis is a comma-separated list; seeds also accept
inclusive ranges ("0-7" or "0-3,8,12-13").

With --store every completed cell is committed to a SQLite campaign
store keyed by a fingerprint of the full cell config: re-running with a
grown grid only computes the new cells, a pure re-run computes nothing,
and a run interrupted at any point (Ctrl-C, SIGKILL, power loss)
resumes recomputing only uncommitted cells — with a final table
byte-identical to an uninterrupted run.  --import-cache migrates a JSON
cache directory written by an earlier version into the store.

Run:  python examples/partition_sweep.py \\
          --generators layered,forkjoin --cost-models default,comm_heavy \\
          --heuristics greedy,kl,vulcan,cosyma --seeds 0-3 \\
          --workers 4 --store sweep.sqlite
      python examples/partition_sweep.py \\
          --seeds 0-31 --workers 4 --store sweep.sqlite --resume
"""

import argparse
import sys

from repro.cosim.metrics import MetricsRegistry
from repro.graph.generators import COST_MODELS, GENERATORS
from repro.obs import Obs
from repro.partition import HEURISTICS
from repro.sweep import (
    COMM_MODELS,
    expand_grid,
    parse_seed_spec,
    run_differential,
    run_sweep,
)


def _axis(value, known, what):
    names = [v.strip() for v in value.split(",") if v.strip()]
    if value.strip() == "all":
        return sorted(known)
    for name in names:
        if name not in known:
            raise SystemExit(
                f"unknown {what} {name!r}; known: {', '.join(sorted(known))}"
            )
    return names


def _optional_float(value):
    return None if value.lower() in ("none", "off") else float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep the partition heuristics over synthetic "
                    "workload grids."
    )
    parser.add_argument("--generators", default="layered",
                        help="comma list or 'all' "
                             f"({', '.join(sorted(GENERATORS))})")
    parser.add_argument("--cost-models", default="default",
                        help="comma list or 'all' "
                             f"({', '.join(sorted(COST_MODELS))})")
    parser.add_argument("--heuristics", default="all",
                        help="comma list or 'all' "
                             f"({', '.join(sorted(HEURISTICS))})")
    parser.add_argument("--comm", default="default",
                        help="comma list or 'all' "
                             f"({', '.join(sorted(COMM_MODELS))})")
    parser.add_argument("--seeds", default="0-3",
                        help="seed spec: '0-7' or '0,3,9' (default 0-3)")
    parser.add_argument("--n-tasks", default="12",
                        help="comma list of workload sizes (default 12)")
    parser.add_argument("--deadline-factor", type=_optional_float,
                        default=0.7, metavar="F",
                        help="deadline = F x all-SW critical path "
                             "('none' = unconstrained; default 0.7)")
    parser.add_argument("--budget-factor", type=_optional_float,
                        default=0.5, metavar="F",
                        help="area budget = F x total standalone HW area "
                             "('none' = unbounded; default 0.5)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--store", default=None, metavar="FILE",
                        help="SQLite campaign store (durable job queue "
                             "+ results; reused across runs and "
                             "resumable after any interruption)")
    parser.add_argument("--resume", action="store_true",
                        help="with --store: narrate how much of the "
                             "grid is already committed before running "
                             "(resume itself is automatic)")
    parser.add_argument("--import-cache", default=None, metavar="DIR",
                        help="with --store: first import a JSON cache "
                             "directory an earlier version wrote")
    parser.add_argument("--flight-recorder", default=None,
                        metavar="FILE",
                        help="record live telemetry (heartbeats, "
                             "progress) to this JSONL file; read it "
                             "live with examples/campaign_top.py "
                             "--jsonl FILE")
    parser.add_argument("--telemetry", action="store_true",
                        help="with --store: record shard heartbeats "
                             "and queue gauges into the store's "
                             "telemetry table (campaign_top --store)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the result table as canonical JSON")
    parser.add_argument("--differential", type=int, default=0,
                        metavar="N",
                        help="also run the N-problem differential "
                             "invariant harness")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-run narration")
    parser.add_argument("--smoke", action="store_true",
                        help="small grid + worker-count determinism "
                             "assertion")
    args = parser.parse_args(argv)

    if args.smoke:
        args.seeds = "0-1"
        args.heuristics = "greedy,kl"

    grid = expand_grid(
        generators=_axis(args.generators, GENERATORS, "generator"),
        n_tasks=[int(n) for n in args.n_tasks.split(",")],
        cost_models=_axis(args.cost_models, COST_MODELS, "cost model"),
        heuristics=_axis(args.heuristics, HEURISTICS, "heuristic"),
        comm=_axis(args.comm, COMM_MODELS, "comm model"),
        seeds=parse_seed_spec(args.seeds),
        deadline_factor=args.deadline_factor,
        area_budget_factor=args.budget_factor,
    )
    if (args.resume or args.import_cache) and not args.store:
        raise SystemExit("--resume/--import-cache require --store")
    if args.telemetry and not args.store:
        raise SystemExit("--telemetry requires --store (without one, "
                         "record with --flight-recorder instead)")
    cache = None
    if args.store:
        from repro.campaign import CampaignStore

        cache = CampaignStore(args.store)
        if args.import_cache:
            imported = cache.import_cache(args.import_cache)
            if not args.quiet:
                print(f"imported {imported} records from "
                      f"{args.import_cache} into {args.store}")
        if args.resume and not args.quiet:
            done = sum(1 for c in grid if c.fingerprint in cache)
            print(f"resume: {done}/{len(grid)} grid cells already "
                  f"committed in {args.store}")
    metrics = MetricsRegistry()

    recorder = None
    if args.flight_recorder:
        from repro.obs import JsonlRecorder

        recorder = JsonlRecorder(args.flight_recorder)
    elif args.telemetry:
        from repro.obs import StoreRecorder

        recorder = StoreRecorder(cache)

    if not args.quiet:
        backing = f"store {args.store}" if args.store else "off"
        print(f"sweep: {len(grid)} cells, workers={args.workers}, "
              f"results={backing}")
    table = run_sweep(grid, workers=args.workers, cache=cache,
                      obs=Obs(metrics=metrics, recorder=recorder))
    if args.flight_recorder and not args.quiet:
        print(f"  flight recorder: {args.flight_recorder}")
    if not args.quiet:
        print(f"  {table.stats.summary()}")
        print()
    print(table.comparison_report())

    if args.smoke:
        # the acceptance contract: identical table at 1 and 2 workers
        serial = run_sweep(grid, workers=1, cache=cache)
        sharded = run_sweep(grid, workers=2, cache=cache)
        assert serial.to_json() == sharded.to_json(), \
            "sweep table differs across worker counts"
        if not args.quiet:
            print("\nsmoke: table identical at 1 and 2 workers")

    if args.out:
        table.write_json(args.out)
        if not args.quiet:
            print(f"\nwrote {len(table)} records to {args.out}")

    if args.differential:
        report = run_differential(n_problems=args.differential)
        print()
        print(report.summary())
        if not report.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
