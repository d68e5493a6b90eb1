#!/usr/bin/env python3
"""Fault-injection campaign over the co-simulated coprocessor system.

Runs the ``coproc`` scenario (R32 software + MAC coprocessor + rx FIFO
+ message channel, with a software shadow of the hardware MAC as the
built-in detection mechanism) under a seeded, stratified fault load
spanning every injection surface — signal and register bit-flips, CPU
state corruption, message-boundary faults, and timing faults caught by
the kernel watchdog — then prints the dependability table.

The campaign is deterministic end to end: the same seed produces the
same fault list, the same per-fault outcome, and therefore the same
histogram at any worker count (``--smoke`` asserts exactly that).

The software-only scenario (``--scenario swmac``) needs no kernel:
every one of its cells starts as a copy of one checkpointed golden run
(:class:`repro.isa.BatchCpu`, DESIGN §14), in-process and on every
store shard alike.

Run:  python examples/fault_campaign.py
      python examples/fault_campaign.py --faults 200 --workers 4
      python examples/fault_campaign.py --scenario swmac --workers 2
      python examples/fault_campaign.py --smoke --out deps.json
"""

import argparse
import json
import sys
import time

from repro.fault import OUTCOMES, SCENARIOS, run_campaign, sample_faults
from repro.obs import Obs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded fault-injection campaign")
    parser.add_argument("--scenario", default="coproc",
                        choices=sorted(SCENARIOS))
    parser.add_argument("--faults", type=int, default=66,
                        help="campaign size (default 66)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--store", metavar="FILE",
                        help="SQLite campaign store (durable queue + "
                             "results, reused across runs, resumable)")
    parser.add_argument("--resume", action="store_true",
                        help="with --store: narrate committed progress "
                             "before running (resume is automatic)")
    parser.add_argument("--flight-recorder", metavar="FILE",
                        help="record live telemetry to this JSONL file "
                             "(campaign_top.py --jsonl FILE)")
    parser.add_argument("--telemetry", action="store_true",
                        help="with --store: record shard heartbeats "
                             "and queue gauges into the store's "
                             "telemetry table")
    parser.add_argument("--out", metavar="FILE",
                        help="write the dependability report as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="small campaign + determinism assertions")
    args = parser.parse_args(argv)

    if args.smoke:
        args.faults = min(args.faults, 33)

    scenario = SCENARIOS[args.scenario]
    faults = sample_faults(scenario.targets, args.faults, seed=args.seed)
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store")
    if args.telemetry and not args.store:
        raise SystemExit("--telemetry requires --store (without one, "
                         "record with --flight-recorder instead)")
    cache = None
    if args.store:
        from repro.campaign import CampaignStore

        cache = CampaignStore(args.store)
        if args.resume:
            print(f"resume: {len(cache)} cells already committed in "
                  f"{args.store}")

    recorder = None
    if args.flight_recorder:
        from repro.obs import JsonlRecorder

        recorder = JsonlRecorder(args.flight_recorder)
    elif args.telemetry:
        from repro.obs import StoreRecorder

        recorder = StoreRecorder(cache)

    print(f"campaign: scenario={args.scenario} faults={len(faults)} "
          f"seed={args.seed} workers={args.workers}")
    t0 = time.perf_counter()
    result = run_campaign(args.scenario, faults, workers=args.workers,
                          cache=cache, obs=Obs(recorder=recorder))
    elapsed = time.perf_counter() - t0
    print()
    print(result.dependability_table())
    print()
    print(f"{result.stats.summary()}  "
          f"[{len(faults) / elapsed:.0f} faults/s]")

    if args.smoke:
        # the acceptance contract: identical histogram at 1 and N
        # workers, and every outcome class exercised
        serial = run_campaign(args.scenario, faults, workers=1)
        sharded = run_campaign(args.scenario, faults, workers=2)
        assert serial.to_json() == sharded.to_json(), \
            "campaign result differs across worker counts"
        hist = result.histogram()
        # crash needs a CPU to corrupt; msgpipe tops out at four classes
        expected = [o for o in OUTCOMES
                    if o != "crash" or scenario.targets.get("cpu")]
        missing = [o for o in expected if hist[o] == 0]
        assert not missing, f"outcome classes never seen: {missing}"
        print(f"smoke: histogram identical at 1 and 2 workers; "
              f"all {len(expected)} reachable outcome classes reached")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        print(f"dependability JSON written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
