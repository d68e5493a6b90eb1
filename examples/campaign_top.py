#!/usr/bin/env python3
"""``top`` for campaigns: live status and crash post-mortems.

Reads the flight recorder (:mod:`repro.obs.live`) — the ``telemetry``
table of a :class:`~repro.campaign.store.CampaignStore` and/or an
append-only JSONL file — and renders, without the run's cooperation:

* a live status frame: one line per owner (shard, coordinator,
  driver) with heartbeat age, progress gauges, measured throughput,
  and a DEAD/hung verdict, plus queue depths and an ETA;
* a post-mortem report (``--post-mortem``): the last heartbeat per
  owner, uncommitted leases, the suspect cells a dead shard was
  holding, and permanently failed cells — as markdown or JSON.

Both are read-only: pointing this at a live campaign is safe and is
exactly the intended use.  ``--watch`` redraws until the queue drains.

Run:  python examples/campaign_top.py --store campaign.sqlite
      python examples/campaign_top.py --store campaign.sqlite --watch 2
      python examples/campaign_top.py --store campaign.sqlite --post-mortem --out pm.md
      python examples/campaign_top.py --jsonl flight.jsonl --json
      python examples/campaign_top.py --smoke
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro.campaign.store import CampaignStore
from repro.obs import (
    TelemetrySample,
    post_mortem,
    read_samples,
    render_status,
)


def gather(args):
    """(store or None, JSONL samples) from the CLI source flags."""
    store = None
    if args.store:
        if not os.path.exists(args.store):
            raise SystemExit(f"no such store: {args.store}")
        store = CampaignStore(args.store)
    jsonl = read_samples(args.jsonl) if args.jsonl else []
    return store, jsonl


def status_frame(store, jsonl, title="campaign status"):
    """One rendered status frame plus the underlying post-mortem."""
    report = post_mortem(store=store, samples=jsonl)
    samples = list(jsonl)
    if store is not None:
        samples = [
            TelemetrySample.from_dict(doc) for doc in store.telemetry()
        ] + samples
    queue = store.queue_counts() if store is not None else None
    text = render_status(
        samples, queue_counts=queue,
        dead_owners=report.dead_owners(), title=title,
    )
    return text, report


def run_smoke() -> int:
    """Self-contained demo: a tiny store campaign with the recorder
    armed, then the live frame and a post-mortem of the result."""
    from repro.obs import Obs, StoreRecorder
    from repro.sweep import expand_grid, run_sweep

    with tempfile.TemporaryDirectory(prefix="campaign_top_") as tmp:
        store = CampaignStore(os.path.join(tmp, "campaign.sqlite"))
        grid = expand_grid(
            generators=("layered",), n_tasks=(6,),
            heuristics=("greedy",), seeds=range(4),
        )
        print(f"smoke campaign: {len(grid)} cells into {store.path}")
        table = run_sweep(grid, workers=2, cache=store,
                          obs=Obs(recorder=StoreRecorder(store)))
        print(f"  {table.stats.summary()}")
        print()
        text, report = status_frame(store, [], title="smoke campaign")
        print(text)
        print()
        print(report.to_markdown())
        if not any(s["kind"] == "heartbeat"
                   for s in store.telemetry()):
            print("SMOKE FAILED: no heartbeats recorded",
                  file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Live campaign status / crash post-mortem from "
                    "the flight recorder (store telemetry table "
                    "and/or JSONL file)."
    )
    parser.add_argument("--store", default=None, metavar="DB",
                        help="campaign store (SQLite) to read")
    parser.add_argument("--jsonl", default=None, metavar="FILE",
                        help="JSONL flight-recorder file to read")
    parser.add_argument("--post-mortem", action="store_true",
                        help="render the full post-mortem report "
                             "instead of the status frame")
    parser.add_argument("--json", action="store_true",
                        help="emit the post-mortem as JSON")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the rendered output here")
    parser.add_argument("--watch", type=float, default=None,
                        metavar="SECONDS",
                        help="redraw every SECONDS until the store's "
                             "queue drains (needs --store)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-contained demo campaign for CI")
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()
    if not args.store and not args.jsonl:
        parser.error("need --store and/or --jsonl (or --smoke)")
    if args.watch is not None and not args.store:
        parser.error("--watch needs --store (its stop condition is "
                     "the queue draining)")

    store, jsonl = gather(args)

    if args.watch is not None:
        try:
            while True:
                text, _ = status_frame(store, jsonl)
                print(text, flush=True)
                counts = store.queue_counts()
                if sum(n for state, n in counts.items()
                       if state in ("pending", "leased")) == 0:
                    break
                time.sleep(args.watch)
                print()
        except KeyboardInterrupt:
            pass
        return 0

    text, report = status_frame(store, jsonl)
    if args.post_mortem or args.json:
        rendered = (report.to_json() if args.json
                    else report.to_markdown())
    else:
        rendered = text
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered if rendered.endswith("\n")
                     else rendered + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
