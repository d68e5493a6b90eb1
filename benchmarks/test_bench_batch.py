"""E24 — Vectorized batch tier: campaign wall-clock vs translated scalar.

The batch tier (:mod:`repro.isa.batch`) executes a whole fault
campaign's lanes as columns of one structure-of-arrays machine
(DESIGN §14).  This benchmark prices it against the best scalar
configuration the repo had before it — the campaign run with the
block translator enabled fleet-wide (PR 9, E23) — on the E24 workload:
the ``swmac`` software-only scenario at E18 campaign shape (200
faults, seed 7).

* **throughput** — interleaved A/B rounds (scalar-translated campaign,
  then batch campaign, within each round so scheduler drift hits both
  alike), median-of-9 paired speedups with a sign-test ~96% confidence
  interval — the E17/E22/E23 methodology.  Acceptance bar: **≥5×
  campaign wall-clock over translated scalar** (``compare_bench.py``
  enforces an absolute ≥2× floor for noise headroom on slow boxes);
* **no accuracy regression** — every round asserts the batch campaign
  document is byte-identical to the scalar one; the E24 dependability
  histogram is pinned exactly, and the kernel-bound E18 histogram
  (coproc) must be untouched by the batch flag.

Measured numbers land in ``BENCH_batch.json``.  Runnable standalone
for CI: ``PYTHONPATH=src python benchmarks/test_bench_batch.py
--smoke``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.fault import SCENARIOS, run_campaign, sample_faults
from repro.isa.translate import auto_translation

from test_bench_isa import E18_FAULTS, E18_HISTOGRAM, E18_SEED

# the one statistics helper, shared with the end-to-end benchmark
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from _stats import median, sign_test_ci  # noqa: E402

#: Interleaved A/B rounds; at n=9 the (2nd, 8th) order statistics
#: bound the median at ~96% confidence (see test_bench_obs.py).
ROUNDS = 9
E24_FAULTS = 200        # E18 campaign shape on the swmac scenario
E24_SEED = 7
E24_HISTOGRAM = {
    "masked": 64, "sdc": 46, "detected": 16, "hang": 24, "crash": 50,
}
SPEEDUP_FLOOR = 5.0     # batch campaign vs translated-scalar campaign
RESULT_FILE = Path(__file__).parent / "BENCH_batch.json"


def _faults():
    return sample_faults(
        SCENARIOS["swmac"].targets, E24_FAULTS, seed=E24_SEED)


def _timed_campaign(faults, batch):
    start = time.perf_counter()
    result = run_campaign("swmac", faults, batch=batch)
    return time.perf_counter() - start, result


def measure(rounds=ROUNDS):
    """Interleaved A/B rounds: translated-scalar campaign, then batch.

    Both sides run under ``auto_translation(True)`` — the scalar side
    because that *is* the PR 9 baseline, the batch side so its drained
    lanes finish on the same translated tier.
    """
    faults = _faults()
    with auto_translation(True):
        # warm both paths (imports, codegen, decode caches)
        _timed_campaign(faults, batch=False)
        _timed_campaign(faults, batch=True)

        pairs = []
        reference = None
        for _ in range(rounds):
            scalar_s, scalar = _timed_campaign(faults, batch=False)
            batch_s, batch = _timed_campaign(faults, batch=True)
            assert batch.to_json() == scalar.to_json(), (
                "batch campaign document differs from scalar"
            )
            pairs.append((scalar_s, batch_s))
            reference = scalar

    hist = reference.histogram()
    assert hist == E24_HISTOGRAM, (
        f"E24 dependability histogram drifted: {hist} != {E24_HISTOGRAM}"
    )
    speedups = [s / b for s, b in pairs]
    ci = sign_test_ci(speedups)[:2]
    return {
        "faults": E24_FAULTS,
        "rounds": rounds,
        "scalar_campaign_s": round(median([s for s, _ in pairs]), 4),
        "batch_campaign_s": round(median([b for _, b in pairs]), 4),
        "speedup_vs_scalar": round(median(speedups), 2),
        "speedup_ci96": [round(x, 2) for x in ci],
        "e24_histogram": hist,
    }


def check_model_identity():
    """The kernel-bound E18 campaign must not move under ``batch=True``
    (scenarios that need the simulation kernel bypass the batch tier)."""
    scenario = SCENARIOS["coproc"]
    faults = sample_faults(scenario.targets, E18_FAULTS, seed=E18_SEED)
    hist = run_campaign("coproc", faults, batch=True).histogram()
    assert hist == E18_HISTOGRAM, (
        f"E18 dependability histogram drifted under the batch flag: "
        f"{hist} != {E18_HISTOGRAM}"
    )
    return hist


def run_bench(rounds=ROUNDS, write=True):
    record = measure(rounds)
    record["e18_histogram"] = check_model_identity()

    assert record["speedup_vs_scalar"] >= SPEEDUP_FLOOR, (
        f"batch campaign is only {record['speedup_vs_scalar']}x the "
        f"translated-scalar campaign at the median of {rounds} "
        f"interleaved rounds (floor: {SPEEDUP_FLOOR}x; ~96% CI "
        f"[{record['speedup_ci96'][0]}, {record['speedup_ci96'][1]}])"
    )

    if write:
        RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_batch_speedup_and_model_identity(benchmark):
    run_bench(rounds=3, write=False)  # warm all paths
    record = benchmark.pedantic(
        lambda: run_bench(ROUNDS), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {k: v for k, v in record.items() if not isinstance(v, dict)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="batch-tier campaign benchmark (BENCH_batch.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload for CI")
    parser.add_argument("--out", metavar="FILE",
                        help="write the record here instead of "
                             "BENCH_batch.json")
    args = parser.parse_args(argv)

    rounds = 5 if args.smoke else ROUNDS
    record = run_bench(rounds, write=False)
    out = Path(args.out) if args.out else RESULT_FILE
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"E24 campaign: swmac, {record['faults']} faults, "
          f"{record['rounds']} interleaved rounds")
    print(f"  translated scalar: {record['scalar_campaign_s']:.3f} s")
    print(f"  batch tier:        {record['batch_campaign_s']:.3f} s  "
          f"({record['speedup_vs_scalar']}x, ~96% CI "
          f"[{record['speedup_ci96'][0]}, {record['speedup_ci96'][1]}])")
    print(f"model identity: E24 pinned, E18 untouched by the batch flag")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
