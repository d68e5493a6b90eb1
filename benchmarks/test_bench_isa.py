"""E19 — Fast-path execution engine: decode cache + run_block throughput.

The paper's host-time costs (E16 sweeps, E18 campaigns, every Fig 4–9
bench) are dominated by two interpreted hot loops; this benchmark
prices the fast paths that attack them and pins the *accuracy* side of
the bargain:

* **decode cache** — ``Isa.decode`` (memoized) vs ``decode_uncached``
  (the reference path) over a program's word stream;
* **trace-cache executor** — ``Cpu.run_block()`` on the interpreted
  tier (translation pinned off: ``Cpu.run()`` translates by default)
  vs a ``step()`` loop, and vs the pre-PR decode-every-step baseline,
  on a straight-line arithmetic kernel.  The acceptance bar is ≥2×
  instructions/s over the decode-every-step baseline;
* **no accuracy regression** — the Figure 3 abstraction-ladder
  activation counts and the E18 dependability histogram (200 faults,
  seed 7) must be byte-identical to their pre-fast-path values: the
  fast paths may only move host time, never model results.

Timing is interleaved rounds — every path once per round, so scheduler
drift hits all alike — with medians and sign-test ~96% confidence
intervals from the shared statistics helper (``bench/_stats.py``), the
same method ``BENCH_translate.json`` uses for the same tier.

Measured numbers land in ``BENCH_isa.json``.  Runnable standalone for
CI: ``PYTHONPATH=src python benchmarks/test_bench_isa.py --smoke``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.fault import SCENARIOS, run_campaign, sample_faults
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa
from repro.isa.translate import auto_translation

# the one statistics helper, shared with the end-to-end benchmark
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from _stats import median, sign_test_ci  # noqa: E402

#: Interleaved rounds; at n=9 the (2nd, 8th) order statistics bound
#: the median at ~96% confidence.
ROUNDS = 9
SMOKE_ROUNDS = 5
LIMIT = 10_000          # straight-line loop iterations (full run)
SMOKE_LIMIT = 2_000
DECODE_PASSES = 200     # decode-bench sweeps over the word stream
RESULT_FILE = Path(__file__).parent / "BENCH_isa.json"

# pinned pre-fast-path model results (accuracy regression gates)
FIG3_ACTIVATIONS = {
    "pin": 1036, "transaction": 148, "register": 116, "message": 117,
}
E18_HISTOGRAM = {
    "masked": 96, "sdc": 49, "detected": 6, "hang": 40, "crash": 9,
}
E18_FAULTS = 200
E18_SEED = 7

STRAIGHT_SRC = """
    addi r1, r0, 0        ; acc
    addi r2, r0, 0        ; i
    addi r3, r0, {limit}  ; loop bound
loop:
    add  r1, r1, r2
    xor  r4, r1, r2
    slli r5, r4, 3
    srli r6, r5, 2
    and  r7, r6, r1
    or   r8, r7, r2
    sub  r9, r8, r1
    addi r2, r2, 1
    blt  r2, r3, loop
    halt
"""


class _NoMemo(dict):
    """A cache that keeps nothing: every lookup misses."""

    def __setitem__(self, key, value):
        pass


class _UncachedIsa(Isa):
    """The decode-every-step baseline: ``step()`` runs on the
    interpreted tier, which would decode each word once into the ISA's
    operand cache, so the cache here keeps nothing and every step pays
    the full field extraction and looks the word's compiled function
    up again; ``decodes`` counts the decodes."""

    def __init__(self):
        super().__init__()
        self._ops = _NoMemo()
        self.decodes = 0

    def decode(self, word):
        self.decodes += 1
        return self.decode_uncached(word)


def _build(limit, isa=None):
    isa = isa if isa is not None else Isa()
    prog = assemble(STRAIGHT_SRC.format(limit=limit), isa)
    mem = Memory()
    mem.load_image(prog.image)
    return Cpu(isa, mem)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _step_loop(cpu):
    while not cpu.halted:
        cpu.step()
    return cpu.instr_count


def _block_run(cpu):
    cpu.run()
    return cpu.instr_count


def _baseline(limit):
    """The step loop on :class:`_UncachedIsa`: it must decode once per
    step."""
    cpu = _build(limit, _UncachedIsa())
    cpu.isa.decodes = 0
    steps = _step_loop(cpu)
    assert cpu.isa.decodes == steps, (cpu.isa.decodes, steps)
    return steps


def measure(limit=LIMIT, rounds=ROUNDS):
    """Interleaved rounds over the two decode paths and three executors."""
    words = list(_build(limit).memory.ram.values())
    stream = words * DECODE_PASSES

    def decode_uncached():
        fresh = Isa()
        for w in stream:
            fresh.decode_uncached(w)

    def decode_cached():
        fresh = Isa()
        for w in stream:
            fresh.decode(w)

    paths = {
        "decode_uncached": decode_uncached,
        "decode_cached": decode_cached,
        # the three executors retire the identical instruction stream
        "baseline": lambda: _baseline(limit),
        "step": lambda: _step_loop(_build(limit)),
        "block": lambda: _block_run(_build(limit)),
    }
    times = {name: [] for name in paths}
    counts = set()
    with auto_translation(False):  # run_block on the interpreted tier
        for fn in paths.values():  # warm every path
            fn()
        for _ in range(rounds):
            for name, fn in paths.items():
                result, elapsed = _timed(fn)
                times[name].append(elapsed)
                if name in ("baseline", "step", "block"):
                    counts.add(result)
    (n_instr,) = counts

    def ratio(slow, fast):
        ratios = [s / f for s, f in zip(times[slow], times[fast])]
        return round(median(ratios), 2), \
            [round(x, 2) for x in sign_test_ci(ratios)[:2]]

    def ips(name):
        per_round = [n_instr / t for t in times[name]]
        return round(median(per_round)), \
            [round(x) for x in sign_test_ci(per_round)[:2]]

    decode_speedup, decode_ci = ratio("decode_uncached", "decode_cached")
    vs_baseline, vs_baseline_ci = ratio("baseline", "block")
    vs_step, vs_step_ci = ratio("step", "block")
    block_ips, block_ci = ips("block")
    return {
        "program_instrs": n_instr,
        "rounds": rounds,
        "decode_words": len(stream),
        "decode_uncached_s": round(median(times["decode_uncached"]), 4),
        "decode_cached_s": round(median(times["decode_cached"]), 4),
        "decode_speedup": decode_speedup,
        "decode_speedup_ci96": decode_ci,
        "baseline_ips": ips("baseline")[0],
        "step_ips": ips("step")[0],
        "block_ips": block_ips,
        "block_ips_ci96": block_ci,
        "speedup_vs_baseline": vs_baseline,
        "speedup_vs_baseline_ci96": vs_baseline_ci,
        "speedup_vs_step": vs_step,
        "speedup_vs_step_ci96": vs_step_ci,
    }


def check_model_identity():
    """The accuracy gates: fast paths may not move any model result."""
    from test_bench_fig3_abstraction import LEVELS, run_level

    activations = {lv: run_level(lv)["activations"] for lv in LEVELS}
    assert activations == FIG3_ACTIVATIONS, (
        f"Fig 3 activation ladder drifted: {activations} != "
        f"{FIG3_ACTIVATIONS}"
    )

    scenario = SCENARIOS["coproc"]
    faults = sample_faults(scenario.targets, E18_FAULTS, seed=E18_SEED)
    hist = run_campaign("coproc", faults, workers=1).histogram()
    assert hist == E18_HISTOGRAM, (
        f"E18 dependability histogram drifted: {hist} != {E18_HISTOGRAM}"
    )
    return activations, hist


def run_bench(limit=LIMIT, rounds=ROUNDS, write=True):
    record = measure(limit, rounds)
    activations, hist = check_model_identity()
    record["fig3_activations"] = activations
    record["e18_histogram"] = hist

    assert record["speedup_vs_baseline"] >= 2.0, (
        f"run_block is only {record['speedup_vs_baseline']}x the "
        f"decode-every-step baseline (bar: 2x)"
    )
    assert record["decode_speedup"] >= 1.5, (
        f"decode memoization is only {record['decode_speedup']}x"
    )

    if write:
        RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_fastpath_speedup_and_model_identity(benchmark):
    run_bench(SMOKE_LIMIT, rounds=1, write=False)  # warm all paths
    record = benchmark.pedantic(
        lambda: run_bench(LIMIT, ROUNDS), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {k: v for k, v in record.items() if not isinstance(v, dict)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ISA fast-path benchmark (BENCH_isa.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload for CI")
    parser.add_argument("--out", metavar="FILE",
                        help="write the record here instead of "
                             "BENCH_isa.json")
    args = parser.parse_args(argv)

    limit = SMOKE_LIMIT if args.smoke else LIMIT
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS
    record = run_bench(limit, rounds, write=False)
    out = Path(args.out) if args.out else RESULT_FILE
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"straight-line kernel: {record['program_instrs']} instrs")
    print(f"  baseline (decode-every-step): {record['baseline_ips']:>9,} "
          f"instr/s")
    print(f"  step (cached decode):         {record['step_ips']:>9,} "
          f"instr/s")
    print(f"  run_block (interpreted):      {record['block_ips']:>9,} "
          f"instr/s  ~96% CI {record['block_ips_ci96']}  "
          f"({record['speedup_vs_baseline']}x baseline, "
          f"{record['speedup_vs_step']}x step)")
    print(f"decode: {record['decode_speedup']}x cached over uncached")
    print(f"model identity: Fig3 activations + E18 histogram unchanged")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
