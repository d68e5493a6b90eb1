"""E23 — Block translation: the third execution tier's throughput.

The translated tier (:mod:`repro.isa.translate`) compiles hot R32
basic blocks into specialized Python closures; this benchmark prices
it against the interpreted ``run_block`` tier on the same
straight-line kernel E19 uses, and pins the accuracy side of the
bargain the same way:

* **throughput** — interleaved A/B rounds (interpreted tier, then
  translated tier, within each round so scheduler drift hits both
  alike), median-of-9 paired speedups with a sign-test ~96%
  confidence interval — the E17/E22 methodology.  The interpreted
  side runs with translation pinned off (``Cpu.run_block`` would
  otherwise build a translator for these long runs by default); the
  translated side compiles eagerly, and from its second CPU on it
  reuses the process-wide block cache.  The acceptance bar
  is a **≥2× instructions/s floor over ``run_block``** (also enforced
  as an absolute floor in ``compare_bench.py``);
* **no accuracy regression** — the E18 dependability histogram (200
  faults, seed 7, coproc scenario) computed with the translator
  enabled fleet-wide must equal the pinned pre-fast-path values: a
  tier may only move host time, never model results.

Measured numbers land in ``BENCH_translate.json``.  Runnable
standalone for CI: ``PYTHONPATH=src python
benchmarks/test_bench_translate.py --smoke``.
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
from repro.isa.translate import auto_translation, install

from test_bench_isa import E18_FAULTS, E18_HISTOGRAM, E18_SEED, STRAIGHT_SRC

# the one statistics helper, shared with the end-to-end benchmark
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from _stats import median, sign_test_ci  # noqa: E402

#: Interleaved A/B rounds; at n=9 the (2nd, 8th) order statistics
#: bound the median at ~96% confidence (see test_bench_obs.py).
ROUNDS = 9
WARM_ROUNDS = 15
LIMIT = 10_000          # straight-line loop iterations (full run)
SMOKE_LIMIT = 2_000
SPEEDUP_FLOOR = 2.0     # translated tier vs run_block, instr/s
RESULT_FILE = Path(__file__).parent / "BENCH_translate.json"


def _build(limit, translated):
    isa = Isa()
    prog = assemble(STRAIGHT_SRC.format(limit=limit), isa)
    mem = Memory()
    mem.load_image(prog.image)
    cpu = Cpu(isa, mem)
    if translated:
        install(cpu, hot_threshold=1)
    return cpu


def _timed_run(cpu):
    start = time.perf_counter()
    while not cpu.halted:
        cpu.run_block(1 << 30)
    return time.perf_counter() - start


def _interpreted_run(cpu):
    """``_timed_run`` with the CPU pinned to the interpreted tier."""
    with auto_translation(False):
        elapsed = _timed_run(cpu)
    assert cpu.translator is None
    return elapsed


def measure(limit=LIMIT, rounds=ROUNDS):
    """Interleaved A/B rounds: interpreted tier, then translated."""
    # warm both paths (imports, operand cache shapes, codegen) and the
    # host: in a fresh process the first rounds of the interpreted side
    # read slow, which skewed its median against BENCH_isa's
    for _ in range(WARM_ROUNDS):
        _interpreted_run(_build(limit, False))
        warm = _build(limit, True)
        _timed_run(warm)
    n_instr = warm.instr_count
    assert warm.translator.translations > 0

    pairs = []
    last = None
    for _ in range(rounds):
        block_cpu = _build(limit, False)
        block_s = _interpreted_run(block_cpu)
        trans_cpu = _build(limit, True)
        trans_s = _timed_run(trans_cpu)
        assert block_cpu.instr_count == trans_cpu.instr_count == n_instr
        assert block_cpu.cycle_count == trans_cpu.cycle_count
        assert block_cpu.regs == trans_cpu.regs
        pairs.append((block_s, trans_s))
        last = trans_cpu

    speedups = [b / t for b, t in pairs]
    speedup = median(speedups)
    ci = sign_test_ci(speedups)[:2]
    block_ips = [n_instr / b for b, _ in pairs]
    trans_s = median([t for _, t in pairs])
    return {
        "program_instrs": n_instr,
        "rounds": rounds,
        "block_ips": round(median(block_ips)),
        "block_ips_ci96": [round(x) for x in sign_test_ci(block_ips)[:2]],
        "translate_ips": round(n_instr / trans_s),
        "speedup_vs_block": round(speedup, 2),
        "speedup_ci96": [round(x, 2) for x in ci],
        "translated_blocks": last.translator.translations,
    }


def check_model_identity():
    """E18 with the translator enabled fleet-wide: pinned histogram."""
    scenario = SCENARIOS["coproc"]
    faults = sample_faults(scenario.targets, E18_FAULTS, seed=E18_SEED)
    with auto_translation(True):
        hist = run_campaign("coproc", faults, workers=1).histogram()
    assert hist == E18_HISTOGRAM, (
        f"E18 dependability histogram drifted under translation: "
        f"{hist} != {E18_HISTOGRAM}"
    )
    return hist


def run_bench(limit=LIMIT, rounds=ROUNDS, write=True):
    record = measure(limit, rounds)
    record["e18_histogram"] = check_model_identity()

    assert record["speedup_vs_block"] >= SPEEDUP_FLOOR, (
        f"translated tier is only {record['speedup_vs_block']}x "
        f"run_block at the median of {rounds} interleaved rounds "
        f"(floor: {SPEEDUP_FLOOR}x; ~96% CI "
        f"[{record['speedup_ci96'][0]}, {record['speedup_ci96'][1]}])"
    )

    if write:
        RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_translate_speedup_and_model_identity(benchmark):
    run_bench(SMOKE_LIMIT, rounds=3, write=False)  # warm all paths
    record = benchmark.pedantic(
        lambda: run_bench(LIMIT, ROUNDS), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {k: v for k, v in record.items() if not isinstance(v, dict)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="block-translation benchmark (BENCH_translate.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload for CI")
    parser.add_argument("--out", metavar="FILE",
                        help="write the record here instead of "
                             "BENCH_translate.json")
    args = parser.parse_args(argv)

    limit = SMOKE_LIMIT if args.smoke else LIMIT
    rounds = 5 if args.smoke else ROUNDS
    record = run_bench(limit, rounds, write=False)
    out = Path(args.out) if args.out else RESULT_FILE
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"straight-line kernel: {record['program_instrs']} instrs, "
          f"{record['translated_blocks']} blocks translated")
    print(f"  run_block (interpreted): {record['block_ips']:>10,} instr/s  "
          f"~96% CI {record['block_ips_ci96']}")
    print(f"  translated tier:         {record['translate_ips']:>10,} "
          f"instr/s  ({record['speedup_vs_block']}x, ~96% CI "
          f"[{record['speedup_ci96'][0]}, {record['speedup_ci96'][1]}])")
    print(f"model identity: E18 histogram unchanged under translation")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
