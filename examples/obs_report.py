#!/usr/bin/env python3
"""Cross-layer observability report: spans, convergence, metrics.

Runs a partition-heuristic sweep (default) or a traced co-simulation
and emits the full `repro.obs` output set:

* ``obs_trace.json`` — a Chrome trace-event / Perfetto JSON timeline
  (load it at https://ui.perfetto.dev): sweep mode shows per-worker
  swimlanes with one span per cell and convergence instants; cosim
  mode shows the kernel's model-time records and bus occupancy spans;
* ``obs_metrics.json`` — the merged parent ``MetricsRegistry``
  snapshot (worker deltas folded in);
* stdout — an aligned-text flamegraph, the metrics summary table, and
  per-heuristic convergence tables.

The emitted trace is schema-validated (required keys ``ph``, ``ts``,
``pid``, ``tid``, ``name``) before the script exits; an invalid trace
is an error.  ``--smoke`` shrinks the grid for CI.

Run:  python examples/obs_report.py --out obs-report --workers 2
      python examples/obs_report.py --mode cosim --out obs-report
      python examples/obs_report.py --smoke
"""

import argparse
import json
import os
import sys
import tempfile

from repro.cosim.metrics import MetricsRegistry
from repro.graph.generators import COST_MODELS, GENERATORS
from repro.obs import (
    JsonlRecorder,
    Obs,
    ProgressProbe,
    SpanTracer,
    convergence_sink,
    read_samples,
    render_status,
    validate_trace_events,
)
from repro.partition import HEURISTICS
from repro.sweep import expand_grid, parse_seed_spec, run_sweep


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


def run_sweep_report(args, outdir):
    """Observed sweep: merged worker spans + convergence + metrics."""
    grid = expand_grid(
        generators=_axis(args.generators, GENERATORS, "generator"),
        n_tasks=[int(n) for n in args.n_tasks.split(",")],
        cost_models=_axis(args.cost_models, COST_MODELS, "cost model"),
        heuristics=_axis(args.heuristics, HEURISTICS, "heuristic"),
        seeds=parse_seed_spec(args.seeds),
    )
    spans = SpanTracer()
    probe = ProgressProbe(sink=convergence_sink(spans))
    metrics = MetricsRegistry()
    recorder = None
    if args.live:
        recorder = JsonlRecorder(os.path.join(outdir, "flight.jsonl"))
    print(f"observed sweep: {len(grid)} cells, workers={args.workers}")
    table = run_sweep(grid, workers=args.workers,
                      obs=Obs(metrics=metrics, spans=spans, probe=probe,
                              recorder=recorder))
    print(f"  {table.stats.summary()}")
    if recorder is not None:
        recorder.close()
        samples = read_samples(recorder.path)
        print()
        print(render_status(samples, title="flight recorder"))
        print(f"  ({len(samples)} samples in {recorder.path})")

    trace_doc = spans.to_perfetto(indent=None)
    print()
    print(spans.flamegraph())
    print()
    print("convergence:")
    print(probe.summary())
    for name in probe.algorithms():
        print()
        print(probe.convergence_table(name, max_rows=args.table_rows))
    print()
    print(metrics.summary_table())
    return trace_doc, metrics


def run_cosim_report(args, outdir):
    """Traced co-simulation bridged onto the same timeline format."""
    from repro.cosim.bus import SystemBus
    from repro.cosim.kernel import Simulator
    from repro.cosim.pinlevel import run_until_complete
    from repro.cosim.trace import Tracer
    from repro.isa.assembler import assemble
    from repro.isa.cpu import Cpu, Memory
    from repro.isa.instructions import Isa
    from repro.isa.profiler import Profiler
    from repro.cosim.backplane import Backplane, TransactionAdapter

    program = """
            addi r4, r0, 0
            addi r5, r0, 8
        loop:
            add  r6, r4, r4
            addi r6, r6, 3
            sw   r6, 0x800(r4)
            lw   r7, 0x800(r4)
            addi r4, r4, 1
            bne  r4, r5, loop
            halt
    """
    store = [0] * 16

    def ram(offset, value, is_write):
        if is_write:
            store[offset] = value
            return 0
        return store[offset]

    tracer = Tracer()
    sim = Simulator(tracer=tracer)
    isa = Isa()
    prog = assemble(program, isa)
    mem = Memory()
    mem.load_image(prog.image)
    cpu = Cpu(isa, mem)
    profiler = Profiler(cpu)
    bp = Backplane(sim, cpu, clock_period=10.0)
    bus = SystemBus(sim, arbitration_time=10.0, setup_time=10.0,
                    word_time=10.0)
    bus.attach_slave("ram", 0x800, 16, ram)
    bp.mount(0x800, 16, TransactionAdapter(bus, base=0x800))
    proc = bp.start()
    run_until_complete(sim, [proc], limit=1e7)

    # one registry for kernel metrics AND the R32 execution profile
    profiler.to_metrics(tracer.metrics)
    events = tracer.to_trace_events()
    trace_doc = json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    )
    print("traced co-simulation (transaction level):")
    print(tracer.summary())
    return trace_doc, tracer.metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Unified observability report: Perfetto trace, "
                    "flamegraph, convergence tables, metrics."
    )
    parser.add_argument("--mode", choices=("sweep", "cosim"),
                        default="sweep")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: a temp dir)")
    parser.add_argument("--generators", default="layered")
    parser.add_argument("--cost-models", default="default")
    parser.add_argument("--heuristics", default="all")
    parser.add_argument("--seeds", default="0-1")
    parser.add_argument("--n-tasks", default="8")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--table-rows", type=int, default=12,
                        help="max rows per convergence table (default 12)")
    parser.add_argument("--live", action="store_true",
                        help="arm the JSONL flight recorder during the "
                             "sweep and render the live-status frame "
                             "(sweep mode only)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed grid for CI smoke runs")
    args = parser.parse_args(argv)
    if args.live and args.mode != "sweep":
        parser.error("--live is sweep-mode only")

    if args.smoke:
        args.generators = "layered"
        args.cost_models = "default"
        args.heuristics = "greedy,annealing"
        args.seeds = "0-1"
        args.n_tasks = "6"
        args.workers = 2

    outdir = args.out or tempfile.mkdtemp(prefix="obs_report_")
    os.makedirs(outdir, exist_ok=True)

    if args.mode == "sweep":
        trace_doc, metrics = run_sweep_report(args, outdir)
    else:
        trace_doc, metrics = run_cosim_report(args, outdir)

    problems = validate_trace_events(trace_doc)
    if problems:
        print("\nTRACE SCHEMA INVALID:", file=sys.stderr)
        for problem in problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    trace_path = os.path.join(outdir, "obs_trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(trace_doc)
    metrics_path = os.path.join(outdir, "obs_metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics.snapshot(), fh, indent=2)

    n_events = len(json.loads(trace_doc)["traceEvents"])
    print(f"\nwrote {trace_path} ({n_events} trace events, "
          f"schema valid) and {metrics_path}")
    print("load the trace at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
