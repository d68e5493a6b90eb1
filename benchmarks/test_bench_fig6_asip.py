"""E6 — Figure 6: application-specific instruction-set processors.

Paper claims (Section 4.3): ASIP co-design "attempts to find the best
implementation for a given application" by "adding new instructions to
the instruction set architecture" — a form of hardware/software
partitioning in which moving functionality into custom instructions
buys performance for silicon area, while *modifiability is preserved*
(the application remains software; the stock binary still runs).

Measured: the mined-candidate selection frontier — speedup rises
monotonically with the custom-FU area budget, every design point's
rewritten binaries are bit-identical to the stock-ISA outputs, and the
budget-0 point (the unmodified processor) anchors the frontier at 1.0x.
"""

import pytest

from repro.asip.explore import explore_asip
from repro.graph import kernels

COEFFS = [3, -5, 7, 2, 9, -1, 4, 6]
BUDGETS = [0.0, 100.0, 300.0, 600.0, 1200.0, 2400.0]


def workloads():
    return {
        "fir": (kernels.fir(8, coefficients=COEFFS), 5.0),
        "crc": (kernels.crc_step(), 10.0),
        "ewf": (kernels.elliptic_wave_filter(constant_coefficients=True),
                3.0),
    }


def test_fig6_selection_frontier(benchmark):
    wl = workloads()
    weights = {name: w for name, (_g, w) in wl.items()}
    points = benchmark(explore_asip, wl, BUDGETS)

    speedups = [p.speedup(weights) for p in points]
    # anchor: no custom area = stock processor
    assert speedups[0] == pytest.approx(1.0)
    assert points[0].custom_area == 0.0
    # monotone frontier: more area never hurts (exploration verified
    # functional equality internally - it raises on any mismatch)
    for lo, hi in zip(speedups, speedups[1:]):
        assert hi >= lo - 1e-9
    # the frontier actually buys something
    assert speedups[-1] > 1.25
    # area tracks budget
    for point in points:
        assert point.custom_area <= point.budget + 1e-9

    # modifiability: the custom ops extend the ISA, they don't replace
    # it - the stock-compiled binary still runs on the extended ISA
    from repro.asip.custom import install, mine_candidates
    from repro.asip.selection import select_instructions
    from repro.isa.codegen import compile_cdfg

    extended = install(select_instructions(mine_candidates(wl), 1200.0),
                       "check")
    g = kernels.crc_step()
    stock_binary = compile_cdfg(g)  # compiled for the stock ISA
    inputs = {op.name: 123 for op in g.inputs()}
    out_on_extended, _cycles = stock_binary.run(dict(inputs), isa=extended)
    assert out_on_extended == g.evaluate(dict(inputs))

    benchmark.extra_info["frontier"] = [
        {"budget": p.budget, "area": p.custom_area,
         "speedup": round(p.speedup(weights), 4),
         "instructions": len(p.instructions)}
        for p in points
    ]
