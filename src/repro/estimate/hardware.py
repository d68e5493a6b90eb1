"""Hardware area/latency estimation.

Two fidelities, as in real flows:

* :func:`estimate_cdfg_hardware` — a fast pre-synthesis estimate from the
  operation mix and dependence depth (no scheduling), for the inner loop
  of partitioning algorithms;
* :func:`synthesize_cdfg_hardware` — exact numbers from an actual HLS run
  (schedule + bind + datapath + controller), for final evaluation.

Both return a :class:`HardwareEstimate`, so callers can swap fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro import _domain
from repro.graph.cdfg import CDFG
from repro.hls.library import (
    ComponentLibrary,
    controller_area,
    default_library,
    mux_area,
    register_area,
)
from repro.hls.synthesize import HlsConstraints, synthesize


@dataclass(frozen=True)
class HardwareEstimate:
    """Area (gates) and latency (ns) of one hardware implementation."""

    area: float
    latency_ns: float
    detail: str = "quick"

    def __post_init__(self) -> None:
        _domain.real("area", self.area, least=0)
        _domain.real("latency_ns", self.latency_ns, least=0)


def fu_requirements(
    cdfg: CDFG,
    library: Optional[ComponentLibrary] = None,
    parallelism: float = 2.0,
) -> Dict[str, int]:
    """Estimate the functional units a behavior needs.

    Without a schedule, the requirement for a component type is the op
    count divided by the expected serialization (depth / parallelism),
    bounded to [1, count].  This mirrors the pre-scheduling estimators
    the partitioning literature used.
    """
    library = library or default_library()
    hist = cdfg.op_histogram()
    depth = max(1, cdfg.depth())
    needs: Dict[str, int] = {}
    for kind, count in hist.items():
        if not kind.is_compute:
            continue
        comp = library.cheapest(kind)
        width = count / depth * parallelism
        needed = max(1, min(count, math.ceil(width)))
        needs[comp.name] = max(needs.get(comp.name, 0), needed)
    return needs


def estimate_cdfg_hardware(
    cdfg: CDFG,
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
) -> HardwareEstimate:
    """Fast pre-synthesis hardware estimate for one behavior."""
    library = library or default_library()
    needs = fu_requirements(cdfg, library)
    fu_area = sum(
        library.component(name).area * count
        for name, count in needs.items()
    )
    n_compute = len(cdfg.compute_ops())
    n_values = n_compute + len(cdfg.inputs())
    # roughly half the values are live simultaneously on DSP dataflow
    regs = max(1, n_values // 2) if n_compute else 0
    # sharing factor: ops per FU instance drives mux cost
    total_fus = max(1, sum(needs.values()))
    shares = max(0.0, n_compute / total_fus - 1.0)
    est_mux = mux_area(2) * shares * total_fus
    # latency: depth steps, each one cycle of the slowest chosen FU
    steps = cdfg.depth()
    latency = steps * cycle_time
    ctrl = controller_area(max(1, steps), total_fus + regs)
    return HardwareEstimate(
        area=fu_area + register_area(regs) + est_mux + ctrl,
        latency_ns=latency,
        detail="quick",
    )


def synthesize_cdfg_hardware(
    cdfg: CDFG,
    library: Optional[ComponentLibrary] = None,
    cycle_time: float = 10.0,
    resources: Optional[Dict[str, int]] = None,
) -> HardwareEstimate:
    """Exact hardware numbers from a real HLS run."""
    constraints = (
        HlsConstraints(scheduler="list", resources=resources,
                       cycle_time=cycle_time)
        if resources else
        HlsConstraints(scheduler="asap", cycle_time=cycle_time)
    )
    result = synthesize(cdfg, constraints, library)
    return HardwareEstimate(
        area=result.area,
        latency_ns=result.latency_ns,
        detail="synthesis",
    )


def estimation_error(quick: HardwareEstimate, exact: HardwareEstimate) -> float:
    """Relative area error of the quick estimate vs synthesis."""
    if exact.area == 0:
        return 0.0
    return abs(quick.area - exact.area) / exact.area
