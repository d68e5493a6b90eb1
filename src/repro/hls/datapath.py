"""The structural datapath: FU instances, registers, and steering logic.

The datapath model is deliberately at the granularity the era's
estimators used: functional units, registers, and the multiplexer legs
implied by sharing.  Sharing an FU among more ops *saves* FU area but
*adds* mux legs on its input ports — the non-monotonic effect that makes
incremental estimation (Vahid–Gajski [18]) non-trivial, reproduced here
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.graph.cdfg import OpKind
from repro.hls.binding import Binding
from repro.hls.library import (
    ComponentLibrary,
    mux_area,
    register_area,
)
from repro.hls.scheduling import Schedule


@dataclass
class PortMux:
    """The steering mux on one FU input port."""

    fu: str
    port: int
    sources: List[str] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.sources)


@dataclass
class Datapath:
    """The bound structural datapath and its area breakdown."""

    binding: Binding
    library: ComponentLibrary
    muxes: List[PortMux]

    @property
    def fu_area(self) -> float:
        return sum(
            self.library.component(f.component).area
            for f in self.binding.fus
        )

    @property
    def register_area(self) -> float:
        return register_area(self.binding.n_registers)

    @property
    def mux_area(self) -> float:
        return sum(mux_area(m.width) for m in self.muxes)

    @property
    def area(self) -> float:
        """Total datapath area (excluding the controller)."""
        return self.fu_area + self.register_area + self.mux_area

    def breakdown(self) -> Dict[str, float]:
        """Area by category."""
        return {
            "fu": self.fu_area,
            "register": self.register_area,
            "mux": self.mux_area,
        }

    def netlist_text(self) -> str:
        """A readable structural netlist of the bound datapath."""
        lines = ["// generated datapath"]
        for fu in self.binding.fus:
            comp = self.library.component(fu.component)
            ops = ", ".join(fu.ops)
            lines.append(
                f"fu {fu.name}: {fu.component} "
                f"(area {comp.area:.0f}) executes [{ops}]"
            )
        for reg in self.binding.registers:
            lines.append(
                f"reg {reg.name}: holds [{', '.join(reg.values)}]"
            )
        for mux in self.muxes:
            if mux.width > 1:
                lines.append(
                    f"mux {mux.fu}.in{mux.port}: "
                    f"{mux.width}:1 from [{', '.join(mux.sources)}]"
                )
        return "\n".join(lines)


def build_datapath(
    schedule: Schedule,
    binding: Binding,
    library: ComponentLibrary,
) -> Datapath:
    """Derive the steering structure implied by a binding.

    For each FU input port, the distinct sources (registers or constant
    ROM) feeding it across all bound ops determine the port's mux width.
    """
    cdfg = schedule.cdfg
    port_sources: Dict[Tuple[str, int], Set[str]] = {}
    for fu in binding.fus:
        for op_name in fu.ops:
            op = cdfg.op(op_name)
            for port, arg in enumerate(op.args):
                arg_op = cdfg.op(arg)
                if arg_op.kind is OpKind.CONST:
                    source = f"const:{arg_op.value}"
                else:
                    source = binding.reg_of.get(arg, f"wire:{arg}")
                port_sources.setdefault((fu.name, port), set()).add(source)
    muxes = [
        PortMux(fu=fu_name, port=port, sources=sorted(sources))
        for (fu_name, port), sources in sorted(port_sources.items())
    ]
    return Datapath(binding=binding, library=library, muxes=muxes)
