"""The RTL component library.

Functional units are characterized by the operation kinds they execute,
their combinational delay, and their area — the inputs every scheduler,
binder, and hardware estimator in the framework shares.  Units and
numbers are in the spirit of mid-90s datapath libraries (areas in
equivalent-gate units, delays in nanoseconds); absolute values matter
less than the *ratios* (a multiplier is ~5x an adder, a divider ~3x a
multiplier), which drive all of the trade-offs the paper discusses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from repro.graph.cdfg import OpKind


@dataclass(frozen=True)
class Component:
    """One functional-unit type."""

    name: str
    ops: FrozenSet[OpKind]
    area: float
    delay: float  # combinational delay, ns

    def executes(self, kind: OpKind) -> bool:
        """Whether this unit can execute ``kind``."""
        return kind in self.ops

    def latency_cycles(self, cycle_time: float) -> int:
        """Clock cycles one operation occupies at ``cycle_time`` ns."""
        return max(1, math.ceil(self.delay / cycle_time))


#: Area of one 32-bit register (equivalent gates).
REGISTER_AREA = 8.0
#: Area of one 32-bit 2:1 multiplexer leg.
MUX_AREA = 3.0
#: Controller area per FSM state (state register + decode share).
STATE_AREA = 4.0
#: Controller area per distinct control signal.
SIGNAL_AREA = 1.5


class ComponentLibrary:
    """A set of component types with selection helpers."""

    def __init__(self, components: Iterable[Component]) -> None:
        self._components: List[Component] = list(components)
        if not self._components:
            raise ValueError("component library is empty")
        names = [c.name for c in self._components]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")

    @property
    def components(self) -> List[Component]:
        """All component types."""
        return list(self._components)

    def component(self, name: str) -> Component:
        """Look up a component type by name."""
        for c in self._components:
            if c.name == name:
                return c
        raise KeyError(f"no component named {name!r}")

    def candidates(self, kind: OpKind) -> List[Component]:
        """Component types able to execute ``kind``, cheapest-area first."""
        found = [c for c in self._components if c.executes(kind)]
        return sorted(found, key=lambda c: (c.area, c.name))

    def cheapest(self, kind: OpKind) -> Component:
        """The cheapest unit for ``kind``; raises if none exists."""
        cands = self.candidates(kind)
        if not cands:
            raise KeyError(f"no component executes {kind}")
        return cands[0]

    def fastest(self, kind: OpKind) -> Component:
        """The fastest unit for ``kind``."""
        cands = self.candidates(kind)
        if not cands:
            raise KeyError(f"no component executes {kind}")
        return min(cands, key=lambda c: (c.delay, c.area, c.name))

    def supported_kinds(self) -> FrozenSet[OpKind]:
        """All op kinds with at least one implementing unit."""
        kinds = set()
        for c in self._components:
            kinds |= c.ops
        return frozenset(kinds)


_ADDER_OPS = frozenset({
    OpKind.ADD, OpKind.SUB, OpKind.NEG,
    OpKind.LT, OpKind.LE, OpKind.EQ, OpKind.NE, OpKind.GE, OpKind.GT,
})
_LOGIC_OPS = frozenset({
    OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT,
    OpKind.SHL, OpKind.SHR, OpKind.MUX,
})
_MEM_OPS = frozenset({OpKind.LOAD, OpKind.STORE})


def default_library() -> ComponentLibrary:
    """The stock library used throughout the benchmarks."""
    return ComponentLibrary([
        Component("adder", _ADDER_OPS, area=40.0, delay=8.0),
        Component("fast_adder", _ADDER_OPS, area=70.0, delay=4.0),
        Component("multiplier", frozenset({OpKind.MUL}), area=200.0,
                  delay=16.0),
        Component("fast_multiplier", frozenset({OpKind.MUL}), area=340.0,
                  delay=8.0),
        Component("divider", frozenset({OpKind.DIV, OpKind.MOD}), area=520.0,
                  delay=32.0),
        Component("logic_unit", _LOGIC_OPS, area=25.0, delay=3.0),
        Component("mem_port", _MEM_OPS, area=60.0, delay=10.0),
    ])


def register_area(n_registers: int) -> float:
    """Area of ``n_registers`` 32-bit registers."""
    return REGISTER_AREA * n_registers


def mux_area(n_inputs: int) -> float:
    """Area of an ``n_inputs``:1 multiplexer (tree of 2:1 legs)."""
    return MUX_AREA * max(0, n_inputs - 1)


def controller_area(n_states: int, n_signals: int) -> float:
    """Area of an FSM controller."""
    return STATE_AREA * n_states + SIGNAL_AREA * n_signals
