"""FSM controller generation.

The controller sequences the datapath: one state per control step, with
the micro-orders (FU operation selects, register enables, mux selects)
asserted in each state.  Its area model (per-state plus per-signal) is
part of the total hardware cost the partitioners trade against software.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hls.binding import Binding
from repro.hls.datapath import Datapath
from repro.hls.library import controller_area
from repro.hls.scheduling import Schedule


@dataclass
class ControlState:
    """Micro-orders for one control step."""

    step: int
    fu_ops: Dict[str, str] = field(default_factory=dict)   # fu -> op started
    reg_writes: List[str] = field(default_factory=list)    # registers loaded
    mux_selects: int = 0                                    # select lines set


@dataclass
class Fsm:
    """The generated controller."""

    states: List[ControlState]
    n_signals: int

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def area(self) -> float:
        """Controller area under the library's FSM model."""
        return controller_area(self.n_states, self.n_signals)

    def state(self, step: int) -> ControlState:
        """The control state for ``step``."""
        return self.states[step]

    def listing(self) -> str:
        """A readable state-by-state micro-order listing."""
        lines = [f"// fsm: {self.n_states} states, "
                 f"{self.n_signals} control signals"]
        for state in self.states:
            orders = [
                f"{fu}<-{op}" for fu, op in sorted(state.fu_ops.items())
            ]
            writes = (
                f" latch [{', '.join(sorted(state.reg_writes))}]"
                if state.reg_writes else ""
            )
            lines.append(
                f"S{state.step}: {'; '.join(orders) or 'idle'}{writes}"
            )
        return "\n".join(lines)


def build_controller(
    schedule: Schedule, binding: Binding, datapath: Datapath
) -> Fsm:
    """Generate the FSM from the schedule and binding."""
    cdfg = schedule.cdfg
    length = max(schedule.length, 1)
    states = [ControlState(step=s) for s in range(length)]

    for op in cdfg.compute_ops():
        start = schedule.starts[op.name]
        fu = binding.fu_of[op.name]
        states[start].fu_ops[fu] = op.name
        # result is latched into its register at the finish step boundary
        finish = schedule.finish(op.name)
        reg = binding.reg_of.get(op.name)
        if reg is not None:
            states[min(finish, length) - 1].reg_writes.append(reg)

    # mux select lines toggled per state: one per multi-source port whose
    # active op differs from the previous state's
    for mux in datapath.muxes:
        if mux.width <= 1:
            continue
        for state in states:
            if mux.fu in state.fu_ops:
                state.mux_selects += 1

    # distinct control signals: op-select lines per FU + register enables
    # + mux select lines
    fu_signals = sum(
        max(1, len(set(f.ops)).bit_length()) for f in binding.fus
    )
    reg_signals = binding.n_registers
    mux_signals = sum(
        max(0, (m.width - 1)).bit_length() for m in datapath.muxes
    )
    return Fsm(states=states, n_signals=fu_signals + reg_signals + mux_signals)
