"""Functional-unit binding and register allocation.

Given a schedule, binding decides *which physical instance* executes
each operation and *which register* holds each value:

* FU binding is greedy interval coloring over each component type's
  occupancy intervals — optimal in instance count for interval graphs;
* register allocation is the classic left-edge algorithm over value
  lifetimes.

The results feed the datapath netlist and the hardware estimators
(register/mux/interconnect area is where naive estimators go wrong, and
what the incremental estimator of [18] tracks under sharing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.graph.cdfg import OpKind
from repro.hls.scheduling import Schedule


@dataclass
class FuInstance:
    """One physical functional unit and the ops bound to it."""

    name: str
    component: str
    ops: List[str] = field(default_factory=list)


@dataclass
class RegisterInstance:
    """One physical register and the values packed into it."""

    name: str
    values: List[str] = field(default_factory=list)


@dataclass
class Binding:
    """Complete binding: op -> FU instance, value -> register."""

    fus: List[FuInstance]
    registers: List[RegisterInstance]
    fu_of: Dict[str, str]
    reg_of: Dict[str, str]

    def fu(self, op_name: str) -> FuInstance:
        """The FU instance executing ``op_name``."""
        target = self.fu_of[op_name]
        return next(f for f in self.fus if f.name == target)

    @property
    def n_registers(self) -> int:
        return len(self.registers)

    @property
    def n_fus(self) -> int:
        return len(self.fus)


def bind_fus(schedule: Schedule) -> Tuple[List[FuInstance], Dict[str, str]]:
    """Greedy interval coloring of ops onto FU instances, per type."""
    by_comp: Dict[str, List[str]] = {}
    for op in schedule.cdfg.compute_ops():
        by_comp.setdefault(schedule.assignment[op.name], []).append(op.name)
    fus: List[FuInstance] = []
    fu_of: Dict[str, str] = {}
    for comp in sorted(by_comp):
        ops = sorted(
            by_comp[comp], key=lambda n: (schedule.starts[n], n)
        )
        instances: List[Tuple[int, FuInstance]] = []  # (free_at, instance)
        for name in ops:
            start, finish = schedule.starts[name], schedule.finish(name)
            placed = False
            for i, (free_at, inst) in enumerate(instances):
                if free_at <= start:
                    inst.ops.append(name)
                    fu_of[name] = inst.name
                    instances[i] = (finish, inst)
                    placed = True
                    break
            if not placed:
                inst = FuInstance(f"{comp}{len(instances)}", comp, [name])
                instances.append((finish, inst))
                fu_of[name] = inst.name
        fus.extend(inst for _f, inst in instances)
    return fus, fu_of


def value_lifetimes(schedule: Schedule) -> Dict[str, Tuple[int, int]]:
    """Lifetime [birth, death] of every register-resident value.

    A value is born when its producer finishes and dies when its last
    consumer *starts* (consumers read registers at their start step).
    Primary inputs are born at step 0; values feeding OUTPUT ops live
    until the output step.  Constants are not register-resident (they
    come from the controller/ROM).
    """
    cdfg = schedule.cdfg
    lifetimes: Dict[str, Tuple[int, int]] = {}
    for op in cdfg.ops:
        if op.kind is OpKind.OUTPUT or op.kind is OpKind.CONST:
            continue
        birth = schedule.finish(op.name) if op.kind.is_compute else 0
        users = cdfg.uses(op.name)
        if not users:
            continue
        death = max(schedule.starts[u] for u in users)
        lifetimes[op.name] = (birth, death)
    return lifetimes


def bind_registers(
    schedule: Schedule,
) -> Tuple[List[RegisterInstance], Dict[str, str]]:
    """Left-edge register allocation over value lifetimes.

    Values are sorted by birth; each is packed into the first register
    whose last occupant died strictly before this value is born.
    """
    lifetimes = value_lifetimes(schedule)
    ordered = sorted(
        lifetimes.items(), key=lambda kv: (kv[1][0], kv[1][1], kv[0])
    )
    registers: List[Tuple[int, RegisterInstance]] = []  # (busy_until, reg)
    reg_of: Dict[str, str] = {}
    for value, (birth, death) in ordered:
        placed = False
        for i, (busy_until, reg) in enumerate(registers):
            if busy_until < birth:
                reg.values.append(value)
                registers[i] = (death, reg)
                reg_of[value] = reg.name
                placed = True
                break
        if not placed:
            reg = RegisterInstance(f"reg{len(registers)}", [value])
            registers.append((death, reg))
            reg_of[value] = reg.name
    return [reg for _b, reg in registers], reg_of


def bind(schedule: Schedule) -> Binding:
    """Full binding: FUs then registers."""
    fus, fu_of = bind_fus(schedule)
    registers, reg_of = bind_registers(schedule)
    return Binding(fus=fus, registers=registers, fu_of=fu_of, reg_of=reg_of)
