"""The Type I / Type II taxonomy and the classification vocabulary.

Section 2 of the paper: "Two broad classifications can be used to
distinguish different types of hardware/software systems.  The
distinguishing factor is whether the boundary between hardware and
software is a logical boundary (Type I) or a physical boundary
(Type II)."

* **Type I** — the hardware executes the software; the relationship is
  one of *abstraction level* (a microprocessor and its glue logic, an
  ASIP and its application).
* **Type II** — hardware and software are *physically separate
  components modeled at the same level of abstraction* (a processor
  plus a behaviorally-synthesized co-processor).
* **Mixed** — both boundary kinds in one system; the paper notes "to
  our knowledge, no published work has addressed this situation", and
  :func:`classify_system` detects it anyway.

The classification is *decidable from system structure*: build a
:class:`SystemModel` of components and relationships and call
:func:`classify_system` (experiment E1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class Domain(enum.Enum):
    """Which side of the boundary a component is on."""

    HARDWARE = "hardware"
    SOFTWARE = "software"


class Abstraction(enum.IntEnum):
    """Modeling abstraction levels, low to high."""

    GATE = 1
    RTL = 2
    BEHAVIOR = 3
    ISA = 4
    HLL = 5  # high-level language


class SystemType(enum.Enum):
    """Figure 1's system classification."""

    TYPE_I = "Type I (logical boundary: hardware executes software)"
    TYPE_II = "Type II (physical boundary: peer components)"
    MIXED = "Mixed Type I / Type II"


class DesignTask(enum.Enum):
    """Figure 2's design activities, with their containment."""

    CODESIGN = "co-design"
    COSIMULATION = "co-simulation"
    COSYNTHESIS = "co-synthesis"
    PARTITIONING = "hw/sw partitioning"

    @property
    def parent(self) -> Optional["DesignTask"]:
        """The enclosing activity in Figure 2 (partitioning is performed
        within co-synthesis; everything is within co-design)."""
        if self is DesignTask.PARTITIONING:
            return DesignTask.COSYNTHESIS
        if self in (DesignTask.COSYNTHESIS, DesignTask.COSIMULATION):
            return DesignTask.CODESIGN
        return None

    def implies(self) -> "set[DesignTask]":
        """This task plus every enclosing task."""
        out = {self}
        cur = self.parent
        while cur is not None:
            out.add(cur)
            cur = cur.parent
        return out


class InterfaceLevel(enum.IntEnum):
    """Figure 3's interface abstraction ladder, most detailed first.

    Lower value = lower abstraction = more accurate for performance,
    more expensive to simulate.
    """

    SIGNAL = 1          # pins of a CPU / wires of a bus
    REGISTER = 2        # register reads/writes + interrupts
    BUS_TRANSACTION = 3
    MESSAGE = 4         # OS-level send / receive / wait

    @property
    def accurate_for_performance(self) -> bool:
        """The paper's guidance: low-level models are 'most accurate for
        evaluating performance'."""
        return self <= InterfaceLevel.BUS_TRANSACTION

    @property
    def description(self) -> str:
        return {
            InterfaceLevel.SIGNAL: "signal activity on pins/wires",
            InterfaceLevel.REGISTER: "register reads/writes, interrupts",
            InterfaceLevel.BUS_TRANSACTION: "bus transactions",
            InterfaceLevel.MESSAGE: "send, receive, wait",
        }[self]


class PartitionFactor(enum.Enum):
    """Section 3.3's partitioning considerations."""

    PERFORMANCE = "performance requirements"
    COST = "implementation cost"
    MODIFIABILITY = "modifiability"
    NATURE = "nature of computation"
    CONCURRENCY = "concurrency"
    COMMUNICATION = "communication"

    @property
    def type_ii_specific(self) -> bool:
        """Concurrency and communication arise from physical
        partitioning: 'For Type II systems, hardware/software
        partitioning implies physical partitioning.'"""
        return self in (
            PartitionFactor.CONCURRENCY, PartitionFactor.COMMUNICATION
        )


@dataclass
class ComponentModel:
    """One component of a system under classification."""

    name: str
    domain: Domain
    abstraction: Abstraction


@dataclass
class SystemModel:
    """Components plus their relationships.

    ``executes`` records (hardware, software) pairs where the hardware
    component runs the software; ``communicates`` records peer links.
    """

    components: List[ComponentModel]
    executes: List[Tuple[str, str]] = field(default_factory=list)
    communicates: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")
        known = set(names)
        for hw, sw in self.executes:
            if hw not in known or sw not in known:
                raise ValueError(f"executes refers to unknown component "
                                 f"({hw!r}, {sw!r})")
        for a, b in self.communicates:
            if a not in known or b not in known:
                raise ValueError(f"communicates refers to unknown "
                                 f"component ({a!r}, {b!r})")

    def component(self, name: str) -> ComponentModel:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class ClassificationResult:
    """The decided type plus the evidence for it."""

    system_type: SystemType
    rationale: str


def classify_system(model: SystemModel) -> ClassificationResult:
    """Decide Type I / Type II / Mixed from structure.

    * An ``executes`` edge from hardware to software is a *logical*
      (abstraction-level) boundary — Type I evidence.
    * A ``communicates`` edge between a hardware and a software
      component at comparable abstraction is a *physical* boundary —
      Type II evidence.
    """
    type_i_evidence: List[str] = []
    type_ii_evidence: List[str] = []
    for hw, sw in model.executes:
        hw_c, sw_c = model.component(hw), model.component(sw)
        if hw_c.domain is not Domain.HARDWARE or \
                sw_c.domain is not Domain.SOFTWARE:
            raise ValueError(
                f"executes({hw!r}, {sw!r}) must run software on hardware"
            )
        if sw_c.abstraction <= hw_c.abstraction:
            raise ValueError(
                f"executed software {sw!r} must sit at a higher "
                f"abstraction than its processor {hw!r}"
            )
        type_i_evidence.append(f"{hw} executes {sw}")
    for a, b in model.communicates:
        ca, cb = model.component(a), model.component(b)
        if ca.domain is cb.domain:
            continue  # same-domain links carry no boundary information
        gap = abs(int(ca.abstraction) - int(cb.abstraction))
        if gap <= 1:
            type_ii_evidence.append(
                f"{a} <-> {b} are peers at comparable abstraction"
            )
    if type_i_evidence and type_ii_evidence:
        kind = SystemType.MIXED
    elif type_i_evidence:
        kind = SystemType.TYPE_I
    elif type_ii_evidence:
        kind = SystemType.TYPE_II
    else:
        raise ValueError(
            "no hardware/software boundary found: not a mixed system "
            "under the paper's definition"
        )
    rationale = "; ".join(type_i_evidence + type_ii_evidence)
    return ClassificationResult(system_type=kind, rationale=rationale)
