"""The four-criteria characterization and comparison engine.

Section 5: "In this tutorial we have presented a set of criteria that
can be used to compare approaches to hardware/software co-design ...
Since hardware/software co-design can mean many things, it is important
to determine characteristics of a given approach before evaluating it
or comparing it to some other example."

A :class:`Methodology` describes one approach; :func:`characterize`
applies the criteria (validating the structural rules of Figures 2/3
and Section 3.3); :func:`comparison_table` renders the survey table the
paper walks through in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.core.taxonomy import (
    DesignTask,
    InterfaceLevel,
    PartitionFactor,
    SystemType,
)


class CriteriaError(ValueError):
    """Raised when a methodology description violates the framework."""


@dataclass
class Methodology:
    """One co-design approach, described by the paper's vocabulary.

    ``demo`` optionally names a callable that *runs* a working instance
    of the methodology using this library (see
    :mod:`repro.core.examples`), making the registry executable rather
    than merely descriptive.
    """

    name: str
    system_type: SystemType
    tasks: FrozenSet[DesignTask]
    cosim_levels: FrozenSet[InterfaceLevel] = frozenset()
    partition_factors: FrozenSet[PartitionFactor] = frozenset()
    references: str = ""
    implemented_by: str = ""
    demo: Optional[Callable[[], object]] = None

    def __post_init__(self) -> None:
        self.tasks = frozenset(self.tasks)
        self.cosim_levels = frozenset(self.cosim_levels)
        self.partition_factors = frozenset(self.partition_factors)


@dataclass(frozen=True)
class Characterization:
    """The paper's four criteria applied to one methodology."""

    name: str
    system_type: SystemType            # criterion 1
    tasks: FrozenSet[DesignTask]       # criterion 2 (closure of Figure 2)
    cosim_levels: FrozenSet[InterfaceLevel]      # criterion 3
    partition_factors: FrozenSet[PartitionFactor]  # criterion 4

    def addresses(self, task: DesignTask) -> bool:
        """Whether the methodology addresses a design task."""
        return task in self.tasks


def characterize(methodology: Methodology) -> Characterization:
    """Apply the four criteria, enforcing the framework's structure:

    * Figure 2: partitioning happens within co-synthesis; every task
      implies co-design.  The returned task set is the closure.
    * Criterion 3 only applies when co-simulation is addressed.
    * Criterion 4 only applies when partitioning is addressed.
    * Section 3.3: concurrency/communication factors only make sense
      where partitioning is physical (Type II or Mixed).
    """
    closure: set = set()
    for task in methodology.tasks:
        closure |= task.implies()
    if methodology.cosim_levels and \
            DesignTask.COSIMULATION not in closure:
        raise CriteriaError(
            f"{methodology.name}: cosim levels given but co-simulation "
            "is not an addressed task"
        )
    if methodology.partition_factors and \
            DesignTask.PARTITIONING not in closure:
        raise CriteriaError(
            f"{methodology.name}: partition factors given but "
            "partitioning is not an addressed task"
        )
    if methodology.system_type is SystemType.TYPE_I:
        bad = {
            f for f in methodology.partition_factors if f.type_ii_specific
        }
        if bad:
            raise CriteriaError(
                f"{methodology.name}: factors {sorted(f.name for f in bad)} "
                "arise from physical partitioning, which a Type I "
                "boundary does not have"
            )
    return Characterization(
        name=methodology.name,
        system_type=methodology.system_type,
        tasks=frozenset(closure),
        cosim_levels=methodology.cosim_levels,
        partition_factors=methodology.partition_factors,
    )


class MethodologyRegistry:
    """A named collection of methodologies (the survey's subjects)."""

    def __init__(self) -> None:
        self._entries: Dict[str, Methodology] = {}

    def register(self, methodology: Methodology) -> Methodology:
        if methodology.name in self._entries:
            raise CriteriaError(
                f"methodology {methodology.name!r} already registered"
            )
        characterize(methodology)  # validate on entry
        self._entries[methodology.name] = methodology
        return methodology

    def get(self, name: str) -> Methodology:
        return self._entries[name]

    def all(self) -> List[Methodology]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def characterize_all(self) -> List[Characterization]:
        """Criteria applied to every registered methodology."""
        return [characterize(m) for m in self.all()]

    def inhabitants(self, task: DesignTask) -> List[str]:
        """Methodologies whose (closed) task set includes ``task`` —
        Figure 2's claim that every subset is populated."""
        return [
            c.name for c in self.characterize_all() if c.addresses(task)
        ]


_TYPE_SHORT = {
    SystemType.TYPE_I: "I",
    SystemType.TYPE_II: "II",
    SystemType.MIXED: "I+II",
}

_TASK_SHORT = {
    DesignTask.CODESIGN: "cd",
    DesignTask.COSIMULATION: "sim",
    DesignTask.COSYNTHESIS: "syn",
    DesignTask.PARTITIONING: "part",
}


def comparison_table(methodologies: Iterable[Methodology]) -> str:
    """Render the Section 5 survey as a fixed-width text table."""
    rows = [("methodology", "type", "tasks", "cosim levels",
             "partition factors")]
    for m in methodologies:
        c = characterize(m)
        tasks = "+".join(
            _TASK_SHORT[t] for t in sorted(c.tasks, key=lambda t: t.value)
            if t is not DesignTask.CODESIGN
        ) or "-"
        levels = ",".join(
            lvl.name.lower() for lvl in sorted(c.cosim_levels)
        ) or "-"
        factors = ",".join(
            f.name.lower() for f in sorted(
                c.partition_factors, key=lambda f: f.value
            )
        ) or "-"
        rows.append((c.name, _TYPE_SHORT[c.system_type], tasks, levels,
                     factors))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
