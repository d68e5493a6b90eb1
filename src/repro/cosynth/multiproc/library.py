"""Processing-element allocations for multiprocessor synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import _domain
from repro.estimate.software import Processor, default_processor_library
from repro.graph.taskgraph import Task

#: Throughput of the reference processor (r32): speed 1 at 10 ns clock.
_REFERENCE_THROUGHPUT = 1.0 / 10.0


def execution_time(task: Task, processor: Processor) -> float:
    """Execution time of ``task`` on ``processor`` in ns.

    An explicit per-type WCET (``task.wcet[processor.name]``) wins;
    otherwise the reference ``sw_time`` is scaled by the processor's
    throughput relative to the reference r32.
    """
    if processor.name in task.wcet:
        return task.wcet[processor.name]
    throughput = processor.speed_factor / processor.clock_ns
    return task.sw_time * _REFERENCE_THROUGHPUT / throughput


@dataclass(frozen=True)
class PeInstance:
    """One concrete processing element in an allocation."""

    name: str
    processor: Processor

    @property
    def cost(self) -> float:
        return self.processor.cost


@dataclass
class Allocation:
    """A set of processing-element instances."""

    instances: List[PeInstance] = field(default_factory=list)

    @classmethod
    def of(cls, counts: Dict[str, int],
           library: Optional[Dict[str, Processor]] = None) -> "Allocation":
        """Build from {processor-type: count}, each count an int >= 0."""
        library = library or default_processor_library()
        instances = []
        for type_name in sorted(counts):
            _domain.count(f"counts[{type_name!r}]", counts[type_name])
            proc = library[type_name]
            for j in range(counts[type_name]):
                instances.append(PeInstance(f"{type_name}#{j}", proc))
        return cls(instances)

    @property
    def cost(self) -> float:
        """Total processor cost."""
        return sum(pe.cost for pe in self.instances)

    @property
    def counts(self) -> Dict[str, int]:
        """Instance count per processor type."""
        out: Dict[str, int] = {}
        for pe in self.instances:
            out[pe.processor.name] = out.get(pe.processor.name, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}x{v}" for k, v in sorted(self.counts.items())
        )
        return f"Allocation({parts}; cost={self.cost:.0f})"
