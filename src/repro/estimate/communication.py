"""Communication cost modeling.

Section 3.3: "The overhead of synchronization and transfer among the
hardware and software components is likely to have a significant impact
on overall performance.  This fact favors partitions that localize
communication, even at the expense of other considerations."

A :class:`CommModel` prices one boundary crossing: a fixed
synchronization overhead plus a per-word transfer time.  The parameters
can be derived from a :class:`repro.cosim.bus.SystemBus` so the analytic
numbers used by partitioners agree with what co-simulation would
measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro import _domain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cosim.bus import SystemBus
    from repro.graph.taskgraph import TaskGraph


@dataclass(frozen=True)
class CommModel:
    """Cost of moving data across the hardware/software boundary.

    * ``sync_overhead_ns`` — per-transfer fixed cost (interrupt or
      polling handshake, bus arbitration, driver entry/exit);
    * ``word_time_ns`` — per-word transfer time on the system bus.
    """

    sync_overhead_ns: float = 10.0
    word_time_ns: float = 0.5

    def __post_init__(self) -> None:
        _domain.real("sync_overhead_ns", self.sync_overhead_ns, least=0)
        _domain.real("word_time_ns", self.word_time_ns, least=0)

    def transfer_ns(self, words: float) -> float:
        """Time to move ``words`` words across the boundary."""
        if words <= 0:
            return 0.0
        return self.sync_overhead_ns + words * self.word_time_ns

    def edge_cost(self, volume: float, crosses_boundary: bool) -> float:
        """Cost charged on one task-graph edge."""
        return self.transfer_ns(volume) if crosses_boundary else 0.0

    def cut_cost(self, graph: "TaskGraph", hw_tasks: Iterable[str]) -> float:
        """Total communication time of a partition: every edge crossing
        the hardware/software boundary pays a transfer."""
        hw = set(hw_tasks)
        return sum(
            self.transfer_ns(e.volume)
            for e in graph.edges
            if (e.src in hw) != (e.dst in hw)
        )

    @classmethod
    def from_bus(cls, bus: "SystemBus", driver_overhead_ns: float = 10.0)\
            -> "CommModel":
        """Derive a model from transaction-bus parameters so analytic and
        simulated costs agree."""
        return cls(
            sync_overhead_ns=(
                bus.arbitration_time + bus.setup_time + driver_overhead_ns
            ),
            word_time_ns=bus.word_time,
        )


#: A fast, tightly-coupled interface (co-processor on the CPU bus).
TIGHT = CommModel(sync_overhead_ns=4.0, word_time_ns=0.25)
#: The default board-level bus interface.
DEFAULT = CommModel()
#: A slow, loosely-coupled interface (peripheral behind bridge/driver).
LOOSE = CommModel(sync_overhead_ns=120.0, word_time_ns=6.0)
