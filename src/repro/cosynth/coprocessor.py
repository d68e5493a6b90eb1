"""Application-specific co-processor synthesis (Figure 8, Section 4.5).

The Gupta–De Micheli-style flow [6]: a set of behaviors (CDFGs) with a
dataflow structure is characterized on both sides of the boundary —
software times by *running the generated R32 code*, hardware
area/latency by *running high-level synthesis* — then partitioned, and
the chosen hardware behaviors are kept as synthesized datapaths while
the software behaviors are kept as compiled kernels.

"We consider this to be an example of both hardware/software
co-synthesis and hardware/software partitioning": the flow exercises
both, plus the co-verification path (every behavior's two
implementations are checked against the CDFG reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.estimate.communication import CommModel, TIGHT
from repro.estimate.software import Processor, measure_cdfg_software
from repro.graph.cdfg import CDFG
from repro.graph.taskgraph import Task, TaskGraph
from repro.hls.synthesize import HlsConstraints, HlsResult, synthesize
from repro.isa.codegen import CompiledKernel, compile_cdfg
from repro.partition.cost import CostWeights
from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.cosyma import cosyma_partition
from repro.partition.greedy import greedy_partition
from repro.partition.kl import kernighan_lin
from repro.partition.vulcan import vulcan_partition

ALGORITHMS: Dict[str, Callable[..., PartitionResult]] = {
    "greedy": greedy_partition,
    "kl": kernighan_lin,
    "vulcan": vulcan_partition,
    "cosyma": cosyma_partition,
}


@dataclass
class BehaviorImpl:
    """Both implementations of one behavior plus its characterization."""

    name: str
    cdfg: CDFG
    task: Task
    hls: HlsResult
    software: CompiledKernel

    def verify(self, inputs: Dict[str, int]) -> bool:
        """Check hardware, software, and reference agree on ``inputs``."""
        reference = self.cdfg.evaluate(dict(inputs))
        hw = self.hls.simulate(dict(inputs))
        sw, _cycles = self.software.run(dict(inputs))
        return hw == reference and sw == reference


@dataclass
class CoprocessorDesign:
    """The synthesized Figure 8 system."""

    behaviors: Dict[str, BehaviorImpl]
    partition: PartitionResult

    @property
    def hw_behaviors(self) -> List[str]:
        """Behaviors implemented on the co-processor."""
        return sorted(self.partition.hw_tasks)

    @property
    def sw_behaviors(self) -> List[str]:
        """Behaviors left on the instruction-set processor."""
        return sorted(self.partition.sw_tasks)

    @property
    def coprocessor_area(self) -> float:
        """Shared-datapath area of the hardware partition."""
        return self.partition.evaluation.hw_area

    @property
    def latency_ns(self) -> float:
        return self.partition.evaluation.latency_ns

    def speedup_vs_all_software(self) -> float:
        """End-to-end speedup vs the all-software implementation."""
        from repro.partition.evaluate import evaluate_partition

        all_sw = evaluate_partition(self.partition.problem, [])
        return all_sw.latency_ns / max(self.latency_ns, 1e-9)

    def verify_all(self, vector: int = 3) -> bool:
        """Co-verify every behavior with a deterministic input vector."""
        for impl in self.behaviors.values():
            inputs = {
                op.name: (vector * 17 + i * 7 + 1) & 0xFFFF
                for i, op in enumerate(impl.cdfg.inputs())
            }
            if not impl.verify(inputs):
                return False
        return True

    def summary(self) -> str:
        return (
            f"coprocessor: HW={self.hw_behaviors} SW={self.sw_behaviors} "
            f"area={self.coprocessor_area:.0f} "
            f"latency={self.latency_ns:.0f} ns "
            f"speedup={self.speedup_vs_all_software():.2f}x"
        )


def characterize_behavior(
    name: str,
    cdfg: CDFG,
    processor: Optional[Processor] = None,
    hls_constraints: Optional[HlsConstraints] = None,
) -> BehaviorImpl:
    """Implement one behavior both ways and derive its Task record.

    Software time comes from cycle-accurate execution of the generated
    code; hardware time/area from actual synthesis — the estimates a
    1996 flow could only approximate, this reproduction measures.
    """
    processor = processor or Processor("r32")
    hls = synthesize(cdfg, hls_constraints)
    software = compile_cdfg(cdfg)
    sw = measure_cdfg_software(cdfg, processor)
    n_compute = max(1, len(cdfg.compute_ops()))
    parallelism = max(1.0, n_compute / max(1, cdfg.depth()))
    task = Task(
        name=name,
        sw_time=max(sw.time_ns, 1e-9),
        hw_time=max(hls.latency_ns, 1e-9),
        hw_area=hls.area,
        sw_size=float(software.code_size),
        parallelism=parallelism,
    )
    return BehaviorImpl(
        name=name, cdfg=cdfg, task=task, hls=hls, software=software
    )


def synthesize_coprocessor(
    behaviors: Dict[str, CDFG],
    dataflow: Sequence[Tuple[str, str, float]] = (),
    deadline_ns: Optional[float] = None,
    hw_area_budget: Optional[float] = None,
    comm: CommModel = TIGHT,
    algorithm: str = "cosyma",
    weights: CostWeights = CostWeights(),
    processor: Optional[Processor] = None,
) -> CoprocessorDesign:
    """Run the full Figure 8 flow.

    ``behaviors`` maps names to CDFGs; ``dataflow`` lists
    ``(src, dst, words)`` edges between them.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    impls = {
        name: characterize_behavior(name, cdfg, processor)
        for name, cdfg in behaviors.items()
    }
    graph = TaskGraph("coprocessor")
    for impl in impls.values():
        graph.add_task(impl.task)
    for src, dst, volume in dataflow:
        graph.add_edge(src, dst, volume)
    problem = PartitionProblem(
        graph=graph,
        comm=comm,
        hw_area_budget=hw_area_budget,
        deadline_ns=deadline_ns,
        hw_parallelism=1,  # Figure 8: a single-threaded co-processor
    )
    partition = ALGORITHMS[algorithm](problem, weights=weights)
    return CoprocessorDesign(behaviors=impls, partition=partition)
