"""Hardware/software partitioning (Section 3.3 of the paper).

The package separates three concerns:

* :mod:`repro.partition.problem` — *what is being partitioned*: a task
  graph, a communication model, resource constraints;
* :mod:`repro.partition.evaluate` — *what a partition is worth*: an
  actual list schedule of the partitioned graph (software serialized on
  the processor, hardware on the co-processor's controllers,
  communication charged on boundary edges) plus a sharing-aware area
  estimate, run against a
  :class:`~repro.partition.evaluate.CompiledProblem` that each
  heuristic call builds once;
* :mod:`repro.partition.cost` — *how factors combine*: the paper's six
  partitioning factors (performance requirements, implementation cost,
  modifiability, nature of computation, concurrency, communication) as a
  weighted cost, each term individually ablatable (experiment E11);

and six algorithms (registered by short name in :data:`HEURISTICS`):

* :func:`repro.partition.greedy.greedy_partition` — best-improvement
  migration;
* :func:`repro.partition.kl.kernighan_lin` — KL-style passes with locking;
* :func:`repro.partition.annealing.simulated_annealing`;
* :func:`repro.partition.vulcan.vulcan_partition` — hardware-first
  extraction (Gupta & De Micheli [6]);
* :func:`repro.partition.cosyma.cosyma_partition` — software-first
  extraction of hot spots (Henkel & Ernst [17]);
* :func:`repro.partition.gclp.gclp_partition` — single-pass global
  criticality / local phase (Kalavade & Lee [1][5]).
"""

from typing import Callable, Dict

from repro.partition.problem import PartitionProblem, PartitionResult
from repro.partition.evaluate import Evaluation, evaluate_partition
from repro.partition.cost import CostWeights, partition_cost
from repro.partition.seeding import (
    ProgressProbe,
    ProgressRecord,
    resolve_rng,
)
from repro.partition.knobs import (
    HEURISTIC_KNOBS,
    Knob,
    default_knobs,
    validate_knobs,
)
from repro.partition.greedy import greedy_partition
from repro.partition.kl import kernighan_lin
from repro.partition.annealing import simulated_annealing
from repro.partition.vulcan import vulcan_partition
from repro.partition.cosyma import cosyma_partition
from repro.partition.gclp import gclp_partition

#: The six heuristics by short name, each callable through the uniform
#: signature ``fn(problem, weights=..., seed=..., probe=...)``
#: (stochastic ones honour the seed; deterministic ones accept and
#: ignore it; all report convergence to an attached
#: :class:`ProgressProbe`).  This is the registry the sweep engine and
#: the differential harness iterate.
HEURISTICS: Dict[str, Callable[..., PartitionResult]] = {
    "greedy": greedy_partition,
    "kl": kernighan_lin,
    "annealing": simulated_annealing,
    "vulcan": vulcan_partition,
    "cosyma": cosyma_partition,
    "gclp": gclp_partition,
}

__all__ = [
    "PartitionProblem",
    "PartitionResult",
    "Evaluation",
    "evaluate_partition",
    "CostWeights",
    "partition_cost",
    "resolve_rng",
    "ProgressProbe",
    "ProgressRecord",
    "greedy_partition",
    "kernighan_lin",
    "simulated_annealing",
    "vulcan_partition",
    "cosyma_partition",
    "gclp_partition",
    "HEURISTICS",
    "HEURISTIC_KNOBS",
    "Knob",
    "default_knobs",
    "validate_knobs",
]
