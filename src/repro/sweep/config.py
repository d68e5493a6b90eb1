"""Sweep cell configurations and grids.

One *cell* of a sweep is the 4-tuple the issue of scale demands we
enumerate: (graph generator × cost model × heuristic × seed), plus the
problem-shaping knobs (size, communication model, deadline and area
budget as scale-free factors).  A :class:`SweepConfig` freezes one cell
and gives it two identities:

* :attr:`SweepConfig.fingerprint` — a stable SHA-256 of the canonical
  JSON form.  It keys the on-disk result cache, so a re-run or an
  incremental grid extension skips every completed cell.
* :meth:`SweepConfig.problem_key` — the fingerprint of the *problem*
  fields only (heuristic excluded).  Cells sharing a problem key saw
  byte-identical task graphs, which is what makes cross-heuristic
  comparison (and the differential harness) meaningful.

Seed derivation is a stable hash of the config — never Python's salted
``hash()`` — so it is identical across processes, worker counts, and
submission orders.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import _domain
from repro.estimate.communication import DEFAULT, LOOSE, TIGHT, CommModel
from repro.graph.generators import COST_MODELS, GENERATORS, generate
from repro.partition import HEURISTICS, PartitionProblem

#: Bump when the meaning of a config field (or the record schema)
#: changes: old cache entries then read as misses instead of lying.
CONFIG_VERSION = 1

#: Communication-model presets addressable from a grid axis.
COMM_MODELS: Dict[str, CommModel] = {
    "default": DEFAULT,
    "tight": TIGHT,
    "loose": LOOSE,
}


@dataclass(frozen=True)
class SweepConfig:
    """One fully-specified sweep cell.

    ``deadline_factor`` scales the all-software critical path into a
    deadline (None = unconstrained); ``area_budget_factor`` scales the
    sum of standalone task areas into a budget (None = unbounded).
    Factors rather than absolute numbers keep one grid meaningful
    across generators and sizes.  Both are None or finite and > 0,
    ``n_tasks`` is an int >= 1, ``seed`` an int and ``hw_parallelism``
    None or an int >= 1.
    """

    generator: str = "layered"
    n_tasks: int = 12
    cost_model: str = "default"
    heuristic: str = "greedy"
    seed: int = 0
    comm: str = "default"
    deadline_factor: Optional[float] = 0.7
    area_budget_factor: Optional[float] = 0.5
    hw_parallelism: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise KeyError(
                f"unknown generator {self.generator!r}; "
                f"known: {sorted(GENERATORS)}"
            )
        if self.cost_model not in COST_MODELS:
            raise KeyError(
                f"unknown cost model {self.cost_model!r}; "
                f"known: {sorted(COST_MODELS)}"
            )
        if self.heuristic not in HEURISTICS:
            raise KeyError(
                f"unknown heuristic {self.heuristic!r}; "
                f"known: {sorted(HEURISTICS)}"
            )
        if self.comm not in COMM_MODELS:
            raise KeyError(
                f"unknown comm model {self.comm!r}; "
                f"known: {sorted(COMM_MODELS)}"
            )
        # CLI flags, genomes and store payloads all reach these fields:
        # a bad value fails here, by name, before it is fingerprinted
        _domain.count("n_tasks", self.n_tasks, 1)
        _domain.count("seed", self.seed, None)
        _domain.count("hw_parallelism", self.hw_parallelism, 1,
                      optional=True)
        for factor_name in ("deadline_factor", "area_budget_factor"):
            _domain.real(factor_name, getattr(self, factor_name), above=0,
                         optional=True)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Field-ordered plain-dict form (JSON-serializable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepConfig":
        """Rebuild from :meth:`to_dict` output; unknown keys rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def canonical_json(self) -> str:
        """The canonical serialized form everything else hashes."""
        return json.dumps(
            {"version": CONFIG_VERSION, **self.to_dict()},
            sort_keys=True, separators=(",", ":"),
        )

    @cached_property
    def fingerprint(self) -> str:
        """Stable hex digest of the full config (the cache key).

        Computed once per instance: the sweep engine reads it several
        times per cell.  The cached value sits in the instance
        ``__dict__``, outside the dataclass fields, so equality, hashing
        and ``repr`` ignore it, a pickled config carries it, and
        ``dataclasses.replace`` builds a new instance that computes its
        own.
        """
        return _digest(self.canonical_json())

    def problem_dict(self) -> Dict[str, Any]:
        """The fields that define the *problem* (heuristic excluded)."""
        out = self.to_dict()
        del out["heuristic"]
        return out

    def problem_key(self) -> str:
        """Stable hex digest of the problem fields only."""
        doc = json.dumps(
            {"version": CONFIG_VERSION, **self.problem_dict()},
            sort_keys=True, separators=(",", ":"),
        )
        return _digest(doc)

    # ------------------------------------------------------------------
    # derived seeds
    # ------------------------------------------------------------------
    def graph_seed(self) -> int:
        """RNG seed for workload generation.

        Derived from the problem fields only, so every heuristic in a
        comparison sees the identical graph.
        """
        return _derive_seed(self.problem_key(), "graph")

    def heuristic_seed(self) -> int:
        """RNG seed handed to the heuristic (annealing trajectories)."""
        return _derive_seed(self.fingerprint, "heuristic")

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def build_problem(self) -> PartitionProblem:
        """Generate the workload and wrap it as a partition problem."""
        rng = random.Random(self.graph_seed())
        graph = generate(
            self.generator, rng,
            n_tasks=self.n_tasks,
            costs=COST_MODELS[self.cost_model],
            name=f"{self.generator}-{self.seed}",
        )
        deadline = None
        if self.deadline_factor is not None:
            all_sw, _path = graph.critical_path("sw")
            deadline = all_sw * self.deadline_factor
        budget = None
        if self.area_budget_factor is not None:
            total = sum(graph.task(n).hw_area for n in graph.task_names)
            budget = total * self.area_budget_factor
        return PartitionProblem(
            graph=graph,
            comm=COMM_MODELS[self.comm],
            hw_area_budget=budget,
            deadline_ns=deadline,
            hw_parallelism=self.hw_parallelism,
        )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _derive_seed(key: str, salt: str) -> int:
    digest = hashlib.sha256(f"{salt}\x00{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
def expand_grid(
    generators: Sequence[str] = ("layered",),
    n_tasks: Sequence[int] = (12,),
    cost_models: Sequence[str] = ("default",),
    heuristics: Sequence[str] = ("greedy",),
    seeds: Iterable[int] = range(4),
    comm: Sequence[str] = ("default",),
    deadline_factor: Optional[float] = 0.7,
    area_budget_factor: Optional[float] = 0.5,
    hw_parallelism: Optional[int] = 1,
) -> List[SweepConfig]:
    """The cartesian product of the axes, in deterministic order.

    Axis order (outermost first): generator, n_tasks, cost model,
    comm model, heuristic, seed — so all cells of one problem are
    adjacent in the resulting table.
    """
    return [
        SweepConfig(
            generator=g, n_tasks=n, cost_model=c, heuristic=h,
            seed=s, comm=cm,
            deadline_factor=deadline_factor,
            area_budget_factor=area_budget_factor,
            hw_parallelism=hw_parallelism,
        )
        for g, n, c, cm, h, s in itertools.product(
            generators, n_tasks, cost_models, comm, heuristics, list(seeds)
        )
    ]


def parse_seed_spec(spec: str) -> List[int]:
    """Parse a CLI seed spec: comma-separated ints and ``a-b`` ranges
    (inclusive), e.g. ``"0-3,7,10-11"`` → ``[0, 1, 2, 3, 7, 10, 11]``."""
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        if dash and lo:  # "a-b" range ("-5" is a negative literal)
            start, end = int(lo), int(hi)
            if end < start:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(start, end + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return seeds
