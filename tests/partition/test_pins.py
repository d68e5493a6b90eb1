"""Whole explore and sweep documents pinned.

A SHA-256 of the whole ``to_json()`` document sees any moved byte in
any record: one ULP of a cost term, a different accepted move, a
changed ``moves_evaluated``.  The digests hold under any
``PYTHONHASHSEED``.

The explore pins are the input of the ``explore-coproc`` benchmark
workload at three seeds; it runs every heuristic on the single-threaded
co-processor (``hw_parallelism=1``) with the default communication
model.  The sweep pin covers what those runs do not reach: several
hardware units (3) and one unit per hardware task (None), under the
tight and the loose communication models, for every generator and
every heuristic.
"""

import hashlib

import pytest

from repro.explore import ExploreSpec, ProblemSpec, explore
from repro.graph.generators import GENERATORS
from repro.partition import HEURISTICS
from repro.sweep import expand_grid, run_sweep

EXPLORE_SHA256 = {
    7: "14ea41d54114ef1a32115436acd97d9423514b6bfb978ad49dc95ba065a88990",
    1: "68a957cc887ff3158d0f56dcd6a98d1b68111f17ada1588ffdf9ef51c53f0bfd",
    2: "e4af310d114a79a18993b9e6d9f0621f52b4a5c34927879884666c25f65415fe",
}

SWEEP_SHA256 = \
    "8cfa64657faca9028e98a2f5eec67e82d3712330c7a262495fa95dcaba27a547"


def sha256(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(EXPLORE_SHA256))
def test_explore_document_digest(seed):
    spec = ExploreSpec(
        generators=("layered", "forkjoin"), n_tasks=(16,), population=24,
        generations=1, scenario="coproc", scenario_faults=40,
        ga_seed=seed, scenario_seed=seed, problem=ProblemSpec(seed=seed),
    )
    assert sha256(explore(spec, workers=1).to_json()) == \
        EXPLORE_SHA256[seed]


def test_multi_unit_sweep_document_digest():
    grid = []
    for parallelism in (3, None):
        grid += expand_grid(
            generators=sorted(GENERATORS), n_tasks=(8,),
            heuristics=sorted(HEURISTICS), seeds=range(1),
            comm=("tight", "loose"), hw_parallelism=parallelism,
        )
    assert len(grid) == 168
    assert sha256(run_sweep(grid, workers=1).to_json()) == SWEEP_SHA256
