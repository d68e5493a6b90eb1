"""The uniform knob registry for the partition heuristics.

Every heuristic exposes tuning knobs through keyword arguments
(``max_iterations``, ``cooling``, ``base_threshold``, ...), but until
now nothing *declared* them: a caller wanting to tune a heuristic had
to read its signature, and a search driver had no machine-readable
description of the tunable space.  :data:`HEURISTIC_KNOBS` is that
description — one :class:`Knob` per tunable keyword, with a **finite
value grid** rather than an open interval.

The grid is deliberate.  The design-space explorer
(:mod:`repro.explore`) fingerprints every (heuristic, knob values)
combination for its result cache; continuous knobs would make nearly
identical genomes fingerprint differently and defeat caching, while a
finite grid makes repeated genomes byte-identical and therefore free.
Grids list values in increasing order, so DoE seeding can take the
extremes as its two factor levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Knob:
    """One tunable keyword argument of a heuristic.

    ``values`` is the full, finite, increasing grid of legal settings;
    ``default`` must be a member (it is the heuristic's signature
    default, so an empty knob assignment reproduces historical
    behaviour exactly).
    """

    name: str
    values: Tuple[Any, ...]
    default: Any

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"knob {self.name!r} has an empty grid")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"knob {self.name!r} grid has duplicates")
        if self.default not in self.values:
            raise ValueError(
                f"knob {self.name!r}: default {self.default!r} not in "
                f"grid {self.values!r}"
            )


#: heuristic name → its declared knobs, in signature order.  Heuristics
#: with no tunable knobs (cosyma) map to an empty tuple so callers can
#: iterate the registry without special-casing.
HEURISTIC_KNOBS: Dict[str, Tuple[Knob, ...]] = {
    "greedy": (
        Knob("max_iterations", (5, 10, 25, 100, 1000), 1000),
    ),
    "kl": (
        Knob("max_passes", (1, 2, 4, 10), 10),
    ),
    "annealing": (
        Knob("cooling", (0.8, 0.9, 0.95), 0.95),
        Knob("steps_per_temperature", (5, 10, 20), 20),
        Knob("final_temperature_ratio", (1e-2, 1e-3), 1e-3),
    ),
    "vulcan": (
        Knob("slack_factor", (0.5, 1.0, 1.5, 2.0), 1.0),
    ),
    "cosyma": (),
    "gclp": (
        Knob("base_threshold", (0.3, 0.4, 0.5, 0.6, 0.7), 0.5),
        Knob("extremity_gain", (0.0, 0.25, 0.5), 0.25),
    ),
}


def default_knobs(heuristic: str) -> Dict[str, Any]:
    """The all-defaults knob assignment for one heuristic."""
    return {
        knob.name: knob.default for knob in HEURISTIC_KNOBS[heuristic]
    }


def validate_knobs(heuristic: str, knobs: Dict[str, Any]) -> None:
    """Reject unknown knob names and off-grid values loudly.

    A typo'd knob name would otherwise surface as a confusing
    ``TypeError`` deep inside the heuristic call; an off-grid value
    would silently fragment the explorer's cache.
    """
    declared = {k.name: k for k in HEURISTIC_KNOBS[heuristic]}
    unknown = set(knobs) - set(declared)
    if unknown:
        raise KeyError(
            f"unknown knob(s) {sorted(unknown)} for heuristic "
            f"{heuristic!r}; declared: {sorted(declared)}"
        )
    for name, value in knobs.items():
        if value not in declared[name].values:
            raise ValueError(
                f"{heuristic}.{name}: value {value!r} not on the "
                f"declared grid {declared[name].values!r}"
            )
