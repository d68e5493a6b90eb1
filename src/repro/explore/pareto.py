"""Pareto dominance, fronts, MCDM ranking, and hypervolume.

Everything in this module is a pure function over tuples of floats
(**minimization** objectives throughout), with explicitly deterministic
tie-breaking: functions that order points order them by (objective
vector, input index), so the same multiset of points produces the same
output bytes regardless of input permutation history, hash seed, or
platform.  Summations iterate in sorted order — float addition is not
associative, and an unordered sum is exactly the class of
PYTHONHASHSEED bug that bit ``cost_terms`` in PR 6.

The selection machinery is the DAVOS-style pair:

* :func:`pareto_front` / :func:`non_dominated_sort` /
  :func:`crowding_distance` — multi-objective (NSGA-II-shaped)
  selection;
* :func:`weighted_sum_rank` — the scalarized, min-max-normalized
  weighted-sum ranking used when the caller wants one recommended
  design instead of a front.

:func:`hypervolume` (exact, 2-D and 3-D) is the front-quality scalar
the benchmarks gate on: volume dominated between the front and a
reference point, after normalization to the unit cube.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Point = Tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (minimization).

    ``a`` dominates ``b`` iff it is no worse in every objective and
    strictly better in at least one.  Equal vectors never dominate
    each other — ties coexist on a front.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def pareto_front(points: Sequence[Point]) -> List[int]:
    """Indices of the non-dominated points, in ascending index order.

    Exactly the non-dominated subset: no returned point is dominated
    by any input point, and every input point not returned is
    dominated by some input point.  Duplicated vectors are either all
    on the front or all off it.
    """
    n = len(points)
    front: List[int] = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j != i and dominates(points[j], points[i]):
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


def non_dominated_sort(points: Sequence[Point]) -> List[List[int]]:
    """Successive Pareto fronts: front 0 is :func:`pareto_front`, front
    1 is the front of the remainder, and so on.  Every index appears in
    exactly one front; indices within a front ascend."""
    remaining = list(range(len(points)))
    fronts: List[List[int]] = []
    while remaining:
        sub = [points[i] for i in remaining]
        members = pareto_front(sub)
        front = [remaining[k] for k in members]
        fronts.append(front)
        taken = set(front)
        remaining = [i for i in remaining if i not in taken]
    return fronts


def crowding_distance(points: Sequence[Point]) -> List[float]:
    """NSGA-II crowding distance of each point within its own set.

    Boundary points (extreme in any objective) get ``inf``; interior
    points get the normalized side-length sum of the surrounding
    hypercuboid.  Ties in an objective are ordered by input index, so
    the assignment is deterministic under permutation of equal values.
    """
    n = len(points)
    if n == 0:
        return []
    dims = len(points[0])
    distance = [0.0] * n
    for d in range(dims):
        order = sorted(range(n), key=lambda i: (points[i][d], i))
        lo = points[order[0]][d]
        hi = points[order[-1]][d]
        distance[order[0]] = float("inf")
        distance[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0.0:
            continue
        for k in range(1, n - 1):
            i = order[k]
            if distance[i] == float("inf"):
                continue
            gap = points[order[k + 1]][d] - points[order[k - 1]][d]
            distance[i] += gap / span
    return distance


def objective_bounds(
    points: Sequence[Point],
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Per-objective (min, max) over a non-empty point set."""
    if not points:
        raise ValueError("no points to bound")
    dims = len(points[0])
    lo = tuple(min(p[d] for p in points) for d in range(dims))
    hi = tuple(max(p[d] for p in points) for d in range(dims))
    return lo, hi


def normalize(
    point: Sequence[float],
    lo: Sequence[float],
    hi: Sequence[float],
) -> Point:
    """Min-max normalize into [0, 1], clipping values outside bounds.

    A degenerate objective (``lo == hi``) maps to 0.0 — it cannot
    distinguish points, so it contributes nothing either way.
    """
    out = []
    for x, a, b in zip(point, lo, hi):
        span = b - a
        if span <= 0.0:
            out.append(0.0)
        else:
            out.append(min(1.0, max(0.0, (x - a) / span)))
    return tuple(out)


def weighted_sum_rank(
    points: Sequence[Point],
    weights: Optional[Sequence[float]] = None,
    bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
) -> List[Tuple[int, float]]:
    """Scalarize and rank: best (lowest weighted sum) first.

    Objectives are min-max normalized (over ``bounds`` when given,
    else over the point set itself) so weights express *preference*,
    not unit conversion.  Returns ``(index, scalar)`` pairs sorted by
    (scalar, index) — a total, deterministic order.
    """
    if not points:
        return []
    dims = len(points[0])
    if weights is None:
        weights = (1.0,) * dims
    if len(weights) != dims:
        raise ValueError(
            f"{len(weights)} weights for {dims}-objective points"
        )
    lo, hi = bounds if bounds is not None else objective_bounds(points)
    scored = []
    for i, p in enumerate(points):
        norm = normalize(p, lo, hi)
        scalar = 0.0
        for w, x in zip(weights, norm):
            scalar += w * x
        scored.append((i, scalar))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored


# ----------------------------------------------------------------------
# hypervolume (exact, 2-D / 3-D)
# ----------------------------------------------------------------------
def hypervolume(
    points: Sequence[Point],
    reference: Sequence[float],
) -> float:
    """Exact dominated hypervolume w.r.t. ``reference`` (minimization).

    Points at or beyond the reference in any objective contribute
    nothing.  Supports 1, 2, and 3 objectives — the explorer's
    objective spaces — exactly; more would need a different algorithm.
    Adding points can only grow the value, which is what makes the
    per-generation "GA never worse than its DoE seed" invariant
    testable as hypervolume monotonicity.
    """
    if not points:
        return 0.0
    dims = len(reference)
    for p in points:
        if len(p) != dims:
            raise ValueError(
                f"point dimension {len(p)} != reference {dims}"
            )
    # keep only points strictly inside the reference box, deduplicated,
    # and only the non-dominated ones (dominated points add no volume)
    inside = sorted({
        tuple(p) for p in points
        if all(x < r for x, r in zip(p, reference))
    })
    if not inside:
        return 0.0
    keep = [inside[i] for i in pareto_front(inside)]
    keep.sort()
    if dims == 1:
        return reference[0] - min(p[0] for p in keep)
    if dims == 2:
        return _hv2(keep, reference)
    if dims == 3:
        return _hv3(keep, reference)
    raise NotImplementedError(
        f"hypervolume supports 1-3 objectives, got {dims}"
    )


def _hv2(front: List[Point], reference: Sequence[float]) -> float:
    """2-D: sweep x ascending; each point owns a rectangle up to its
    successor's y-ceiling.  ``front`` is non-dominated and sorted, so
    y strictly descends along the sweep."""
    volume = 0.0
    prev_y = reference[1]
    for x, y in front:
        volume += (reference[0] - x) * (prev_y - y)
        prev_y = y
    return volume


def _hv3(front: List[Point], reference: Sequence[float]) -> float:
    """3-D: slice along z.  Between consecutive z-levels the dominated
    area in (x, y) is the 2-D hypervolume of the points with z at or
    below the slice floor."""
    zs = sorted({p[2] for p in front})
    volume = 0.0
    for k, z in enumerate(zs):
        depth = (zs[k + 1] if k + 1 < len(zs) else reference[2]) - z
        layer = sorted({(p[0], p[1]) for p in front if p[2] <= z})
        layer = [layer[i] for i in pareto_front(layer)]
        layer.sort()
        volume += _hv2(layer, reference) * depth
    return volume


def normalized_hypervolume(
    points: Sequence[Point],
    lo: Sequence[float],
    hi: Sequence[float],
    reference: float = 1.1,
) -> float:
    """Hypervolume in the unit-normalized space against a fixed
    reference corner (default 1.1 per axis, so boundary points still
    contribute).  With fixed ``lo``/``hi`` this is comparable across
    generations and runs; values fall in [0, reference**dims]."""
    if not points:
        return 0.0
    dims = len(points[0])
    norm = [normalize(p, lo, hi) for p in points]
    return hypervolume(norm, (reference,) * dims)
