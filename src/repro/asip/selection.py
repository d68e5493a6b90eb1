"""Instruction-subset selection under an area budget (PEAS-I style).

Choosing which candidate custom instructions to realize is a 0/1
knapsack: each candidate has a value (weighted cycles saved across the
workload) and a weight (datapath area).  Budgets in this framework are
small integers of gates, so the exact dynamic program is cheap and the
selection is optimal — matching the claim of the exact-optimization
ASIP flows the paper cites.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro import _domain
from repro.asip.custom import CustomCandidate


def select_instructions(
    candidates: Sequence[CustomCandidate],
    area_budget: float,
    resolution: float = 1.0,
) -> List[CustomCandidate]:
    """Exact 0/1 knapsack selection.

    ``resolution`` discretizes areas (gates per DP cell); coarser values
    trade optimality for speed on very large budgets.  Candidates with
    zero value are never selected.
    """
    _domain.real("area_budget", area_budget, least=0)
    _domain.real("resolution", resolution, above=0)
    useful = [c for c in candidates if c.value > 0]
    capacity = int(area_budget / resolution)
    if capacity == 0 or not useful:
        return []
    weights = [max(1, math.ceil(c.area / resolution)) for c in useful]
    # dp[w] = (best value, chosen indices tuple) - keep choices compact
    best_value = [0.0] * (capacity + 1)
    choice: List[List[int]] = [[] for _ in range(capacity + 1)]
    for idx, cand in enumerate(useful):
        w = weights[idx]
        for cap in range(capacity, w - 1, -1):
            with_it = best_value[cap - w] + cand.value
            if with_it > best_value[cap] + 1e-12:
                best_value[cap] = with_it
                choice[cap] = choice[cap - w] + [idx]
    best_cap = max(range(capacity + 1), key=lambda cap: best_value[cap])
    return [useful[i] for i in choice[best_cap]]


def selection_frontier(
    candidates: Sequence[CustomCandidate],
    budgets: Sequence[float],
) -> List[Tuple[float, List[CustomCandidate], float]]:
    """(budget, selection, total value) per budget — the raw data of the
    Figure 6 experiment.  Value is monotone non-decreasing in budget."""
    out = []
    for budget in budgets:
        chosen = select_instructions(candidates, budget)
        out.append((budget, chosen, sum(c.value for c in chosen)))
    return out
