"""A small exact 0/1 ILP solver: branch-and-bound over LP relaxations.

SOS [12] formulated heterogeneous multiprocessor synthesis as an ILP
and solved it exactly; we do the same with a self-contained solver:
depth-first branch-and-bound, bounding each node with the LP relaxation
from ``scipy.optimize.linprog`` (HiGHS).  Good enough for the problem
sizes the paper's era reported (tens of binary variables) and fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog


class IlpError(RuntimeError):
    """Raised when the solver exceeds its node budget."""


@dataclass
class ZeroOneProblem:
    """Minimize ``c @ x`` s.t. ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``,
    ``x`` binary.

    ``branch_priority`` (optional, same length as ``c``) biases variable
    selection: among fractional variables, the highest priority is
    branched first.  Structural variables (e.g. "instance used" flags)
    branched early shrink the tree dramatically.
    """

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    branch_priority: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        if self.a_ub is not None:
            self.a_ub = np.asarray(self.a_ub, dtype=float)
            self.b_ub = np.asarray(self.b_ub, dtype=float)
        if self.a_eq is not None:
            self.a_eq = np.asarray(self.a_eq, dtype=float)
            self.b_eq = np.asarray(self.b_eq, dtype=float)
        if self.branch_priority is not None:
            self.branch_priority = np.asarray(
                self.branch_priority, dtype=float
            )

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass
class IlpSolution:
    """An optimal binary assignment and its objective value."""

    x: np.ndarray
    value: float
    nodes: int


def solve_binary(
    problem: ZeroOneProblem,
    max_nodes: int = 20000,
    tolerance: float = 1e-6,
) -> Optional[IlpSolution]:
    """Solve to optimality; returns None if infeasible.

    Branching: most-fractional variable; the child matching the rounded
    LP value is explored first (depth-first), which finds good
    incumbents early and prunes aggressively.
    """
    n = problem.n_vars
    incumbent: Optional[np.ndarray] = None
    incumbent_value = np.inf
    nodes = 0

    # stack entries: (fixed_lo, fixed_hi) as float arrays of bounds
    stack: List[Tuple[np.ndarray, np.ndarray]] = [
        (np.zeros(n), np.ones(n))
    ]
    while stack:
        lo, hi = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise IlpError(f"node budget {max_nodes} exhausted")
        res = linprog(
            problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        if not res.success:
            continue  # infeasible branch
        if res.fun >= incumbent_value - tolerance:
            continue  # bound prune
        x = res.x
        frac = np.abs(x - np.round(x))
        if problem.branch_priority is not None:
            fractional = frac > tolerance
            if fractional.any():
                score = np.where(
                    fractional,
                    problem.branch_priority + frac,
                    -np.inf,
                )
                branch_var = int(np.argmax(score))
            else:
                branch_var = int(np.argmax(frac))
        else:
            branch_var = int(np.argmax(frac))
        if frac[branch_var] <= tolerance:
            x_int = np.round(x)
            value = float(problem.c @ x_int)
            if value < incumbent_value - tolerance and _feasible(
                problem, x_int, tolerance
            ):
                incumbent = x_int
                incumbent_value = value
            continue
        # branch: push the less-likely child first so the preferred one
        # (matching the LP's leaning) is explored next
        prefer_one = x[branch_var] >= 0.5
        for value in ([0.0, 1.0] if prefer_one else [1.0, 0.0]):
            lo2, hi2 = lo.copy(), hi.copy()
            lo2[branch_var] = hi2[branch_var] = value
            stack.append((lo2, hi2))
    if incumbent is None:
        return None
    return IlpSolution(x=incumbent, value=incumbent_value, nodes=nodes)


def _feasible(
    problem: ZeroOneProblem, x: np.ndarray, tolerance: float
) -> bool:
    if problem.a_ub is not None:
        if np.any(problem.a_ub @ x > problem.b_ub + tolerance):
            return False
    if problem.a_eq is not None:
        if np.any(np.abs(problem.a_eq @ x - problem.b_eq) > tolerance):
            return False
    return True
