"""Relaxed goal sets on brute-forceable minimization instances.

A goal set at relaxation eps collects every candidate within a factor
(1 + eps) of the optimal objective. Growing eps can only grow the set,
which drives the information needed to land in it down; the reports expose
both readings of that requirement (the -log2(p) search information, which
is monotone, and the indicator entropy, which peaks at p = 1/2).

Accuracy targets below a declared inapproximability ratio map to the
infinite-cost sentinel: no budget makes them solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .info import INFINITE_COST, binary_entropy, effective_cost, search_information, solvability_verdict

_MAX_CANDIDATES = 1 << 20


@dataclass(frozen=True)
class FiniteOptInstance:
    """Explicit minimization problem: one finite objective value per candidate."""

    values: np.ndarray
    labels: Sequence[int] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1D array")
        if values.size > _MAX_CANDIDATES:
            raise ValueError(f"at most {_MAX_CANDIDATES} candidates supported")
        if not np.isfinite(values).all():
            raise ValueError("all objective values must be finite")
        if self.labels is not None and len(self.labels) != values.size:
            raise ValueError("labels must match values in length")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def optimum(self) -> float:
        return float(self.values.min())


@dataclass(frozen=True)
class EpsilonGoalReport:
    """Goal-set geometry at one relaxation level."""

    epsilon: float
    goal_count: int
    p_goal: float
    i_total_indicator: float
    i_total_search: float

    def __post_init__(self) -> None:
        if self.goal_count < 1:
            raise ValueError("goal_count must be at least 1 (the optimum always qualifies)")


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Budget verdict for solving an instance to a given accuracy."""

    epsilon: float
    p_goal: float
    c_eff: float
    solvable: bool


def goal_set(instance: FiniteOptInstance, epsilon: float) -> np.ndarray:
    """Indices of candidates with value <= (1 + epsilon) * optimum.

    The multiplicative criterion needs a non-negative optimum; a negative
    one is an error. The set grows with epsilon and always holds the optimum.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    fstar = instance.optimum
    if fstar < 0:
        raise ValueError("multiplicative criterion undefined for negative optimum")
    return np.flatnonzero(instance.values <= (1.0 + epsilon) * fstar)


def information_vs_epsilon(
    instance: FiniteOptInstance, epsilons: Sequence[float]
) -> list[EpsilonGoalReport]:
    """Goal-set geometry across an ascending schedule of relaxations."""
    eps = [float(e) for e in epsilons]
    if any(e < 0 for e in eps):
        raise ValueError("epsilons must be non-negative")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly ascending")
    reports = []
    for e in eps:
        count = int(goal_set(instance, e).size)
        p = count / instance.size
        reports.append(
            EpsilonGoalReport(
                epsilon=e,
                goal_count=count,
                p_goal=p,
                i_total_indicator=binary_entropy(p),
                i_total_search=search_information(p),
            )
        )
    return reports


def feasibility_at_accuracy(
    instance: FiniteOptInstance,
    epsilon: float,
    step_bits: float,
    step_cost: float,
    budget: float,
    inapprox_ratio: float | None = None,
) -> FeasibilityVerdict:
    """Can the instance be solved to accuracy epsilon within the budget?

    ``inapprox_ratio`` declares a hardness threshold rho: accuracies with
    epsilon < rho - 1 carry infinite cost regardless of budget.
    """
    if not step_bits > 0:
        raise ValueError("step_bits must be positive")
    if inapprox_ratio is not None and epsilon < inapprox_ratio - 1.0:
        return FeasibilityVerdict(epsilon=epsilon, p_goal=0.0, c_eff=INFINITE_COST, solvable=False)
    count = int(goal_set(instance, epsilon).size)
    p = count / instance.size
    cost = effective_cost(search_information(p), step_bits, step_cost)
    return FeasibilityVerdict(
        epsilon=epsilon,
        p_goal=p,
        c_eff=cost,
        solvable=solvability_verdict(cost, budget),
    )


@dataclass(frozen=True)
class KnapsackSpec:
    """Item weights/profits and a capacity, for the bundled instance family."""

    weights: tuple[int, ...]
    profits: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        if not 1 <= len(self.weights) <= 20:
            raise ValueError("between 1 and 20 items supported")
        if len(self.weights) != len(self.profits):
            raise ValueError("weights and profits must have the same length")
        if any(w < 1 for w in self.weights) or any(q < 1 for q in self.profits):
            raise ValueError("weights and profits must be positive integers")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")

    def to_instance(self) -> FiniteOptInstance:
        """Penalized minimization over all item subsets.

        f(S) = (total profit - profit(S)) + (total profit + 1) * excess
        weight, so f >= 0, minimizing f maximizes profit among feasible
        subsets, and (with integer weights) every overweight subset scores
        worse than every feasible one.
        """
        n = len(self.weights)
        # subset mask m has bit i set iff item i is in it; the masks with top
        # bit i are those below 1 << i plus item i
        w = np.zeros(1 << n, dtype=np.int64)
        q = np.zeros(1 << n, dtype=np.int64)
        for i, (weight, profit) in enumerate(zip(self.weights, self.profits)):
            half = 1 << i
            np.add(w[:half], weight, out=w[half : 2 * half])
            np.add(q[:half], profit, out=q[half : 2 * half])
        total = int(sum(self.profits))
        penalty = total + 1
        values = (total - q) + penalty * np.maximum(w - self.capacity, 0)
        return FiniteOptInstance(values=values.astype(float), labels=range(1 << n))


def default_knapsack(n_items: int = 10, seed: int = 0) -> KnapsackSpec:
    """Seeded random knapsack: weights in [1, 15], profits in [1, 19]."""
    rng = np.random.default_rng(seed)
    weights = tuple(int(x) for x in rng.integers(1, 16, n_items))
    profits = tuple(int(x) for x in rng.integers(1, 20, n_items))
    capacity = max(1, int(0.45 * sum(weights)))
    return KnapsackSpec(weights=weights, profits=profits, capacity=capacity)
