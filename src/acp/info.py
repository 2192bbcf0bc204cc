"""Entropy primitives and the core budget-feasibility formulas.

All information quantities are in bits (log base 2). Problems that cannot
be solved at any budget are represented by the ``INFINITE_COST`` sentinel,
which propagates through cost arithmetic instead of raising.

Everything here is a pure function over immutable values and is safe to
call concurrently.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Sentinel cost of an unsolvable problem. Never solvable at any budget.
INFINITE_COST = math.inf


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) indicator, with 0*log(0) := 0.

    Maximal (1 bit) at p = 1/2, zero at the degenerate endpoints.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    # entropy_bits gives -0.0 for a point mass; keep the endpoints at +0.0
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(entropy_bits((p, 1.0 - p)))


def entropy_bits(probs, axis: int = -1):
    """Shannon entropy in bits of the probability vectors along ``axis``.

    Cells of zero mass contribute nothing (0 * log 0 := 0). A 1D input gives
    a scalar; a stack of vectors gives one entropy per vector.
    """
    p = np.asarray(probs, dtype=float)
    terms = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    terms *= p
    return -terms.sum(axis=axis)


def search_information(p_goal: float) -> float:
    """Self-information -log2(p) of hitting a goal region of mass p.

    This is the "bits needed to find a needle" reading of the total
    information requirement: rare goals cost more bits. A goal of
    measure zero returns ``INFINITE_COST``.
    """
    if not 0.0 <= p_goal <= 1.0:
        raise ValueError(f"p_goal must lie in [0, 1], got {p_goal!r}")
    if p_goal == 0.0:
        return INFINITE_COST
    # -log2(1) is -0.0; keep a certain goal at +0.0, as binary_entropy does
    if p_goal == 1.0:
        return 0.0
    return -math.log2(p_goal)


def effective_cost(total_bits: float, bits_per_step: float, step_cost: float) -> float:
    """Predicted expenditure (total_bits / bits_per_step) * step_cost.

    An infinite total requirement yields ``INFINITE_COST``. Zero or
    negative per-step information is an error: it means the estimate
    offers no path to a solution and callers should treat the problem
    as unsolvable rather than divide by it.
    """
    if not bits_per_step > 0:
        raise ValueError("bits_per_step must be positive (no information per step)")
    if not step_cost > 0:
        raise ValueError("step_cost must be positive")
    if total_bits < 0:
        raise ValueError("total_bits must be non-negative")
    if math.isinf(total_bits):
        return INFINITE_COST
    return (total_bits / bits_per_step) * step_cost


def select_action(candidates: Sequence[tuple[float, float]]) -> int:
    """Index of the (gain, cost) pair with the best gain/cost ratio.

    Ties break to the smallest index so repeated runs are reproducible.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    best_idx = 0
    best_ratio = -math.inf
    for idx, (gain, cost) in enumerate(candidates):
        if not cost > 0:
            raise ValueError(f"candidate {idx}: cost must be positive")
        ratio = gain / cost
        if ratio > best_ratio:
            best_idx = idx
            best_ratio = ratio
    return best_idx


def solvability_verdict(cost: float, budget: float) -> bool:
    """True iff the budget covers the effective cost (boundary included)."""
    if not budget > 0:
        raise ValueError("budget must be positive")
    if math.isinf(cost):
        return False
    return budget >= cost
