"""Relaxed goal sets on brute-forceable minimization instances.

A goal set at relaxation eps collects every candidate within a factor
(1 + eps) of the optimal objective. Growing eps can only grow the set,
which drives the information needed to land in it down; the reports expose
both readings of that requirement (the -log2(p) search information, which
is monotone, and the indicator entropy, which peaks at p = 1/2).

The bundled knapsack family splits its items into two halves, each with a
table of its subsets' weights and profits (Horowitz & Sahni's
meet-in-the-middle split, J. ACM 21(2), 1974). ``information_vs_epsilon``
counts a spec's goal sets from those two tables alone, in O(2^(n/2)) lookups
rather than one read of each of the 2^n subsets: it holds the half tables
(2^(n/2) int64 weights and profits each, 16 KiB apiece at n = 20) and a
table over the low half's distinct weights and profits, built at most
``gp.BLOCK_CELLS`` cells at a time. ``KnapsackSpec.to_instance`` still
builds the whole table, one float64 per subset (8 MiB at n = 20), a block
of at most ``gp.BLOCK_CELLS`` int64 values at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gp import BLOCK_CELLS
from .info import binary_entropy, search_information

_MAX_CANDIDATES = 1 << 20
#: Most items a knapsack spec takes: 2^20 subsets, the candidate cap.
MAX_ITEMS = 20
#: Largest integer that float64 and int64 both hold exactly; knapsack objective
#: values are summed in int64 and stored as float64, so none may exceed it.
_MAX_EXACT = 1 << 53


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


def _goal_bound(optimum: float, epsilon: float) -> float:
    """The largest value in the goal set at relaxation ``epsilon``."""
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    if optimum < 0:
        raise ValueError("multiplicative criterion undefined for negative optimum")
    return (1.0 + epsilon) * optimum


def goal_set(instance: FiniteOptInstance, epsilon: float) -> np.ndarray:
    """Indices of candidates with value <= (1 + epsilon) * optimum.

    The multiplicative criterion needs a non-negative optimum; a negative
    one is an error. The set grows with epsilon and always holds the optimum.
    """
    return np.flatnonzero(instance.values <= _goal_bound(instance.optimum, epsilon))


def information_vs_epsilon(
    source: FiniteOptInstance | KnapsackSpec, epsilons: Sequence[float]
) -> list[EpsilonGoalReport]:
    """Goal-set geometry across an ascending schedule of relaxations.

    Each goal set is counted, not listed: the count is ``goal_set``'s size.
    An instance's values are cut to those within the largest bound, which
    are then counted against each bound. A spec's counts come from its two
    half tables (``KnapsackSpec._goal_counts``), so it is never built into
    its instance and no value is computed per subset.
    """
    eps = [float(e) for e in epsilons]
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly ascending")
    if not eps:
        return []
    if isinstance(source, KnapsackSpec):
        counts, size = source._goal_counts(eps), 1 << len(source.weights)
    else:
        bounds = [_goal_bound(source.optimum, e) for e in eps]
        kept = source.values[source.values <= bounds[-1]]
        counts, size = [int(np.count_nonzero(kept <= bound)) for bound in bounds], source.size
    reports = []
    for e, count in zip(eps, counts):
        p = count / size
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


@dataclass(frozen=True)
class KnapsackSpec:
    """Item weights/profits and a capacity, for the bundled instance family."""

    weights: tuple[int, ...]
    profits: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        if not 1 <= len(self.weights) <= MAX_ITEMS:
            raise ValueError(f"between 1 and {MAX_ITEMS} items supported")
        if len(self.weights) != len(self.profits):
            raise ValueError("weights and profits must have the same length")
        if any(w < 1 for w in self.weights) or any(q < 1 for q in self.profits):
            raise ValueError("weights and profits must be positive integers")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        weight = sum(self.weights)
        total = sum(self.profits)
        worst = total + (total + 1) * max(weight - self.capacity, 0)
        if weight > _MAX_EXACT or worst > _MAX_EXACT:
            raise ValueError(
                f"total weight {weight} and largest objective value {worst} must not exceed "
                f"2^53, the largest integer float64 holds exactly"
            )

    def to_instance(self) -> FiniteOptInstance:
        """Penalized minimization over all item subsets, one float64 per subset.

        f(S) = (total profit - profit(S)) + (total profit + 1) * excess
        weight, so f >= 0, minimizing f maximizes profit among feasible
        subsets, and (with integer weights) every overweight subset scores
        worse than every feasible one. Candidate i is the subset of mask i.
        """
        values = np.empty(1 << len(self.weights))
        end = 0
        for block in self._blocks():
            values[end : end + block.size] = block
            end += block.size
        return FiniteOptInstance(values=values, labels=range(values.size))

    def _blocks(self) -> Iterator[np.ndarray]:
        """``to_instance``'s values in mask order, as int64 blocks of at most BLOCK_CELLS.

        Subset mask m has bit i set iff item i is in it. The first h = n // 2
        items give the low mask bits and the rest the high bits, each half
        with its own int64 weight and profit tables (2^h and 2^(n-h)
        entries). A block is a run of high-mask rows by all low masks.
        Every value is an exact integer below 2^53, so it does not depend on
        the order of the sums.
        """
        n = len(self.weights)
        h = n // 2
        w_lo, q_lo = _subset_sums(self.weights[:h], self.profits[:h])
        w_hi, q_hi = _subset_sums(self.weights[h:], self.profits[h:])
        total = int(sum(self.profits))
        penalty = total + 1
        # every subset fits a capacity above the total weight, which int64 may not hold
        capacity = min(self.capacity, int(sum(self.weights)))
        rows = BLOCK_CELLS >> h  # at least 64, since h <= 10
        for r in range(0, w_hi.size, rows):
            block = slice(r, r + rows)  # row r holds masks r << h | l
            f = np.add(w_hi[block, None], w_lo)
            f -= capacity
            np.maximum(f, 0, out=f)
            f *= penalty
            f += total
            f -= q_hi[block, None]
            f -= q_lo
            yield f.ravel()

    def _goal_counts(self, epsilons: Sequence[float]) -> list[int]:
        """``goal_set(self.to_instance(), e).size`` for each e, from the two half tables.

        With C' = min(capacity, total weight) and P = total profit + 1, the
        optimum f* is total profit minus the best feasible profit: each high
        half subset within C' adds the most profit of a low half subset
        within the weight it leaves, read from the low half sorted by weight
        with a running profit maximum. The values are integers, so a subset
        is in the goal set iff f <= B = floor((1 + eps) f*). Writing
        B = m P + r with 0 <= r < P, and f = (total - profit) + P excess with
        0 <= total - profit < P, f <= B iff the excess weight over C' is
        below m, or is m and the profit is at least total - r. Overweight
        subsets thus qualify only once B >= P, and every subset once B
        reaches the largest value. Each term is a count of (low, high) pairs
        within a weight and a profit limit (``_pairs_within``), in exact
        int64 sums below 2^54.
        """
        h = len(self.weights) // 2
        w_lo, q_lo = _subset_sums(self.weights[:h], self.profits[:h])
        w_hi, q_hi = _subset_sums(self.weights[h:], self.profits[h:])
        total = int(sum(self.profits))
        penalty = total + 1
        weight = int(sum(self.weights))
        # every subset fits a capacity above the total weight, which int64 may not hold
        capacity = min(self.capacity, weight)
        by_weight = np.argsort(w_lo, kind="stable")
        lightest = w_lo[by_weight]
        best = np.maximum.accumulate(q_lo[by_weight])
        fits = w_hi <= capacity  # the empty high subset always does
        room = np.searchsorted(lightest, capacity - w_hi[fits], side="right") - 1
        optimum = total - int((q_hi[fits] + best[room]).max())
        # the full set if it is overweight, else the empty set
        largest = penalty * (weight - capacity) if weight > capacity else total
        counts = [0] * len(epsilons)
        terms = []  # (epsilon index, sign, weight limit, profit limit)
        for i, e in enumerate(epsilons):
            bound = _goal_bound(float(optimum), e)
            if bound >= largest:
                counts[i] = 1 << len(self.weights)
                continue
            m, r = divmod(math.floor(bound), penalty)
            terms.append((i, 1, capacity + m, total - r))
            if m:
                # an excess below m qualifies whatever the profit; the first term counted
                # those with enough profit already
                terms += [(i, 1, capacity + m - 1, 0), (i, -1, capacity + m - 1, total - r)]
        pairs = _pairs_within(w_lo, q_lo, w_hi, q_hi, [term[2:] for term in terms])
        for (i, sign, *_), count in zip(terms, pairs):
            counts[i] += sign * count
        return counts


def _subset_sums(weights: Sequence[int], profits: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Weight and profit of every subset of the items, indexed by subset mask."""
    n = len(weights)
    w = np.zeros(1 << n, dtype=np.int64)
    q = np.zeros(1 << n, dtype=np.int64)
    # the masks with top bit i are those below 1 << i plus item i
    for i, (weight, profit) in enumerate(zip(weights, profits)):
        half = 1 << i
        np.add(w[:half], weight, out=w[half : 2 * half])
        np.add(q[:half], profit, out=q[half : 2 * half])
    return w, q


def _pairs_within(
    w_lo: np.ndarray, q_lo: np.ndarray, w_hi: np.ndarray, q_hi: np.ndarray, limits: Sequence[tuple[int, int]]
) -> list[int]:
    """How many (low, high) subset pairs weigh at most K and profit at least T, for each (K, T) in limits.

    A table over the low subsets' distinct weights (rows) and distinct
    profits (columns) holds how many weigh at most the row's weight and
    profit at least the column's; each high subset reads its entry at
    (K - its weight, T - its profit). The table is built a run of rows at a
    time, at most BLOCK_CELLS cells, each run on top of the counts of the
    rows before it.
    """
    weights, w_rank = np.unique(w_lo, return_inverse=True)
    profits, q_rank = np.unique(q_lo, return_inverse=True)
    width = profits.size + 1  # the last column: profit above every low subset's
    step = max(1, BLOCK_CELLS // width)
    pairs = [0] * len(limits)
    below = np.zeros(width, dtype=np.int64)
    for start in range(0, weights.size, step):
        stop = min(start + step, weights.size)
        run = (w_rank >= start) & (w_rank < stop)
        table = np.bincount((w_rank[run] - start) * width + q_rank[run], minlength=(stop - start) * width)
        table = table.reshape(-1, width)[:, ::-1].cumsum(axis=1)[:, ::-1].cumsum(axis=0) + below
        below = table[-1]
        for j, (most, least) in enumerate(limits):
            # rows: how many distinct low weights are at most most - w_hi
            rows = np.searchsorted(weights, most - w_hi, side="right") - start
            ask = (rows > 0) & (rows <= stop - start)
            cols = np.searchsorted(profits, least - q_hi[ask])
            pairs[j] += int(table[rows[ask] - 1, cols].sum())
    return pairs


def default_knapsack(n_items: int = 10, seed: int = 0) -> KnapsackSpec:
    """Seeded random knapsack: weights in [1, 15], profits in [1, 19]."""
    rng = np.random.default_rng(seed)
    weights = tuple(int(x) for x in rng.integers(1, 16, n_items))
    profits = tuple(int(x) for x in rng.integers(1, 20, n_items))
    capacity = max(1, int(0.45 * sum(weights)))
    return KnapsackSpec(weights=weights, profits=profits, capacity=capacity)
