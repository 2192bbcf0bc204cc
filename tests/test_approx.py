"""Relaxed goal sets and their information geometry."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acp import (
    FiniteOptInstance,
    KnapsackSpec,
    default_knapsack,
    goal_set,
    information_vs_epsilon,
)
from acp import approx

EPS_LADDER = (0.0, 0.05, 0.1, 0.2, 0.5)


def brute_force_knapsack_goals(spec, epsilon):
    """Independent enumeration: recompute the objective per subset from raw
    weights/profits with plain Python loops and apply the threshold."""
    n = len(spec.weights)
    total = sum(spec.profits)
    values = {}
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in combo)
            weight = sum(spec.weights[i] for i in combo)
            profit = sum(spec.profits[i] for i in combo)
            values[mask] = (total - profit) + (total + 1) * max(0, weight - spec.capacity)
    best = min(values.values())
    return {mask for mask, v in values.items() if v <= (1 + epsilon) * best}


def _reference_to_instance(spec):
    """The full-table builder: int64 weight and profit sums over all 2^n
    subsets, then the objective as whole-array expressions."""
    n = len(spec.weights)
    w = np.zeros(1 << n, dtype=np.int64)
    q = np.zeros(1 << n, dtype=np.int64)
    for i, (weight, profit) in enumerate(zip(spec.weights, spec.profits)):
        half = 1 << i
        np.add(w[:half], weight, out=w[half : 2 * half])
        np.add(q[:half], profit, out=q[half : 2 * half])
    total = int(sum(spec.profits))
    values = (total - q) + (total + 1) * np.maximum(w - spec.capacity, 0)
    return FiniteOptInstance(values=values.astype(float), labels=range(1 << n))


@st.composite
def knapsack_specs(draw):
    """Specs of 1-20 items whose sums reach up to the 2^53 guard."""
    n = draw(st.integers(1, 20))
    w_max = draw(st.sampled_from([15, 2**20, 2**53 // n]))
    q_max = draw(st.sampled_from([19, 2**20, 2**53 // (2 * n)]))
    weights = draw(st.lists(st.integers(1, w_max), min_size=n, max_size=n))
    profits = draw(st.lists(st.integers(1, q_max), min_size=n, max_size=n))
    total_w, total_q = sum(weights), sum(profits)
    # the largest overweight that keeps every value within 2^53; a negative
    # excess leaves room to spare
    excess = draw(st.integers(-total_w, (2**53 - total_q) // (total_q + 1)))
    return KnapsackSpec(tuple(weights), tuple(profits), max(1, total_w - excess))


@st.composite
def small_specs_with_ladders(draw):
    """Specs of 1-12 items, a strictly ascending ladder and a block size from one row to the whole table."""
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
    profits = draw(st.lists(st.integers(1, 19), min_size=n, max_size=n))
    capacity = draw(st.integers(1, sum(weights) + 2))
    ladder = draw(st.lists(st.one_of(st.floats(0, 3), st.floats(0, 1e4), st.sampled_from([0.0, 0.5, 1e300])),
                           min_size=1, max_size=6, unique=True))
    # a run of high-mask rows by all 2^(n // 2) low masks; most row counts leave a partial last block
    cells = draw(st.integers(1, 1 << (n - n // 2))) << (n // 2)
    return KnapsackSpec(tuple(weights), tuple(profits), capacity), sorted(ladder), cells


@pytest.fixture(scope="module")
def knapsack():
    return default_knapsack(8, seed=1)


class TestGoalSet:
    def test_zero_epsilon_is_argmin_set(self):
        inst = FiniteOptInstance(np.array([3.0, 1.0, 2.0, 1.0]))
        assert list(goal_set(inst, 0.0)) == [1, 3]

    def test_large_epsilon_covers_everything(self):
        inst = FiniteOptInstance(np.array([1.0, 5.0, 9.0]))
        assert goal_set(inst, 10.0).size == 3

    def test_contains_every_minimizer(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            vals = rng.uniform(0, 10, int(rng.integers(2, 64)))
            inst = FiniteOptInstance(vals)
            goals = set(goal_set(inst, float(rng.uniform(0, 1))))
            assert set(np.flatnonzero(vals == vals.min())) <= goals

    def test_inclusion_chain(self):
        rng = np.random.default_rng(13)
        inst = FiniteOptInstance(rng.uniform(0, 5, 40))
        sets = [set(goal_set(inst, e)) for e in EPS_LADDER]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
        st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6, unique=True),
    )
    def test_nested_in_epsilon(self, values, epsilons):
        inst = FiniteOptInstance(np.array(values))
        sets = [set(goal_set(inst, e)) for e in sorted(epsilons)]
        assert int(np.argmin(values)) in sets[0]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    def test_negative_optimum_rejected(self):
        inst = FiniteOptInstance(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            goal_set(inst, 0.1)

    def test_negative_epsilon_rejected(self):
        inst = FiniteOptInstance(np.array([1.0]))
        with pytest.raises(ValueError):
            goal_set(inst, -0.1)

    def test_matches_independent_enumeration(self, knapsack):
        inst = knapsack.to_instance()
        for eps in EPS_LADDER:
            got = {inst.labels[i] for i in goal_set(inst, eps)}
            assert got == brute_force_knapsack_goals(knapsack, eps)


class TestInformationCurve:
    def test_counts_nondecreasing_and_search_nonincreasing(self, knapsack):
        reports = information_vs_epsilon(knapsack.to_instance(), EPS_LADDER)
        counts = [r.goal_count for r in reports]
        search = [r.i_total_search for r in reports]
        assert counts == sorted(counts)
        assert all(b <= a + 1e-12 for a, b in zip(search, search[1:]))

    def test_dyadic_probability(self):
        values = np.array([0.0] + [1.0] * 7)
        reports = information_vs_epsilon(FiniteOptInstance(values), [0.0])
        assert reports[0].p_goal == pytest.approx(1 / 8)
        assert reports[0].i_total_search == pytest.approx(3.0)
        assert reports[0].i_total_indicator == pytest.approx(
            -(1 / 8) * math.log2(1 / 8) - (7 / 8) * math.log2(7 / 8)
        )

    @settings(max_examples=150, deadline=None)
    @given(small_specs_with_ladders())
    # f* = 3 and the full set scores 40: eps 13 takes the overweight set in, eps 12 does not
    @example((KnapsackSpec((5, 5), (3, 4), 5), [0.0, 12.0, 13.0], 2))
    @example((KnapsackSpec((5, 5), (3, 4), 5), [1.0, 1e300], 4))
    # (1 + eps) f* lands exactly on a value: f* = 4, so 1.5 f* = 6 and 2 f* = 8
    @example((KnapsackSpec((3, 3, 3), (2, 2, 4), 3), [0.5, 1.0], 2))
    @example((KnapsackSpec((3, 3, 3), (2, 2, 4), 3), [0.0, 0.5, 1.0, 1e300], 6))
    def test_streamed_counts_equal_dense(self, case):
        spec, ladder, cells = case
        with mock.patch.object(approx, "BLOCK_CELLS", cells):
            streamed = information_vs_epsilon(spec, ladder)
            inst = spec.to_instance()
        assert streamed == information_vs_epsilon(inst, ladder)
        counts = [goal_set(inst, e).size for e in ladder]
        assert [r.goal_count for r in streamed] == counts
        assert [r.p_goal for r in streamed] == [c / 2 ** len(spec.weights) for c in counts]

    def test_requires_ascending_epsilons(self):
        inst = FiniteOptInstance(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            information_vs_epsilon(inst, [0.1, 0.1])
        with pytest.raises(ValueError):
            information_vs_epsilon(inst, [0.2, 0.1])


class TestKnapsackFamily:
    def test_instance_size(self, knapsack):
        assert knapsack.to_instance().size == 2 ** len(knapsack.weights)

    def test_objective_nonnegative(self, knapsack):
        assert knapsack.to_instance().values.min() >= 0.0

    def test_infeasible_subsets_score_worse_than_feasible(self, knapsack):
        inst = knapsack.to_instance()
        weights = np.array(knapsack.weights)
        masks = np.array(inst.labels)
        bits = (masks[:, None] >> np.arange(len(weights))[None, :]) & 1
        total_w = bits @ weights
        feasible = total_w <= knapsack.capacity
        assert inst.values[~feasible].min() > inst.values[feasible].max()

    @settings(max_examples=60, deadline=None)
    @given(knapsack_specs())
    @example(default_knapsack(20, 3))
    @example(default_knapsack(19, 5))
    def test_split_build_matches_reference(self, spec):
        inst, ref = spec.to_instance(), _reference_to_instance(spec)
        assert np.array_equal(inst.values, ref.values)
        assert inst.labels == ref.labels == range(1 << len(spec.weights))

    def test_twenty_item_curve_memory_is_bounded(self):
        # one float64 per subset is 8 MiB; the full-table build peaked at about 40 MiB
        spec = default_knapsack(20, 3)
        tracemalloc.start()
        try:
            information_vs_epsilon(spec.to_instance(), EPS_LADDER)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_rejects_sums_beyond_exact_integers(self):
        # in int64 this wrapped round: the full set scored about -3.9e18
        with pytest.raises(ValueError, match="2\\^53"):
            KnapsackSpec(weights=(10**10,) * 3, profits=(10**10,) * 3, capacity=1)

    @pytest.mark.parametrize(
        "weights, profits, capacity, values",
        [
            ((2**53,), (1,), 2**53, [1.0, 0.0]),  # total weight at the guard
            ((1,), (2**53,), 1, [2.0**53, 0.0]),  # largest value at the guard
            ((2,), (2**52 - 1,), 1, [2.0**52 - 1, 2.0**52]),  # penalty bound 2^53 - 1
        ],
    )
    def test_accepts_sums_at_the_guard(self, weights, profits, capacity, values):
        spec = KnapsackSpec(weights=weights, profits=profits, capacity=capacity)
        assert spec.to_instance().values.tolist() == values

    @pytest.mark.parametrize(
        "weights, profits, capacity",
        [
            ((2**53 + 1,), (1,), 2**54),  # total weight one over
            ((1,), (2**53 + 1,), 1),  # largest value one over
            ((2,), (2**52,), 1),  # penalty bound 2^53 + 1
        ],
    )
    def test_rejects_sums_one_past_the_guard(self, weights, profits, capacity):
        with pytest.raises(ValueError, match="2\\^53"):
            KnapsackSpec(weights=weights, profits=profits, capacity=capacity)

    def test_capacity_beyond_int64_leaves_every_subset_feasible(self):
        spec = KnapsackSpec(weights=(3, 5), profits=(1, 2), capacity=10**30)
        assert spec.to_instance().values.tolist() == [3.0, 2.0, 1.0, 0.0]

    def test_rejects_too_many_items(self):
        with pytest.raises(ValueError):
            default_knapsack(21, seed=0)
