"""Entropy primitives and cost/verdict formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acp import (
    INFINITE_COST,
    binary_entropy,
    effective_cost,
    entropy_bits,
    search_information,
    select_action,
    solvability_verdict,
)


class TestBinaryEntropy:
    def test_symmetry_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_formula_value(self):
        # -p log2 p - (1-p) log2 (1-p) at p = 0.11
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-3)

    def test_symmetric_in_p(self):
        rng = np.random.default_rng(42)
        for p in rng.uniform(0, 1, 200):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestEntropy:
    def test_uniform_two_outcomes(self):
        assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0)

    def test_uniform_power_of_two(self):
        for k in (1, 3, 5):
            n = 2**k
            assert entropy_bits([1.0 / n] * n) == pytest.approx(float(k), abs=1e-9)

    def test_dyadic(self):
        assert entropy_bits([0.5, 0.25, 0.25]) == pytest.approx(1.5)

    def test_bounded_by_log_size_equality_iff_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            p = rng.dirichlet(np.ones(n))
            h = entropy_bits(p)
            assert h <= math.log2(n) + 1e-9
        assert entropy_bits(np.full(16, 1 / 16)) == pytest.approx(4.0)
        assert entropy_bits([0.7, 0.3]) < 1.0


def _probability_vectors(min_size: int = 1, max_size: int = 12):
    """Small non-negative weight lists normalised to sum to 1."""
    weights = st.lists(st.floats(0.0, 10.0), min_size=min_size, max_size=max_size)
    return weights.filter(lambda w: sum(w) > 1e-6).map(lambda w: np.asarray(w) / np.sum(w))


class TestEntropyBits:
    @settings(max_examples=60, deadline=None)
    @given(_probability_vectors())
    def test_matches_distribution_entropy(self, p):
        direct = -math.fsum(x * math.log2(x) for x in p if x > 0)
        assert entropy_bits(p) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_probability_vectors())
    def test_bounded_by_log_size(self, p):
        h = entropy_bits(p)
        assert 0.0 <= h <= math.log2(p.size) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_probability_vectors(), st.integers(1, 5), st.integers(0, 5))
    def test_zero_cells_change_nothing(self, p, n_before, n_after):
        padded = np.concatenate([np.zeros(n_before), p, np.zeros(n_after)])
        assert entropy_bits(padded) == pytest.approx(entropy_bits(p), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 10), st.data())
    def test_rows_of_a_stack(self, n_rows, n_cells, data):
        rows = [data.draw(_probability_vectors(n_cells, n_cells)) for _ in range(n_rows)]
        stack = np.stack(rows)
        per_row = np.array([entropy_bits(row) for row in rows])
        np.testing.assert_array_equal(entropy_bits(stack, axis=1), per_row)


class TestSearchInformation:
    def test_goal_everywhere(self):
        assert search_information(1.0) == 0.0

    def test_power_of_two(self):
        assert search_information(0.125) == pytest.approx(3.0)

    def test_zero_mass_gives_sentinel(self):
        assert search_information(0.0) == INFINITE_COST

    def test_domain_error(self):
        with pytest.raises(ValueError):
            search_information(1.5)


class TestEffectiveCost:
    def test_formula(self):
        assert effective_cost(10.0, 2.0, 3.0) == pytest.approx(15.0)

    def test_one_step_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = float(rng.uniform(0.1, 50))
            c = float(rng.uniform(0.1, 9))
            assert effective_cost(x, x, c) == pytest.approx(c)

    def test_sentinel_propagates(self):
        assert effective_cost(INFINITE_COST, 1.0, 1.0) == INFINITE_COST

    def test_scaling_laws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tot, per, cost = rng.uniform(0.1, 20, 3)
            a = float(rng.uniform(0.5, 4))
            base = effective_cost(tot, per, cost)
            assert effective_cost(a * tot, per, cost) == pytest.approx(a * base)
            assert effective_cost(tot, per, a * cost) == pytest.approx(a * base)
            assert effective_cost(tot, a * per, cost) == pytest.approx(base / a)

    def test_zero_per_step_is_error(self):
        with pytest.raises(ValueError):
            effective_cost(10.0, 0.0, 1.0)


class TestSelectAction:
    def test_best_ratio(self):
        assert select_action([(2, 1), (4, 4)]) == 0

    def test_tie_breaks_to_first(self):
        assert select_action([(1, 1), (2, 2)]) == 0

    def test_singleton(self):
        assert select_action([(0.5, 5)]) == 0

    def test_cost_scaling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            gains = rng.uniform(0, 5, n)
            costs = rng.uniform(0.1, 5, n)
            picked = select_action(list(zip(gains, costs)))
            scale = float(rng.uniform(0.1, 10))
            assert select_action(list(zip(gains, costs * scale))) == picked

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            select_action([])


class TestSolvability:
    def test_under_budget(self):
        assert solvability_verdict(15.0, 20.0) is True

    def test_boundary_included(self):
        assert solvability_verdict(15.0, 15.0) is True

    def test_sentinel_never_solvable(self):
        assert solvability_verdict(INFINITE_COST, 1e18) is False

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1e-9, max_value=1e9),
        st.floats(min_value=1e-9, max_value=1e9),
        st.floats(min_value=1e-300, allow_infinity=True, allow_nan=False),
    )
    def test_sentinel_survives_cost_arithmetic(self, bits_per_step, step_cost, budget):
        assert effective_cost(INFINITE_COST, bits_per_step, step_cost) == INFINITE_COST
        assert solvability_verdict(INFINITE_COST, budget) is False

    def test_over_budget(self):
        assert solvability_verdict(21.0, 20.0) is False
