"""GP posterior, information-gain estimation, and the a-priori pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acp import (
    INFINITE_COST,
    EstimationTask,
    GPPosterior,
    HypothesisGrid,
    RBFKernel,
    a_priori_estimate,
    estimate_total_information,
    information_gain,
    monte_carlo_error,
)

SLOPE_PRIOR_VAR = 4.0 / 3.0  # variance of a uniform slope on [-2, 2]


def closed_form_linear_gain(x: float, sigma: float, prior_var: float = SLOPE_PRIOR_VAR) -> float:
    """Bayesian linear regression gain for one query at x under noise sigma."""
    return 0.5 * math.log2(1.0 + x * x * prior_var / sigma**2)


def calibrated_posterior(x: float, sigma: float) -> GPPosterior:
    """GP whose outcome predictive at x matches the linear task exactly."""
    signal = max(x * x * SLOPE_PRIOR_VAR, 1e-9)
    return GPPosterior(RBFKernel(lengthscale=1.0, signal_variance=signal), noise_variance=sigma**2)


def slope_task(sigma: float, **kwargs) -> EstimationTask:
    """Estimation task with the slope experiment's geometry at noise sigma."""
    return EstimationTask(noise_variance=sigma**2, **kwargs)


def quadrature_step_bits(task: EstimationTask) -> float:
    """Per-step bits by quadrature over y, nodes sigma/4 apart over +-9 sigma.

    For each action the outcome density is the grid marginal
    sum_j p_j N(theta_j x, sigma^2); each node's posterior is summed into the
    resolution bins before its entropy is taken. Written independently of
    the package's sampler and binning.
    """
    grid = task.hypothesis_grid()
    theta, prior = grid.values, grid.probabilities
    sigma = math.sqrt(task.noise_variance)
    n_bins = round((task.theta_high - task.theta_low) / task.resolution)
    onehot = np.zeros((theta.size, n_bins))
    onehot[np.arange(theta.size), (np.arange(theta.size) * n_bins) // theta.size] = 1.0

    def bits(masses):
        logs = np.log2(masses, out=np.zeros_like(masses), where=masses > 0)
        return -(masses * logs).sum(axis=-1)

    total = bits(prior @ onehot)
    gains = []
    for x in task.action_grid():
        mean = theta * x
        y = np.arange(mean.min() - 9 * sigma, mean.max() + 9 * sigma, sigma / 4)
        joint = np.exp(-((y[:, None] - mean[None, :]) ** 2) / (2 * sigma**2)) * prior
        marginal = joint.sum(axis=1)
        weights = marginal / marginal.sum()
        gains.append(total - weights @ bits((joint / marginal[:, None]) @ onehot))
    n_top = math.ceil(task.top_fraction * len(gains))
    return float(np.mean(sorted(gains)[-n_top:]))


class TestGPPosterior:
    def test_prior_prediction(self):
        post = GPPosterior(RBFKernel(1.0, 2.0), noise_variance=0.5)
        assert post.predictive_y(-2.7) == (0.0, 2.5)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            GPPosterior(RBFKernel(1.0, 1.0), 0.0)


class TestInformationGain:
    def test_concentrated_posterior_gains_nothing(self):
        probs = np.zeros(101)
        probs[50] = 1.0
        grid = HypothesisGrid(np.linspace(-2, 2, 101), probs)
        post = calibrated_posterior(3.0, 0.5)
        assert information_gain(post, 3.0, grid, 256, seed=0) <= 0.05

    def test_never_exceeds_prior_entropy(self):
        rng = np.random.default_rng(9)
        grid = HypothesisGrid.uniform(-2, 2, 101)
        ceiling = grid.prior_entropy()
        for _ in range(10):
            x = float(rng.uniform(-3, 3))
            sigma = float(rng.uniform(0.05, 2))
            post = GPPosterior(RBFKernel(1.0, 4.0), sigma**2)
            g = information_gain(post, x, grid, 64, seed=int(rng.integers(1 << 30)))
            assert 0.0 <= g <= ceiling

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
    def test_matches_closed_form_linear_gain(self, x, sigma):
        grid = HypothesisGrid.uniform(-2, 2, 401)
        post = calibrated_posterior(x, sigma)
        estimate = information_gain(post, x, grid, 4096, seed=0)
        assert estimate == pytest.approx(closed_form_linear_gain(x, sigma), abs=0.1)

    def test_zero_prior_cells_stay_empty_under_extreme_draws(self):
        # a huge predictive variance forces outcome draws whose likelihood is
        # astronomically small everywhere; mass must not leak into cells the
        # prior rules out
        probs = np.zeros(101)
        probs[50] = 1.0
        grid = HypothesisGrid(np.linspace(-2, 2, 101), probs)
        post = GPPosterior(RBFKernel(1.0, 1e6), noise_variance=0.25)
        assert information_gain(post, 3.0, grid, 64, seed=0) == 0.0

    def test_common_random_numbers_are_deterministic(self):
        grid = HypothesisGrid.uniform(-2, 2, 201)
        post = calibrated_posterior(2.0, 0.5)
        a = information_gain(post, 2.0, grid, 64, seed=77)
        b = information_gain(post, 2.0, grid, 64, seed=77)
        assert a == b

    def test_rejects_tiny_sample_count(self):
        grid = HypothesisGrid.uniform(-2, 2, 11)
        with pytest.raises(ValueError):
            information_gain(calibrated_posterior(1.0, 0.5), 1.0, grid, 8, seed=0)


class TestTotalInformation:
    def test_two_bins(self):
        assert estimate_total_information(np.full(400, 1 / 400), 2.0, 4.0) == pytest.approx(1.0)

    def test_slope_task_width(self):
        got = estimate_total_information(np.full(401, 1 / 401), 0.1, 4.0)
        assert got == pytest.approx(math.log2(40.0), abs=1e-3)

    def test_nonuniform_prior_at_bin_resolution(self):
        assert estimate_total_information([0.5, 0.5, 0.0, 0.0], 1.0, 4.0) == pytest.approx(1.0)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            estimate_total_information(np.full(10, 0.1), 5.0, 4.0)


class TestErrorBounds:
    def test_monte_carlo_error_value(self):
        assert monte_carlo_error(1.0, 200, 0.05) == pytest.approx(0.09603227913199208, rel=1e-9)

    def test_monte_carlo_error_vanishes(self):
        assert monte_carlo_error(1.0, 10**12, 0.05) < 1e-5

    def test_monte_carlo_error_domain(self):
        with pytest.raises(ValueError):
            monte_carlo_error(1.0, 200, 0.0)
        with pytest.raises(ValueError):
            monte_carlo_error(1.0, 200, 1.0)


class TestAPrioriEstimate:
    def test_formula_chain(self):
        task = slope_task(0.5)
        report = a_priori_estimate(task, budget=100.0, seed=0)
        assert report.cost_predicted == pytest.approx(
            report.total_bits / report.step_bits * task.cost_per_action
        )
        assert report.predicted_steps == math.ceil(report.total_bits / report.step_bits)
        assert report.total_bits == pytest.approx(math.log2(40.0), abs=1e-3)

    def test_budget_below_cost_is_unsolvable(self):
        report = a_priori_estimate(slope_task(1.0), budget=1.0, seed=0)
        assert report.solvable is False

    def test_generous_budget_is_solvable(self):
        report = a_priori_estimate(slope_task(1.0), budget=1000.0, seed=0)
        assert report.solvable is True

    def test_steps_monotone_in_noise(self):
        steps = [
            a_priori_estimate(slope_task(s), budget=math.inf, seed=0).predicted_steps
            for s in (0.1, 0.5, 1.0)
        ]
        assert steps == sorted(steps)

    def test_deterministic_given_seed(self):
        a = a_priori_estimate(slope_task(0.5), budget=10.0, seed=3)
        b = a_priori_estimate(slope_task(0.5), budget=10.0, seed=3)
        assert a == b

    def test_vanishing_gain_yields_sentinel(self):
        # queries confined to x ~ 0 carry almost no information about the slope
        task = EstimationTask(
            action_low=-1e-9,
            action_high=1e-9,
            noise_variance=1.0,
            resolution=0.1,
        )
        report = a_priori_estimate(task, budget=1e12, seed=0)
        assert report.solvable is False
        assert report.cost_predicted == INFINITE_COST

    @pytest.mark.parametrize("sigma", [0.3, 3.0])
    def test_matches_quadrature_reference(self, sigma):
        task = slope_task(sigma, n_outcome_samples=2048)
        report = a_priori_estimate(task, budget=math.inf, seed=0)
        assert report.step_bits == pytest.approx(quadrature_step_bits(task), abs=0.02)

    def test_mc_error_is_hoeffding_at_total_bits(self):
        task = slope_task(0.5)
        report = a_priori_estimate(task, budget=math.inf, seed=0)
        assert report.mc_error_bits == monte_carlo_error(
            report.total_bits, task.n_outcome_samples, task.mc_delta
        )

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=5.0), st.integers(min_value=0, max_value=2**63))
    def test_step_bits_within_total(self, sigma, seed):
        report = a_priori_estimate(slope_task(sigma), budget=math.inf, seed=seed)
        assert 0.0 <= report.step_bits <= report.total_bits + 1e-9
