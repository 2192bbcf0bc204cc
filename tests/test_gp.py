"""GP posterior, information-gain estimation, and the a-priori pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from acp import gp
from acp.gp import ACTION_GRID, MC_DELTA, THETA_DOMAIN, TOP_FRACTION
from acp.info import entropy_bits

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
    n_bins = round((THETA_DOMAIN[1] - THETA_DOMAIN[0]) / task.resolution)
    onehot = np.zeros((theta.size, n_bins))
    onehot[np.arange(theta.size), (np.arange(theta.size) * n_bins) // theta.size] = 1.0

    def bits(masses):
        logs = np.log2(masses, out=np.zeros_like(masses), where=masses > 0)
        return -(masses * logs).sum(axis=-1)

    total = bits(prior @ onehot)
    gains = []
    for x in ACTION_GRID:
        mean = theta * x
        y = np.arange(mean.min() - 9 * sigma, mean.max() + 9 * sigma, sigma / 4)
        joint = np.exp(-((y[:, None] - mean[None, :]) ** 2) / (2 * sigma**2)) * prior
        marginal = joint.sum(axis=1)
        weights = marginal / marginal.sum()
        gains.append(total - weights @ bits((joint / marginal[:, None]) @ onehot))
    n_top = math.ceil(TOP_FRACTION * len(gains))
    return float(np.mean(sorted(gains)[-n_top:]))


def _estimator_draws(task: EstimationTask, seed):
    """Total bits, log prior, bin starts, grid values and the (theta, noise)
    draws of ``_action_gains``, rebuilt without the package's helpers."""
    grid = task.hypothesis_grid()
    width = THETA_DOMAIN[1] - THETA_DOMAIN[0]
    total_bits = estimate_total_information(grid.probabilities, task.resolution, width)
    rng = np.random.default_rng(seed)
    thetas = rng.choice(grid.values, size=task.n_outcome_samples, p=grid.probabilities)
    noise = math.sqrt(task.noise_variance) * rng.standard_normal(task.n_outcome_samples)
    with np.errstate(divide="ignore"):
        log_prior = np.where(grid.probabilities > 0, np.log(grid.probabilities.clip(min=1e-300)), -np.inf)
    n = grid.values.size
    n_bins = max(1, int(round(width / task.resolution)))
    starts = np.flatnonzero(np.diff((np.arange(n) * n_bins) // n, prepend=-1))
    return total_bits, log_prior, starts, grid.values, thetas, noise


def _unnormalised_posteriors(log_prior, predicted, outcomes) -> np.ndarray:
    """exp(log prior - squared residual) for every (outcome, cell), each row
    scaled to a largest cell of 1; ``predicted`` and ``outcomes`` come divided
    by sqrt(2 * noise variance)."""
    post = outcomes[:, None] - predicted[None, :]
    with np.errstate(over="ignore"):
        np.square(post, out=post)
    post = log_prior - post
    post -= post.max(axis=1, keepdims=True)
    return np.exp(post)


def _reference_step_gains(task: EstimationTask, seed) -> tuple[float, np.ndarray]:
    """Total bits and the 61 action gains, every draw of an action in one
    (draws, cells) matrix: the reference the blocked estimator must equal bit
    for bit."""
    total_bits, log_prior, starts, values, thetas, noise = _estimator_draws(task, seed)
    scale = math.sqrt(2.0 * task.noise_variance)
    gains = np.empty(ACTION_GRID.size)
    for i, x in enumerate(ACTION_GRID):
        post = _unnormalised_posteriors(log_prior, values * x / scale, (thetas * x + noise) / scale)
        bins = np.add.reduceat(post, starts, axis=-1)
        bins /= bins.sum(axis=1, keepdims=True)
        gains[i] = total_bits - entropy_bits(bins, axis=1).mean()
    return total_bits, gains


def _cell_normalised_step_gains(task: EstimationTask, seed) -> np.ndarray:
    """The 61 action gains in textbook order: each squared residual divided
    by -2 sigma^2 and every cell normalised before binning. The estimator,
    which scales residuals first and normalises bins, must stay within
    1e-12 bits of it."""
    total_bits, log_prior, starts, values, thetas, noise = _estimator_draws(task, seed)
    gains = np.empty(ACTION_GRID.size)
    for i, x in enumerate(ACTION_GRID):
        post = (thetas * x + noise)[:, None] - (values * x)[None, :]
        np.square(post, out=post)
        post /= -2.0 * task.noise_variance
        post += log_prior
        post -= post.max(axis=1, keepdims=True)
        np.exp(post, out=post)
        post /= post.sum(axis=1, keepdims=True)
        gains[i] = total_bits - entropy_bits(np.add.reduceat(post, starts, axis=-1), axis=1).mean()
    return gains


def _reference_information_gain(posterior, action, grid, n_outcome_samples=64, seed=0) -> float:
    """``information_gain`` scoring every draw's posterior in one (draws, cells)
    matrix: the reference the blocked kernel must equal bit for bit."""
    if n_outcome_samples < 16:
        raise ValueError("n_outcome_samples must be at least 16")
    rng = np.random.default_rng(seed)
    prior_bits = grid.prior_entropy()
    mean_y, var_y = posterior.predictive_y(action)
    draws = mean_y + math.sqrt(var_y) * rng.standard_normal(n_outcome_samples)
    with np.errstate(divide="ignore"):
        log_prior = np.where(grid.probabilities > 0, np.log(grid.probabilities.clip(min=1e-300)), -np.inf)
    scale = math.sqrt(2.0 * posterior.noise_variance)
    post = _unnormalised_posteriors(log_prior, grid.values * action / scale, draws / scale)
    post /= post.sum(axis=-1, keepdims=True)
    mean_posterior_bits = float(entropy_bits(post, axis=1).mean())
    gain = prior_bits - mean_posterior_bits
    return float(min(max(gain, 0.0), prior_bits))


def _draws_near_block_edges(draw, size: int, most: int) -> int:
    """A draw count in [16, most], often one off a multiple of a block's rows."""
    rows = max(1, gp.BLOCK_CELLS // size)
    # rows draws fill one block exactly; rows + 1 spill one draw into a second
    edge = draw(st.sampled_from([rows, 2 * rows]))
    n_draws = draw(st.integers(16, most) | st.sampled_from([edge - 1, edge, edge + 1]))
    return min(max(n_draws, 16), most)


@st.composite
def _gain_queries(draw):
    """(posterior, action, grid, draws) whose draw counts cluster at block edges."""
    size = draw(st.integers(min_value=2, max_value=4000))
    grid = HypothesisGrid.uniform(-2, 2, size)
    if draw(st.booleans()):
        # a prior with zero-mass cells, which must stay empty
        probs = np.where(np.arange(size) % 3 == 0, 0.0, 1.0)
        grid = HypothesisGrid(grid.values, probs / probs.sum())
    posterior = GPPosterior(
        RBFKernel(1.0, 10.0 ** draw(st.floats(-4.0, 4.0))), noise_variance=10.0 ** draw(st.floats(-6.0, 6.0))
    )
    action = draw(st.floats(-3.0, 3.0))
    # at most 2 * 10^6 draw-cells keeps an example well under a second
    n_draws = _draws_near_block_edges(draw, size, min(3000, 2 * 10**6 // size))
    return posterior, action, grid, n_draws


@st.composite
def _blocked_tasks(draw) -> EstimationTask:
    """Tasks whose draw counts cluster around the estimator's block edges."""
    size = draw(st.integers(min_value=40, max_value=2000))
    # at most 10^6 draw-cells per action keeps an example near a second
    return EstimationTask(
        noise_variance=10.0 ** draw(st.floats(-6.0, 6.0)),
        resolution=draw(st.sampled_from([0.1, 0.15, 0.3, 0.5, 1.0, 2.5])),
        theta_grid_size=size,
        n_outcome_samples=_draws_near_block_edges(draw, size, min(3000, 10**6 // size)),
    )


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

    @settings(max_examples=40, deadline=None)
    @given(query=_gain_queries(), seed=st.integers(min_value=0, max_value=2**32))
    # a grid row larger than a whole block
    @example(
        query=(calibrated_posterior(1.0, 0.5), 1.0, HypothesisGrid.uniform(-2, 2, gp.BLOCK_CELLS + 1), 16), seed=5
    )
    def test_equals_reference_bit_for_bit(self, query, seed):
        posterior, action, grid, n_draws = query
        got = information_gain(posterior, action, grid, n_draws, seed=seed)
        assert got == _reference_information_gain(posterior, action, grid, n_draws, seed=seed)

    def test_memory_is_linear_in_draws(self):
        # the whole (draws, cells) posterior would take 64 MB here
        grid = HypothesisGrid.uniform(-2, 2, 401)
        posterior = calibrated_posterior(-3.0, 1.0)
        tracemalloc.start()
        try:
            information_gain(posterior, -3.0, grid, 20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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

    @pytest.mark.parametrize("resolution", [2.7, 3.0, 3.99])
    def test_rejects_one_bin_resolution(self, resolution):
        # round(4 / r) = 1 bin priced -3.2e-16 bits at r = 3 before it was refused
        with pytest.raises(ValueError, match="leaves one bin"):
            estimate_total_information(np.full(401, 1 / 401), resolution, 4.0)


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
        # every action costs 1
        assert report.cost_predicted == pytest.approx(report.total_bits / report.step_bits)
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
        # under overwhelming noise no query carries information about the slope
        task = EstimationTask(noise_variance=1e12, resolution=0.1)
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
            report.total_bits, task.n_outcome_samples, MC_DELTA
        )

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=5.0), st.integers(min_value=0, max_value=2**63))
    def test_step_bits_within_total(self, sigma, seed):
        report = a_priori_estimate(slope_task(sigma), budget=math.inf, seed=seed)
        assert 0.0 <= report.step_bits <= report.total_bits + 1e-9


class TestBlockedEstimator:
    @settings(max_examples=25, deadline=None)
    @given(task=_blocked_tasks(), seed=st.integers(min_value=0, max_value=2**32))
    # a grid row larger than a whole block
    @example(task=EstimationTask(theta_grid_size=gp.BLOCK_CELLS + 1, n_outcome_samples=16), seed=5)
    def test_gains_equal_reference_bit_for_bit(self, task, seed):
        total_bits, gains = gp._action_gains(task, seed)
        ref_bits, ref_gains = _reference_step_gains(task, seed)
        assert total_bits == ref_bits
        assert np.array_equal(gains, ref_gains)

    @settings(max_examples=25, deadline=None)
    @given(task=_blocked_tasks(), seed=st.integers(min_value=0, max_value=2**32))
    def test_gains_match_cell_normalised_arithmetic(self, task, seed):
        # scaling residuals once and normalising bins, not cells, moves no gain by 1e-12 bits
        _, gains = gp._action_gains(task, seed)
        assert np.abs(gains - _cell_normalised_step_gains(task, seed)).max() <= 1e-12

    def test_memory_is_linear_in_draws(self):
        # one action's full outcome-by-cell matrix would take 16 MB here
        task = EstimationTask(n_outcome_samples=20_000, theta_grid_size=101)
        tracemalloc.start()
        try:
            a_priori_estimate(task, budget=math.inf, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_work_cap_is_exact(self):
        # 409 836 x 61 x 400 = 9 999 998 400 posterior cells, just under 10^10
        EstimationTask(n_outcome_samples=409_836, theta_grid_size=400)
        with pytest.raises(ValueError, match="posterior cells"):
            EstimationTask(n_outcome_samples=409_837, theta_grid_size=400)

    def test_bin_checks_fire_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew outcomes before checking the bins")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="fewer than the 40 requested bins"):
            a_priori_estimate(EstimationTask(theta_grid_size=39), budget=1.0)

    @pytest.mark.parametrize("resolution", [2.7, 3.0, 3.99])
    def test_one_bin_resolution_is_refused(self, resolution):
        # round(4 / r) = 1 bin would price -3e-16 bits; the smallest resolution of two bins still builds
        with pytest.raises(ValueError, match=f"resolution {resolution:g} leaves one bin"):
            EstimationTask(resolution=resolution)
        assert round(4.0 / 2.6) == 2
        EstimationTask(resolution=2.6)
