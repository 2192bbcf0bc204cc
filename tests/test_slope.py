"""Slope-identification agent and the prediction-vs-reality noise sweep."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acp.slope
from acp import EstimationTask, SlopeTask, run_noise_sweep, run_slope_agent
from acp.gp import ACTION_DOMAIN, THETA_DOMAIN
from acp.slope import CREDIBLE_MASS, NORMAL_ROUND, AgentTrace, _could_stop, _lockstep
from acp.slope import DEFAULT_NOISE_LEVELS, MAX_CELL_STEPS, SWEEP_BLOCK, sweep_cell_steps


def _reference_run_slope_agent(task: SlopeTask, seed) -> AgentTrace:
    """The sequential Bayes agent: one step at a time, each observation's
    log-likelihood added to a running log-posterior. The oracle the engine's
    sufficient-statistic arithmetic must agree with."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(-2.0, 2.0, 401)
    sigma_eff = max(task.noise_sigma, 1e-9)
    x = -3.0
    tail = (1.0 - 0.95) / 2.0

    log_post = np.zeros(grid.size)
    probs = np.full(grid.size, 1.0 / grid.size)
    steps = 0
    completed = False
    for _ in range(task.step_cap):
        y = task.true_slope * x + task.noise_sigma * rng.standard_normal()
        log_post -= np.square(y - grid * x) / (2.0 * sigma_eff**2)
        log_post -= log_post.max()
        probs = np.exp(log_post)
        probs /= probs.sum()
        steps += 1
        cdf = np.cumsum(probs)
        lo = grid[int(np.searchsorted(cdf, tail, side="left"))]
        hi = grid[int(np.searchsorted(cdf, 1.0 - tail, side="left"))]
        if float(hi - lo) <= task.success_resolution:
            completed = True
            break
    return AgentTrace(steps=steps, final_estimate=float(probs @ grid), completed=completed)


def _reference_posterior(mean, n, sigma):
    """The engine's grid posterior after n steps whose observations average ``mean``."""
    grid = np.linspace(-2.0, 2.0, 401)
    scale = max(sigma, 1e-9) * math.sqrt(2.0 / n)
    x = -3.0
    log_post = -np.square(mean / scale - grid * x / scale)
    log_post -= log_post.max()
    probs = np.exp(log_post)
    probs /= probs.sum()
    return probs


def _credible_width(probs):
    """Width of the central 95% credible interval, read off the cumsum as the agent reads it."""
    grid = np.linspace(-2.0, 2.0, 401)
    tail = (1.0 - 0.95) / 2.0
    cdf = np.cumsum(probs)
    lo = grid[int(np.searchsorted(cdf, tail, side="left"))]
    hi = grid[int(np.searchsorted(cdf, 1.0 - tail, side="left"))]
    return float(hi - lo)


def _reference_mean_agent(task: SlopeTask, seed) -> AgentTrace:
    """The engine's arithmetic for one trial, one step at a time: the running
    sum of the observations, and at step n the posterior of their mean at
    scale sigma * sqrt(2 / n). The lockstep engine must equal it bit for bit."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(-2.0, 2.0, 401)
    x = -3.0

    total = 0.0
    for n in range(1, task.step_cap + 1):
        total += task.true_slope * x + task.noise_sigma * rng.standard_normal()
        probs = _reference_posterior(total / n, n, task.noise_sigma)
        if _credible_width(probs) <= task.success_resolution:
            return AgentTrace(steps=n, final_estimate=float(probs @ grid), completed=True)
    return AgentTrace(steps=task.step_cap, final_estimate=float(probs @ grid), completed=False)


class TestTaskValidation:
    def test_slope_must_be_in_domain(self):
        with pytest.raises(ValueError):
            SlopeTask(true_slope=2.5, noise_sigma=0.5)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SlopeTask(true_slope=1.0, noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SlopeTask(true_slope=1.0, noise_sigma=sigma)

    def test_resolution_must_fit_domain(self):
        with pytest.raises(ValueError):
            SlopeTask(true_slope=0.0, noise_sigma=0.5, success_resolution=5.0)


class TestAgent:
    def test_near_noiseless_finishes_fast(self):
        # at sigma = 0.01 a single boundary query pins the slope to the grid
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            task = SlopeTask(true_slope=float(rng.uniform(-2, 2)), noise_sigma=0.01)
            trace = run_slope_agent(task, seed)
            if trace.steps <= 3 and trace.completed:
                hits += 1
        assert hits >= 95

    def test_noise_free_single_step(self):
        trace = run_slope_agent(SlopeTask(true_slope=-0.7, noise_sigma=0.0), seed=0)
        assert trace.steps == 1
        assert trace.completed
        assert trace.final_estimate == pytest.approx(-0.7, abs=0.01)

    @settings(max_examples=25, deadline=None)
    @given(
        true_slope=st.floats(-2.0, 2.0),
        sigma=st.floats(0.0, 10.0),
        resolution=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_query_at_low_edge(self, true_slope, sigma, resolution, seed):
        # the query is the constant low edge (pinned by the reference); every run asks it at least once
        task = SlopeTask(true_slope=true_slope, noise_sigma=sigma, success_resolution=resolution)
        assert run_slope_agent(task, seed).steps >= 1

    def test_step_cap_flags_incomplete(self):
        trace = run_slope_agent(SlopeTask(true_slope=0.5, noise_sigma=3.0, step_cap=20), seed=2)
        assert trace.steps == 20
        assert not trace.completed

    def test_deterministic_given_seed(self):
        task = SlopeTask(true_slope=0.9, noise_sigma=0.7)
        assert run_slope_agent(task, seed=11) == run_slope_agent(task, seed=11)

    def test_calibration_of_completed_traces(self):
        # completed runs should place their estimate within the resolution
        ok = total = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            task = SlopeTask(true_slope=float(rng.uniform(-2, 2)), noise_sigma=0.3)
            trace = run_slope_agent(task, 1000 + seed)
            if trace.completed:
                total += 1
                ok += abs(trace.final_estimate - task.true_slope) <= task.success_resolution
        assert total > 0
        assert ok / total >= 0.90


class TestLockstepEngine:
    """The batched engine against the one-trial reference of its arithmetic, field for field."""

    @staticmethod
    def _check(slopes, sigma, resolution, step_cap, seeds):
        rngs = [np.random.default_rng(s) for s in seeds]
        traces = [
            AgentTrace(steps=int(s), final_estimate=float(e), completed=bool(c))
            for s, c, e in zip(*_lockstep(slopes, sigma, resolution, step_cap, rngs))
        ]
        tasks = [
            SlopeTask(true_slope=a, noise_sigma=sigma, success_resolution=resolution, step_cap=step_cap)
            for a in slopes
        ]
        assert traces == [_reference_mean_agent(t, s) for t, s in zip(tasks, seeds)]
        return traces

    @settings(max_examples=40, deadline=None)
    @given(
        slopes=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
        sigma=st.one_of(st.sampled_from([0.0, 1e-3, 0.1, 0.3, 1.0, 3.0, 10.0]), st.floats(0.0, 10.0)),
        resolution=st.floats(0.02, 1.0),
        step_cap=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(slopes=[0.5, -0.5], sigma=1.0, resolution=0.1, step_cap=1, seed=1)
    @example(slopes=[1.5, 0.0, -2.0, 0.7], sigma=3.0, resolution=0.1, step_cap=130, seed=2)
    def test_matches_reference(self, slopes, sigma, resolution, step_cap, seed):
        self._check(slopes, sigma, resolution, step_cap, [seed + i for i in range(len(slopes))])

    @settings(max_examples=25, deadline=None)
    @given(
        slopes=st.lists(
            st.one_of(st.floats(1.95, 2.0), st.floats(-2.0, -1.95), st.sampled_from([-2.0, 2.0]), st.floats(-2.0, 2.0)),
            min_size=1,
            max_size=4,
        ),
        sigma=st.sampled_from([0.3, 1.0, 3.0]),
        resolution=st.one_of(st.sampled_from([0.05, 0.1, 0.2]), st.floats(0.02, 1.0)),
        step_cap=st.integers(150, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(slopes=[2.0, -1.97, 0.4, -1.2], sigma=1.0, resolution=0.1, step_cap=400, seed=3)
    @example(slopes=[-2.0, 1.96, 1.99, -0.3], sigma=3.0, resolution=0.1, step_cap=2000, seed=5)
    def test_matches_reference_through_stops(self, slopes, sigma, resolution, step_cap, seed):
        # caps past where the rows stop (sigma = 1 stops near step 161, sigma = 3 near 1540),
        # slopes at and near the domain edges: the screen's boundary, where rows become candidates
        self._check(slopes, sigma, resolution, step_cap, [seed + i for i in range(len(slopes))])

    def test_noise_free_batch_finishes_at_step_one(self):
        traces = self._check([-0.7, 0.0, 1.9], 0.0, 0.1, 200, [4, 5, 6])
        assert [t.steps for t in traces] == [1, 1, 1]
        assert all(t.completed for t in traces)

    def test_batch_all_capped(self):
        traces = self._check([0.5, -1.5, 1.0], 3.0, 0.1, 70, [7, 8, 9])
        assert all(t.steps == 70 and not t.completed for t in traces)

    def test_mixed_batch_finishes_across_rounds(self):
        # at sigma = 1 the 20 trials stop at different steps, some after the first round of normals
        traces = self._check([0.2 * i - 2.0 for i in range(20)], 1.0, 0.1, 200, range(20))
        assert len({t.steps for t in traces}) > 5
        assert max(t.steps for t in traces) > NORMAL_ROUND

    def test_agrees_with_sequential_bayes(self):
        # the sufficient statistic changes no stop and moves no estimate past rounding
        for sigma, cap in [(0.0, 200), (0.05, 200), (0.3, 200), (1.0, 2000), (3.0, 2000), (5.0, 1500)]:
            rng = np.random.default_rng(int(sigma * 100))
            slopes = [-2.0, 2.0, *rng.uniform(-2.0, 2.0, 8).tolist()]
            seeds = range(10)
            found = _lockstep(slopes, sigma, 0.1, cap, [np.random.default_rng(s) for s in seeds])
            for a, seed, steps, completed, estimate in zip(slopes, seeds, *found):
                task = SlopeTask(true_slope=a, noise_sigma=sigma, step_cap=cap)
                oracle = _reference_run_slope_agent(task, seed)
                assert (steps, completed) == (oracle.steps, oracle.completed)
                assert estimate == pytest.approx(oracle.final_estimate, abs=1e-12, rel=0)

    def test_stops_around_round_end(self):
        # picked so that the trials stop one step before, at and after the end of the first round
        assert NORMAL_ROUND == 64
        traces = self._check([-1.34, -1.8, -1.94], 0.6, 0.1, 200, [33, 10, 3])
        assert [t.steps for t in traces] == [63, 64, 65]


class TestScreen:
    """``_could_stop`` on its own: a row it clears must not be able to stop."""

    @settings(max_examples=300, deadline=None)
    @given(
        mode=st.one_of(
            st.floats(-2.5, 2.5),
            st.sampled_from([-2.0, 2.0, -2.01, 2.01]),
            st.floats(1.9, 2.4),
            st.floats(-2.4, -1.9),
        ),
        n=st.integers(1, 5000),
        sigma=st.floats(0.0, 10.0),
        resolution=st.floats(0.02, 1.0),
    )
    # a mode outside the grid, cleared only by the edge rule's hazard bound
    @example(mode=2.339, n=10, sigma=1.0, resolution=0.1)
    @example(mode=-2.3, n=100, sigma=3.0, resolution=0.1)
    # rows that stop within the two cells of slack the screen allows; the last needs both cells
    @example(mode=2.03, n=100, sigma=1.0, resolution=0.05)
    @example(mode=1.98, n=500, sigma=1.0, resolution=0.05)
    @example(mode=1.9551497945953489, n=42, sigma=0.3, resolution=0.05)
    # a nearly flat posterior narrower than a wide resolution stops at once
    @example(mode=0.5, n=1, sigma=10.0, resolution=3.9)
    def test_cleared_rows_cannot_stop(self, mode, n, sigma, resolution):
        mean = mode * -3.0
        could = _could_stop(np.array([[mean]]), np.array([n]), max(sigma, 1e-9), resolution)
        if not could[0, 0]:
            assert _credible_width(_reference_posterior(mean, n, sigma)) > resolution

    def test_clears_rows_far_from_their_stop(self):
        # at sigma = 3, step 200 and resolution 0.1 no row inside the grid can stop yet,
        # while a mode far outside it can: its posterior piles up against the edge
        means = np.array([[-3.0 * m] for m in (0.0, 1.5, 1.99, 2.0, 2.02, 2.6)])
        could = _could_stop(means, np.array([200]), 3.0, 0.1)[:, 0]
        assert could.tolist() == [False, False, False, False, False, True]
        assert _credible_width(_reference_posterior(-3.0 * 2.6, 200, 3.0)) <= 0.1

    def test_mills_ratio_bounds(self):
        # the two bounds the screen's proof uses, against math.erfc, from x = 0 to where Q underflows
        for x in np.linspace(0.0, 37.0, 3701).tolist():
            q = 0.5 * math.erfc(x / math.sqrt(2.0))
            phi = math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
            assert q <= 2 * phi / (x + math.sqrt(x * x + 8 / math.pi)) * (1 + 1e-12)
            assert phi / q <= ((math.pi - 1) * x + math.sqrt(x * x + 2 * math.pi)) / math.pi * (1 + 1e-12)


@pytest.fixture(scope="module")
def small_sweep():
    return run_noise_sweep(noise_levels=(0.1, 1.0), trials_per_level=20, master_seed=0)


class TestNoiseSweep:
    def test_prediction_lower_bounds_measurement(self, small_sweep):
        for level in small_sweep.levels:
            assert level.steps_predicted <= level.steps_actual_mean + 2 * level.steps_actual_se

    def test_gap_grows_with_noise(self, small_sweep):
        assert small_sweep.levels[-1].gap >= small_sweep.levels[0].gap

    def test_mean_steps_nondecreasing_in_noise(self, small_sweep):
        lo, hi = small_sweep.levels
        assert hi.steps_actual_mean + 2 * hi.steps_actual_se >= lo.steps_actual_mean

    def test_rows_cover_all_trials(self, small_sweep):
        assert len(small_sweep.trials) == 40
        assert {t.sigma for t in small_sweep.trials} == {0.1, 1.0}

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            run_noise_sweep(noise_levels=(0.5,), trials_per_level=20)

    def test_rejects_few_trials(self):
        with pytest.raises(ValueError):
            run_noise_sweep(noise_levels=(0.5, 1.0), trials_per_level=5)

    def test_rejects_nonpositive_step_cap(self):
        with pytest.raises(ValueError, match="step_cap must be positive"):
            run_noise_sweep(noise_levels=(0.5, 1.0), trials_per_level=20, step_cap=0)

    def test_default_sweep_price(self):
        # levels x (trials x step cap x 401 grid cells + 64 draws x 61 actions x 401 cells)
        assert sweep_cell_steps(len(DEFAULT_NOISE_LEVELS), 50, 200) == 22_302_016

    def test_rejects_overpriced_sweep(self):
        # one step over the cap is refused before any level's estimate or trial runs
        estimates = sweep_cell_steps(2, 20, 0)
        per_step = sweep_cell_steps(2, 20, 1) - estimates
        step_cap = (MAX_CELL_STEPS - estimates) // per_step + 1
        assert sweep_cell_steps(2, 20, step_cap - 1) <= MAX_CELL_STEPS < sweep_cell_steps(2, 20, step_cap)
        with pytest.raises(ValueError, match="cell-steps, over the cap"):
            run_noise_sweep(noise_levels=(0.5, 1.0), trials_per_level=20, step_cap=step_cap)

    @pytest.mark.parametrize("levels", [(1e160, 1.0), (1.0, 1e160), (1.0, 1e-170)])
    def test_level_without_a_noise_variance_is_refused_first(self, monkeypatch, levels):
        # sigma^2 overflows to inf or underflows to 0: refused before any level's estimate runs
        def no_estimate(*args, **kwargs):
            raise AssertionError("ran an estimate before checking every level")

        monkeypatch.setattr("acp.slope.a_priori_estimate", no_estimate)
        with pytest.raises(ValueError, match="noise_variance must be positive and finite"):
            run_noise_sweep(noise_levels=levels, trials_per_level=20)

    def test_parallel_matches_serial(self):
        # two blocks per level, so the parallel run really starts a pool
        assert 26 > SWEEP_BLOCK
        serial = run_noise_sweep(noise_levels=(0.2, 0.6), trials_per_level=26, master_seed=4, workers=1)
        parallel = run_noise_sweep(noise_levels=(0.2, 0.6), trials_per_level=26, master_seed=4, workers=2)
        assert serial.levels == parallel.levels
        assert np.array_equal(serial.trials, parallel.trials)

    def test_one_job_map_per_sweep(self, monkeypatch):
        calls = []

        def counting_map(fn, n_items, workers=1):
            calls.append(n_items)
            return [fn(i) for i in range(n_items)]

        monkeypatch.setattr(acp.slope, "map_indexed", counting_map)
        report = run_noise_sweep(noise_levels=(0.2, 0.6, 1.0), trials_per_level=26, master_seed=4)
        # two blocks per level, every level's blocks in the one map
        assert calls == [3 * 2]
        assert report.trials.sigma.tolist() == [0.2] * 26 + [0.6] * 26 + [1.0] * 26
        assert report.trials.trial.tolist() == list(range(26)) * 3


class TestPredictionTask:
    def test_requires_positive_noise(self):
        with pytest.raises(ValueError):
            EstimationTask(noise_variance=0.0)

    def test_matches_slope_geometry(self):
        # the agent's geometry, hard-coded in the reference above, is the estimator's
        task = EstimationTask(noise_variance=0.5**2)
        assert THETA_DOMAIN == (-2.0, 2.0)
        assert max(ACTION_DOMAIN, key=abs) == -3.0
        assert task.theta_grid_size == 401
        assert CREDIBLE_MASS == 0.95
        assert task.noise_variance == pytest.approx(0.25)
