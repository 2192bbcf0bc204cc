"""Slope-identification agent and the prediction-vs-reality noise sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acp import EstimationTask, SlopeTask, run_noise_sweep, run_slope_agent


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

    def test_first_query_at_domain_edge(self):
        for sigma in (0.1, 1.0, 3.0):
            trace = run_slope_agent(SlopeTask(true_slope=0.3, noise_sigma=sigma), seed=1)
            assert abs(trace.queries[0][0]) == 3.0
            assert all(x == -3.0 for x, _ in trace.queries)

    @settings(max_examples=25, deadline=None)
    @given(
        true_slope=st.floats(-2.0, 2.0),
        sigma=st.floats(0.0, 10.0),
        resolution=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_query_at_low_edge(self, true_slope, sigma, resolution, seed):
        task = SlopeTask(true_slope=true_slope, noise_sigma=sigma, success_resolution=resolution)
        trace = run_slope_agent(task, seed)
        assert trace.steps >= 1
        assert all(x == -3.0 for x, _ in trace.queries)

    def test_step_cap_flags_incomplete(self):
        trace = run_slope_agent(SlopeTask(true_slope=0.5, noise_sigma=3.0, step_cap=20), seed=2)
        assert trace.steps == 20
        assert not trace.completed

    def test_trace_consistency(self):
        trace = run_slope_agent(SlopeTask(true_slope=1.2, noise_sigma=0.5), seed=3)
        assert trace.steps == len(trace.queries)
        xs = [q[0] for q in trace.queries]
        assert all(-3.0 <= x <= 3.0 for x in xs)

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

    def test_parallel_matches_serial(self):
        serial = run_noise_sweep(noise_levels=(0.2, 0.6), trials_per_level=20, master_seed=4, workers=1)
        parallel = run_noise_sweep(noise_levels=(0.2, 0.6), trials_per_level=20, master_seed=4, workers=2)
        assert serial == parallel


class TestPredictionTask:
    def test_requires_positive_noise(self):
        with pytest.raises(ValueError):
            EstimationTask(noise_variance=0.0)

    def test_matches_slope_geometry(self):
        # run_noise_sweep predicts with EstimationTask's default domains
        slope = SlopeTask(true_slope=0.0, noise_sigma=0.5)
        task = EstimationTask(noise_variance=0.5**2)
        assert (task.theta_low, task.theta_high) == (slope.slope_low, slope.slope_high) == (-2.0, 2.0)
        assert (task.action_low, task.action_high) == (slope.query_low, slope.query_high) == (-3.0, 3.0)
        assert task.theta_grid_size == slope.slope_grid_size
        assert task.noise_variance == pytest.approx(0.25)
