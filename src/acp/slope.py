"""Noisy slope identification with an exact Bayesian grid agent.

The task: an unknown slope a in [-2, 2] generates observations
y = a * x + Normal(0, sigma^2) at query points x in [-3, 3]. The agent keeps
a discrete posterior over a slope grid and stops once its central 95%
credible interval is narrower than the success resolution.

The query is the same at every step. Every query costs the same, so the
best information per unit cost is the best gain, and the Gaussian-channel
gain 0.5 * log2(1 + x^2 * v / sigma^2) grows with |x| while the posterior
variance v is positive. The agent therefore always queries the end of the
query domain with the largest |x|, -3 by default.

``run_noise_sweep`` pairs the agent's empirical step counts with the
a-priori predictions from the estimation pipeline, per noise level. The
point of the experiment is the lower-bound behaviour: predictions should
sit at or below the measured means, with the gap widening as noise makes
the task harder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gp import EstimationTask, a_priori_estimate
from .seeding import map_indexed, rng_for

#: Default noise levels for the sweep.
DEFAULT_NOISE_LEVELS = (0.1, 0.3, 1.0, 3.0)

_MIN_SIGMA = 1e-9


@dataclass(frozen=True)
class SlopeTask:
    """One identification problem: hidden slope, noise level, success rule.

    ``noise_sigma`` may be zero for the noise-free edge case; the posterior
    update then behaves as the limit of vanishing noise (all mass on the
    grid points closest to exact agreement).
    """

    true_slope: float
    noise_sigma: float
    slope_low: float = -2.0
    slope_high: float = 2.0
    query_low: float = -3.0
    query_high: float = 3.0
    success_resolution: float = 0.1
    slope_grid_size: int = 401
    step_cap: int = 200
    credible_mass: float = 0.95

    def __post_init__(self) -> None:
        if not self.slope_low <= self.true_slope <= self.slope_high:
            raise ValueError("true_slope must lie inside the slope domain")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        if not 0 < self.success_resolution < (self.slope_high - self.slope_low):
            raise ValueError("success_resolution must be inside the slope domain width")
        if self.step_cap < 1:
            raise ValueError("step_cap must be positive")
        if not 0 < self.credible_mass < 1:
            raise ValueError("credible_mass must lie in (0, 1)")


@dataclass(frozen=True)
class AgentTrace:
    """Record of one agent run. ``completed`` is False if the cap was hit."""

    queries: tuple[tuple[float, float], ...]
    steps: int
    final_estimate: float
    completed: bool

    def __post_init__(self) -> None:
        if self.steps != len(self.queries):
            raise ValueError("steps must equal the number of queries")


def _credible_width(grid: np.ndarray, probs: np.ndarray, mass: float) -> float:
    cdf = np.cumsum(probs)
    tail = (1.0 - mass) / 2.0
    lo = grid[int(np.searchsorted(cdf, tail, side="left"))]
    hi = grid[int(np.searchsorted(cdf, 1.0 - tail, side="left"))]
    return float(hi - lo)


def run_slope_agent(task: SlopeTask, seed) -> AgentTrace:
    """Run the Bayesian grid agent on one task. Deterministic given seed.

    Every step queries the end of the query domain with the largest |x|,
    ``query_low`` on a tie: with uniform costs that query has the largest
    Gaussian-channel gain 0.5 * log2(1 + x^2 * v / s^2), v being the
    posterior variance of the slope.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(task.slope_low, task.slope_high, task.slope_grid_size)
    sigma_eff = max(task.noise_sigma, _MIN_SIGMA)
    # the gain grows with |x| while v > 0; each step follows a credible width > resolution > 0
    x = float(max(task.query_low, task.query_high, key=abs))

    log_post = np.zeros(task.slope_grid_size)
    probs = np.full(task.slope_grid_size, 1.0 / task.slope_grid_size)
    queries: list[tuple[float, float]] = []
    completed = False

    for _ in range(task.step_cap):
        y = task.true_slope * x + task.noise_sigma * rng.standard_normal()
        log_post -= np.square(y - grid * x) / (2.0 * sigma_eff**2)
        log_post -= log_post.max()
        probs = np.exp(log_post)
        probs /= probs.sum()

        queries.append((x, float(y)))
        if _credible_width(grid, probs, task.credible_mass) <= task.success_resolution:
            completed = True
            break

    return AgentTrace(
        queries=tuple(queries),
        steps=len(queries),
        final_estimate=float(probs @ grid),
        completed=completed,
    )


@dataclass(frozen=True)
class SweepTrialRow:
    """Per-trial record of a noise sweep."""

    sigma: float
    trial: int
    steps_actual: int
    completed: bool
    final_error: float


@dataclass(frozen=True)
class SweepLevelRow:
    """Per-noise-level summary: prediction vs. measured mean steps."""

    sigma: float
    steps_predicted: int
    steps_actual_mean: float
    steps_actual_se: float
    gap: float


@dataclass(frozen=True)
class SweepReport:
    levels: tuple[SweepLevelRow, ...]
    trials: tuple[SweepTrialRow, ...]


def _one_sweep_trial(
    trial: int,
    sigma: float,
    level_index: int,
    master_seed: int,
    resolution: float,
    step_cap: int,
) -> SweepTrialRow:
    rng = rng_for(master_seed, level_index, trial)
    true_slope = float(rng.uniform(-2.0, 2.0))
    task = SlopeTask(
        true_slope=true_slope,
        noise_sigma=sigma,
        success_resolution=resolution,
        step_cap=step_cap,
    )
    trace = run_slope_agent(task, rng)
    return SweepTrialRow(
        sigma=sigma,
        trial=trial,
        steps_actual=trace.steps,
        completed=trace.completed,
        final_error=abs(trace.final_estimate - true_slope),
    )


def run_noise_sweep(
    noise_levels=DEFAULT_NOISE_LEVELS,
    trials_per_level: int = 50,
    master_seed: int = 0,
    resolution: float = 0.1,
    step_cap: int = 200,
    workers: int = 1,
) -> SweepReport:
    """Predicted vs. measured step counts across noise levels.

    Each trial draws its own hidden slope uniformly from the slope domain.
    Capped (incomplete) runs contribute their step count at the cap, which
    only raises the measured mean and never hides a lower-bound violation.
    """
    levels = [float(s) for s in noise_levels]
    if len(levels) < 2:
        raise ValueError("need at least two noise levels")
    if not all(0 < s < math.inf for s in levels):
        raise ValueError("noise levels must be positive and finite")
    if trials_per_level < 20:
        raise ValueError("trials_per_level must be at least 20")

    level_rows: list[SweepLevelRow] = []
    trial_rows: list[SweepTrialRow] = []
    for li, sigma in enumerate(levels):
        # EstimationTask's default domains are the slope task's
        task = EstimationTask(noise_variance=sigma**2, resolution=resolution)
        report = a_priori_estimate(task, budget=math.inf, seed=master_seed)
        fn = partial(
            _one_sweep_trial,
            sigma=sigma,
            level_index=li,
            master_seed=master_seed,
            resolution=resolution,
            step_cap=step_cap,
        )
        rows = map_indexed(fn, trials_per_level, workers=workers)
        steps = np.array([r.steps_actual for r in rows], dtype=float)
        mean = float(steps.mean())
        se = float(steps.std(ddof=1) / math.sqrt(trials_per_level))
        level_rows.append(
            SweepLevelRow(
                sigma=sigma,
                steps_predicted=report.predicted_steps,
                steps_actual_mean=mean,
                steps_actual_se=se,
                gap=mean - report.predicted_steps,
            )
        )
        trial_rows.extend(rows)
    return SweepReport(levels=tuple(level_rows), trials=tuple(trial_rows))
