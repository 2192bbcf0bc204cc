"""Noisy slope identification with an exact Bayesian grid agent.

The task: an unknown slope a in [-2, 2] generates observations
y = a * x + Normal(0, sigma^2) at query points x in [-3, 3]. The agent keeps
a discrete posterior over a slope grid and stops once its central 95%
credible interval is narrower than the success resolution.

The query is the same at every step. Every query costs the same, so the
best information per unit cost is the best gain, and the Gaussian-channel
gain 0.5 * log2(1 + x^2 * v / sigma^2) grows with |x| while the posterior
variance v is positive. The agent's query is therefore always the end of
the query domain with the largest |x|, -3.

The slope and query domains are the estimator's ``gp.THETA_DOMAIN`` and
``gp.ACTION_DOMAIN`` and the slope grid is its default hypothesis grid, the
geometry ``run_noise_sweep`` prices its predictions on, so the agent and its
prediction are stated once.

One engine runs the agent: ``_lockstep`` advances a batch of hidden slopes
that share a noise level, resolution and step cap together, one row of a
(trials, grid) log-posterior per slope, and drops each row when its trial
finishes. Every row does the arithmetic of a one-trial loop and every trial
draws its noise from its own generator, so a trial's trace does not depend
on which trials share its batch. ``run_slope_agent`` is a batch of one.

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

from .gp import ACTION_DOMAIN, THETA_DOMAIN, EstimationTask, a_priori_estimate
from .seeding import map_indexed, rng_for

#: Default noise levels for the sweep.
DEFAULT_NOISE_LEVELS = (0.1, 0.3, 1.0, 3.0)

_MIN_SIGMA = 1e-9

#: The agent's slope grid: the estimation pipeline's default hypothesis grid.
_GRID = np.linspace(*THETA_DOMAIN, EstimationTask.theta_grid_size)
# the gain grows with |x| while v > 0; each step follows a credible width > resolution > 0
_QUERY = max(ACTION_DOMAIN, key=abs)
#: Central posterior mass of the credible interval the agent stops on.
CREDIBLE_MASS = 0.95


@dataclass(frozen=True)
class SlopeTask:
    """One identification problem: hidden slope, noise level, success rule.

    ``noise_sigma`` may be zero for the noise-free edge case; the posterior
    update then behaves as the limit of vanishing noise (all mass on the
    grid points closest to exact agreement).
    """

    true_slope: float
    noise_sigma: float
    success_resolution: float = 0.1
    step_cap: int = 200

    def __post_init__(self) -> None:
        if not THETA_DOMAIN[0] <= self.true_slope <= THETA_DOMAIN[1]:
            raise ValueError("true_slope must lie inside the slope domain")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        if not 0 < self.success_resolution < THETA_DOMAIN[1] - THETA_DOMAIN[0]:
            raise ValueError("success_resolution must be inside the slope domain width")
        if self.step_cap < 1:
            raise ValueError("step_cap must be positive")


@dataclass(frozen=True)
class AgentTrace:
    """Record of one agent run. ``completed`` is False if the cap was hit."""

    steps: int
    final_estimate: float
    completed: bool


#: Normals each running trial draws per round of the lockstep engine.
NORMAL_ROUND = 64
#: Trials per block of the noise sweep; a constant, so --workers never changes a block.
SWEEP_BLOCK = 25
#: Most cell-steps one sweep may price: about 150 s at roughly 15 ns per
#: agent cell-step (an estimate's posterior cell costs under half that).
MAX_CELL_STEPS = 10**10


def sweep_cell_steps(n_levels: int, trials_per_level: int, step_cap: int) -> int:
    """The price of a noise sweep: per level, the agent's posterior cell updates
    if every trial runs to its cap, plus the level estimate's posterior cells."""
    estimate_cells = EstimationTask().posterior_cells
    return n_levels * (trials_per_level * step_cap * _GRID.size + estimate_cells)


def _lockstep(slopes, noise_sigma: float, resolution: float, step_cap: int, rngs):
    """Run the grid agent on the hidden ``slopes`` in lockstep.

    Row r of a (trials, grid) log-posterior is slope r's posterior; all rows
    take each step together and a row is dropped once its credible width
    reaches ``resolution``. Each row's arithmetic is the per-trial loop's:
    subtract the scaled squared residual, subtract the row max, exponentiate,
    normalise, then read the credible interval off the row's cumsum.

    Slope r's noise comes from ``rngs[r]`` alone, drawn NORMAL_ROUND normals
    at a time (fewer in the round that reaches ``step_cap``), so step t uses
    the t-th normal of its generator. A trial that stops inside a round
    leaves its generator past the normals it used.

    Returns (steps, completed, final_estimate): three arrays indexed by slope.
    """
    slopes = np.asarray(slopes, dtype=float)
    n = slopes.size
    grid_x = _GRID * _QUERY
    two_var = 2.0 * max(noise_sigma, _MIN_SIGMA) ** 2
    tail = (1.0 - CREDIBLE_MASS) / 2.0

    steps = np.full(n, step_cap)  # a row that never stops hits the cap
    completed = np.zeros(n, dtype=bool)
    estimate = np.empty(n)

    active = np.arange(n)  # slope index of each log_post row
    log_post = np.zeros((n, _GRID.size))
    done = 0
    while active.size and done < step_cap:
        k = min(NORMAL_ROUND, step_cap - done)
        noise = np.empty((active.size, k))
        for row, i in enumerate(active):
            rngs[i].standard_normal(out=noise[row])
        ys = slopes[active, None] * _QUERY + noise_sigma * noise
        live = np.arange(active.size)  # round row of each log_post row
        for j in range(k):
            log_post -= np.square(ys[live, j, None] - grid_x) / two_var
            log_post -= log_post.max(axis=1, keepdims=True)
            probs = np.exp(log_post)
            probs /= probs.sum(axis=1, keepdims=True)
            cdf = np.cumsum(probs, axis=1)
            # np.searchsorted(cdf_row, tail, side="left") for every row at once
            lo = (cdf < tail).sum(axis=1)
            hi = (cdf < 1.0 - tail).sum(axis=1)
            stop = _GRID[hi] - _GRID[lo] <= resolution
            if stop.any():
                ids = active[live[stop]]
                steps[ids] = done + j + 1
                completed[ids] = True
                estimate[ids] = [probs[r] @ _GRID for r in np.flatnonzero(stop)]
                keep = ~stop
                live, log_post, probs = live[keep], log_post[keep], probs[keep]
                if not live.size:
                    break
        active = active[live]
        done += k
    estimate[active] = [probs[r] @ _GRID for r in range(active.size)]
    return steps, completed, estimate


def run_slope_agent(task: SlopeTask, seed) -> AgentTrace:
    """Run the Bayesian grid agent on one task. Deterministic given seed.

    Every step's query is the end of the query domain with the largest |x|,
    the low end on a tie: with uniform costs that query has the largest
    Gaussian-channel gain 0.5 * log2(1 + x^2 * v / s^2), v being the
    posterior variance of the slope.

    This is a batch of one on the lockstep engine. Step t's noise is the
    t-th standard normal of ``np.random.default_rng(seed)``.
    """
    (steps,), (completed,), (estimate,) = _lockstep(
        [task.true_slope], task.noise_sigma, task.success_resolution, task.step_cap,
        [np.random.default_rng(seed)],
    )
    return AgentTrace(steps=int(steps), final_estimate=float(estimate), completed=bool(completed))


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


def _sweep_block(
    block: int,
    sigma: float,
    level_index: int,
    master_seed: int,
    resolution: float,
    step_cap: int,
    trials: int,
) -> list[SweepTrialRow]:
    ids = range(block * SWEEP_BLOCK, min(trials, (block + 1) * SWEEP_BLOCK))
    rngs = [rng_for(master_seed, level_index, t) for t in ids]
    slopes = [float(rng.uniform(*THETA_DOMAIN)) for rng in rngs]
    steps, completed, estimate = _lockstep(slopes, sigma, resolution, step_cap, rngs)
    return [
        SweepTrialRow(sigma=sigma, trial=t, steps_actual=s, completed=c, final_error=abs(e - a))
        for t, a, s, c, e in zip(ids, slopes, steps.tolist(), completed.tolist(), estimate.tolist())
    ]


def run_noise_sweep(
    noise_levels=DEFAULT_NOISE_LEVELS,
    trials_per_level: int = 50,
    master_seed: int = 0,
    resolution: float = 0.1,
    step_cap: int = 200,
    workers: int = 1,
) -> SweepReport:
    """Predicted vs. measured step counts across noise levels.

    Each trial draws its own hidden slope uniformly from the slope domain,
    then its noise, from ``rng_for(master_seed, level, trial)``. A level's
    trials run in lockstep blocks of SWEEP_BLOCK, which ``workers`` may
    spread over processes; memory does not grow with ``step_cap``. A sweep
    that ``sweep_cell_steps`` prices above MAX_CELL_STEPS, or with a level
    whose estimation task is invalid, is refused before any trial runs.
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
    if step_cap < 1:
        raise ValueError("step_cap must be positive")
    cell_steps = sweep_cell_steps(len(levels), trials_per_level, step_cap)
    if cell_steps > MAX_CELL_STEPS:
        raise ValueError(
            f"{len(levels)} levels x ({trials_per_level} trials x {step_cap} steps x {_GRID.size} "
            f"grid cells + one estimate) = {cell_steps:.3g} cell-steps, over the cap of "
            f"{MAX_CELL_STEPS:.0e} per sweep"
        )

    # float ** raises OverflowError; * gives inf, which the task refuses
    tasks = [EstimationTask(noise_variance=sigma * sigma, resolution=resolution) for sigma in levels]

    level_rows: list[SweepLevelRow] = []
    trial_rows: list[SweepTrialRow] = []
    for li, (sigma, task) in enumerate(zip(levels, tasks)):
        report = a_priori_estimate(task, budget=math.inf, seed=master_seed)
        fn = partial(
            _sweep_block,
            sigma=sigma,
            level_index=li,
            master_seed=master_seed,
            resolution=resolution,
            step_cap=step_cap,
            trials=trials_per_level,
        )
        n_blocks = -(-trials_per_level // SWEEP_BLOCK)
        rows = [row for block in map_indexed(fn, n_blocks, workers=workers) for row in block]
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
