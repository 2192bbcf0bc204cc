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

Because every query is the same x, the posterior after n steps depends on
the observations only through their mean: it is the one-query posterior at
noise variance sigma^2 / n. The agent keeps that sufficient statistic, a
running sum per trial, and scores its grid posterior with the estimator's
own kernel, ``gp._grid_posteriors``; this module holds no likelihood
arithmetic of its own.

One engine runs the agent: ``_lockstep`` advances a batch of hidden slopes
that share a noise level, resolution and step cap together and drops each
slope when its trial finishes. Every slope does the arithmetic of a
one-trial loop and draws its noise from its own generator, so a trial's
trace does not depend on which trials share its batch. ``run_slope_agent``
is a batch of one.

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

from .gp import ACTION_DOMAIN, THETA_DOMAIN, EstimationTask, _grid_posteriors, a_priori_estimate
from .seeding import _mean_se, map_indexed, rng_for

#: Default noise levels for the sweep.
DEFAULT_NOISE_LEVELS = (0.1, 0.3, 1.0, 3.0)

_MIN_SIGMA = 1e-9

#: The agent's slope grid: the estimation pipeline's default hypothesis grid.
_GRID = np.linspace(*THETA_DOMAIN, EstimationTask.theta_grid_size)
# the gain grows with |x| while v > 0; each step follows a credible width > resolution > 0
_QUERY = max(ACTION_DOMAIN, key=abs)
#: Log of the agent's uniform prior, up to the constant the kernel's max shift removes.
_LOG_PRIOR = np.zeros(_GRID.size)
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

    Each slope keeps only the running sum of its observations. At step n
    the means and the grid's noiseless outcomes are divided by
    sigma * sqrt(2 / n) and scored by ``gp._grid_posteriors`` under a
    uniform prior; each row is normalised and its credible interval read
    off its cumsum. A slope drops out once its credible width reaches
    ``resolution``, or at ``step_cap``.

    Slope r's noise comes from ``rngs[r]`` alone, drawn NORMAL_ROUND normals
    at a time (fewer in the round that reaches ``step_cap``), so step t uses
    the t-th normal of its generator. A trial that stops inside a round
    leaves its generator past the normals it used.

    Returns (steps, completed, final_estimate): three arrays indexed by slope.
    """
    slopes = np.asarray(slopes, dtype=float)
    n = slopes.size
    grid_x = _GRID * _QUERY
    sigma = max(noise_sigma, _MIN_SIGMA)
    tail = (1.0 - CREDIBLE_MASS) / 2.0

    steps = np.empty(n, dtype=np.int64)
    completed = np.zeros(n, dtype=bool)
    estimate = np.empty(n)

    active = np.arange(n)  # slope index of each running slope
    sums = np.zeros(n)  # running sum of each slope's observations
    buf = np.empty((n, _GRID.size))
    done = 0
    while active.size:
        k = min(NORMAL_ROUND, step_cap - done)
        noise = np.empty((active.size, k))
        for row, i in enumerate(active):
            rngs[i].standard_normal(out=noise[row])
        ys = slopes[active, None] * _QUERY + noise_sigma * noise
        ys[:, 0] += sums[active]
        np.cumsum(ys, axis=1, out=ys)  # column j: the sum after step done + j + 1
        live = np.arange(active.size)  # round row of each running slope
        for j in range(k):
            seen = done + j + 1
            scale = sigma * math.sqrt(2.0 / seen)
            post = _grid_posteriors(
                _LOG_PRIOR, grid_x / scale, ys[live, j, None] / seen / scale, buf[: live.size]
            )
            post /= post.sum(axis=1, keepdims=True)
            cdf = np.cumsum(post, axis=1)
            # np.searchsorted(cdf_row, tail, side="left") for every row at once
            lo = (cdf < tail).sum(axis=1)
            hi = (cdf < 1.0 - tail).sum(axis=1)
            stop = _GRID[hi] - _GRID[lo] <= resolution
            ends = stop | (seen == step_cap)
            if ends.any():
                rows = np.flatnonzero(ends)
                ids = active[live[rows]]
                steps[ids] = seen
                completed[ids] = stop[rows]
                estimate[ids] = [post[r] @ _GRID for r in rows]
                live = live[~ends]
                if not live.size:
                    break
        sums[active[live]] = ys[live, -1]
        active = active[live]
        done += k
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
class SweepLevelRow:
    """Per-noise-level summary: prediction vs. measured mean steps.

    ``steps_predicted`` and ``gap`` are None at a level the estimator cannot
    price, where its per-step estimate is below ``gp.MIN_STEP_BITS``.
    """

    sigma: float
    steps_predicted: int | None
    steps_actual_mean: float
    steps_actual_se: float
    gap: float | None


@dataclass(frozen=True)
class SweepReport:
    """Per-level summaries, and the trials as one record array of ``_sweep_block`` rows."""

    levels: tuple[SweepLevelRow, ...]
    trials: np.recarray


def _sweep_block(
    flat_block: int,
    levels: tuple[float, ...],
    master_seed: int,
    resolution: float,
    step_cap: int,
    trials: int,
) -> np.recarray:
    """One block of one level's trials as a record array: a row per trial with
    the fields ``sigma``, ``trial``, ``steps_actual``, ``completed`` and
    ``final_error`` (the distance of the estimate from the hidden slope).
    The block is block b of level l for (l, b) = divmod(flat_block, blocks per level)."""
    level_index, block = divmod(flat_block, -(-trials // SWEEP_BLOCK))
    sigma = levels[level_index]
    ids = np.arange(block * SWEEP_BLOCK, min(trials, (block + 1) * SWEEP_BLOCK))
    rngs = [rng_for(master_seed, level_index, t) for t in ids.tolist()]
    slopes = np.array([rng.uniform(*THETA_DOMAIN) for rng in rngs])
    steps, completed, estimate = _lockstep(slopes, sigma, resolution, step_cap, rngs)
    return np.rec.fromarrays(
        (np.full(ids.size, sigma), ids, steps, completed, np.abs(estimate - slopes)),
        names="sigma,trial,steps_actual,completed,final_error",
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

    Each trial draws its own hidden slope uniformly from the slope domain,
    then its noise, from ``rng_for(master_seed, level, trial)``. Every
    level's estimate is computed first; then all levels' trials run in
    lockstep blocks of SWEEP_BLOCK through one ``map_indexed`` call, which
    ``workers`` may spread over processes; memory does not grow with
    ``step_cap``. A sweep that ``sweep_cell_steps`` prices above
    MAX_CELL_STEPS, or with a level whose estimation task is invalid, is
    refused before any estimate or trial runs.
    Capped (incomplete) runs contribute their step count at the cap, which
    only raises the measured mean and never hides a lower-bound violation.
    """
    levels = tuple(float(s) for s in noise_levels)
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
    reports = [a_priori_estimate(task, budget=math.inf, seed=master_seed) for task in tasks]

    fn = partial(
        _sweep_block,
        levels=levels,
        master_seed=master_seed,
        resolution=resolution,
        step_cap=step_cap,
        trials=trials_per_level,
    )
    n_blocks = len(levels) * -(-trials_per_level // SWEEP_BLOCK)
    trials = np.concatenate(map_indexed(fn, n_blocks, workers=workers)).view(np.recarray)
    steps = trials.steps_actual.reshape(len(levels), trials_per_level).astype(float)
    level_rows = []
    for sigma, report, level_steps in zip(levels, reports, steps):
        mean, se = _mean_se(level_steps)
        # 0 is a_priori_estimate's "no progress" sentinel, not a prediction
        predicted = report.predicted_steps or None
        level_rows.append(
            SweepLevelRow(
                sigma=sigma,
                steps_predicted=predicted,
                steps_actual_mean=mean,
                steps_actual_se=se,
                gap=None if predicted is None else mean - predicted,
            )
        )
    return SweepReport(levels=tuple(level_rows), trials=trials)
