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

Most steps of a trial cannot end it: the posterior is still wider than the
resolution. The engine scores a posterior only where a row can stop. From a
row's mean and step count alone, ``_could_stop`` bounds its credible width
from below (a proof in ``_lockstep``'s docstring), and a step runs the
kernel on the rows that bound leaves as candidates, skipping steps with
none; every row is still scored at its step cap. The sums, the noise and
each scored row's arithmetic are unchanged, so every trace is the one the
unscreened engine gives.

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
    if every trial runs to its cap, plus the level estimate's posterior cells.

    The price counts a full posterior for every trial at every step, an upper
    bound on what the screened engine scores, so what MAX_CELL_STEPS refuses
    does not depend on the screen."""
    estimate_cells = EstimationTask().posterior_cells
    return n_levels * (trials_per_level * step_cap * _GRID.size + estimate_cells)


def _could_stop(means: np.ndarray, seen: np.ndarray, sigma: float, resolution: float) -> np.ndarray:
    """The screen of ``_lockstep``: False where a row provably cannot stop.

    ``means`` holds each row's mean observation after each of k steps, an
    (rows, k) array, and ``seen`` those k step counts. Returns the (rows, k)
    mask of rows that may stop there; the bounds are derived in
    ``_lockstep``'s docstring.
    """
    h = (THETA_DOMAIN[1] - THETA_DOMAIN[0]) / (_GRID.size - 1)
    half = (THETA_DOMAIN[1] - THETA_DOMAIN[0]) / 2 + h
    eps = 1e-9
    with np.errstate(over="ignore"):
        s = sigma / (abs(_QUERY) * np.sqrt(seen))
        w = (resolution + 2 * h + 1e-12) / s
        far = np.exp(-0.5 * (half / s) ** 2)
        z = 2 * math.pi**2 * (s / h) ** 2
        alias = 2 * np.exp(-z) / -np.expm1(-z)
        # 2 Q(W/2), the mass outside the best window of width W
        centred = np.array([math.erfc(v / math.sqrt(8)) for v in w.tolist()])
        interior = centred - (1 - CREDIBLE_MASS) - CREDIBLE_MASS * far / 2 - alias / 20 - eps
        rho = (1 - CREDIBLE_MASS) + eps + CREDIBLE_MASS * far + alias / 10
        edge = (-np.log(rho) - w * w / 2) / w

        x = (np.abs(means / _QUERY - sum(THETA_DOMAIN) / 2) - half) / s
        inside = np.maximum(-x, 0.0)
        beyond = np.maximum(x, 0.0)
        q_bound = math.sqrt(2 / math.pi) * np.exp(-inside * inside / 2) / (
            inside + np.sqrt(inside * inside + 8 / math.pi)
        )
        hazard_bound = ((math.pi - 1) * beyond + np.sqrt(beyond * beyond + 2 * math.pi)) / math.pi
    return np.where(x <= -w / 2, CREDIBLE_MASS * q_bound >= interior, hazard_bound >= edge)


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

    Only candidate rows are scored. At the start of a round ``_could_stop``
    marks, from each row's mean after each step of the round, where the row
    could stop; a step scores its candidate rows, every running row at
    ``step_cap`` (for ``final_estimate``), and is skipped when there are
    none. A skipped posterior leaves nothing behind and a scored row's
    arithmetic does not depend on the other rows, so every trace is the
    unscreened engine's, provided the screen never clears a row that could
    stop. The proof that it does not follows.

    After n steps a row's posterior is g(t) = exp(-(t - m)^2 / (2 s^2))
    on the grid cells t_i = -2 + i h (h = 0.01, 401 cells), normalised,
    with m = ybar_n / -3 (-3 is the query) and s = sigma / (3 sqrt(n)). Let
    L = 2 + h, D = [-L, L], P the normal law N(m, s^2), Q the normal upper
    tail, phi its density, and r the resolution.

    1. A window holds 0.95. The stop reads cells lo..hi off the cumsum with
       at most 0.025 of the mass on either side, so those K = hi - lo + 1
       cells hold at least 0.95 of it, with (K - 1) h <= r. Then so does a
       K-window of largest mass. Sliding a window towards the mode never
       loses mass, so that window has m in J = [t_lo - h, t_hi + h], or,
       when |m| > L, lies flush with the nearer end of the grid.
    2. From cells to integrals. On either side of m, g is monotone, so a
       cell outside the window carries at least the integral of g over the
       cell-width interval beside it on the side away from m: h times the
       mass outside the window is at least the integral of g over D minus J.
       By Poisson summation the sum of g over the whole lattice {-2 + i h}
       is s sqrt(2 pi) / h times 1 +- eta, eta = 2 e^-z / (1 - e^-z),
       z = 2 pi^2 s^2 / h^2. Lattice points outside the window, in or
       beyond the grid, are bounded below the same way, so h times the
       window's mass is at most the integral over J plus eta s sqrt(2 pi).
       (When |m| > L every cell rises towards m: the window is at most the
       integral over J, with no eta.) Dividing by s sqrt(2 pi), a stop needs
       P(J) >= 0.95 P(D) - eta / 20, J an interval in D of width
       (K + 1) h <= r + 2h.
    3. Normal bounds. Measure in units of s from m: W = (r + 2h) / s and
       x = (|m| - L) / s, how far m lies beyond the nearer end of D. Then
       P(D) >= Q(x) - Q(x + 2L/s), and Q(x + 2L/s) <= Q(L/s) <= f / 2 with
       f = exp(-L^2 / (2 s^2)). Two cases:
       - x <= -W/2: the centred window is best, P(J) <= 1 - 2 Q(W/2), and
         Q(x) = 1 - Q(-x). A stop needs
         0.95 Q(-x) >= 2 Q(W/2) - 0.05 - 0.95 f / 2 - eta / 20.
       - x > -W/2: the window flush with the near end is best,
         P(J) <= Q(x) - Q(x + W). Divided by Q(x) (at least 1/2 for
         x <= 0; for x > 0 there is no eta and Q(x + 2L/s) / Q(x) <=
         exp(-2 L^2 / s^2) <= f), a stop needs
         Q(x + W) / Q(x) <= rho = 0.05 + 0.95 f + eta / 10. Now
         Q(x + W) / Q(x) = E[exp(-W U - W^2 / 2) | U > x] for U normal, and
         by Jensen that is at least exp(-W lambda(x) - W^2 / 2), where
         lambda = phi / Q is the normal hazard. A stop needs
         lambda(x) >= (-ln rho - W^2 / 2) / W.
       The screen replaces Q(y), y >= 0, by its upper bound
       2 phi(y) / (y + sqrt(y^2 + 8 / pi)), and lambda(x) by its upper
       bound (pi - 1) x + sqrt(x^2 + 2 pi), over pi, at max(x, 0) (lambda
       rises, and lambda(0) is that bound). Both Mills-ratio bounds are
       equalities at 0; ``test_mills_ratio_bounds`` checks them.
    4. Rounding. Grid values are within 1e-15 of the lattice and the
       kernel's exp, normalisation and cumsum are exact to about 1e-12 in
       mass. The screen clears rows only where W < 3.92 (so s > 0.005),
       where those errors move a window's mass by under 1e-10; it allows
       1e-9 in mass and 1e-12 in width.

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
        seen_k = np.arange(done + 1, done + k + 1)
        could = _could_stop(ys / seen_k, seen_k, sigma, resolution)
        if done + k == step_cap:
            could[:, -1] = True
        live = np.arange(active.size)  # round row of each running slope
        for j in np.flatnonzero(could.any(axis=0)).tolist():
            rows = live[could[live, j]]  # round rows scored at this step
            if not rows.size:
                continue
            seen = done + j + 1
            scale = sigma * math.sqrt(2.0 / seen)
            post = _grid_posteriors(
                _LOG_PRIOR, grid_x / scale, ys[rows, j, None] / seen / scale, buf[: rows.size]
            )
            post /= post.sum(axis=1, keepdims=True)
            cdf = np.cumsum(post, axis=1)
            # np.searchsorted(cdf_row, tail, side="left") for every row at once
            lo = (cdf < tail).sum(axis=1)
            hi = (cdf < 1.0 - tail).sum(axis=1)
            stop = _GRID[hi] - _GRID[lo] <= resolution
            ends = stop | (seen == step_cap)
            if ends.any():
                ended = np.flatnonzero(ends)
                ids = active[rows[ended]]
                steps[ids] = seen
                completed[ids] = stop[ended]
                estimate[ids] = [post[r] @ _GRID for r in ended]
                live = np.setdiff1d(live, rows[ended], assume_unique=True)
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
