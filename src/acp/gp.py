"""1D Gaussian-process surrogate and a-priori search-cost estimation.

The estimation pipeline sizes up a task before any real query is spent:

  1. price the initial uncertainty in bits, over bins of the requested
     resolution on the hypothesis grid,
  2. estimate the information yield of each candidate action by drawing
     (hypothesis, outcome) pairs from the grid's own predictive, re-scoring
     the grid posterior and coarsening it to the same bins,
  3. divide total bits by per-step bits and multiply by the cost per action.

One error source is tracked explicitly: Monte Carlo noise in the gain
estimates, as a Hoeffding deviation bound. It is folded into a first-order
margin on the predicted cost, and the solvability verdict requires the
budget to cover cost plus margin.

``GPPosterior`` and ``information_gain`` keep a GP prior-predictive
surrogate for gain-oracle checks against the closed-form linear gain; the
estimator itself does not use them.

Hypotheses are discretized to an explicit grid, so every entropy here is a
discrete Shannon entropy in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import INFINITE_COST, effective_cost, entropy_bits, solvability_verdict

#: Per-step gains below this are treated as "no progress": the task is
#: reported unsolvable instead of dividing by a vanishing estimate.
MIN_STEP_BITS = 1e-6


@dataclass(frozen=True)
class RBFKernel:
    """Squared-exponential covariance k(a, b) = s2 * exp(-(a-b)^2 / (2 l^2)).

    The prior predictive reads only the signal variance s2, the value of
    k(x, x) at every input.
    """

    lengthscale: float
    signal_variance: float

    def __post_init__(self) -> None:
        if not self.lengthscale > 0:
            raise ValueError("lengthscale must be positive")
        if not self.signal_variance > 0:
            raise ValueError("signal_variance must be positive")


class GPPosterior:
    """Gaussian-process prior predictive over a 1D input.

    The latent function has mean 0 and the kernel's signal variance at every
    input; a noisy observation adds ``noise_variance`` on top.
    """

    def __init__(self, kernel: RBFKernel, noise_variance: float) -> None:
        if not noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)

    def predictive_y(self, x: float) -> tuple[float, float]:
        """Mean and variance of a noisy observation at x: (0, signal + noise variance)."""
        return 0.0, self.kernel.signal_variance + self.noise_variance


@dataclass(frozen=True)
class HypothesisGrid:
    """Discrete hypothesis set: grid values and their masses.

    Hypothesis theta answers action x with the noiseless outcome theta * x;
    observation noise is Gaussian with the posterior's noise variance.
    """

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probabilities must be 1D arrays of the same length")
        if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be non-negative and sum to 1")
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def uniform(cls, low: float, high: float, size: int) -> "HypothesisGrid":
        if size < 2 or not high > low:
            raise ValueError("need at least two grid points over a nonempty interval")
        return cls(np.linspace(low, high, size), np.full(size, 1.0 / size))

    def prior_entropy(self) -> float:
        return float(entropy_bits(self.probabilities))


def _grid_posteriors(
    grid: HypothesisGrid, predicted: np.ndarray, outcomes: np.ndarray, noise_variance: float
) -> np.ndarray:
    """Grid posterior after each outcome, one row per outcome.

    ``predicted`` holds each cell's noiseless outcome; the observation noise
    is Gaussian with ``noise_variance``.
    """
    # zero-prior cells must stay at zero mass no matter how extreme the outcome
    with np.errstate(divide="ignore"):
        log_prior = np.where(grid.probabilities > 0, np.log(grid.probabilities.clip(min=1e-300)), -np.inf)
    # one outcome-by-cell buffer, updated in place from log-posterior to posterior
    post = outcomes[:, None] - predicted[None, :]
    np.square(post, out=post)
    post /= -2.0 * noise_variance
    post += log_prior
    post -= post.max(axis=1, keepdims=True)
    np.exp(post, out=post)
    post /= post.sum(axis=1, keepdims=True)
    return post


def information_gain(
    posterior: GPPosterior,
    action: float,
    grid: HypothesisGrid,
    n_outcome_samples: int = 64,
    seed=0,
) -> float:
    """Monte Carlo estimate of the expected entropy drop from one query.

    Outcomes are sampled from the GP predictive at ``action``; for each
    sample the grid posterior is recomputed under the Gaussian observation
    model and its entropy recorded. The estimate (prior entropy minus mean
    posterior entropy) is clamped into [0, prior entropy], since sampling
    noise can push the raw value slightly outside.

    Passing the same seed for different actions reuses the same standard
    normal draws (common random numbers), which sharpens comparisons
    between actions.
    """
    if n_outcome_samples < 16:
        raise ValueError("n_outcome_samples must be at least 16")
    rng = np.random.default_rng(seed)
    prior_bits = grid.prior_entropy()
    mean_y, var_y = posterior.predictive_y(action)
    draws = mean_y + math.sqrt(var_y) * rng.standard_normal(n_outcome_samples)
    post = _grid_posteriors(grid, grid.values * action, draws, posterior.noise_variance)
    mean_posterior_bits = float(entropy_bits(post, axis=1).mean())
    gain = prior_bits - mean_posterior_bits
    return float(min(max(gain, 0.0), prior_bits))


def _bin_masses(probs: np.ndarray, resolution: float, domain_width: float) -> np.ndarray:
    """Sum equal-width cells (last axis, in order) into bins of width ``resolution``."""
    if not 0 < resolution < domain_width:
        raise ValueError("resolution must lie strictly between 0 and domain_width")
    n_bins = max(1, int(round(domain_width / resolution)))
    n = probs.shape[-1]
    if n < n_bins:
        raise ValueError(f"prior has {n} cells, fewer than the {n_bins} requested bins")
    # with at least one cell per bin, every bin starts at some cell
    bin_index = (np.arange(n) * n_bins) // n
    starts = np.flatnonzero(np.diff(bin_index, prepend=-1))
    return np.add.reduceat(probs, starts, axis=-1)


def estimate_total_information(prior_probs, resolution: float, domain_width: float) -> float:
    """Bits needed to localize a hypothesis to ``resolution`` under the prior.

    ``prior_probs`` holds the prior masses of equal-width cells spanning the
    domain, in order. They are coarsened to bins of the requested width and
    the entropy of the bin masses returned; a uniform prior gives
    log2(width / resolution).
    """
    return float(entropy_bits(_bin_masses(np.asarray(prior_probs, dtype=float), resolution, domain_width)))


def monte_carlo_error(gain_ceiling: float, n_samples: int, delta: float) -> float:
    """Hoeffding bound on the gain-estimate deviation, in bits.

    With per-sample gains in [0, gain_ceiling] and ``n_samples`` averaged
    samples, the estimate is within this bound of its mean with probability
    at least 1 - delta:  gain_ceiling * sqrt(ln(2/delta) / (2 n)).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if gain_ceiling < 0:
        raise ValueError("gain_ceiling must be non-negative")
    return gain_ceiling * math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


@dataclass(frozen=True)
class EstimationTask:
    """Configuration of a 1D identification task for cost estimation.

    The hypothesis lives on [theta_low, theta_high], queries on
    [action_low, action_high]; observations are theta * action plus
    Gaussian noise. ``resolution`` defines when the hypothesis counts
    as identified. ``top_fraction`` controls how many of the best actions
    are averaged into the per-step gain.
    """

    theta_low: float = -2.0
    theta_high: float = 2.0
    action_low: float = -3.0
    action_high: float = 3.0
    noise_variance: float = 0.25
    resolution: float = 0.1
    cost_per_action: float = 1.0
    theta_grid_size: int = 401
    action_grid_size: int = 61
    top_fraction: float = 0.25
    n_outcome_samples: int = 64
    mc_delta: float = 0.05

    def __post_init__(self) -> None:
        if not self.theta_high > self.theta_low:
            raise ValueError("theta domain is empty")
        if not self.action_high > self.action_low:
            raise ValueError("action domain is empty")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError("noise_variance must be positive and finite")
        if not 0 < self.resolution < (self.theta_high - self.theta_low):
            raise ValueError("resolution must be inside the theta domain width")
        if not 0 < self.top_fraction <= 1:
            raise ValueError("top_fraction must lie in (0, 1]")

    def hypothesis_grid(self) -> HypothesisGrid:
        return HypothesisGrid.uniform(self.theta_low, self.theta_high, self.theta_grid_size)

    def action_grid(self) -> np.ndarray:
        return np.linspace(self.action_low, self.action_high, self.action_grid_size)


@dataclass(frozen=True)
class EstimationReport:
    """Output of the a-priori pipeline: bits, predicted cost, and verdict."""

    total_bits: float
    step_bits: float
    cost_predicted: float
    predicted_steps: int
    mc_error_bits: float
    cost_margin: float
    solvable: bool


def a_priori_estimate(task: EstimationTask, budget: float, seed: int = 0) -> EstimationReport:
    """Predict whether the task fits the budget, before any real query.

    The gain of an action is the expected drop in entropy over the
    resolution bins that ``total_bits`` counts. It is estimated from
    ``task.n_outcome_samples`` pairs drawn from the grid's own predictive:
    theta from the grid prior and y = theta * x + noise. The same draws
    serve every action (common random numbers). Per-step information is the
    mean gain over the top ``task.top_fraction`` of the action grid, and
    ``mc_error_bits`` is the Hoeffding bound for gains in [0, total_bits].

    If the per-step estimate is below MIN_STEP_BITS the task is reported
    unsolvable with sentinel cost (predicted_steps 0 marks "not
    applicable"). Deterministic given seed.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    if task.n_outcome_samples < 16:
        raise ValueError("n_outcome_samples must be at least 16")
    grid = task.hypothesis_grid()
    width = task.theta_high - task.theta_low
    total_bits = estimate_total_information(grid.probabilities, task.resolution, width)

    rng = np.random.default_rng(seed)
    thetas = rng.choice(grid.values, size=task.n_outcome_samples, p=grid.probabilities)
    noise = math.sqrt(task.noise_variance) * rng.standard_normal(task.n_outcome_samples)
    actions = task.action_grid()
    gains = np.empty(actions.size)
    for i, x in enumerate(actions):
        post = _grid_posteriors(grid, grid.values * x, thetas * x + noise, task.noise_variance)
        binned = _bin_masses(post, task.resolution, width)
        gains[i] = total_bits - entropy_bits(binned, axis=1).mean()
    n_top = max(1, math.ceil(task.top_fraction * actions.size))
    step_bits = float(np.sort(gains)[-n_top:].mean())

    mc_err = monte_carlo_error(total_bits, task.n_outcome_samples, task.mc_delta)

    if step_bits < MIN_STEP_BITS:
        return EstimationReport(
            total_bits=total_bits,
            step_bits=step_bits,
            cost_predicted=INFINITE_COST,
            predicted_steps=0,
            mc_error_bits=mc_err,
            cost_margin=INFINITE_COST,
            solvable=False,
        )

    cost = effective_cost(total_bits, step_bits, task.cost_per_action)
    # first-order margin from the step-bits error alone; total_bits is exact
    margin = task.cost_per_action * (total_bits * mc_err / step_bits**2)
    return EstimationReport(
        total_bits=total_bits,
        step_bits=step_bits,
        cost_predicted=cost,
        predicted_steps=math.ceil(total_bits / step_bits),
        mc_error_bits=mc_err,
        cost_margin=margin,
        solvable=solvability_verdict(cost + margin, budget),
    )
