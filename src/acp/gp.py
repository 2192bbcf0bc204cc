"""1D Gaussian-process surrogate and a-priori search-cost estimation.

The estimation pipeline sizes up a task before any real query is spent:

  1. price the initial uncertainty in bits, over bins of the requested
     resolution on the hypothesis grid,
  2. estimate the information yield of each candidate action by drawing
     (hypothesis, outcome) pairs from the grid's own predictive, summing
     each draw's grid posterior into the same bins and normalising those,
  3. divide total bits by per-step bits; every action costs 1.

The task's fixed geometry is module constants (THETA_DOMAIN, ACTION_GRID);
``EstimationTask`` holds only what varies.

Step 2 and the GP oracle share one kernel, ``_mean_posterior_bits``. It
divides one action's outcomes and predictions by sqrt(2 * noise variance)
once, so each cell's log-likelihood is minus its squared residual, then
scores the draw posteriors in blocks of at most BLOCK_CELLS cells through
one buffer: memory is O(draws), not draws times grid cells. A task whose
posterior work (draws x actions x cells) exceeds MAX_POSTERIOR_CELLS is
refused when it is built, before any grid is allocated. The slope agent
scores its posteriors with this kernel's posterior step,
``_grid_posteriors``, at noise variance sigma^2 / n after n queries.

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

#: The identification task's hypothesis (slope) and query domains.
THETA_DOMAIN = (-2.0, 2.0)
ACTION_DOMAIN = (-3.0, 3.0)
#: Candidate queries of the estimator, evenly spaced over ACTION_DOMAIN.
ACTION_GRID = np.linspace(*ACTION_DOMAIN, 61)
ACTION_GRID.setflags(write=False)
#: Share of the best candidate queries averaged into the per-step gain.
TOP_FRACTION = 0.25
#: Failure probability of the Hoeffding bound on the gain estimate.
MC_DELTA = 0.05

#: Cells of one posterior block (512 KB of float64, sized to stay in L2).
BLOCK_CELLS = 1 << 16
#: Most draw x action x cell posterior terms one estimate may compute: about
#: 60 s at roughly 6 ns per cell.
MAX_POSTERIOR_CELLS = 10**10

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


def _log_prior(probs: np.ndarray) -> np.ndarray:
    """Log of each cell's prior mass; zero-prior cells get -inf."""
    # zero-prior cells must stay at zero mass no matter how extreme the outcome
    with np.errstate(divide="ignore"):
        return np.where(probs > 0, np.log(probs.clip(min=1e-300)), -np.inf)


def _grid_posteriors(
    log_prior: np.ndarray, predicted: np.ndarray, outcomes: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Unnormalised grid posterior after each outcome, grid cells on the last axis.

    ``predicted`` (each cell's noiseless outcome) and ``outcomes`` (on a
    trailing axis of length 1) come divided by sqrt(2 * noise variance), so
    a cell's log-likelihood is minus its squared residual. Each row is
    scaled to a largest cell of 1, not normalised, and written into ``out``.
    """
    # one buffer, updated in place from residual to unnormalised posterior
    post = np.subtract(outcomes, predicted, out=out)
    # a residual too large to square is a cell of zero mass
    with np.errstate(over="ignore"):
        np.square(post, out=post)
    np.subtract(log_prior, post, out=post)
    post -= post.max(axis=-1, keepdims=True)
    np.exp(post, out=post)
    return post


def _mean_posterior_bits(
    log_prior: np.ndarray,
    predicted: np.ndarray,
    outcomes: np.ndarray,
    noise_variance: float,
    starts: np.ndarray | None = None,
) -> float:
    """Mean entropy, in bits, of the grid posterior after each outcome.

    ``predicted`` holds one action's noiseless outcome per cell and
    ``outcomes`` the 1D observed values; both are scaled once, then scored a
    block of at most BLOCK_CELLS cells at a time (one grid row if a row is
    larger) in one buffer, so memory is O(draws). Given ``starts``, each
    posterior is summed into the bins starting at those cells and the bin
    masses are normalised; otherwise the cells are.
    """
    scale = math.sqrt(2.0 * noise_variance)
    predicted, outcomes = predicted / scale, outcomes / scale
    n_cells = predicted.size
    rows = min(outcomes.size, max(1, BLOCK_CELLS // n_cells))
    buf = np.empty(rows * n_cells)
    ent = np.empty(outcomes.size)
    for d in range(0, outcomes.size, rows):
        e = min(d + rows, outcomes.size)
        out = buf[: (e - d) * n_cells].reshape(e - d, n_cells)
        post = _grid_posteriors(log_prior, predicted, outcomes[d:e, None], out)
        if starts is not None:
            post = np.add.reduceat(post, starts, axis=-1)
        post /= post.sum(axis=-1, keepdims=True)
        ent[d:e] = entropy_bits(post, axis=-1)
    return float(ent.mean())


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
    mean_posterior_bits = _mean_posterior_bits(
        _log_prior(grid.probabilities), grid.values * action, draws, posterior.noise_variance
    )
    gain = prior_bits - mean_posterior_bits
    return float(min(max(gain, 0.0), prior_bits))


def _bin_starts(n_cells: int, resolution: float, domain_width: float) -> np.ndarray:
    """First cell of each bin of width ``resolution`` over ``n_cells`` equal-width cells."""
    if not 0 < resolution < domain_width:
        raise ValueError("resolution must lie strictly between 0 and domain_width")
    n_bins = int(round(domain_width / resolution))
    # one bin holds the whole domain: its entropy is zero up to rounding, and can read negative
    if n_bins < 2:
        raise ValueError(f"resolution {resolution:g} leaves one bin of the domain of width {domain_width:g}")
    if n_cells < n_bins:
        raise ValueError(f"prior has {n_cells} cells, fewer than the {n_bins} requested bins")
    # with at least one cell per bin, every bin starts at some cell
    bin_index = (np.arange(n_cells) * n_bins) // n_cells
    return np.flatnonzero(np.diff(bin_index, prepend=-1))


def estimate_total_information(prior_probs, resolution: float, domain_width: float) -> float:
    """Bits needed to localize a hypothesis to ``resolution`` under the prior.

    ``prior_probs`` holds the prior masses of equal-width cells spanning the
    domain, in order. They are coarsened to bins of the requested width and
    the entropy of the bin masses returned; a uniform prior gives
    log2(width / resolution). A resolution that leaves one bin is refused.
    """
    probs = np.asarray(prior_probs, dtype=float)
    starts = _bin_starts(probs.shape[-1], resolution, domain_width)
    return float(entropy_bits(np.add.reduceat(probs, starts, axis=-1)))


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

    The hypothesis lives on THETA_DOMAIN, on a grid of ``theta_grid_size``
    points; queries are the points of ACTION_GRID. Observations are
    theta * action plus Gaussian noise of variance ``noise_variance``.
    ``resolution`` defines when the hypothesis counts as identified.
    """

    noise_variance: float = 0.25
    resolution: float = 0.1
    theta_grid_size: int = 401
    n_outcome_samples: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.noise_variance < math.inf:
            raise ValueError("noise_variance must be positive and finite")
        width = THETA_DOMAIN[1] - THETA_DOMAIN[0]
        if not 0 < self.resolution < width:
            raise ValueError("resolution must be inside the theta domain width")
        # one bin holds every hypothesis: there is nothing to identify, and no bits to price
        if round(width / self.resolution) < 2:
            raise ValueError(
                f"resolution {self.resolution:g} leaves one bin of the theta domain of width "
                f"{width:g}; it needs at least two"
            )
        if self.n_outcome_samples < 16:
            raise ValueError("n_outcome_samples must be at least 16")
        cells = self.posterior_cells
        if cells > MAX_POSTERIOR_CELLS:
            raise ValueError(
                f"{self.n_outcome_samples} outcome samples x {ACTION_GRID.size} actions x "
                f"{self.theta_grid_size} grid cells = {cells:.3g} posterior cells, over the "
                f"cap of {MAX_POSTERIOR_CELLS:.0e} per estimate"
            )

    @property
    def posterior_cells(self) -> int:
        """The work of one estimate: draw x action x grid cell posterior terms."""
        return self.n_outcome_samples * ACTION_GRID.size * self.theta_grid_size

    def hypothesis_grid(self) -> HypothesisGrid:
        return HypothesisGrid.uniform(*THETA_DOMAIN, self.theta_grid_size)


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


def _action_gains(task: EstimationTask, seed: int) -> tuple[float, np.ndarray]:
    """Total bits and the estimated gain of each point of ACTION_GRID.

    Each action's gain is total bits minus the mean binned posterior
    entropy over its draws, scored by ``_mean_posterior_bits``.
    """
    grid = task.hypothesis_grid()
    width = THETA_DOMAIN[1] - THETA_DOMAIN[0]
    starts = _bin_starts(grid.values.size, task.resolution, width)
    total_bits = estimate_total_information(grid.probabilities, task.resolution, width)
    log_prior = _log_prior(grid.probabilities)

    draws = task.n_outcome_samples
    rng = np.random.default_rng(seed)
    thetas = rng.choice(grid.values, size=draws, p=grid.probabilities)
    noise = math.sqrt(task.noise_variance) * rng.standard_normal(draws)

    gains = np.empty(ACTION_GRID.size)
    for i, x in enumerate(ACTION_GRID):
        gains[i] = total_bits - _mean_posterior_bits(
            log_prior, x * grid.values, x * thetas + noise, task.noise_variance, starts
        )
    return total_bits, gains


def a_priori_estimate(task: EstimationTask, budget: float, seed: int = 0) -> EstimationReport:
    """Predict whether the task fits the budget, before any real query.

    The gain of an action is the expected drop in entropy over the
    resolution bins that ``total_bits`` counts. It is estimated from
    ``task.n_outcome_samples`` pairs drawn from the grid's own predictive:
    theta from the grid prior and y = theta * x + noise. The same draws
    serve every action (common random numbers). Per-step information is the
    mean gain over the top TOP_FRACTION of ACTION_GRID, and
    ``mc_error_bits`` is the Hoeffding bound for gains in [0, total_bits].

    If the per-step estimate is below MIN_STEP_BITS the task is reported
    unsolvable with sentinel cost (predicted_steps 0 marks "not
    applicable"). Deterministic given seed.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    total_bits, gains = _action_gains(task, seed)
    n_top = math.ceil(TOP_FRACTION * ACTION_GRID.size)
    step_bits = float(np.sort(gains)[-n_top:].mean())

    mc_err = monte_carlo_error(total_bits, task.n_outcome_samples, MC_DELTA)

    if step_bits < MIN_STEP_BITS:
        cost = margin = INFINITE_COST
        steps = 0
    else:
        cost = effective_cost(total_bits, step_bits, 1.0)
        # first-order margin from the step-bits error alone; total_bits is exact
        margin = total_bits * mc_err / step_bits**2
        steps = math.ceil(total_bits / step_bits)
    return EstimationReport(
        total_bits=total_bits,
        step_bits=step_bits,
        cost_predicted=cost,
        predicted_steps=steps,
        mc_error_bits=mc_err,
        cost_margin=margin,
        solvable=solvability_verdict(cost + margin, budget),
    )
