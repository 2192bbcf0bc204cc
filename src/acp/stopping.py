"""Sequential information-accumulation model and expected-cost bounds.

A search run is modeled as a stream of independent non-negative information
gains X_1, X_2, ... with non-increasing means mu_1 >= mu_2 >= ... >= mu_tail
> 0. The run stops at the first step where the partial sum reaches the total
requirement. With unit-cost steps the expected total cost is sandwiched by

    step_cost * total_bits / mu_1
        <= E[cost] <=
    step_cost * (total_bits / mu_tail + M2 / mu_tail**2)

where M2 bounds the second moment of every gain. The upper bound's slack is
the expected overshoot past the target, controlled by Lorden's inequality
(E[overshoot] <= M2 / mu_tail). This module simulates the process, computes
the bounds, and provides a Monte Carlo harness that checks them.

Gains are drawn by inverse-CDF transform from one uniform variate per step.
Trials are simulated in blocks that share one generator, and
``run_trial_blocks`` cuts a run into blocks of a fixed size, so a run is a
pure function of (spec, total_bits, n_trials, master_seed) whatever the
worker count. ``run_trial_blocks`` yields the blocks in order as they
finish, so a caller can consume a run without holding all of it;
``run_trials`` concatenates them. A block runs in one float64 buffer
allocated once: each chunk of a round fills it with uniforms, turns them
into gains in place and then into partial sums in place. Rounds past the
mean prefix draw against the scalar ``mean_tail`` rather than a row of it.
Every family's gains are >= 0, so partial sums never decrease and a trial
crosses its target within a round exactly when its last partial sum does:
the running sum before the round is added to the last sum alone, and to the
whole chunk only where some trial crossed and its first crossing step is
searched for. A block's trials are one record array with a row per trial
and three columns: ``n_steps`` (int64 stopping time), ``accumulated``
(float64 sum at the stop) and ``overshoot`` (float64,
``accumulated - total_bits``).

The truncated-gaussian family's moments are closed-form (``math.erfc``,
``math.exp`` and ``math.expm1``), and its location parameters are found by
a bounded bisection on the truncated mean, once per distinct mean. Its
draws invert the normal CDF with ``_ndtri``, a numpy port of the Cephes
``ndtri`` that ``scipy.special.ndtri`` wraps, so the package needs numpy
and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .seeding import _mean_se, imap_indexed, subseed

FAMILIES = ("deterministic", "exponential", "uniform", "truncated-gaussian")

#: Hard per-trial step limit guarding misconfigured specs.
STEP_CAP = 10**7

#: Most steps a whole run may expect by the upper cost bound, summed over its
#: trials; the ``bounds`` command refuses a larger run before simulating any.
MAX_TOTAL_STEPS = 10**9

#: Trials per block in run_trials; each block draws from one generator.
TRIAL_BLOCK = 1024

#: Gains drawn at once by the block engine: each block's one scratch buffer
#: holds max(ROUND_ELEMENTS, round width) float64 cells (256 KiB), so a block's
#: memory is O(ROUND_ELEMENTS + trials). At the full round width of 4096 a chunk
#: holds 8 trials, enough that numpy's fixed cost per call is a small share.
ROUND_ELEMENTS = 1 << 15

#: One trial's record: stopping time, sum at the stop and overshoot past the target.
_TRIAL_DTYPE = np.dtype(
    (np.record, [("n_steps", np.int64), ("accumulated", np.float64), ("overshoot", np.float64)])
)


class StepCapExceeded(RuntimeError):
    """A trial failed to reach its target within the step cap."""


_TOO_EXTREME = (
    "truncated-gaussian family too extreme to sample reliably; "
    "increase noise_scale or move means away from the support edges"
)

#: Bisection halvings for loc; 2**1100 exceeds any finite bracket width over 1e-12.
_BISECT_STEPS = 1100


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _f64(*values: float) -> tuple[np.ndarray, ...]:
    """Constants as 0-d float64 arrays.

    _ndtri makes about 70 ufunc calls per chunk of the block engine, so
    their fixed cost counts: with a 0-d array operand and a positional
    output, a call's fixed cost is about 40% below that with a Python float
    and ``out=``. The values are the same.
    """
    return tuple(np.array(v) for v in values)


# Cephes ndtri's constants (S. L. Moshier, Cephes Math Library, 1989). Its
# central approximation P0/Q0 covers p in (exp(-2), 1 - exp(-2)]; P1/Q1 and
# P2/Q2 cover the tails in z = 1 / x, x = sqrt(-2 ln y), for x below 8 and
# from 8 on. Coefficients run from the highest power down; each Q is monic
# and its leading 1 is not listed.
_EXP_M2, _ONE_MINUS_EXP_M2, _SQRT_2PI = _f64(
    0.13533528323661269189, 1.0 - 0.13533528323661269189, 2.50662827463100050242
)
_HALF, _ONE, _MINUS_TWO, _EIGHT = _f64(0.5, 1.0, -2.0, 8.0)
_P0 = _f64(
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = _f64(
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = _f64(
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = _f64(
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = _f64(
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = _f64(
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _rational(x: np.ndarray, p: tuple, q: tuple, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """x * polevl(x, p) / p1evl(x, q) in cephes' order of operations, returned in num."""
    np.multiply(x, p[0], num)
    for c in p[1:-1]:
        np.add(num, c, num)
        np.multiply(num, x, num)
    np.add(num, p[-1], num)
    np.add(x, q[0], den)
    for c in q[1:]:
        np.multiply(den, x, den)
        np.add(den, c, den)
    np.multiply(num, x, num)
    return np.divide(num, den, num)


def _ndtri(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in [0, 1], written to out (which may be p).

    A port of cephes ``ndtri``, the routine ``scipy.special.ndtri`` wraps,
    with its coefficients, branch tests and Horner order, except that p is
    first clipped to [1e-16, 1 - 1e-16] so that every quantile is finite.
    Every cell is first given the central value (Q0 has no root for
    |p - 1/2| < 1/2, so it stays finite); the tail cells, p <= exp(-2) or
    p > 1 - exp(-2), the only ones the clip can change, are then gathered,
    clipped and overwritten. The central branch uses + - * / only and
    matches scipy bit for bit. The tails take ``np.log``, which may differ
    from the C library's ``log`` in the last place, so they agree with
    scipy to a few units in the last place. ``out`` must be C-contiguous.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    tail = np.flatnonzero((p <= _EXP_M2) | (p > _ONE_MINUS_EXP_M2))
    t = p.take(tail)  # before out, which may be p, is written
    work = np.empty((3,) + p.shape)
    y = np.subtract(p, _HALF, out)
    y2 = np.multiply(y, y, work[0])
    r = _rational(y2, _P0, _Q0, work[1], work[2])
    np.multiply(r, y, r)
    np.add(out, r, out)
    np.multiply(out, _SQRT_2PI, out)
    if tail.size:
        out.reshape(-1)[tail] = _ndtri_tails(t, work.reshape(-1))
    return out


def _ndtri_tails(t: np.ndarray, work: np.ndarray) -> np.ndarray:
    """cephes ndtri's tail branch on the tail probabilities t, which it overwrites.

    ``work`` is scratch space of at least 3 * t.size cells.
    """
    m = t.size
    x, x0, num, den = t, work[:m], work[m : 2 * m], work[2 * m : 3 * m]
    np.clip(t, 1e-16, 1.0 - 1e-16, out=t)
    np.subtract(_ONE, t, x0)
    sign = np.subtract(t, x0)  # cephes negates the lower tail, where p < 1 - p
    np.minimum(t, x0, out=x)  # y: the upper tail is flipped to 1 - p
    np.log(x, x)
    np.multiply(x, _MINUS_TWO, x)
    np.sqrt(x, x)
    np.log(x, x0)
    np.divide(x0, x, x0)
    np.subtract(x, x0, x0)
    # cephes takes P2/Q2 where x >= 8 (y < exp(-32)); P1/Q1 is fitted for z > 1/8
    # only, so when both occur each pair sees only its own cells
    far = np.greater_equal(x, _EIGHT) if x.max() >= 8.0 else None
    z = np.divide(_ONE, x, x)
    if far is None:
        np.subtract(x0, _rational(z, _P1, _Q1, num, den), x0)
    else:
        for cells, p, q in ((~far, _P1, _Q1), (far, _P2, _Q2)):
            zc = z[cells]
            x0[cells] -= _rational(zc, p, q, np.empty_like(zc), np.empty_like(zc))
    return np.copysign(x0, sign, x0)


def _trunc_norm_stats(loc: float, scale: float, upper: float) -> tuple[float, float]:
    """(mean, second moment) of a Normal(loc, scale^2) truncated to [0, upper]."""
    # the density and tail mass past +-40 underflow to 0, so clipping there
    # changes no value and keeps the standardized edges finite
    a = min(max((0.0 - loc) / scale, -40.0), 40.0)
    b = min(max((upper - loc) / scale, -40.0), 40.0)
    # the window mass from the nearer tail, where the difference does not cancel
    mass = _ndtr(b) - _ndtr(a) if a <= 0.0 else _ndtr(-a) - _ndtr(-b)
    if not mass > 0.0:
        raise ValueError(_TOO_EXTREME)
    root = math.sqrt(2.0 * math.pi)
    pdf_a, pdf_b = math.exp(-0.5 * a * a) / root, math.exp(-0.5 * b * b) / root
    # pdf_a - pdf_b through the larger density, so that it does not cancel when a ~ -b
    half_sq_gap = 0.5 * (b - a) * (a + b)  # (b^2 - a^2) / 2
    if abs(a) <= abs(b):
        shift = -pdf_a * math.expm1(-half_sq_gap) / mass
    else:
        shift = pdf_b * math.expm1(half_sq_gap) / mass
    mean = loc + scale * shift
    var = scale**2 * (1.0 + (a * pdf_a - b * pdf_b) / mass - shift * shift)
    return mean, var + mean * mean


def _solve_trunc_loc(target_mean: float, scale: float, upper: float) -> float:
    """Location parameter whose [0, upper]-truncated mean equals target_mean.

    The truncated mean increases with loc, so loc is bisected within
    [-7 scale, upper + 7 scale]. A loc outside it leaves the window under
    Phi(-7) ~ 1e-12 of the mass, which _solve_tg_table rejects anyway, so a
    target the bracket cannot reach is rejected here.
    """
    if not 0.0 < target_mean < upper:
        raise ValueError(f"target mean {target_mean!r} must lie strictly inside (0, {upper!r})")
    lo, hi = -7.0 * scale, upper + 7.0 * scale
    if not _trunc_norm_stats(lo, scale, upper)[0] <= target_mean <= _trunc_norm_stats(hi, scale, upper)[0]:
        raise ValueError(_TOO_EXTREME)
    for _ in range(_BISECT_STEPS):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if _trunc_norm_stats(mid, scale, upper)[0] < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_tg_table(keys: tuple[float, ...], scale: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct means, rows of (loc, cdf_at_0, cdf_at_support))."""
    rows = []
    for m in keys:
        loc = _solve_trunc_loc(m, scale, upper)
        cdf_lo, cdf_hi = _ndtr((0.0 - loc) / scale), _ndtr((upper - loc) / scale)
        if cdf_hi - cdf_lo < 1e-10:
            raise ValueError(_TOO_EXTREME)
        rows.append((loc, cdf_lo, cdf_hi))
    return np.array(keys), np.array(rows)


@dataclass(frozen=True)
class GainSequenceSpec:
    """Distributional description of the per-step gains.

    ``mean_prefix`` holds the leading means explicitly; every later step
    uses ``mean_tail``. The family alone sets the bounds the cost formulas
    read. ``second_moment_bound`` is the exact M2 = sup E[X_i^2]: mu_1^2,
    2 mu_1^2 or 4 mu_1^2 / 3 for the deterministic, exponential and uniform
    families, and the largest second moment over the truncated-gaussian's
    means. ``support_bound`` is the almost-sure upper bound M: mu_1 for the
    deterministic family, 2 mu_1 for the uniform one and None for the
    unbounded exponential. Only the truncated-gaussian takes
    ``support_bound`` (default 4 mu_1) and ``noise_scale`` (default 0.5);
    giving either to another family raises ValueError.

    Families and their per-step laws at mean m:
      deterministic       X = m exactly
      exponential         X ~ Exp(mean m), unbounded
      uniform             X ~ Uniform[0, 2m]
      truncated-gaussian  X ~ Normal(loc, noise_scale^2) truncated to
                          [0, support_bound], loc solved so the truncated
                          mean is exactly m
    """

    mean_prefix: tuple[float, ...]
    mean_tail: float
    family: str
    support_bound: float | None = None
    noise_scale: float | None = None
    second_moment_bound: float = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        object.__setattr__(self, "mean_prefix", tuple(float(m) for m in self.mean_prefix))
        means = list(self.mean_prefix) + [self.mean_tail]
        if not all(math.isfinite(m) for m in means):
            raise ValueError("all means must be finite")
        if not self.mean_tail > 0:
            raise ValueError("mean_tail must be positive")
        if any(m <= 0 for m in means):
            raise ValueError("all means must be positive")
        if any(means[i] < means[i + 1] - 1e-12 for i in range(len(means) - 1)):
            raise ValueError("mean sequence must be non-increasing")
        mu1 = float(self.mean_first)
        support, scale = self.support_bound, self.noise_scale
        if self.family == "truncated-gaussian":
            support = 4.0 * mu1 if support is None else support
            scale = 0.5 if scale is None else scale
            # the loc solve needs a finite positive window and scale
            if not all(0 < v < math.inf for v in (support, scale)):
                raise ValueError("truncated-gaussian needs a finite positive support_bound and noise_scale")
            keys = tuple(sorted(set(self.mean_prefix) | {float(self.mean_tail)}))
            table = _solve_tg_table(keys, scale, support)
            object.__setattr__(self, "_tg_table", table)
            m2 = max(_trunc_norm_stats(loc, scale, support)[1] for loc in table[1][:, 0].tolist())
        elif support is not None or scale is not None:
            raise ValueError(f"only truncated-gaussian takes support_bound and noise_scale, not {self.family}")
        else:
            try:
                sq = mu1**2
            except OverflowError:  # mu_1 above about 1.3e154
                sq = math.inf
            m2, support = {"deterministic": (sq, mu1), "exponential": (2.0 * sq, None),
                           "uniform": (4.0 * sq / 3.0, 2.0 * mu1)}[self.family]
        if not math.isfinite(m2):
            raise ValueError(f"second_moment_bound must be finite; mu_1={mu1!r} is too large")
        object.__setattr__(self, "support_bound", support)
        object.__setattr__(self, "noise_scale", scale)
        object.__setattr__(self, "second_moment_bound", m2)

    # -- factories -------------------------------------------------------

    @classmethod
    def deterministic(cls, mean_prefix: Sequence[float] = (), mean_tail: float = 1.0) -> "GainSequenceSpec":
        return cls(tuple(mean_prefix), mean_tail, "deterministic")

    @classmethod
    def exponential(cls, mean_prefix: Sequence[float] = (), mean_tail: float = 1.0) -> "GainSequenceSpec":
        return cls(tuple(mean_prefix), mean_tail, "exponential")

    @classmethod
    def uniform(cls, mean_prefix: Sequence[float] = (), mean_tail: float = 1.0) -> "GainSequenceSpec":
        return cls(tuple(mean_prefix), mean_tail, "uniform")

    @classmethod
    def truncated_gaussian(
        cls,
        mean_prefix: Sequence[float] = (),
        mean_tail: float = 1.0,
        support_bound: float | None = None,
        noise_scale: float | None = None,
    ) -> "GainSequenceSpec":
        return cls(tuple(mean_prefix), mean_tail, "truncated-gaussian", support_bound, noise_scale)

    # -- structure -------------------------------------------------------

    @property
    def mean_first(self) -> float:
        """mu_1, the largest (first) expected gain."""
        return self.mean_prefix[0] if self.mean_prefix else self.mean_tail

    def means_for_steps(self, start: int, count: int) -> np.ndarray:
        """Expected gains for steps start, ..., start+count-1 (0-based)."""
        out = np.full(count, self.mean_tail)
        n_pre = len(self.mean_prefix)
        if start < n_pre:
            take = min(count, n_pre - start)
            out[:take] = self.mean_prefix[start : start + take]
        return out

    def draw_gains(
        self, means: np.ndarray, uniforms: np.ndarray | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Transform one uniform variate per step into a gain at the given mean.

        ``means`` and ``uniforms`` may have any shapes that broadcast together
        (the deterministic family ignores ``uniforms``). The transform runs in
        place in ``out``, which may be ``uniforms`` itself; left as None, a
        new array of the broadcast shape is allocated; a given ``out`` must
        be C-contiguous for the truncated-gaussian family. Every gain lies in
        [0, support_bound] (in [0, inf) for the exponential family), which
        the block engine's crossing test relies on.
        """
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(means), np.shape(uniforms)))
        if self.family == "deterministic":
            np.copyto(out, means)
            return out
        if self.family == "exponential":
            np.negative(uniforms, out=out)
            np.log1p(out, out=out)
            return np.multiply(-means, out, out=out)
        if self.family == "uniform":
            return np.multiply(2.0 * means, uniforms, out=out)
        keys, table = getattr(self, "_tg_table")
        # searching keys[:-1] maps a mean past the last key to the last index,
        # where the equality check below rejects it
        idx = np.searchsorted(keys[:-1], means)
        if not np.array_equal(keys.take(idx), means):
            raise ValueError("means outside the spec's mean sequence")
        locs, cdf_lo, cdf_hi = table.T.take(idx, axis=1)
        np.multiply(uniforms, cdf_hi - cdf_lo, out=out)
        np.add(cdf_lo, out, out=out)
        # _ndtri clips p to [1e-16, 1 - 1e-16], so a window edge that underflows
        # to 0 or 1 still gives a finite quantile
        _ndtri(out, out)
        np.multiply(self.noise_scale, out, out=out)
        np.add(locs, out, out=out)
        # the quantile clip and rounding can land a far-tail draw just past a support edge
        return np.clip(out, 0.0, self.support_bound, out=out)


@dataclass(frozen=True)
class BoundReport:
    """Theoretical cost bounds next to the Monte Carlo estimate they bracket."""

    lower: float
    upper: float
    empirical_mean_cost: float
    n_trials: int
    standard_error: float
    within_bounds: bool
    mean_overshoot: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def _simulate_block(
    spec: GainSequenceSpec,
    total_bits: float,
    n: int,
    seed,
    step_cap: int = STEP_CAP,
) -> np.ndarray:
    """n trials that share one generator, as rows of _TRIAL_DTYPE.

    Trials advance together in rounds of a fixed column width (a function of
    spec and target only); each round draws a (rows, width) matrix of
    uniforms for the trials still running, at most ROUND_ELEMENTS at a time,
    so the consumed stream does not depend on where each crossing lands
    within the round, nor on ROUND_ELEMENTS. Each chunk runs in one buffer
    allocated per block: the uniforms, their gains and the partial sums
    within the round overwrite each other in place. A round that starts at
    or past the end of the mean prefix passes the scalar mean_tail to
    draw_gains, which gives the same bits as a row of it. Gains are >= 0, so partial sums never decrease and a row crossed
    total_bits exactly when its running sum plus its last partial sum did;
    only in chunks where some row crossed is the running sum added to every
    cell and the first crossing column searched for. In the first round
    every running sum is 0.0, so that add is skipped. The records are
    filled in place: ``n_steps`` and ``accumulated`` as rows cross, and
    ``overshoot`` once all have. Raises StepCapExceeded if a trial is still
    short of total_bits after ``step_cap`` steps.
    """
    if not 0 < total_bits < math.inf:
        raise ValueError("total_bits must be positive and finite")
    rng = np.random.default_rng(seed)
    width = int(min(4096, max(16, math.ceil(total_bits / spec.mean_tail) + 8)))
    trials = np.empty(n, _TRIAL_DTYPE)
    n_steps, accumulated = trials["n_steps"], trials["accumulated"]
    running = np.zeros(n)
    active = np.arange(n)
    buffer = np.empty(max(width, ROUND_ELEMENTS))
    n_prefix = len(spec.mean_prefix)
    done = 0
    while active.size:
        k = min(width, step_cap - done)
        if k <= 0:
            raise StepCapExceeded(
                f"no crossing within {step_cap} steps (sum={running[active].min():.3g})"
            )
        means = spec.mean_tail if done >= n_prefix else spec.means_for_steps(done, k)[None, :]
        chunk = max(1, ROUND_ELEMENTS // k)
        still = []
        for start in range(0, active.size, chunk):
            rows = active[start : start + chunk]
            csum = buffer[: rows.size * k].reshape(rows.size, k)
            uniforms = None if spec.family == "deterministic" else rng.random(out=csum)
            spec.draw_gains(means, uniforms, out=csum)
            np.cumsum(csum, axis=1, out=csum)
            last = csum[:, -1] + running[rows]
            crossed = last >= total_bits
            if crossed.any():
                if done:
                    csum += running[rows, None]
                first = (csum >= total_bits).argmax(axis=1)[crossed]
                ended = rows[crossed]
                n_steps[ended] = done + first + 1
                accumulated[ended] = csum[crossed, first]
            running[rows] = last
            still.append(rows[~crossed])
        active = np.concatenate(still)
        done += k
    np.subtract(accumulated, total_bits, out=trials["overshoot"])
    return trials


def simulate_stopping(
    spec: GainSequenceSpec,
    total_bits: float,
    seed,
    step_cap: int = STEP_CAP,
) -> np.record:
    """Run one trial: draw gains until their sum first reaches total_bits.

    Returns one ``np.record``, a row like those of ``run_trials``, with
    fields ``n_steps``, ``accumulated`` and ``overshoot``. Deterministic
    given (spec, total_bits, seed); ``seed`` is anything
    ``numpy.random.default_rng`` accepts. Raises StepCapExceeded if the
    target is not reached within ``step_cap`` steps.
    """
    return _simulate_block(spec, total_bits, 1, seed, step_cap)[0]


def cost_bounds(spec: GainSequenceSpec, total_bits: float, step_cost: float) -> tuple[float, float]:
    """Two-sided bound on expected total cost for the given gain process.

    Lower: step_cost * total_bits / mu_1 (best case, every step yields the
    initial expected gain). Upper: step_cost * (total_bits / mu_tail +
    M2 / mu_tail^2), the worst-case mean plus the overshoot allowance.
    Raises ValueError when mu_tail^2 underflows to 0.
    """
    if not 0 < total_bits < math.inf:
        raise ValueError("total_bits must be positive and finite")
    if not 0 < step_cost < math.inf:
        raise ValueError("step_cost must be positive and finite")
    lower = step_cost * total_bits / spec.mean_first
    tail = spec.mean_tail
    try:
        upper = step_cost * (total_bits / tail + spec.second_moment_bound / tail**2)
    except ZeroDivisionError:
        raise ValueError(f"mean_tail={tail!r} is too small: mean_tail^2 underflows to 0") from None
    return lower, upper


def high_prob_steps(total_bits: float, min_mean_gain: float, support_bound: float, delta: float) -> int:
    """Step count sufficient to finish with probability >= 1 - delta.

    Valid for gains bounded in [0, support_bound] with per-step means at
    least ``min_mean_gain``. Returns

        ceil( T/mu + (M^2 / 2 mu^2) ln(1/delta)
              + sqrt(T M^2 ln(1/delta) / (2 mu^3)) )

    with T = total_bits, mu = min_mean_gain, M = support_bound. The ln is
    natural while information is in bits; this is consistent because the
    log factor multiplies dimensionless ratios, so the unit of T cancels
    against mu and M. Raises ValueError when the count is not a finite
    float.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta!r}")
    if not total_bits > 0:
        raise ValueError("total_bits must be positive")
    if not min_mean_gain > 0:
        raise ValueError("min_mean_gain must be positive")
    if support_bound < min_mean_gain:
        raise ValueError("support_bound must be at least min_mean_gain")
    log_term = math.log(1.0 / delta)
    mu, m = min_mean_gain, support_bound
    try:
        n = (
            total_bits / mu
            + m**2 / (2.0 * mu**2) * log_term
            + math.sqrt(total_bits * m**2 * log_term / (2.0 * mu**3))
        )
    except ArithmeticError:  # a power overflowed, or a power of mu underflowed to 0
        n = math.inf
    if not math.isfinite(n):
        raise ValueError(
            f"high-probability step count overflows for total_bits={total_bits!r}, "
            f"min_mean_gain={mu!r}, support_bound={m!r}"
        )
    return math.ceil(n)


def _trial_block(
    block: int, spec: GainSequenceSpec, total_bits: float, n_trials: int, master_seed: int
) -> np.recarray:
    n = min(TRIAL_BLOCK, n_trials - block * TRIAL_BLOCK)
    return _simulate_block(spec, total_bits, n, subseed(master_seed, block))


def run_trial_blocks(
    spec: GainSequenceSpec,
    total_bits: float,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> Iterator[np.ndarray]:
    """The trials of ``run_trials``, one record array per block, in block order.

    Block b holds trials b*TRIAL_BLOCK onwards and draws from one generator
    seeded by subseed(master_seed, b). Each block is yielded once it and
    every block before it have finished; closing the iterator early stops
    its worker processes.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    fn = partial(_trial_block, spec=spec, total_bits=total_bits, n_trials=n_trials, master_seed=master_seed)
    return imap_indexed(fn, -(-n_trials // TRIAL_BLOCK), workers=workers)


def run_trials(
    spec: GainSequenceSpec,
    total_bits: float,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> np.recarray:
    """n_trials independent trials: the blocks of ``run_trial_blocks`` concatenated.

    Returns one record array, a row per trial, with the columns ``n_steps``,
    ``accumulated`` and ``overshoot`` that the module docstring describes.
    The block size is fixed, so the result does not depend on ``workers``.
    """
    blocks = run_trial_blocks(spec, total_bits, n_trials, master_seed, workers=workers)
    return np.concatenate(list(blocks)).view(np.recarray)


def summarize_trials(
    spec: GainSequenceSpec,
    total_bits: float,
    step_cost: float,
    trials: np.recarray,
) -> BoundReport:
    """Build a BoundReport from already-simulated trials.

    ``trials`` is a record array from ``run_trials``, or any record array
    with its ``n_steps`` and ``overshoot`` columns, the two the report reads.

    The report's flag allows 3 standard errors of slack on each side: both
    bounds hold for the expected cost, so a sample mean may stray past
    either one by sampling error alone.
    """
    n_trials = len(trials)
    if n_trials < 1:
        raise ValueError("need at least one trial")
    # priced after averaging: squares of step counts cannot overflow, squares of costs can
    mean_steps, se_steps = _mean_se(trials.n_steps)
    mean_cost, se = step_cost * mean_steps, step_cost * se_steps
    lower, upper = cost_bounds(spec, total_bits, step_cost)
    return BoundReport(
        lower=lower,
        upper=upper,
        empirical_mean_cost=mean_cost,
        n_trials=n_trials,
        standard_error=se,
        within_bounds=bool(lower - 3.0 * se <= mean_cost <= upper + 3.0 * se),
        mean_overshoot=float(trials.overshoot.mean()),
    )


def completion_fraction(
    spec: GainSequenceSpec,
    total_bits: float,
    max_steps: int,
    n_trials: int,
    master_seed: int,
    workers: int = 1,
) -> float:
    """Fraction of trials whose stopping time is at most max_steps."""
    trials = run_trials(spec, total_bits, n_trials, master_seed, workers=workers)
    return int(np.count_nonzero(trials.n_steps <= max_steps)) / n_trials
