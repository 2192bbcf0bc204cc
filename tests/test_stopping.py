"""Stopping-time simulator, cost bounds, and the high-probability budget."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import truncnorm

from acp import (
    GainSequenceSpec,
    StepCapExceeded,
    completion_fraction,
    cost_bounds,
    high_prob_steps,
    run_trials,
    simulate_stopping,
    summarize_trials,
)
from acp import stopping
from acp.stopping import ROUND_ELEMENTS, STEP_CAP, TRIAL_BLOCK, _solve_trunc_loc, _trunc_norm_stats

DIMINISHING = tuple(max(2.0 * 0.9**i, 0.5) for i in range(14))

SPECS = {
    "deterministic": GainSequenceSpec.deterministic(mean_tail=1.0),
    "exponential": GainSequenceSpec.exponential(mean_tail=1.0),
    "uniform": GainSequenceSpec.uniform(mean_tail=1.0),
    "truncated-gaussian": GainSequenceSpec.truncated_gaussian(
        mean_prefix=DIMINISHING, mean_tail=0.5, support_bound=3.0, noise_scale=0.6
    ),
}


def _records(steps):
    """Trials with the given stopping times, each summing exactly to its step count."""
    steps = np.array(steps, dtype=np.int64)
    return np.rec.fromarrays(
        (steps, steps.astype(float), np.zeros(steps.size)), names="n_steps,accumulated,overshoot"
    )


def _reference_simulate_block(spec, total_bits, n, seed, step_cap=STEP_CAP):
    """The block engine with fresh arrays per chunk, searching every row of every chunk."""
    if not 0 < total_bits < math.inf:
        raise ValueError("total_bits must be positive and finite")
    rng = np.random.default_rng(seed)
    width = int(min(4096, max(16, math.ceil(total_bits / spec.mean_tail) + 8)))
    n_steps = np.zeros(n, dtype=np.int64)
    accumulated = np.zeros(n)
    running = np.zeros(n)
    active = np.arange(n)
    done = 0
    while active.size:
        k = min(width, step_cap - done)
        if k <= 0:
            raise StepCapExceeded(
                f"no crossing within {step_cap} steps (sum={running[active].min():.3g})"
            )
        means = spec.means_for_steps(done, k)[None, :]
        chunk = max(1, ROUND_ELEMENTS // k)
        still = []
        for start in range(0, active.size, chunk):
            rows = active[start : start + chunk]
            uniforms = None if spec.family == "deterministic" else rng.random((rows.size, k))
            gains = spec.draw_gains(means, uniforms)
            csum = running[rows, None] + np.cumsum(gains, axis=1)
            hit = csum >= total_bits
            first = hit.argmax(axis=1)
            crossed = hit[np.arange(rows.size), first]
            ended = rows[crossed]
            n_steps[ended] = done + first[crossed] + 1
            accumulated[ended] = csum[crossed, first[crossed]]
            running[rows] = csum[:, -1]
            still.append(rows[~crossed])
        active = np.concatenate(still)
        done += k
    return np.rec.fromarrays(
        (n_steps, accumulated, accumulated - total_bits), names="n_steps,accumulated,overshoot"
    )


@st.composite
def _block_cases(draw):
    """(spec, total_bits, n, seed, step_cap) for the block engine, rounds of up to 4096 steps."""
    family = draw(st.sampled_from(stopping.FAMILIES))
    tail = draw(st.floats(0.5, 2.0))
    # a stepped prefix that may end just before, at or past the first 4096-step round
    n_prefix = draw(st.sampled_from([0, 4095, 4096, 4097]) | st.integers(0, 9000))
    ratios = sorted(draw(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=3)), reverse=True)
    prefix = [tail * ratios[i * len(ratios) // n_prefix] for i in range(n_prefix)]
    extra = {"support_bound": 4.0 * max(prefix, default=tail)} if family == "truncated-gaussian" else {}
    spec = getattr(GainSequenceSpec, family.replace("-", "_"))(prefix, tail, **extra)
    # up to about four rounds; at full width a round takes 4 trials per chunk
    total_bits = draw(st.floats(0.1, 4.0 * 4096 * tail))
    steps = total_bits / tail
    n = draw(st.integers(1, max(13, min(2500, int(2e5 // steps)))))
    seed = draw(st.integers(0, 2**32))
    step_cap = draw(st.just(STEP_CAP) | st.integers(1, 5 * 4096))
    return spec, total_bits, n, seed, step_cap


def _se(values):
    arr = np.asarray(values, dtype=float)
    return arr.std(ddof=1) / math.sqrt(arr.size)


class TestSpecValidation:
    def test_rejects_increasing_means(self):
        with pytest.raises(ValueError):
            GainSequenceSpec.exponential(mean_prefix=(1.0, 2.0), mean_tail=0.5)

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(ValueError):
            GainSequenceSpec.exponential(mean_tail=0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(mean_prefix=(2.0, math.nan)),
            dict(mean_tail=math.inf),
            dict(mean_tail=1e200),  # M2 = 2 mu_1^2 overflows
            dict(family="truncated-gaussian", support_bound=math.inf),
            dict(family="truncated-gaussian", noise_scale=math.inf),
        ],
    )
    def test_rejects_non_finite_fields(self, fields):
        base = dict(mean_prefix=(), mean_tail=1.0, family="exponential")
        with pytest.raises(ValueError, match="finite"):
            GainSequenceSpec(**{**base, **fields})

    @pytest.mark.parametrize(
        "support_bound, noise_scale",
        [(4.0, math.inf), (4.0, math.nan), (4.0, 0.0), (math.inf, 0.5), (math.nan, 0.5), (-1.0, 0.5)],
    )
    def test_truncated_gaussian_factory_checks_scales(self, support_bound, noise_scale):
        with pytest.raises(ValueError, match="finite positive support_bound and noise_scale"):
            GainSequenceSpec.truncated_gaussian((), 1.0, support_bound, noise_scale)

    def test_factories_fill_exact_moments(self):
        assert GainSequenceSpec.deterministic(mean_tail=3.0).second_moment_bound == 9.0
        assert GainSequenceSpec.exponential(mean_tail=1.0).second_moment_bound == 2.0
        u = GainSequenceSpec.uniform(mean_tail=1.0)
        assert u.second_moment_bound == pytest.approx(4.0 / 3.0)
        assert u.support_bound == 2.0

    def test_truncated_gaussian_defaults_follow_mu1(self):
        spec = GainSequenceSpec.truncated_gaussian((2.0, 1.5), 1.0)
        assert (spec.support_bound, spec.noise_scale) == (8.0, 0.5)
        assert GainSequenceSpec.exponential().support_bound is None

    @pytest.mark.parametrize("family", ["deterministic", "exponential", "uniform"])
    @pytest.mark.parametrize("fields", [dict(support_bound=1.0), dict(noise_scale=0.5)])
    def test_only_truncated_gaussian_takes_bounds(self, family, fields):
        with pytest.raises(ValueError, match="only truncated-gaussian"):
            GainSequenceSpec((), 1.0, family, **fields)

    def test_truncated_gaussian_hits_target_means(self):
        spec = GainSequenceSpec.truncated_gaussian(
            mean_prefix=DIMINISHING, mean_tail=0.5, support_bound=3.0, noise_scale=0.6
        )
        trials = run_trials(spec, 500.0, 40, master_seed=9)
        # with a target this large the mean per-step gain is observable
        mean_gain = np.mean([t.accumulated / t.n_steps for t in trials])
        assert mean_gain == pytest.approx(0.5, abs=0.05)


def _scipy_trunc_spec(mean, scale, upper):
    """(loc, M2) of a one-mean truncated-gaussian spec built with scipy, or None if rejected.

    The reference build: bracket doubling and ``brentq`` on ``truncnorm``'s
    mean, M2 from ``truncnorm.stats``, then the spec's M2 and window-mass checks.
    """

    def stats(loc):
        mean_, var = truncnorm.stats(-loc / scale, (upper - loc) / scale, loc=loc, scale=scale, moments="mv")
        return float(mean_), float(var) + float(mean_) ** 2

    def gap(loc):
        return stats(loc)[0] - mean

    with np.errstate(all="ignore"):  # truncnorm.stats warns in the far tails
        lo, hi, step = mean - scale, mean + scale, scale
        while gap(lo) > 0:
            step *= 2.0
            lo -= step
        step = scale
        while gap(hi) < 0:
            step *= 2.0
            hi += step
        loc = brentq(gap, lo, hi, xtol=1e-12)
        m2 = stats(loc)[1]
        mass = ndtr((upper - loc) / scale) - ndtr(-loc / scale)
    if not (math.isfinite(m2) and m2 >= mean**2 - 1e-12 and mass >= 1e-10):
        return None
    return loc, m2


class TestTruncatedGaussianMoments:
    # upper / scale >= 0.25 keeps loc well conditioned: where the window is
    # much narrower than scale the law is near-uniform, its mean moves with
    # loc at slope ~ (upper / scale)^2 / 12, and brentq on truncnorm's mean
    # lands up to 1e-5 relative off the exact loc (test_symmetric_target)
    @pytest.mark.parametrize("scale", [0.05, 0.2, 0.6, 2.0])
    @pytest.mark.parametrize("upper", [0.5, 1.0, 3.0, 10.0])
    def test_matches_scipy_build(self, scale, upper):
        for frac in (1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            mean = frac * upper
            ref = _scipy_trunc_spec(mean, scale, upper)
            if ref is None:
                with pytest.raises(ValueError, match="too extreme"):
                    GainSequenceSpec.truncated_gaussian((), mean, upper, scale)
                continue
            spec = GainSequenceSpec.truncated_gaussian((), mean, upper, scale)
            loc = getattr(spec, "_tg_table")[1][0, 0]
            assert loc == pytest.approx(ref[0], rel=1e-9, abs=1e-12)
            assert spec.second_moment_bound == pytest.approx(ref[1], rel=1e-9)

    @pytest.mark.parametrize("scale", [2.0, 20.0, 100.0])
    def test_symmetric_target(self, scale):
        # the law is symmetric about upper / 2 exactly when loc is
        assert _solve_trunc_loc(0.05, scale, 0.1) == pytest.approx(0.05, rel=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        scale=st.floats(0.01, 20.0),
        upper=st.floats(0.01, 100.0),
        frac=st.floats(1e-4, 1.0 - 1e-4),
    )
    def test_solved_mean_hits_target(self, scale, upper, frac):
        mean = frac * upper
        try:
            loc = _solve_trunc_loc(mean, scale, upper)
        except ValueError:
            assume(False)
        assert _trunc_norm_stats(loc, scale, upper)[0] == pytest.approx(mean, rel=0, abs=1e-9 * upper)

    def test_factory_solves_each_loc_once(self, monkeypatch):
        solved = []

        def counting(mean, scale, upper):
            solved.append(mean)
            return _solve_trunc_loc(mean, scale, upper)

        monkeypatch.setattr(stopping, "_solve_trunc_loc", counting)
        spec = GainSequenceSpec.truncated_gaussian((2.0, 1.5, 1.5), 0.7, 4.0, 0.45)
        assert sorted(solved) == [0.7, 1.5, 2.0]
        # the second moment is read off the same table the sampler uses
        locs = getattr(spec, "_tg_table")[1][:, 0]
        assert spec.second_moment_bound == max(_trunc_norm_stats(loc, 0.45, 4.0)[1] for loc in locs)


class TestDrawGains:
    def test_matrix_matches_truncnorm_quantiles(self):
        spec = SPECS["truncated-gaussian"]
        scale, upper = spec.noise_scale, spec.support_bound
        means = spec.means_for_steps(8, 12)
        uniforms = np.random.default_rng(3).random((5, 12))
        gains = spec.draw_gains(means[None, :], uniforms)
        for c, m in enumerate(means):
            loc = _solve_trunc_loc(m, scale, upper)
            law = truncnorm(-loc / scale, (upper - loc) / scale, loc=loc, scale=scale)
            np.testing.assert_allclose(gains[:, c], law.ppf(uniforms[:, c]), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("scale", [0.05, 0.2, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("upper", [1.0, 4.0])
    def test_extreme_uniforms_stay_in_support(self, scale, upper):
        # the quantile clip at 1e-16 and rounding alone send these draws up to 1e-5 past an edge
        uniforms = np.array([0.0, 2.0**-53, 1e-12, 1.0 - 2.0**-53])
        checked = 0
        for frac in np.linspace(0.02, 0.98, 50):
            try:
                spec = GainSequenceSpec.truncated_gaussian((), float(frac * upper), upper, scale)
            except ValueError:  # too extreme to sample
                continue
            gains = spec.draw_gains(np.full(uniforms.size, spec.mean_tail), uniforms)
            assert np.all((gains >= 0.0) & (gains <= upper)), (spec.mean_tail, gains)
            checked += 1
        assert checked

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_in_place_matches_allocating(self, name):
        spec = SPECS[name]
        means = spec.means_for_steps(0, 40)[None, :]
        uniforms = np.random.default_rng(4).random((3, 40))
        expected = spec.draw_gains(means, None if name == "deterministic" else uniforms.copy())
        out = spec.draw_gains(means, uniforms, out=uniforms)
        assert out is uniforms
        assert np.array_equal(out, np.broadcast_to(expected, out.shape))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_scalar_mean_matches_row_bit_for_bit(self, name):
        # rounds past the prefix pass mean_tail itself; mean_first's window reaches the
        # truncated-gaussian's lower tail and the extremes below reach both tails
        spec = SPECS[name]
        uniforms = np.random.default_rng(6).random((3, 64))
        uniforms[0, :5] = (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53)
        for m in (spec.mean_tail, spec.mean_first):
            row = np.full((1, uniforms.shape[1]), m)
            expected = spec.draw_gains(row, uniforms)
            assert spec.draw_gains(m, uniforms).tobytes() == expected.tobytes()
            in_place = uniforms.copy()
            assert spec.draw_gains(m, in_place, out=in_place).tobytes() == expected.tobytes()

    def test_unknown_mean_rejected(self):
        for means in (np.array([0.75]), 0.75, 0.1, 5.0):
            with pytest.raises(ValueError, match="means outside the spec's mean sequence"):
                SPECS["truncated-gaussian"].draw_gains(means, np.array([0.5]))


def _port_ndtri(p):
    p = np.asarray(p, dtype=float)
    return stopping._ndtri(p, np.empty_like(p))


#: stopping._ndtri's central branch holds p in (exp(-2), 1 - exp(-2)].
CENTRAL = (float(np.nextafter(stopping._EXP_M2, 1.0)), float(stopping._ONE_MINUS_EXP_M2))


class TestNdtri:
    """stopping._ndtri against scipy.special.ndtri, the cephes routine it ports.

    The central branch is + - * / in cephes' order, so it must match bit for
    bit. The tails take np.log, which can differ from the C library's log by
    one unit in the last place; x = sqrt(-2 ln y) carries that difference into
    the result at the scale of x, up to 2.9 eps * x over 1.5e8 tail points.
    So the tails are held to 4 eps * x, which is up to about 7 ulp of the
    result near p = exp(-2), where the quantile is about half of x (6 ulp
    seen), and must match exactly on at least 99% of inputs. _ndtri first
    clips p to [1e-16, 1 - 1e-16]; only the clip test goes outside it.
    """

    def test_central_grid_bit_for_bit(self):
        p = np.linspace(*CENTRAL, 400_001)
        assert np.array_equal(_port_ndtri(p), ndtri(p))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(*CENTRAL), min_size=1, max_size=50))
    def test_central_bit_for_bit(self, ps):
        assert np.array_equal(_port_ndtri(ps), ndtri(ps))

    @pytest.mark.parametrize(
        "lo, hi, upper",
        [
            (1e-16, float(stopping._EXP_M2), False),
            (1e-16, float(stopping._EXP_M2), True),
            (1e-16, 1.27e-14, False),  # x >= 8: the P2/Q2 approximation
            (1e-16, 1.27e-14, True),
        ],
        ids=["lower", "upper", "lower-p2", "upper-p2"],
    )
    def test_tails_within_a_few_ulp(self, lo, hi, upper):
        y = np.geomspace(lo, hi, 200_001)
        if upper:  # 1 - y rounds, so take the y that 1 - p gives back
            p = 1.0 - y
            y = 1.0 - p
        else:
            p = y
        got, ref = _port_ndtri(p), ndtri(p)
        x = np.sqrt(-2.0 * np.log(y))
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * x)
        assert np.mean(got == ref) >= 0.99
        assert np.all(np.sign(got) == (1.0 if upper else -1.0))

    def test_edges_exact(self):
        e2 = float(stopping._EXP_M2)
        p = np.array(
            [1e-16, 1.0 - 1e-16, 0.5, e2, np.nextafter(e2, 0.0), np.nextafter(e2, 1.0), 1.0 - e2,
             np.nextafter(1.0 - e2, 0.0), np.nextafter(1.0 - e2, 1.0), math.exp(-32.0)]
        )
        assert np.array_equal(_port_ndtri(p), ndtri(p))

    def test_clips_p_to_finite_quantiles(self):
        p = np.array([0.0, 5e-324, 1e-17, 1.0])
        clipped = np.array([1e-16, 1e-16, 1e-16, 1.0 - 1e-16])
        assert np.array_equal(_port_ndtri(p), ndtri(clipped))

    def test_mixed_branches_in_place_on_a_matrix(self):
        # central cells, both tails and both tail approximations in one call
        p = np.concatenate([np.geomspace(1e-16, 0.5, 300), 1.0 - np.geomspace(1e-16, 0.5, 300)])
        rng = np.random.default_rng(6)
        p = p[rng.permutation(p.size)].reshape(20, 30)
        expected = _port_ndtri(p.ravel())
        np.testing.assert_allclose(expected, ndtri(p.ravel()), rtol=1e-15, atol=0)
        out = stopping._ndtri(p, p)
        assert out is p
        assert np.array_equal(out.ravel(), expected)
        with pytest.raises(ValueError, match="C-contiguous"):
            stopping._ndtri(p, np.empty((30, 20)).T)


class TestSimulateStopping:
    def test_deterministic_unit_gains(self):
        spec = GainSequenceSpec.deterministic(mean_tail=1.0)
        trial = simulate_stopping(spec, 10.0, seed=0)
        assert trial.n_steps == 10
        assert trial.overshoot == 0.0

    def test_deterministic_overshoot(self):
        spec = GainSequenceSpec.deterministic(mean_tail=3.0)
        trial = simulate_stopping(spec, 10.0, seed=0)
        assert trial.n_steps == 4
        assert trial.accumulated == 12.0
        assert trial.overshoot == 2.0

    def test_exponential_mean_steps_is_eleven(self):
        # memoryless overshoot has mean 1, so E[N] = target + 1 exactly
        spec = GainSequenceSpec.exponential(mean_tail=1.0)
        steps = [t.n_steps for t in run_trials(spec, 10.0, 10_000, master_seed=1)]
        assert np.mean(steps) == pytest.approx(11.0, abs=3 * _se(steps))

    def test_deterministic_given_seed(self):
        spec = GainSequenceSpec.uniform(mean_prefix=DIMINISHING, mean_tail=0.5)
        a = simulate_stopping(spec, 8.0, seed=123)
        b = simulate_stopping(spec, 8.0, seed=123)
        assert a == b

    def test_accumulated_reaches_target(self):
        spec = GainSequenceSpec.exponential(mean_tail=0.7)
        for seed in range(30):
            t = simulate_stopping(spec, 5.0, seed=seed)
            assert t.accumulated >= 5.0
            assert t.overshoot == pytest.approx(t.accumulated - 5.0)

    def test_step_cap_raises(self):
        spec = GainSequenceSpec.deterministic(mean_tail=1.0)
        with pytest.raises(StepCapExceeded):
            simulate_stopping(spec, 100.0, seed=0, step_cap=5)

    def test_pinned_values(self):
        # one trial draws exactly the stream of the original per-trial simulator
        uniform = GainSequenceSpec.uniform(mean_prefix=DIMINISHING, mean_tail=0.5)
        assert simulate_stopping(uniform, 8.0, seed=123).tolist() == (
            7, 8.517353052595372, 0.5173530525953716
        )
        gaussian = GainSequenceSpec.truncated_gaussian(DIMINISHING, 0.5, 3.0, 0.6)
        assert simulate_stopping(gaussian, 8.0, seed=5).tolist() == (
            6, 8.967433605188797, 0.9674336051887966
        )


class TestTrialBlocks:
    @pytest.mark.parametrize("n_trials", [1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1])
    def test_workers_do_not_change_trials(self, n_trials):
        spec = SPECS["exponential"]
        serial = run_trials(spec, 10.0, n_trials, master_seed=11, workers=1)
        parallel = run_trials(spec, 10.0, n_trials, master_seed=11, workers=2)
        assert len(serial) == n_trials
        assert np.array_equal(serial, parallel)

    def test_blocks_draw_distinct_streams(self):
        trials = run_trials(SPECS["exponential"], 10.0, 2 * TRIAL_BLOCK, master_seed=11)
        assert not np.array_equal(trials[:TRIAL_BLOCK], trials[TRIAL_BLOCK:])

    def test_deterministic_steps_in_every_row(self):
        spec = GainSequenceSpec.deterministic(mean_tail=0.7)
        trials = run_trials(spec, 10.0, TRIAL_BLOCK + 5, master_seed=0)
        assert {t.n_steps for t in trials} == {math.ceil(10.0 / 0.7)}

    def test_step_cap_raises_in_a_block(self):
        with pytest.raises(StepCapExceeded):
            run_trials(SPECS["deterministic"], 1e8, 3, master_seed=0)

    @settings(max_examples=60, deadline=None)
    @given(case=_block_cases())
    @example(case=(GainSequenceSpec.exponential([2.0] * 4100, 1.0), 9000.0, 13, 3, STEP_CAP))
    @example(case=(SPECS["truncated-gaussian"], 5000.0, 9, 1, 8192))
    @example(case=(SPECS["deterministic"], 5000.0, 2, 0, 4999))
    # the sum meets the target exactly at the last step of the first round
    @example(case=(GainSequenceSpec.deterministic([2.0] * 4096, 1.0), 8192.0, 3, 0, STEP_CAP))
    # the benchmark's shape: nearly every row crosses in the first round, the rest in the second
    @example(case=(SPECS["exponential"], 10.0, TRIAL_BLOCK, 7, STEP_CAP))
    def test_engine_equals_reference_bit_for_bit(self, case):
        spec, total_bits, n, seed, step_cap = case
        try:
            expected = _reference_simulate_block(spec, total_bits, n, seed, step_cap)
        except StepCapExceeded as exc:
            with pytest.raises(StepCapExceeded) as raised:
                stopping._simulate_block(spec, total_bits, n, seed, step_cap)
            assert str(raised.value) == str(exc)
            return
        got = stopping._simulate_block(spec, total_bits, n, seed, step_cap)
        for name in ("n_steps", "accumulated", "overshoot"):
            assert np.array_equal(got[name], expected[name]), name

    @pytest.mark.parametrize("family", stopping.FAMILIES)
    @pytest.mark.parametrize("n_prefix", [1000, 4096, 5000])
    def test_round_elements_do_not_change_trials(self, monkeypatch, family, n_prefix):
        # the prefix ends mid-round, on the first round's edge or past a whole round, and
        # every trial runs on into rounds past it; the reference keeps the imported
        # ROUND_ELEMENTS, so only the engine's chunks change
        spec = getattr(GainSequenceSpec, family.replace("-", "_"))([1.5] * n_prefix, 1.0)
        expected = _reference_simulate_block(spec, 16_000.0, 9, 2)
        assert expected.n_steps.min() > 2 * 4096
        for elements in (64, 4096, 1 << 15):
            monkeypatch.setattr(stopping, "ROUND_ELEMENTS", elements)
            got = stopping._simulate_block(spec, 16_000.0, 9, 2)
            assert got.tobytes() == expected.tobytes(), elements

    def test_block_memory_is_bounded(self):
        # about 20 million gains through one 256 KiB buffer plus a few trial-length arrays;
        # a few full-chunk temporaries per chunk would pass the bound
        tracemalloc.start()
        try:
            stopping._simulate_block(SPECS["exponential"], 20_000.0, TRIAL_BLOCK, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10

    def test_records_layout(self):
        got = stopping._simulate_block(SPECS["exponential"], 10.0, 5, 0)
        assert got.dtype == np.dtype([("n_steps", "<i8"), ("accumulated", "<f8"), ("overshoot", "<f8")])
        assert got.flags.c_contiguous
        assert type(run_trials(SPECS["exponential"], 10.0, 5, master_seed=0)) is np.recarray

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPECS)),
        total_bits=st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
        n_trials=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_every_trial_reaches_target(self, name, total_bits, n_trials, seed):
        trials = run_trials(SPECS[name], total_bits, n_trials, master_seed=seed)
        assert len(trials) == n_trials
        assert trials.dtype.names == ("n_steps", "accumulated", "overshoot")
        assert trials.n_steps.dtype == np.int64
        assert np.all(trials.n_steps >= 1) and np.all(trials.accumulated >= total_bits)
        assert np.array_equal(trials.overshoot, trials.accumulated - total_bits)
        assert np.all(trials.overshoot >= 0)


class TestCostBounds:
    def test_exponential_example(self):
        spec = GainSequenceSpec.exponential(mean_tail=1.0)
        assert cost_bounds(spec, 10.0, 1.0) == (10.0, 12.0)

    def test_deterministic_example(self):
        spec = GainSequenceSpec.deterministic(mean_tail=1.0)
        assert cost_bounds(spec, 10.0, 1.0) == (10.0, 11.0)

    def test_diminishing_formula(self):
        spec = GainSequenceSpec((2.0,), 1.0, "deterministic")
        lower, upper = cost_bounds(spec, 10.0, 2.0)
        assert lower == pytest.approx(10.0)
        assert upper == pytest.approx(28.0)

    @pytest.mark.parametrize("total_bits, step_cost", [(math.inf, 1.0), (math.nan, 1.0), (10.0, math.inf)])
    def test_rejects_non_finite_inputs(self, total_bits, step_cost):
        with pytest.raises(ValueError, match="finite"):
            cost_bounds(SPECS["exponential"], total_bits, step_cost)

    @settings(max_examples=50, deadline=None)
    @given(
        family=st.sampled_from(["deterministic", "exponential", "uniform", "truncated_gaussian"]),
        tail=st.floats(min_value=0.2, max_value=2.0),
        ratios=st.lists(st.floats(min_value=1.0, max_value=3.0), max_size=3),
        total_bits=st.floats(min_value=1e-3, max_value=1e3),
        step_cost=st.floats(min_value=1e-3, max_value=1e2),
    )
    def test_lower_below_upper(self, family, tail, ratios, total_bits, step_cost):
        prefix = sorted((tail * r for r in ratios), reverse=True)
        # the CLI's default support for truncated-gaussian: four times mu_1
        first = max(prefix, default=tail)
        extra = {"support_bound": 4.0 * first} if family == "truncated_gaussian" else {}
        spec = getattr(GainSequenceSpec, family)(prefix, tail, **extra)
        lower, upper = cost_bounds(spec, total_bits, step_cost)
        assert lower <= upper


class TestHighProbSteps:
    def test_formula_value(self):
        # 10 + 1 + sqrt(10) rounded up
        assert high_prob_steps(10.0, 1.0, 1.0, math.exp(-2.0)) == 15

    def test_delta_to_one_limit(self):
        # the log term vanishes, leaving ceil(total / mean); a non-integer
        # ratio avoids the ceil boundary at exactly 10
        assert high_prob_steps(10.5, 1.0, 1.0, 1.0 - 1e-12) == 11
        assert high_prob_steps(10.5, 1.0, 1.0, 0.999) == 11

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            high_prob_steps(10.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            high_prob_steps(10.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            high_prob_steps(10.0, 1.0, 0.5, 0.1)

    @pytest.mark.parametrize(
        "total_bits,mean,support", [(10.0, 1.0, 1e300), (10.0, 1e-200, 1.0), (1e308, 1e-10, 1.0)]
    )
    def test_overflow_is_a_domain_error(self, total_bits, mean, support):
        with pytest.raises(ValueError, match="overflows"):
            high_prob_steps(total_bits, mean, support, 0.1)

    def test_monte_carlo_coverage(self):
        spec = GainSequenceSpec.uniform(mean_tail=1.0)
        n = high_prob_steps(10.0, spec.mean_tail, spec.support_bound, 0.05)
        frac = completion_fraction(spec, 10.0, n, 2_000, master_seed=4)
        assert frac >= 0.95


class TestValidateBounds:
    def test_exponential_inside_bounds(self):
        spec = GainSequenceSpec.exponential(mean_tail=1.0)
        report = summarize_trials(spec, 10.0, 1.0, run_trials(spec, 10.0, 10_000, master_seed=2))
        assert report.within_bounds
        assert report.empirical_mean_cost == pytest.approx(11.0, abs=3 * report.standard_error)

    def test_deterministic_is_tight_at_lower(self):
        spec = GainSequenceSpec.deterministic(mean_tail=1.0)
        report = summarize_trials(spec, 10.0, 1.0, run_trials(spec, 10.0, 200, master_seed=0))
        assert report.empirical_mean_cost == report.lower == 10.0

    def test_diminishing_uniform_within_bounds(self):
        spec = GainSequenceSpec.uniform(mean_prefix=DIMINISHING, mean_tail=0.5)
        report = summarize_trials(spec, 8.0, 1.0, run_trials(spec, 8.0, 2_000, master_seed=5))
        assert report.within_bounds

    def test_sampling_slack_below_lower_bound(self):
        spec = GainSequenceSpec.exponential(mean_tail=1.0)
        # mean 9.5 against a lower bound of 10: about 1.1 standard errors below
        near = _records([5] * 50 + [14] * 50)
        report = summarize_trials(spec, 10.0, 1.0, near)
        assert report.empirical_mean_cost < report.lower
        assert report.lower - report.empirical_mean_cost < 3 * report.standard_error
        assert report.within_bounds
        # same mean, about 10 standard errors below
        far = _records([9] * 50 + [10] * 50)
        assert not summarize_trials(spec, 10.0, 1.0, far).within_bounds

    def test_parallel_equals_serial(self):
        spec = GainSequenceSpec.exponential(mean_tail=1.0)
        serial = summarize_trials(spec, 10.0, 1.0, run_trials(spec, 10.0, 400, master_seed=6, workers=1))
        parallel = summarize_trials(spec, 10.0, 1.0, run_trials(spec, 10.0, 400, master_seed=6, workers=2))
        assert serial == parallel


class TestProcessProperties:
    """Statistical sanity over every supported family."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_lorden_overshoot_bound(self, name):
        spec = SPECS[name]
        trials = run_trials(spec, 10.0, 2_000, master_seed=7)
        overshoots = [t.overshoot for t in trials]
        limit = spec.second_moment_bound / spec.mean_tail
        assert np.mean(overshoots) <= limit + 3 * max(_se(overshoots), 1e-12)

    @pytest.mark.parametrize("name", ["exponential", "uniform"])
    def test_wald_identity_iid(self, name):
        spec = SPECS[name]
        trials = run_trials(spec, 10.0, 10_000, master_seed=8)
        diffs = [t.accumulated - spec.mean_tail * t.n_steps for t in trials]
        assert abs(np.mean(diffs)) <= 3 * _se(diffs)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_lower_bound_never_violated(self, name):
        spec = SPECS[name]
        report = summarize_trials(spec, 10.0, 1.0, run_trials(spec, 10.0, 2_000, master_seed=9))
        assert report.empirical_mean_cost >= report.lower - 3 * report.standard_error
