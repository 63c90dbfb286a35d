import dataclasses
import inspect
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystab import analysis
from polystab.analysis import (
    PROOF_BOUNDS_MAX_K,
    bem_envelope,
    bem_sum_term_log_margin,
    counterexample_lower_bound,
    em_envelope,
    em_recurrence_bound,
    em_sum_term_log_margin,
    estimate_decay_exponent,
    verify_proof_bounds,
)
from polystab.checks import summary
from polystab.ensemble import MomentSeries, SimConfig, simulate_ensemble
from polystab.gamma import GammaProductParams, product_direct
from polystab.problems import exact_linear_mean_square, linear_example

mpmath.mp.dps = 50


def synthetic_series(t, m2, se=None, blown=None, n_paths=1000, dt=None):
    t = np.asarray(t, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    se = np.zeros_like(m2) if se is None else np.asarray(se, dtype=float)
    blown = np.zeros(len(t), dtype=int) if blown is None else np.asarray(blown, dtype=int)
    if dt is None:
        dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    k = np.round(t / dt).astype(int)
    return MomentSeries(
        problem_label="synthetic", config=None,
        step_index=k, time=t, mean_square=m2, std_error=se,
        surviving=np.full(len(t), n_paths, dtype=int) - blown, blown_up=blown,
        capped_mean_abs=np.sqrt(m2),
    )


def with_config(series, dt):
    """series with an EM config of step dt whose checkpoints are its step indices."""
    ks = tuple(int(k) for k in series.step_index)
    config = SimConfig(dt=dt, num_steps=ks[-1], num_paths=int(series.surviving[0]), seed=0,
                       scheme="em", initial_value=(1.0,), checkpoints=ks)
    return dataclasses.replace(series, config=config)


def geometric_times(t_max=1e4, n=60):
    return np.concatenate([[0.0], np.geomspace(0.01, t_max, n - 1)])


class TestDecayEstimate:
    def test_exact_inverse_power(self):
        t = geometric_times()
        est = estimate_decay_exponent(synthetic_series(t, (1 + t) ** -1), k1=1.0)
        assert est.slope == pytest.approx(-1.0, abs=1e-12)
        assert est.slope_std_error == pytest.approx(0.0, abs=1e-9)
        assert est.conforms

    def test_exact_fifth_power(self):
        t = geometric_times()
        est = estimate_decay_exponent(synthetic_series(t, 5.0 * (1 + t) ** -5), k1=3.0)
        assert est.slope == pytest.approx(-5.0, abs=1e-12)
        assert est.conforms

    def test_linear_closed_form_slope(self):
        t = geometric_times()
        m2 = exact_linear_mean_square(2.0, t)
        est = estimate_decay_exponent(synthetic_series(t, m2), window_fraction=0.5, k1=1.0)
        assert -1.01 <= est.slope <= -0.99
        assert est.theoretical_bound == -1.0
        assert est.conforms

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(min_value=-6.0, max_value=-0.2))
    def test_power_law_property(self, p):
        t = geometric_times()
        est = estimate_decay_exponent(synthetic_series(t, (1 + t) ** p), k1=1.0, tolerance=10.0)
        assert est.slope == pytest.approx(p, abs=1e-9)

    def test_window_bounds_reported(self):
        t = geometric_times()
        est = estimate_decay_exponent(synthetic_series(t, (1 + t) ** -2.0), k1=1.0)
        t_lo, t_hi = est.fit_window
        assert t_lo < t_hi == t[-1]
        # last half of log time
        assert math.log1p(t_lo) >= 0.5 * math.log1p(t[-1]) - 1e-9

    def test_blow_ups_in_window_rejected(self):
        t = geometric_times()
        blown = np.zeros(len(t), dtype=int)
        blown[-3:] = 5
        with pytest.raises(ValueError, match="blown-up"):
            estimate_decay_exponent(synthetic_series(t, (1 + t) ** -1, blown=blown), k1=1.0)

    def test_zero_mean_square_excluded_with_warning(self):
        t = geometric_times()
        m2 = (1 + t) ** -1
        m2[-2] = 0.0
        with pytest.warns(UserWarning, match="mean_square == 0"):
            est = estimate_decay_exponent(synthetic_series(t, m2), k1=1.0)
        assert est.slope == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1e-3])
    def test_invalid_mean_square_in_window_rejected(self, bad):
        # inf would fit a NaN slope; NaN or a negative value would pass as a
        # zero and be dropped from the fit
        t = geometric_times()
        m2 = (1 + t) ** -1
        m2[1::2] = bad
        with np.errstate(invalid="ignore"):  # its capped means take sqrt(m2)
            series = synthetic_series(t, m2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "mean_square == 0" warning either
            with pytest.raises(ValueError, match="NaN, infinite or negative"):
                estimate_decay_exponent(series, k1=1.0)

    def test_invalid_mean_square_before_window_ignored(self):
        t = geometric_times()
        m2 = (1 + t) ** -1
        m2[1] = math.inf
        est = estimate_decay_exponent(synthetic_series(t, m2), k1=1.0)
        assert est.slope == pytest.approx(-1.0, abs=1e-12)

    def test_one_row_is_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            estimate_decay_exponent(synthetic_series([1.0], [0.5]), k1=1.0)

    def test_too_few_points(self):
        t = geometric_times(n=12)  # ~6 points in the tail window
        with pytest.raises(ValueError, match=">= 10"):
            estimate_decay_exponent(synthetic_series(t, (1 + t) ** -1), k1=1.0)

    def test_one_time_in_window_is_undefined(self):
        # 30 checkpoints at t = 1.0: the OLS denominator is a rounding residue
        series = synthetic_series(np.full(30, 1.0), np.full(30, 0.5), dt=0.1)
        with pytest.raises(ValueError, match="same time; slope undefined"):
            estimate_decay_exponent(series, k1=1.0)

    def test_two_times_in_window_fit(self):
        t = np.concatenate([[0.0], np.repeat([1.0, 3.0], 15)])
        series = synthetic_series(t, (1 + t) ** -1, dt=0.1)
        est = estimate_decay_exponent(series, window_fraction=0.9, k1=1.0)
        assert est.n_points == 30
        assert est.slope == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [
        np.arange(40) * 0.1 - 2.0,
        np.concatenate([geometric_times()[:-1], [np.inf]]),
        np.concatenate([[np.nan], geometric_times()[1:]]),
    ], ids=["negative", "inf", "nan"])
    def test_bad_time_rejected_before_any_warning(self, t):
        series = dataclasses.replace(synthetic_series(np.arange(len(t)), np.full(len(t), 0.5)),
                                     time=t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time must be finite and >= 0"):
                estimate_decay_exponent(series, k1=1.0)

    def test_window_fraction_validated(self):
        t = geometric_times()
        series = synthetic_series(t, (1 + t) ** -1)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                estimate_decay_exponent(series, bad, k1=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(k1=math.nan), dict(k1=math.inf), dict(k1=-math.inf),
        dict(tolerance=math.nan), dict(tolerance=math.inf), dict(tolerance=-1.0),
    ], ids=lambda kw: repr(kw))
    def test_k1_and_tolerance_validated(self, kwargs):
        t = geometric_times()
        series = synthetic_series(t, (1 + t) ** -1)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            estimate_decay_exponent(series, **{"k1": 1.0, **kwargs})

    def test_k1_zero_accepted(self):
        # an audited K1 is clipped at 0; the bound is then -(2*0 - 1) = 1
        t = geometric_times()
        est = estimate_decay_exponent(synthetic_series(t, (1 + t) ** -1), k1=0.0, tolerance=0.0)
        assert est.theoretical_bound == 1.0 and est.conforms

    def test_nonconforming_slope(self):
        t = geometric_times()
        est = estimate_decay_exponent(synthetic_series(t, (1 + t) ** -1), k1=3.0)
        assert est.theoretical_bound == -5.0
        assert not est.conforms


class TestEnvelopes:
    def test_em_envelope_at_zero(self):
        assert em_envelope(0, 0.1, 1.0, 1.0, 1.0) == pytest.approx(2.21, rel=1e-12)

    def test_em_envelope_pure_power_for_k1_one(self):
        ks = np.arange(0, 50)
        env = em_envelope(ks, 0.1, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(env, env[0] / (ks * 0.1 + 1.0), rtol=1e-12)

    def test_em_envelope_monotone(self):
        env = em_envelope(np.arange(0, 200), 0.05, 2.0, 1.0, 1.0)
        assert np.all(np.diff(env) < 0)

    @pytest.mark.parametrize("kwargs", [
        dict(k1=0.9), dict(dt=0.4), dict(m0=-1.0), dict(c=-1.0),
        dict(c="1"), dict(c=True), dict(k1="2"),
        dict(k=[0, math.nan]), dict(k=math.inf),
    ])
    def test_em_envelope_preconditions(self, kwargs):
        base = dict(k=1, dt=0.1, k1=1.0, c=1.0, m0=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            em_envelope(base["k"], base["dt"], base["k1"], base["c"], base["m0"])

    def test_bem_envelope_pinned(self):
        # (1.1)^-5 (1 + 25 * 1.7^6) at 50 digits
        assert bem_envelope(0, 0.1, 3.0, 5.0, 1.0) == pytest.approx(375.3092032959, rel=1e-10)

    def test_bem_envelope_asymptotic_slope(self):
        k1, dt = 3.0, 0.1
        k1_vals = bem_envelope(np.array([10_000, 100_000]), dt, k1, 5.0, 1.0)
        slope = (math.log(k1_vals[1]) - math.log(k1_vals[0])) / (
            math.log(100_001 * dt + 1) - math.log(10_001 * dt + 1)
        )
        assert slope == pytest.approx(-(2 * k1 - 1), abs=1e-3)

    def test_bem_envelope_zero_noise_reduces_to_power(self):
        ks = np.arange(0, 20)
        env = bem_envelope(ks, 0.1, 3.0, 0.0, 2.0)
        np.testing.assert_allclose(env, 2.0 * ((ks + 1) * 0.1 + 1.0) ** -5, rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(k1=0.5), dict(dt=0.4),
        dict(c="5"), dict(k1=True),
        dict(k=[0, math.nan]),
    ])
    def test_bem_envelope_preconditions(self, kwargs):
        base = dict(k=1, dt=0.3, k1=3.0, c=5.0, m0=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            bem_envelope(base["k"], base["dt"], base["k1"], base["c"], base["m0"])

    @pytest.mark.parametrize("envelope,args,name", [
        (em_envelope, (5, 0.1, 1.0, 1e200, 1.0), "c"),  # c**2 overflows
        (bem_envelope, (5, 0.3, 3.0, 1e200, 1.0), "c"),
        (bem_envelope, (5, 0.0024, 400.0, 1.0, 1.0), "k1"),  # (1 + 801 dt)**800 overflows
    ])
    def test_constant_whose_power_overflows_refused(self, envelope, args, name):
        with pytest.raises(ValueError, match=f"^{name} = .* is too large: .* overflows a float$"):
            envelope(*args)

    def test_largest_c_keeps_its_bits(self):
        # c**2 is still finite: the same expression, as written, gives the value
        assert em_envelope(5, 0.1, 1.0, 1e154, 1.0) == 1.5 ** -1.0 * (1.0 + 1e154**2 * 1.1 ** 2.0)


class TestRecurrenceBound:
    @staticmethod
    def recurrence_series(dt=0.1, k1=1.0, c=1.0, m0=1.0, n=50):
        # generated by the one-step bound with equality: zero violations
        m2 = [m0]
        for k in range(n):
            a = (1.0 - k1 * dt / (1.0 + k * dt)) ** 2
            m2.append(a * m2[-1] + c**2 * (1.0 + k * dt) ** (-2 * k1) * dt)
        t = np.arange(n + 1) * dt
        return with_config(synthetic_series(t, np.asarray(m2), dt=dt), dt)

    def test_equality_series_has_no_violations(self):
        series = self.recurrence_series()
        result = em_recurrence_bound(series, 1.0, 1.0)
        assert result.passed
        assert result.n_checked == 50
        assert result.n_skipped == 0

    def test_artificial_jump_flagged(self):
        series = self.recurrence_series()
        m2 = series.mean_square.copy()
        m2[20] = 10.0 * m2[19]
        jumped = dataclasses.replace(series, mean_square=m2)
        result = em_recurrence_bound(jumped, 1.0, 1.0)
        assert not result.passed
        assert any(v.k_to == 20 for v in result.violations)

    def test_non_consecutive_skipped(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        series = with_config(synthetic_series(t, np.ones(4), dt=0.1), 0.1)
        result = em_recurrence_bound(series, 1.0, 1.0)
        assert result.n_skipped == 1
        assert result.n_checked == 2

    def test_contraction_precondition(self):
        series = self.recurrence_series()
        with pytest.raises(ValueError, match="K1\\*dt"):
            em_recurrence_bound(series, 11.0, 1.0)

    @pytest.mark.parametrize("name,value", [
        (name, value) for name in ("k1", "c", "n_sigma")
        for value in (float("nan"), float("inf"), True, -1.0)
    ] + [("k1", 0.0)])
    def test_constants_checked(self, name, value):
        series = self.recurrence_series(n=20)
        kwargs = dict(k1=1.0, c=1.0, n_sigma=4.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            em_recurrence_bound(series, **kwargs)

    def test_c_whose_square_overflows_refused(self):
        series = self.recurrence_series(n=20)
        with pytest.raises(ValueError, match=r"^c = 1e\+200 is too large: 1e\+200\*\*2 overflows"):
            em_recurrence_bound(series, k1=1.0, c=1e200)

    def test_zero_c_and_n_sigma_accepted(self):
        series = self.recurrence_series(c=0.0, n=20)
        result = em_recurrence_bound(series, 1.0, 0.0, n_sigma=0.0)
        assert result.n_checked == 20

    def test_dt_comes_from_the_config(self):
        assert list(inspect.signature(em_recurrence_bound).parameters) == [
            "series", "k1", "c", "n_sigma"]
        series = self.recurrence_series(dt=0.1)
        # the same moments read at another step size break the recurrence
        assert not em_recurrence_bound(with_config(series, 0.2), 1.0, 1.0).passed

    def test_series_without_config_refused(self):
        series = dataclasses.replace(self.recurrence_series(), config=None)
        with pytest.raises(ValueError, match="no config"):
            em_recurrence_bound(series, 1.0, 1.0)

    def test_nan_moments_are_violations(self):
        # a NaN pair compares False both ways; it must fail, not pass
        series = with_config(synthetic_series(np.arange(10) * 0.1, np.full(10, np.nan)), 0.1)
        result = em_recurrence_bound(series, k1=1.0, c=1.0)
        assert not result.passed
        assert (result.n_checked, result.n_skipped, len(result.violations)) == (9, 0, 9)

    def test_nan_std_error_is_a_violation(self):
        series = self.recurrence_series(n=20)
        se = np.zeros(21)
        se[7] = np.nan
        result = em_recurrence_bound(dataclasses.replace(series, std_error=se), 1.0, 1.0)
        assert [(v.k_from, v.k_to) for v in result.violations] == [(6, 7), (7, 8)]
        assert result.n_checked == 20

    def test_statistical_tolerance_on_mc_data(self):
        cfg = SimConfig(dt=0.1, num_steps=40, num_paths=20_000, seed=3, scheme="em",
                        initial_value=(1.0,), checkpoints=tuple(range(41)))
        series = simulate_ensemble(linear_example(), cfg)
        result = em_recurrence_bound(series, 1.0, 1.0)
        assert result.passed, result.violations
        assert result.n_checked == 40


class TestLowerBound:
    def test_first_values_pinned(self):
        seq = counterexample_lower_bound(0.1, 10)
        assert seq.values[0] == pytest.approx(9.9498743710662, rel=1e-12)  # 3 sqrt(11)
        assert seq.values[1] == pytest.approx(78.598994968530, rel=1e-12)

    def test_invariant_and_cap(self):
        seq = counterexample_lower_bound(0.1, 50)
        assert np.all(seq.invariant_margins() >= 0.0)
        step = seq.first_step_exceeding(1e12)
        assert step is not None and step <= 10

    def test_slower_divergence_near_half(self):
        seq = counterexample_lower_bound(0.49, 200)
        assert np.all(seq.invariant_margins() >= 0.0)
        fast = counterexample_lower_bound(0.1, 200).first_step_exceeding(1e12)
        slow = seq.first_step_exceeding(1e12)
        assert slow is not None
        assert slow >= fast

    def test_overflow_reported(self):
        seq = counterexample_lower_bound(0.1, 500)
        assert seq.diverged_at is not None
        assert np.all(np.isfinite(seq.values))

    @pytest.mark.parametrize("dt", [0.0, 0.5, 0.6, -0.1])
    def test_dt_domain(self, dt):
        with pytest.raises(ValueError):
            counterexample_lower_bound(dt, 10)

    @pytest.mark.parametrize("dt", [1e-320, 5e-324, 5e-309])
    def test_dt_whose_first_bound_overflows_refused(self, dt):
        # b_1 = 3 sqrt((1+dt)/dt) is inf once dt < ~5.6e-309
        with pytest.raises(ValueError, match=f"^dt={dt!r} is too small"):
            counterexample_lower_bound(dt, 3)

    def test_smallest_dt_whose_first_bound_is_finite(self):
        seq = counterexample_lower_bound(6e-309, 3)
        assert seq.values.tolist() == [3.0 * math.sqrt(1.0 / 6e-309)] and seq.diverged_at == 2

    @settings(max_examples=40, deadline=None)
    @given(dt=st.floats(min_value=1e-3, max_value=0.499))
    def test_invariant_property(self, dt):
        seq = counterexample_lower_bound(dt, 200)
        assert np.all(seq.invariant_margins() >= -1e-9 * np.abs(seq.values))


class TestProofBounds:
    def test_all_families_hold_on_acceptance_grid_sample(self):
        families = verify_proof_bounds(k_max=60)
        assert all(f.passed for f in families), summary("proof bounds", families)

    @pytest.mark.parametrize("k_max", [1, 0, -5, 2.0, True])
    def test_k_max_below_two_or_not_an_integer_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            verify_proof_bounds(k_max=k_max)

    def test_k_max_above_the_ceiling_rejected(self):
        # refused before the ~k_max**2 / 2 point grid is built
        with pytest.raises(ValueError, match=f"k_max must be an integer <= {PROOF_BOUNDS_MAX_K}"):
            verify_proof_bounds(k_max=PROOF_BOUNDS_MAX_K + 1)

    def test_nan_margin_fails_and_is_worst(self, monkeypatch):
        # NaN at k = 5 for dt = 0.1: both semi-implicit families fail at the
        # first NaN, in the first (dt, K1) block that has one
        margin = analysis.bem_sum_term_log_margin
        monkeypatch.setattr(analysis, "bem_sum_term_log_margin", lambda k, r, dt, k1: np.where(
            (k == 5) & (dt == 0.1), np.nan, margin(k, r, dt, k1)))
        em_initial, em_sum, bem_initial, bem_sum = verify_proof_bounds(k_max=6)
        assert em_initial.passed and em_sum.passed
        assert bem_initial.worst_point == (5, 0.1, 1.0)
        assert bem_sum.worst_point == (5, 0, 0.1, 1.0)
        for record in (bem_initial, bem_sum):
            assert math.isnan(record.worst_margin) and record.passed is False

    def test_smallest_grid(self):
        families = verify_proof_bounds(k_max=2)
        assert all(f.passed for f in families) and [f.samples for f in families] == [15, 30, 15, 30]

    def test_em_sum_margin_against_high_precision(self):
        dt, k1, k, r = 0.1, 2.7, 7, 3
        d = mpmath.mpf(1) / mpmath.mpf("0.1")
        lhs = 2 * (mpmath.loggamma(k + d - mpmath.mpf("2.7")) - mpmath.loggamma(k + d)) + 2 * (
            mpmath.loggamma(r + 1 + d) - mpmath.loggamma(r + 1 + d - mpmath.mpf("2.7"))
        )
        rhs = -2 * mpmath.mpf("2.7") * mpmath.log((k - mpmath.mpf("2.7")) * mpmath.mpf("0.1") + 1) + 2 * mpmath.mpf(
            "2.7"
        ) * mpmath.log((r + 1) * mpmath.mpf("0.1") + 1)
        ref = float(rhs - lhs)
        got = float(em_sum_term_log_margin(np.array([k]), np.array([r]), dt, k1)[0])
        assert got == pytest.approx(ref, rel=1e-10)
        assert got == pytest.approx(1.08056853795249418, rel=1e-10)  # frozen oracle value

    def test_bem_sum_margin_against_high_precision(self):
        got = float(bem_sum_term_log_margin(np.array([5]), np.array([2]), 0.2, 1.5)[0])
        assert got == pytest.approx(0.868500068037806595, rel=1e-10)  # 50-digit evaluation

    def test_em_initial_margin_against_high_precision(self):
        # the initial term is the sum term at r = -1:
        # Gamma(k+D-K1)^2 Gamma(D)^2 / (Gamma(k+D)^2 Gamma(D-K1)^2) <= ((k-K1) dt + 1)^{-2K1}
        k, dt, k1 = 7, mpmath.mpf("0.1"), mpmath.mpf("2.7")
        d = 1 / dt
        lhs = 2 * (mpmath.loggamma(k + d - k1) + mpmath.loggamma(d)
                   - mpmath.loggamma(k + d) - mpmath.loggamma(d - k1))
        rhs = -2 * k1 * mpmath.log((k - k1) * dt + 1)
        got = float(em_sum_term_log_margin(np.array([k]), -1, 0.1, 2.7)[0])
        assert got == pytest.approx(float(rhs - lhs), rel=1e-10)
        assert got == pytest.approx(1.4317148895784548569, rel=1e-10)  # frozen oracle value

    def test_bem_initial_margin_against_high_precision(self):
        # the initial term is the sum term at r = 0: Gamma(k+1+D) Gamma(1+2K1+D) /
        # (Gamma(k+1+D+2K1) Gamma(1+D)) <= ((k+1) dt + 1)^{-2K1} ((1+2K1) dt + 1)^{2K1}
        k, dt, k1 = 5, mpmath.mpf("0.2"), mpmath.mpf("1.5")
        d = 1 / dt
        lhs = (mpmath.loggamma(k + 1 + d) + mpmath.loggamma(1 + 2 * k1 + d)
               - mpmath.loggamma(k + 1 + d + 2 * k1) - mpmath.loggamma(1 + d))
        rhs = -2 * k1 * mpmath.log((k + 1) * dt + 1) + 2 * k1 * mpmath.log((1 + 2 * k1) * dt + 1)
        got = float(bem_sum_term_log_margin(np.array([k]), 0, 0.2, 1.5)[0])
        assert got == pytest.approx(float(rhs - lhs), rel=1e-10)
        assert got == pytest.approx(1.0286280336982498724, rel=1e-10)  # frozen oracle value

    @pytest.mark.parametrize("margin,r", [(em_sum_term_log_margin, -1), (bem_sum_term_log_margin, 0)])
    @pytest.mark.parametrize("dt", [math.inf, math.nan, True])
    def test_margins_refuse_a_dt_that_is_not_a_positive_real(self, margin, r, dt):
        with pytest.raises(ValueError, match=f"dt must be a positive real, got {dt!r}"):
            margin(np.array([7]), r, dt, 1.5)

    def test_em_initial_margin_positive_on_grid(self):
        ks = np.arange(2, 201)
        for dt in (0.05, 0.1, 0.2):
            for k1 in (1.0, 1.5, 2.0, 2.7, 3.0):
                assert np.all(em_sum_term_log_margin(ks, -1, dt, k1) >= -1e-12)

    def test_bem_initial_margin_holds_below_one(self):
        # the semi-implicit chain only needs K1 > 0.5
        ks = np.arange(2, 201)
        for k1 in (0.6, 0.75, 0.9):
            assert np.all(bem_sum_term_log_margin(ks, 0, 0.1, k1) >= -1e-12)

    def test_envelope_gamma_consistency(self):
        # squared contraction products stay below the power-law cap
        for k1 in (1.0, 1.5, 2.0, 3.0):
            for dt in (0.05, 0.1, 0.2):
                if dt >= 1.0 / (2.0 + k1):
                    continue
                for k in range(int(k1) + 1, 120):
                    params = GammaProductParams(a=0, b=k - 1, alpha=k1, beta=0.0, delta=dt)
                    lhs = product_direct(params) ** 2
                    rhs = ((k - k1) * dt + 1.0) ** (-2.0 * k1)
                    assert lhs <= rhs * (1 + 1e-12), (k, dt, k1)
