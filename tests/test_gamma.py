import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystab import gamma
from polystab.gamma import (
    GammaProductParams,
    RATIO_ETA_ABOVE_ONE,
    RATIO_ETA_BELOW_ONE,
    RATIO_X_GRID,
    log_gamma_ratio,
    product_direct,
    product_via_gamma,
    ratio_power_margin,
    verify_product_identity,
    verify_ratio_signs,
)

mpmath.mp.dps = 50

# frozen from 50-digit evaluations (see oracle tests below)
LN_GAMMA_THREE_HALVES = -0.12078223763524522
# direct multiplication of the ten factors at 50 digits
PRODUCT_PIN_A0_B9 = 0.223839223839224  # a=0, b=9, alpha=2, beta=0.5, delta=0.1


class TestLogGammaRatio:
    def test_recurrence_strict(self):
        for x in np.geomspace(0.5, 1e5, 200):
            x = float(x)
            if abs(math.log(x)) < 1e-3:  # ln x ~ 0 at x = 1; compare absolutely
                assert abs(log_gamma_ratio(x, 1.0) - math.log(x)) <= 1e-14
            else:
                assert log_gamma_ratio(x, 1.0) == pytest.approx(math.log(x), rel=1e-12)

    def test_against_high_precision(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            x = float(10 ** rng.uniform(-1, 9))
            eta = float(10 ** rng.uniform(-3, np.log10(6)))
            ref = float(mpmath.loggamma(mpmath.mpf(x) + mpmath.mpf(eta)) - mpmath.loggamma(mpmath.mpf(x)))
            got = log_gamma_ratio(x, eta)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (x, eta)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(-1.0, 0.5)
        with pytest.raises(ValueError):
            log_gamma_ratio(0.5, -1.0)  # x + eta <= 0


class TestProductParams:
    def test_empty_product_convention(self):
        p = GammaProductParams(a=1, b=0, alpha=2.0, beta=0.0, delta=0.1)
        assert p.is_empty
        assert product_direct(p) == 1.0
        assert product_via_gamma(p) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=2, b=0, alpha=2.0, beta=0.0, delta=0.1),  # a > b + 1
            dict(a=-1, b=0, alpha=2.0, beta=0.0, delta=0.1),
            dict(a=0.5, b=2, alpha=2.0, beta=0.0, delta=0.1),  # non-integer index
            dict(a=0, b=2, alpha=0.0, beta=0.0, delta=0.1),
            dict(a=0, b=2, alpha=2.0, beta=-0.1, delta=0.1),
            dict(a=0, b=2, alpha=2.0, beta=0.0, delta=0.5),  # delta >= 1/alpha
            dict(a=0, b=2, alpha=2.0, beta=0.0, delta=0.0),
            dict(a=0, b=2, alpha=2.0, beta=0.0, delta=-0.1),
            dict(a=0, b=2, alpha=2.0, beta="1", delta=0.1),
            dict(a=0, b=2, alpha=2.0, beta=True, delta=0.1),
            dict(a=0, b=2, alpha=2.0, beta=0.0, delta="0.1"),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            GammaProductParams(**kwargs)


class TestProducts:
    def test_single_factor(self):
        p = GammaProductParams(a=0, b=0, alpha=2.0, beta=0.0, delta=0.1)
        assert product_direct(p) == pytest.approx(0.8, rel=1e-15)
        assert product_via_gamma(p) == pytest.approx(0.8, rel=1e-12)

    def test_regression_pin_ten_factors(self):
        p = GammaProductParams(a=0, b=9, alpha=2.0, beta=0.5, delta=0.1)
        assert product_direct(p) == pytest.approx(PRODUCT_PIN_A0_B9, rel=1e-12)

    def test_long_product_matches_direct(self):
        p = GammaProductParams(a=0, b=999, alpha=1.5, beta=0.25, delta=0.25)
        assert product_via_gamma(p) == pytest.approx(product_direct(p), rel=1e-10)

    def test_monotone_in_b(self):
        values = [
            product_direct(GammaProductParams(a=0, b=b, alpha=1.5, beta=0.5, delta=0.2))
            for b in range(25)
        ]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(min_value=0, max_value=400),
        a_offset=st.integers(min_value=0, max_value=401),
        alpha=st.floats(min_value=0.01, max_value=5.0),
        beta=st.floats(min_value=0.0, max_value=10.0),
        delta_frac=st.floats(min_value=1e-6, max_value=0.99),
    )
    def test_identity_property(self, b, a_offset, alpha, beta, delta_frac):
        a = min(a_offset, b + 1)  # includes the empty product
        params = GammaProductParams(
            a=a, b=b, alpha=alpha, beta=beta, delta=delta_frac / alpha
        )
        direct = product_direct(params)
        via = product_via_gamma(params)
        assert abs(via - direct) <= 1e-10 * direct

    def test_randomized_oracle_equivalence(self):
        result = verify_product_identity(num_samples=1000, seed=123)
        assert result.passed, f"worst {result.worst_margin} at {result.worst_point}"

    @pytest.mark.parametrize("kwargs", [
        dict(num_samples=0), dict(num_samples=-3), dict(num_samples=2.0),
        dict(seed=-1), dict(seed=True),
    ], ids=lambda kw: repr(kw))
    def test_empty_sample_or_negative_seed_rejected(self, kwargs):
        # zero samples would pass vacuously with a worst error of -1
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            verify_product_identity(**kwargs)

    def test_nan_error_fails_and_is_worst(self, monkeypatch):
        # the third sample's NaN error is worse than any finite one
        seen = []

        def via_gamma(params):
            seen.append((params.a, params.b, params.alpha, params.beta, params.delta))
            return math.nan if len(seen) == 3 else product_direct(params)

        monkeypatch.setattr(gamma, "product_via_gamma", via_gamma)
        result = verify_product_identity(num_samples=5, seed=1)
        assert math.isnan(result.worst_margin) and result.passed is False
        assert result.worst_point == seen[2] and result.samples == 5


class TestRatioPowerMargin:
    def test_below_one_at_x1(self):
        # lnGamma(1.5) < 0 is the whole margin at x = 1
        m = ratio_power_margin(1.0, 0.5)
        assert m == pytest.approx(LN_GAMMA_THREE_HALVES, rel=1e-12)
        assert m < 0

    def test_above_one_at_x1(self):
        assert ratio_power_margin(1.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_moderate_point_negative(self):
        assert ratio_power_margin(10.0, 0.3) < 0

    def test_eta_one_rejected(self):
        with pytest.raises(ValueError):
            ratio_power_margin(2.0, 1.0)

    @pytest.mark.parametrize("bad_x", [0.0, -2.0])
    def test_bad_x(self, bad_x):
        with pytest.raises(ValueError):
            ratio_power_margin(bad_x, 0.5)

    def test_array_arguments(self):
        x, eta = np.array([1.0, 10.0, 50.0]), np.array([0.5, 0.3, 2.0])
        m = ratio_power_margin(x, eta)
        assert isinstance(m, np.ndarray) and m.shape == (3,)
        assert m.tolist() == [ratio_power_margin(float(a), float(e)) for a, e in zip(x, eta)]

    def test_sign_grid(self):
        for x in RATIO_X_GRID:
            for eta in RATIO_ETA_BELOW_ONE:
                assert ratio_power_margin(x, eta) < 0, (x, eta)
            for eta in RATIO_ETA_ABOVE_ONE:
                assert ratio_power_margin(x, eta) > 0, (x, eta)

    def test_verify_helper(self):
        below, above = verify_ratio_signs()
        assert below.passed and above.passed
        assert below.worst_margin < 0
        assert above.worst_margin > 0

    def test_nan_margin_fails_and_is_worst(self, monkeypatch):
        # NaN from x = 2 on: each family's first NaN is its worst point
        margin = gamma.ratio_power_margin
        monkeypatch.setattr(gamma, "ratio_power_margin",
                            lambda x, eta: math.nan if x >= 2.0 else margin(x, eta))
        below, above = verify_ratio_signs()
        assert below.worst_point == (2.0, RATIO_ETA_BELOW_ONE[0])
        assert above.worst_point == (2.0, RATIO_ETA_ABOVE_ONE[0])
        for record in (below, above):
            assert math.isnan(record.worst_margin) and record.passed is False

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=1e5),
        eta=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_sign_property_below_one(self, x, eta):
        assert ratio_power_margin(x, eta) < 0

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(min_value=0.05, max_value=1e5),
        eta=st.floats(min_value=1.01, max_value=8.0),
    )
    def test_sign_property_above_one(self, x, eta):
        assert ratio_power_margin(x, eta) > 0
