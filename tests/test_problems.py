import math
import warnings

import numpy as np
import pytest

from polystab import integrators
from polystab.ensemble import SimConfig, simulate_ensemble
from polystab.integrators import StepContext, em_step, solve_implicit
from polystab.problems import (
    AUDIT_NOTE,
    DEFAULT_AUDIT_TIMES,
    DEFAULT_INITIAL_VALUES,
    ConditionAuditReport,
    ConditionCheck,
    SdeProblem,
    audit_conditions,
    bem_example,
    coefficient_values,
    cubic_counterexample,
    default_state_grid,
    exact_linear_mean_square,
    linear_example,
    one_sided_decay_max_k1,
    problem_from_label,
)


def test_linear_example_values():
    p = linear_example()
    assert p.drift(np.array([2.0]), 0.0).item() == -2.0
    assert p.drift(np.array([3.0]), 2.0).item() == -1.0
    assert p.diffusion(np.array([5.0]), 9.0).item() == pytest.approx(0.1)
    assert p.k1 == 1.0 and p.c == 1.0 and p.kbar == -1.0
    assert p.satisfies_linear_growth


def test_linear_terms_are_the_written_formulas_bit_for_bit():
    # the drift divides by -(1+t) in one operation and the noise is one
    # float64; both give exactly -x/(1+t) and zeros_like(x) + 1/(1+t)
    p = linear_example()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000)
    x = np.concatenate([x, [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.7e308]])[:, None]
    for t in (0.0, 1e-9, 0.3, 7.5, 1e300):
        assert p.drift(x, t).tobytes() == (-x / (1.0 + t)).tobytes()
        g = p.diffusion(x, t)
        assert np.broadcast_to(g, x.shape).tobytes() == (np.zeros_like(x) + 1.0 / (1.0 + t)).tobytes()
    assert type(p.diffusion(2.0, 1.0)) is np.float64 and p.diffusion(2.0, 1.0) == 0.5


def test_cubic_counterexample_values():
    p = cubic_counterexample()
    assert p.drift(np.array([1.0]), 0.0).item() == -4.0
    assert p.drift(np.array([2.0]), 1.0).item() == -7.0
    assert p.diffusion(np.array([0.0]), 0.0).item() == 1.0
    assert not p.satisfies_linear_growth
    assert p.k1 == 3.0 and p.c == 1.0


def test_bem_example_values():
    p = bem_example()
    assert p.drift(np.array([1.0]), 0.0).item() == -4.0
    for t in (0.0, 1.0, 7.0):
        assert p.diffusion(np.array([0.0]), t).item() == 0.0
    assert p.diffusion(np.array([math.pi / 2]), 0.0).item() == pytest.approx(5.0)


def test_drift_broadcasts_over_batches():
    p = cubic_counterexample()
    batch = np.array([[1.0], [2.0], [-1.0]])
    out = p.drift(batch, 1.0)
    assert out.shape == batch.shape
    assert out[1, 0] == -7.0


def test_exact_linear_mean_square():
    assert exact_linear_mean_square(1.0, 0.0) == 1.0
    assert exact_linear_mean_square(0.0, 3.0) == pytest.approx(3.0 / 16.0, rel=1e-15)
    assert exact_linear_mean_square(2.0, 99.0) == pytest.approx(0.0103, rel=1e-12)
    with pytest.raises(ValueError):
        exact_linear_mean_square(1.0, -1.0)
    for x0 in ("2", True, math.inf, math.nan):
        with pytest.raises(ValueError, match="x0 must be a finite real"):
            exact_linear_mean_square(x0, 1.0)


def test_exact_linear_mean_square_asymptotic_slope():
    # log-log slope tends to -1 = -(2 K1 - 1) with K1 = 1
    t1, t2 = 1e6, 1e8
    slope = (math.log(exact_linear_mean_square(1.0, t2)) - math.log(exact_linear_mean_square(1.0, t1))) / (
        math.log(1 + t2) - math.log(1 + t1)
    )
    assert slope == pytest.approx(-1.0, abs=1e-5)


def test_problem_validation():
    with pytest.raises(ValueError):
        SdeProblem(
            dimension=0, drift=lambda x, t: x, diffusion=lambda x, t: x,
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="bad",
        )
    with pytest.raises(ValueError):
        SdeProblem(
            dimension=1, drift=lambda x, t: x, diffusion=lambda x, t: x,
            k1=-1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="bad",
        )


@pytest.mark.parametrize("dimension", [True, 1.0, "1", np.int64(0)])
def test_problem_dimension_must_be_a_positive_integer(dimension):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        SdeProblem(
            dimension=dimension, drift=lambda x, t: x, diffusion=lambda x, t: x,
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="bad",
        )


@pytest.mark.parametrize("kbar", ["0", True, [1], math.inf, math.nan, 10**400],
                         ids=["str", "bool", "list", "inf", "nan", "int-beyond-floats"])
def test_problem_kbar_must_be_a_finite_real(kbar):
    with pytest.raises(ValueError, match="kbar must be a finite real"):
        SdeProblem(
            dimension=1, drift=lambda x, t: x, diffusion=lambda x, t: x,
            k1=1.0, c=1.0, kbar=kbar, satisfies_linear_growth=True, label="bad",
        )


class TestAudit:
    def test_linear_passes_default_grid(self):
        report = audit_conditions(linear_example())
        assert all(c.passed for c in report.checks()), report.summary()

    def test_linear_passes_spec_grid(self):
        states = np.linspace(-10, 10, 41).reshape(-1, 1)
        report = audit_conditions(linear_example(), states=states, times=(0.0, 1.0, 10.0, 100.0))
        assert all(c.passed for c in report.checks())

    def test_linear_passes_huge_grid(self):
        states = np.linspace(-1e6, 1e6, 33).reshape(-1, 1)
        report = audit_conditions(linear_example(), states=states, times=(0.0, 1.0, 1e6))
        assert all(c.passed for c in report.checks()), report.summary()

    def test_cubic_fails_only_linear_growth(self):
        report = audit_conditions(cubic_counterexample())
        assert not report.linear_growth_f.passed
        assert report.one_sided_f.passed
        assert report.linear_growth_g.passed
        assert report.one_sided_lipschitz.passed

    def test_cubic_one_sided_margin_identically_nonpositive(self):
        # <x,f> + 3 x^2/(1+t) = -x^4/(1+t)
        report = audit_conditions(cubic_counterexample())
        assert report.one_sided_f.worst_margin <= 0.0

    def test_zero_drift_fails_one_sided(self):
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="zero",
        )
        report = audit_conditions(p)
        assert not report.one_sided_f.passed
        assert report.one_sided_f.worst_margin > 0

    def test_bem_example_one_sided_fails_at_claimed_k1(self):
        report = audit_conditions(bem_example())
        assert not report.one_sided_f.passed
        assert report.linear_growth_g.passed
        assert not report.linear_growth_f.passed
        # with the honest Kbar = 0 the pairwise condition does hold
        assert report.one_sided_lipschitz.passed

    def test_bem_example_audited_k1(self):
        # min over the default grid of (3 + x^2)(1+t)/(1+t)^2, attained at the
        # smallest nonzero |x| = 6.25 and t = 1e4
        k1 = one_sided_decay_max_k1(bem_example())
        assert k1 == pytest.approx((3.0 + 6.25**2) / (1.0 + 1e4), rel=1e-12)
        assert k1 < 0.5  # far from the claimed 3

    def test_linear_audited_k1_is_one(self):
        assert one_sided_decay_max_k1(linear_example()) == pytest.approx(1.0, rel=1e-12)

    def test_rotation_2d_audited_k1(self):
        # -<x, f> (1+t) / |x|^2 = 1 + |x|^2 (the skew part is orthogonal to x),
        # least at the smallest nonzero |x| = 6.25 on the default 2-D grid
        assert one_sided_decay_max_k1(rotation_2d()) == 40.0625

    def test_nonfinite_drift_reported(self):
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.where(np.abs(x) > 50, np.inf, -x),
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="broken",
        )
        with pytest.raises(ValueError, match="non-finite"):
            audit_conditions(p)

    def test_states_of_the_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="states must have 1 columns, got 2"):
            audit_conditions(linear_example(), states=[[1.0, 2.0]], times=(1.0,))

    @pytest.mark.parametrize("value", [1e308, 9e307, -9e307])
    def test_states_whose_pair_box_has_no_finite_width_rejected(self, value):
        # the pairs are drawn in [-w, w] with w the largest |state|; above half
        # the float maximum 2w overflows
        with pytest.raises(ValueError, match="half the float maximum"):
            audit_conditions(linear_example(), states=[[1.0], [value]], times=(0.0,))

    def test_states_just_below_the_limit_are_audited(self):
        # the pair box has a finite width, so the audit runs; the squared norm
        # overflows, and the first NaN margin is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^drift linear growth of 'linear' has a NaN "
                               r"margin \(its sides overflow\) at t=0\.0, sample \(8\.9e\+307,\)$"):
                audit_conditions(linear_example(), states=[[8.9e307]], times=(0.0,))

    @pytest.mark.parametrize("state", [8.9e307, 1e200])
    def test_states_whose_norms_overflow_fail_without_warnings(self, state):
        # the squared norms overflow, so the drift's margins are inf - inf = NaN:
        # the audit refuses the first, and lets no RuntimeWarning out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN margin") as info:
                audit_conditions(linear_example(), states=[[state]], times=(0.0,))
        assert str(info.value).startswith("drift linear growth of 'linear'")
        assert str(info.value).endswith(f"at t=0.0, sample {(state,)}")

    def test_nan_pair_margin_is_refused_and_names_the_pair(self):
        # the bounded drift keeps every pointwise margin a number, but the pairs'
        # |x - y|^2 overflows and Kbar = 0 times inf is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^one-sided Lipschitz of 'tanh' has a NaN margin "
                               r"\(its sides overflow\) at t=0\.0, sample \(\S+,\), \(\S+,\)$"):
                audit_conditions(tanh_problem(kbar=0.0), states=[[1e200]], times=(0.0,))

    def test_infinite_margins_are_verdicts(self):
        # one side overflows and the other does not: -inf passes and +inf fails,
        # as the true margins would (the slack stays finite)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = audit_conditions(tanh_problem(kbar=-1.0), states=[[1e200]], times=(0.0,))
        assert [c.passed for c in report.checks()] == [True, False, True, False]
        assert [c.worst_margin for c in report.checks()][:2] == [-math.inf, math.inf]
        assert report.one_sided_lipschitz.worst_margin == math.inf

    def test_coefficient_arithmetic_error_is_a_value_error(self):
        # bem-example's (1 + t)**2 overflows on the Python float t = 1e200
        with pytest.raises(ValueError,
                           match=r"^drift of 'bem-example' raised OverflowError at t=1e\+200"):
            audit_conditions(bem_example(), times=(1e200,))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            audit_conditions(linear_example(), times=())
        with pytest.raises(ValueError):
            audit_conditions(linear_example(), times=(-1.0,))

    def test_report_mentions_evidence(self):
        report = audit_conditions(linear_example())
        assert "not a proof" in AUDIT_NOTE
        assert "not a proof" in report.summary().splitlines()[0]


def reference_audit(problem, states=None, times=None, pair_samples=1000, seed=0):
    """audit_conditions as first written: one (margin, slack, point) tuple per
    sample, scanned in Python; the first strictly greater margin is the worst.

    Inputs are taken as valid and the drift and diffusion as finite.
    """
    def point(vec):
        return tuple(float(v) for v in np.atleast_1d(vec))

    def worst(samples):
        worst_m, worst_pt, ok, n = -np.inf, None, True, 0
        for margin, slack, pt in samples:
            n += 1
            if margin > slack:
                ok = False
            if margin > worst_m:
                worst_m, worst_pt = margin, pt
        return worst_m, worst_pt, ok, n

    rtol = 1e-12
    if states is None:
        states = default_state_grid(problem.dimension)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    times = DEFAULT_AUDIT_TIMES if times is None else tuple(float(t) for t in times)
    k1, c = problem.k1, problem.c
    lin_f, one_f, lin_g = [], [], []
    for t in times:
        f = np.broadcast_to(np.asarray(problem.drift(states, t), dtype=float), states.shape)
        g = np.broadcast_to(np.asarray(problem.diffusion(states, t), dtype=float), states.shape)
        xn = np.linalg.norm(states, axis=1)
        fn = np.linalg.norm(f, axis=1)
        gn = np.linalg.norm(g, axis=1)
        xf = np.einsum("ij,ij->i", states, f)
        rhs = k1 * xn / (1.0 + t)
        for i in range(len(states)):
            slack = rtol * max(fn[i], rhs[i], 1.0)
            lin_f.append((fn[i] - rhs[i], slack, (t, point(states[i]))))
        rhs = -k1 * xn**2 / (1.0 + t)
        for i in range(len(states)):
            slack = rtol * max(abs(xf[i]), abs(rhs[i]), 1.0)
            one_f.append((xf[i] - rhs[i], slack, (t, point(states[i]))))
        rhs_g = c * (1.0 + t) ** (-k1)
        for i in range(len(states)):
            slack = rtol * max(gn[i], rhs_g, 1.0)
            lin_g.append((gn[i] - rhs_g, slack, (t, point(states[i]))))
    half_width = float(np.max(np.abs(states))) or 1.0
    osl = []
    for i, t in enumerate(times):
        # the i-th time's pairs: numpy's Generator.random on the Philox at key
        # (seed, i) and counter 2**192, the layout of noise.uniforms
        bits = np.random.Philox(key=np.array([seed, i], dtype=np.uint64), counter=2**192)
        u = np.random.Generator(bits).random((2, pair_samples, problem.dimension))
        xs, ys = -half_width + 2.0 * half_width * u
        fx = np.asarray(problem.drift(xs, t), dtype=float)
        fy = np.asarray(problem.drift(ys, t), dtype=float)
        d = xs - ys
        lhs = np.einsum("ij,ij->i", d, fx - fy)
        rhs = problem.kbar * np.einsum("ij,ij->i", d, d) / (1.0 + t)
        for i in range(pair_samples):
            slack = rtol * max(abs(lhs[i]), abs(rhs[i]), 1.0)
            osl.append((lhs[i] - rhs[i], slack, (t, point(xs[i]), point(ys[i]))))

    def check(name, samples):
        worst_m, worst_pt, ok, n = worst(samples)
        return ConditionCheck(name=name, rule=f"<= 0 ({rtol:g} rel. slack)", worst_margin=worst_m,
                              worst_point=worst_pt, samples=n, passed=ok)

    return ConditionAuditReport(
        problem_label=problem.label,
        linear_growth_f=check("drift linear growth", lin_f),
        one_sided_f=check("drift one-sided decay", one_f),
        linear_growth_g=check("noise envelope", lin_g),
        one_sided_lipschitz=check("one-sided Lipschitz", osl),
    )


def tanh_problem(kbar):
    # a bounded drift: |f| <= |x| / (1+t) holds, and <x, f> <= -|x|^2 / (1+t) does not
    return SdeProblem(
        dimension=1, drift=lambda x, t: -np.tanh(x) / (1.0 + t),
        diffusion=lambda x, t: np.float64(0.0),
        k1=1.0, c=1.0, kbar=kbar, satisfies_linear_growth=True, label="tanh",
    )


def rotation_2d():
    # minus a convex gradient plus a skew part, with a noise envelope that
    # fails at t = 0 (|g| = 2 > C = 1)
    def drift(x, t):
        x = np.asarray(x, dtype=float)
        skew = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return (-(1.0 + np.sum(x * x, axis=-1, keepdims=True)) * x + 0.5 * skew) / (1.0 + t)

    return SdeProblem(
        dimension=2, drift=drift, diffusion=lambda x, t: np.full(np.shape(x), 2.0 ** 0.5),
        k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="rot2d",
    )


class TestAuditReference:
    """audit_conditions against the per-sample loop, every field and its type."""

    @pytest.mark.parametrize("problem", [
        linear_example(), cubic_counterexample(), bem_example(), rotation_2d(),
    ], ids=lambda p: p.label)
    def test_matches_reference(self, problem):
        report = audit_conditions(problem)
        assert repr(report) == repr(reference_audit(problem))
        assert report == reference_audit(problem)

    def test_failed_checks_match(self):
        report = audit_conditions(rotation_2d(), times=(0.0, 3.0))
        assert not report.linear_growth_f.passed and not report.linear_growth_g.passed
        assert repr(report) == repr(reference_audit(rotation_2d(), times=(0.0, 3.0)))

    def test_tie_takes_the_first_sample(self):
        # the linear drift's one-sided margin is 0 at every state: the worst
        # point is the first state at the first time
        states = np.array([[3.0], [-2.0], [0.5]])
        report = audit_conditions(linear_example(), states=states, times=(1.0, 2.0))
        assert report.one_sided_f.worst_margin == 0.0
        assert report.one_sided_f.worst_point == (1.0, (3.0,))
        assert repr(report) == repr(
            reference_audit(linear_example(), states=states, times=(1.0, 2.0)))

    def test_nan_margin_fails_and_is_worst(self):
        # at |x| = 1e200 the norms and products overflow, so the drift's two
        # margins and the pairs' margin are inf - inf = NaN: the audit refuses
        # the first condition's first NaN sample at the first time
        for states, first_nan in (([[1e200], [-1e200]], (1e200,)),
                                  ([[2.0], [-1e200], [1e200]], (-1e200,))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    audit_conditions(linear_example(), states=states, times=(0.0, 1.0))
            assert str(info.value) == ("drift linear growth of 'linear' has a NaN margin "
                                       f"(its sides overflow) at t=0.0, sample {first_nan}")


def test_default_state_grid_shapes():
    g1 = default_state_grid(1)
    assert g1.shape == (33, 1)
    assert 0.0 in g1[:, 0]
    g2 = default_state_grid(2)
    assert g2.shape == (33 * 33, 2)
    g5 = default_state_grid(5)
    assert g5.shape == (33**3, 5)
    assert np.all(g5[:, 3:] == 0.0)


class TestRegistry:
    def test_labels_and_defaults(self):
        assert set(DEFAULT_INITIAL_VALUES) == {"linear", "counterexample", "bem-example"}
        for label in DEFAULT_INITIAL_VALUES:
            assert problem_from_label(label).label == label

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown problem"):
            problem_from_label("nope")

    @pytest.mark.parametrize("label", [["linear"], {"linear": 1}, 5])
    def test_label_of_another_type(self, label):
        with pytest.raises(ValueError, match="unknown problem"):
            problem_from_label(label)

    @pytest.mark.parametrize("overrides", [dict(k1="2"), dict(c=True), dict(k1=[1.0])])
    def test_override_that_is_not_a_positive_real(self, overrides):
        with pytest.raises(ValueError, match="must be a positive real"):
            problem_from_label("linear", **overrides)

    def test_overrides(self):
        p = problem_from_label("linear", k1=2.5, c=0.7)
        assert p.k1 == 2.5 and p.c == 0.7
        # dynamics untouched
        assert p.drift(np.array([2.0]), 0.0).item() == -2.0


def block_only(n, fn, calls):
    """fn behind asserts that each call gets a float64 (rows, n) ndarray and a float time;
    calls collects the shapes."""
    def checked(x, t):
        assert type(x) is np.ndarray and x.dtype == np.float64, (type(x), getattr(x, "dtype", None))
        assert x.ndim == 2 and x.shape[1] == n, x.shape
        assert isinstance(t, float), type(t)
        calls.append(x.shape)
        return fn(x, t)
    return checked


def block_problem(n, calls):
    """-(3x + |x|^2 x)/(1+t) dt + (1+t)^-3 dB in R^n, written for (rows, n) blocks: at
    n = 1 it is the counterexample, with the cube as the benchmark's 2-D drift forms it."""
    def drift(x, t):
        return -(3.0 * x + np.sum(x * x, axis=1, keepdims=True) * x) / (1.0 + t)

    return SdeProblem(
        dimension=n, drift=block_only(n, drift, calls),
        diffusion=block_only(n, lambda x, t: np.float64((1.0 + t) ** -3), calls),
        k1=3.0, c=1.0, kbar=-3.0, satisfies_linear_growth=False, label=f"block-{n}d",
    )


class TestCoefficientContract:
    """Every coefficient call in the package gets a float64 (rows, n) block."""

    def test_values_take_the_block_shape(self):
        states = np.arange(6.0).reshape(3, 2)
        same = states * 2.0
        assert coefficient_values(lambda x, t: same, states, 0.0) is same
        for fn in (lambda x, t: -0.5, lambda x, t: np.float64(-0.5), lambda x, t: np.full((1, 2), -0.5)):
            out = coefficient_values(fn, states, 0.0)
            assert out.shape == (3, 2) and out.dtype == np.float64 and (out == -0.5).all()
        assert coefficient_values(lambda x, t: np.ones(3, dtype=int)[:, None], states, 0.0).dtype == np.float64

    @pytest.mark.parametrize("y,db", [(0.5, 0.2), (np.array([[0.5], [-1.0], [2.0]]), np.full((3, 1), 0.2))],
                             ids=["scalar", "column"])
    def test_em_step(self, y, db):
        calls = []
        out = em_step(block_problem(1, calls), y, StepContext(k=2, dt=0.1, db=db))
        expected = em_step(cubic_counterexample(), y, StepContext(k=2, dt=0.1, db=db))
        assert np.shape(out) == np.shape(y) and np.array_equal(out, expected)
        assert calls == [(np.size(y), 1)] * 2

    def test_em_step_vector(self):
        calls = []
        p = block_problem(2, calls)
        out = em_step(p, np.array([1.0, -2.0]), StepContext(k=0, dt=0.1, db=0.5))
        assert out.shape == (2,) and calls == [(1, 2)] * 2
        with pytest.raises(ValueError, match="last axis of length 2, got shape \\(3,\\)"):
            em_step(p, np.zeros(3), StepContext(k=0, dt=0.1, db=0.5))

    def test_solve_implicit_with_the_bisection(self, monkeypatch):
        # one Newton iteration from b = 40 leaves the lane to the bisection,
        # whose every call is one (1, 1) block
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", 1)
        calls = []
        x = solve_implicit(block_problem(1, calls), 0.0, 40.0, 0.3)
        assert x == solve_implicit(cubic_counterexample(), 0.0, 40.0, 0.3) == 4.696466976414726
        assert calls.count((1, 1)) > 1

    def test_solve_implicit_vector(self):
        calls = []
        b = np.array([3.0, -2.0])
        x = solve_implicit(block_problem(2, calls), 1.0, b, 0.1)
        residual = x + 0.1 * (3.0 * x + np.sum(x * x) * x) / 2.0 - b
        assert x.shape == (2,) and np.max(np.abs(residual)) <= 1e-12 and calls

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scheme", ["em", "bem"])
    def test_simulate_ensemble(self, scheme, n):
        calls = []
        cfg = SimConfig(dt=0.05, num_steps=20, num_paths=6, seed=3, scheme=scheme,
                        initial_value=(0.5,) * n)
        series = simulate_ensemble(block_problem(n, calls), cfg)
        assert series.surviving[-1] == 6 and calls

    @pytest.mark.parametrize("n", [1, 2])
    def test_audit_and_max_k1(self, n):
        calls = []
        p = block_problem(n, calls)
        report = audit_conditions(p)
        assert report.one_sided_f.passed and not report.linear_growth_f.passed
        assert one_sided_decay_max_k1(p) == pytest.approx(3.0 + 6.25**2, rel=1e-12)
        assert calls

    def test_drift_of_one_float_is_audited(self):
        # a constant drift broadcasts to every block: the pair check's
        # fx - fy and max-K1's <x, f> read it at the block's shape
        p = SdeProblem(
            dimension=1, drift=lambda x, t: np.float64(-0.0), diffusion=lambda x, t: np.float64(0.0),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="const",
        )
        report = audit_conditions(p)
        assert report.linear_growth_f.passed and not report.one_sided_f.passed
        assert report.one_sided_lipschitz.passed and report.one_sided_lipschitz.worst_margin == 0.0
        k1 = one_sided_decay_max_k1(p)
        assert k1 == 0.0 and math.copysign(1.0, k1) == 1.0
