import dataclasses
import math
import warnings

import numpy as np
import pytest

from polystab import integrators
from polystab.noise import brownian_increment, fill_standard_normals
from polystab.integrators import (
    ImplicitSolveError,
    StepContext,
    StepError,
    bem_step_batch,
    check_decay_dt,
    em_step,
    em_step_batch,
    solve_implicit,
    solve_implicit_batch,
)
from polystab.problems import (
    SdeProblem,
    bem_example,
    cubic_counterexample,
    linear_example,
)

BUILTINS = (linear_example(), cubic_counterexample(), bem_example())


def oracle_bisect(drift, t, b, dt, lo=-1e6, hi=1e6, iters=200):
    """Independent root oracle: plain interval halving on x - drift(x,t)*dt - b.

    Deliberately separate from the production solver; relies only on the
    residual being increasing in x.
    """
    def res(x):
        return x - dt * float(np.asarray(drift(x, t))) - b

    assert res(lo) < 0 < res(hi), "oracle bracket does not straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if res(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# the solver's residual tolerance, which the references below stop at
TOLERANCE = 1e-12

# frozen from the oracle above (and cross-checked at 50 digits):
# root of 0.1 x^3 + 1.3 x - 1 = 0
CUBIC_IMPLICIT_ROOT = 0.7382769288655978


class TestStepContext:
    def test_fields(self):
        ctx = StepContext(k=3, dt=0.25, db=0.5)
        assert ctx.t == 0.75

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=-1, dt=0.1, db=0.0),
            dict(k=0.5, dt=0.1, db=0.0),
            dict(k=0, dt=0.0, db=0.0),
            dict(k=0, dt=-0.1, db=0.0),
            dict(k=0, dt=0.1, db=float("nan")),
            dict(k=True, dt=0.1, db=0.0),
            dict(k=0, dt=True, db=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepContext(**kwargs)


class TestEmStep:
    def test_linear_deterministic_part(self):
        out = em_step(linear_example(), 1.0, StepContext(k=0, dt=0.1, db=0.0))
        assert out == pytest.approx(0.9, rel=1e-15)

    def test_linear_noise_part(self):
        lin = linear_example()
        assert em_step(lin, 0.0, StepContext(k=0, dt=0.1, db=0.5)) == pytest.approx(0.5)
        assert em_step(lin, 0.0, StepContext(k=3, dt=0.1, db=0.5)) == pytest.approx(0.5 / 1.3)

    def test_cubic_overshoot(self):
        out = em_step(cubic_counterexample(), 10.0, StepContext(k=0, dt=0.1, db=0.0))
        assert out == pytest.approx(-93.0, rel=1e-14)

    def test_batch_shapes(self):
        y = np.array([[1.0], [10.0]])
        db = np.array([[0.0], [0.0]])
        out = em_step(cubic_counterexample(), y, StepContext(k=0, dt=0.1, db=db))
        assert out.shape == (2, 1)
        assert out[1, 0] == pytest.approx(-93.0)

    @pytest.mark.parametrize("y,db,message", [
        (1.0, np.zeros(3), r"db of shape \(3,\) does not broadcast to y's shape \(\)"),
        (np.zeros((2, 1)), np.zeros(3), r"db of shape \(3,\) does not broadcast to y's shape \(2, 1\)"),
        (np.zeros(4), np.zeros((2, 4)), r"db of shape \(2, 4\) does not broadcast to y's shape \(4,\)"),
    ])
    def test_db_that_does_not_broadcast_names_both_shapes(self, y, db, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            em_step(linear_example(), y, StepContext(k=0, dt=0.1, db=db))

    def test_nonfinite_raises(self):
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: x * np.inf,
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="inf",
        )
        with pytest.raises(StepError):
            em_step(p, 1.0, StepContext(k=0, dt=0.1, db=0.0))

    def test_batch_kernel_matches_written_formula_per_path(self):
        # the kernel on a block equals the formula applied to each path alone
        rng = np.random.default_rng(3)
        k, dt = 7, 0.1
        for p in (linear_example(), cubic_counterexample()):
            x = rng.normal(scale=2.0, size=(64, 1))
            db = rng.normal(scale=math.sqrt(dt), size=(64, 1))
            out, _ = em_step_batch(p, x, k * dt, (k + 1) * dt, dt, db)
            t = k * dt
            for i in range(64):
                y = x[i, 0]
                expected = y + float(p.drift(y, t)) * dt + float(p.diffusion(y, t)) * db[i, 0]
                assert out[i, 0] == expected
                assert em_step(p, y, StepContext(k=k, dt=dt, db=db[i, 0])) == expected

    def test_consistency_small_dt(self):
        # with db = 0, (step(y) - y)/dt equals the drift exactly
        lin = linear_example()
        for dt in (0.1, 1e-3, 1e-6):
            out = em_step(lin, 2.0, StepContext(k=0, dt=dt, db=0.0))
            assert (out - 2.0) / dt == pytest.approx(-2.0, rel=1e-9)


class TestSolverConfig:
    def test_defaults(self):
        assert integrators._RESIDUAL_TOLERANCE == TOLERANCE
        assert integrators._MAX_ITERATIONS == 100


class TestSolveImplicit:
    def test_zero_drift_identity(self):
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="zero",
        )
        for b in (-3.0, 0.0, 7.5):
            assert solve_implicit(p, 1.0, b, 0.2) == pytest.approx(b, abs=1e-12)

    def test_linear_closed_form(self):
        x = solve_implicit(linear_example(), 1.0, 1.0, 0.1)
        assert x == pytest.approx(1.0 / 1.05, abs=3e-12)

    def test_cubic_pinned_root(self):
        x = solve_implicit(cubic_counterexample(), 0.0, 1.0, 0.1)
        assert x == pytest.approx(CUBIC_IMPLICIT_ROOT, abs=1e-12)
        oracle = oracle_bisect(cubic_counterexample().drift, 0.0, 1.0, 0.1, lo=0.0, hi=1.0)
        assert x == pytest.approx(oracle, abs=1e-11)

    def test_dt_precondition(self):
        with pytest.raises(ValueError, match="Kbar"):
            solve_implicit(cubic_counterexample(), 1.0, 1.0, 0.4)  # 1/|Kbar| = 1/3
        for dt in (0.0, -0.1, math.nan, True):
            with pytest.raises(ValueError, match="dt must be a positive real"):
                solve_implicit(linear_example(), 1.0, 2.0, dt)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, True],
                             ids=["negative", "nan", "inf", "bool"])
    def test_time_precondition(self, t):
        with pytest.raises(ValueError, match="t must be a finite real >= 0"):
            solve_implicit(linear_example(), t, 2.0, 0.1)

    def test_b_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"b must have shape \(2,\)"):
            solve_implicit(Test2D.problem(), 1.0, np.array([1.0, 2.0, 3.0]), 0.2)
        with pytest.raises(ValueError, match=r"b must have shape \(m, 2\)"):
            solve_implicit_batch(Test2D.problem(), 1.0, np.array([1.0, 2.0]), 0.2)
        with pytest.raises(ValueError, match=r"b must have shape \(m, 1\)"):
            solve_implicit_batch(linear_example(), 1.0, np.ones((3, 2)), 0.2)

    def test_residual_meets_tolerance_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            problem = BUILTINS[rng.integers(0, len(BUILTINS))]
            t = float(rng.uniform(1e-6, 100.0))
            b = float(rng.uniform(-50.0, 50.0))
            dt_hi = 0.99 / abs(problem.kbar) if problem.kbar != 0 else 1.0
            dt = float(rng.uniform(1e-3, dt_hi))
            x = solve_implicit(problem, t, b, dt)
            resid = x - dt * float(np.asarray(problem.drift(x, t))) - b
            assert abs(resid) <= 1e-12, (problem.label, t, b, dt)

    def test_newton_agrees_with_production_bisection(self, monkeypatch):
        rng = np.random.default_rng(8)
        for _ in range(250):
            problem = BUILTINS[rng.integers(0, len(BUILTINS))]
            t = float(rng.uniform(1e-6, 100.0))
            b = float(rng.uniform(-50.0, 50.0))
            dt_hi = 0.99 / abs(problem.kbar) if problem.kbar != 0 else 1.0
            dt = float(rng.uniform(1e-3, dt_hi))
            newton = solve_implicit(problem, t, b, dt)
            with monkeypatch.context() as m:  # the bisection alone, to a tighter residual
                m.setattr(integrators, "_RESIDUAL_TOLERANCE", 1e-13)
                bisect = integrators._bisect_root_scalar(problem.drift, t, b, dt)
            assert abs(newton - bisect) <= 1e-10, (problem.label, t, b, dt)

    def test_bisection_fallback_engages(self, monkeypatch):
        # one Newton iteration cannot reach tolerance from x0 = b here
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", 1)
        x = solve_implicit(cubic_counterexample(), 0.0, 40.0, 0.3)
        resid = x - 0.3 * float(np.asarray(cubic_counterexample().drift(x, 0.0))) - 40.0
        assert abs(resid) <= 1e-12

    def test_unsolvable_raises_with_residual(self):
        # residual x - 0.5 x^2 - b has no root for b > 0.5: sup(x - 0.5 x^2) = 0.5,
        # so Newton cannot converge and bisection cannot bracket a root
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.asarray(x, dtype=float) ** 2,
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=-1.0, satisfies_linear_growth=False, label="no-root",
        )
        with pytest.raises(ImplicitSolveError) as err:
            solve_implicit(p, 1.0, 10.0, 0.5)
        assert err.value.best_residual is not None

    def test_overflowing_drift_leaves_the_lane_unsolved(self):
        # x**3 overflows at b = 1e110: to inf on the (1, 1) block the
        # bisection hands the drift, where a Python float raises OverflowError
        p = cubic_counterexample()
        with np.errstate(all="ignore"):
            _, ok = solve_implicit_batch(p, 0.1, np.array([[1e110]]), 0.1)
            assert ok.tolist() == [False]
            with pytest.raises(ImplicitSolveError):
                solve_implicit(p, 0.1, 1e110, 0.1)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    def test_bisection_without_a_bracket_returns_none(self, sign):
        # drift sign * x^2 at dt = 0.5: the residual x - 0.5 sign x^2 - b stays
        # <= -9.5 for sign 1, b = 10 (no upper end) and >= 9.5 for sign -1,
        # b = -10 (no lower end)
        calls = []

        def drift(x, t):
            calls.append(x)
            return sign * x * x

        assert integrators._bisect_root_scalar(drift, 1.0, sign * 10.0, 0.5) is None
        # the residual at b, then each widening of the end that misses the root
        assert len(calls) == 1 + integrators._BRACKET_WIDENINGS


class Test2D:
    @staticmethod
    def problem():
        # linear contraction with rotation; one-sided Lipschitz with Kbar = -1
        mat = np.array([[-1.0, -0.5], [0.5, -1.0]])

        def drift(x, t):
            return (np.asarray(x, dtype=float) @ mat.T) / (1.0 + t)

        def diffusion(x, t):
            out = np.zeros_like(np.asarray(x, dtype=float))
            out[..., 0] = 1.0 / (1.0 + t)
            return out

        return SdeProblem(
            dimension=2, drift=drift, diffusion=diffusion,
            k1=1.0, c=1.0, kbar=-1.0, satisfies_linear_growth=True, label="rot2d",
        )

    def test_solve_implicit_vector(self):
        p = self.problem()
        b = np.array([1.0, -2.0])
        x = solve_implicit(p, 1.0, b, 0.2)
        resid = x - 0.2 * p.drift(x, 1.0) - b
        assert np.max(np.abs(resid)) <= 1e-12

    def test_bem_step_vector(self):
        p = self.problem()
        z = np.array([[1.0, 1.0]])
        out, ok = bem_step_batch(p, z, 2 * 0.2, 3 * 0.2, 0.2, np.array([[0.3]]))
        assert out.shape == (1, 2) and ok.tolist() == [True]
        b = z + p.diffusion(z, 0.4) * 0.3
        resid = out - 0.2 * p.drift(out, 0.6) - b
        assert np.max(np.abs(resid)) <= 1e-12

    def test_converged_on_last_iteration(self, monkeypatch):
        # the second Newton step lands on the root; the budget is then spent
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", 2)
        p = self.problem()
        b = np.array([1.0, -2.0])
        x = solve_implicit(p, 1.0, b, 0.2)
        resid = x - 0.2 * p.drift(x, 1.0) - b
        assert np.max(np.abs(resid)) <= 1e-12


def reference_vector_newton(drift, t, b, dt, max_iterations):
    """One lane of the n-d damped Newton, written as a plain loop.

    The per-vector loop the batched kernel replaced, plus the final
    convergence test. Returns (x, ok): the root, or the best iterate, and
    whether tolerance was met; also the number of backtracks taken.
    """
    def residual(v):
        return v - dt * np.asarray(drift(v, t), dtype=float) - b

    n = b.size
    x = b.copy()
    r = residual(x)
    best_x, best_r = x, float(np.max(np.abs(r)))
    backtracks = 0
    for _ in range(max_iterations):
        if np.max(np.abs(r)) <= TOLERANCE:
            return x, True, backtracks
        jac = np.empty((n, n))
        for j in range(n):
            h = max(1e-7, 1e-7 * abs(x[j]))
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (residual(x + e) - residual(x - e)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            step = r
        for _ in range(30):
            xa = x - step
            ra = residual(xa)
            if np.all(np.isfinite(ra)) and np.max(np.abs(ra)) <= np.max(np.abs(r)):
                break
            step = 0.5 * step
            backtracks += 1
        x, r = xa, ra
        rmax = float(np.max(np.abs(r)))
        if rmax < best_r:
            best_x, best_r = x, rmax
    if np.max(np.abs(r)) <= TOLERANCE:
        return x, True, backtracks
    return best_x, False, backtracks


class TestBatchedSolve:
    """solve_implicit_batch against lone lanes and the plain-loop reference."""

    DT = 0.5

    @staticmethod
    def problem():
        # steep arctan wells make Newton from x0 = b overshoot and backtrack;
        # beyond |x| = 50 the residual x - 0.5 (2x) - b is constant, so the
        # Jacobian is singular there and such a lane exhausts its budget
        def drift(x, t):
            x = np.asarray(x, dtype=float)
            skew = np.stack([-x[..., 1], x[..., 0]], axis=-1)
            inner = -20.0 * np.arctan(5.0 * x) + 0.5 * skew / (1.0 + t)
            return np.where(np.abs(x) >= 50.0, 2.0 * x, inner)

        return SdeProblem(
            dimension=2, drift=drift, diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="wells2d",
        )

    @staticmethod
    def lanes():
        rng = np.random.default_rng(5)
        fixed = np.array([[0.0, 0.0], [3.0, -2.0], [-4.0, 0.1], [100.0, 100.0]])
        return np.concatenate([fixed, rng.uniform(-8.0, 8.0, size=(12, 2))])

    @pytest.mark.parametrize("max_iterations", [100, 3, 1], ids=["cfg0", "cfg1", "cfg2"])
    def test_block_equals_lone_lanes(self, monkeypatch, max_iterations):
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", max_iterations)
        p, b = self.problem(), self.lanes()
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert x.shape == b.shape and ok.shape == (len(b),)
        assert not ok[3]  # the singular lane never converges
        for i in range(len(b)):
            xi, oki = solve_implicit_batch(p, 1.0, b[i:i + 1], self.DT)
            assert np.array_equal(x[i], xi[0]) and ok[i] == oki[0], i

    @pytest.mark.parametrize("max_iterations", [100, 3])
    def test_matches_plain_loop(self, monkeypatch, max_iterations):
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", max_iterations)
        p, b = self.problem(), self.lanes()
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        backtracked = 0
        for i in range(len(b)):
            ref_x, ref_ok, backtracks = reference_vector_newton(
                p.drift, 1.0, b[i], self.DT, max_iterations)
            assert np.array_equal(x[i], ref_x) and ok[i] == ref_ok, i
            backtracked += backtracks > 0
        assert backtracked >= 2
        if max_iterations == 3:
            assert 0 < np.sum(ok) < len(b) - 1  # some lanes run out of budget

    def test_converged_lanes_meet_tolerance(self):
        p, b = self.problem(), self.lanes()
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        resid = x - self.DT * p.drift(x, 1.0) - b
        assert np.all(np.max(np.abs(resid[ok]), axis=1) <= 1e-12)
        assert np.sum(ok) == len(b) - 1

    @pytest.mark.parametrize("errstate", [{}, {"all": "ignore"}], ids=["default", "ignore"])
    def test_singular_lane_spends_its_budget_under_any_errstate(self, errstate):
        # every ensemble step runs under np.errstate(all="ignore"); the
        # singular Jacobian must still raise, so the lane steps by its residual
        # every iteration: one call at b and one per iteration, no backtracking
        p, calls = self.problem(), []

        def drift(x, t):
            calls.append(len(x))
            return p.drift(x, t)

        counted = dataclasses.replace(p, drift=drift)
        with np.errstate(**errstate):
            x, ok = solve_implicit_batch(counted, 1.0, self.lanes()[3:4], self.DT)
        assert not ok[0] and np.all(np.isfinite(x))
        assert len(calls) == 1 + integrators._MAX_ITERATIONS == 101

    def test_adapter_reports_best_residual(self):
        p = self.problem()
        with pytest.raises(ImplicitSolveError) as err:
            solve_implicit(p, 1.0, np.array([100.0, 100.0]), self.DT)
        assert err.value.best_residual == 100.0
        assert err.value.state.shape == (2,)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_drift_that_returns_one_constant(self, dimension):
        # a drift of -1 everywhere, returned as one float: the root is b - dt
        p = SdeProblem(
            dimension=dimension, drift=lambda x, t: -1.0, diffusion=lambda x, t: np.ones_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="constant-drift",
        )
        b = np.linspace(-3.0, 3.0, 4 * dimension).reshape(-1, dimension)
        x, ok = solve_implicit_batch(p, 1.0, b, 0.1)
        assert ok.all() and np.max(np.abs(x - (b - 0.1))) <= 1e-12

    def test_scalar_lanes_match_solve_implicit(self):
        p = bem_example()
        b = np.linspace(-30.0, 30.0, 41)
        x, ok = solve_implicit_batch(p, 0.6, b[:, None], 0.3)
        assert np.all(ok) and x.shape == (41, 1)
        for i, bi in enumerate(b):
            assert x[i, 0] == solve_implicit(p, 0.6, bi, 0.3)


class TestVectorSolveEdges:
    """The n-d solver against reference_vector_newton on edge lanes, byte for byte."""

    DT = 0.5

    @staticmethod
    def problem(seen_inf=None):
        # the wells of TestBatchedSolve behind a wall: the drift is inf where
        # 9 < |x_j| < 50, so a first Newton step over it has a non-finite residual
        wells = TestBatchedSolve.problem().drift

        def drift(x, t):
            x = np.asarray(x, dtype=float)
            out = np.where((np.abs(x) > 9.0) & (np.abs(x) < 50.0), np.inf, wells(x, t))
            if seen_inf is not None and np.isinf(out).any():
                seen_inf.append(True)
            return out

        return SdeProblem(
            dimension=2, drift=drift, diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="walled-wells2d",
        )

    # converged at b (one with signed zeros), signed zeros that need iterations,
    # lanes whose first step crosses the wall, and the singular lane
    LANES = np.array([
        [0.0, 0.0], [-0.0, -0.0], [-0.0, 3.0], [2.5, -0.0], [3.0, -2.0],
        [-4.0, 0.1], [-1.72152537, -0.1116317], [0.24520898, -3.42717792], [100.0, 100.0],
    ])

    @pytest.mark.parametrize("max_iterations", [100, 1, 3],
                             ids=["newton", "one-iteration", "three-iterations"])
    def test_matches_plain_loop_bytes(self, monkeypatch, max_iterations):
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", max_iterations)
        p, b = self.problem(), self.LANES
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        for i in range(len(b)):
            ref_x, ref_ok, _ = reference_vector_newton(p.drift, 1.0, b[i], self.DT, max_iterations)
            assert x[i].tobytes() == ref_x.tobytes() and ok[i] == ref_ok, i
        assert ok[0] and ok[1] and x[:2].tobytes() == b[:2].tobytes()  # converged at b
        assert not ok[-1]
        if max_iterations == 100:
            assert np.sum(ok) == len(b) - 1
        else:
            assert np.sum(ok) < len(b) - 1  # lanes out of budget return their best iterate

    def test_lane_backtracks_from_a_nonfinite_residual(self):
        seen_inf = []
        p, b = self.problem(seen_inf), self.LANES[4:5]
        ref_x, ref_ok, backtracks = reference_vector_newton(p.drift, 1.0, b[0], self.DT, 100)
        assert seen_inf and ref_ok and backtracks > 0
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert x[0].tobytes() == ref_x.tobytes() and ok[0]

    def test_drift_that_sees_the_sign_of_zero(self, monkeypatch):
        # each point carries the sign of zero it has when formed on its own:
        # x itself at the residual point, x + 0.0 and x - 0.0 off column j
        wells = TestBatchedSolve.problem().drift
        p = SdeProblem(
            dimension=2, drift=lambda x, t: wells(x, t) + np.signbit(x),
            diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="signbit-wells2d",
        )
        b = np.array([[-0.0, 3.0], [2.5, -0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
        for max_iterations in (100, 2):
            monkeypatch.setattr(integrators, "_MAX_ITERATIONS", max_iterations)
            x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
            for i in range(len(b)):
                ref_x, ref_ok, _ = reference_vector_newton(p.drift, 1.0, b[i], self.DT, max_iterations)
                assert x[i].tobytes() == ref_x.tobytes() and ok[i] == ref_ok, (max_iterations, i)

    def test_one_newton_step_takes_two_drift_calls(self):
        # a linear drift at a small step converges in one Newton step: the
        # first call covers b and its difference points, the second the trial
        rows = []

        def drift(x, t):
            rows.append(len(x))
            skew = np.stack([-x[..., 1], x[..., 0]], axis=-1)
            return (-x + 0.5 * skew) / (1.0 + t)

        p = SdeProblem(
            dimension=2, drift=drift, diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=-1.0, satisfies_linear_growth=True, label="lin2d",
        )
        b = np.random.default_rng(4).uniform(-1.0, 1.0, size=(64, 2))
        x, ok = solve_implicit_batch(p, 1.0, b, 1e-4)
        assert ok.all() and rows == [5 * 64, 5 * 64]
        for i in range(len(b)):
            ref_x, _, _ = reference_vector_newton(p.drift, 1.0, b[i], 1e-4, 100)
            assert x[i].tobytes() == ref_x.tobytes(), i


def reference_scalar_newton(drift, t, b, dt, max_iterations):
    """The scalar batched Newton as first written, on full-width lanes.

    Every lane is evaluated on every pass and np.where keeps the converged
    ones fixed. Returns (x, ok) like the production solver, plus per-lane
    Newton updates taken and whether the lane ever backtracked.
    """
    b = np.asarray(b, dtype=float)
    x = b.copy()
    iterations = np.zeros(b.shape, dtype=int)
    backtracked = np.zeros(b.shape, dtype=bool)

    def residual(xv):
        return xv - dt * np.asarray(drift(xv, t), dtype=float) - b

    r = residual(x)
    active = ~(np.abs(r) <= TOLERANCE)  # a NaN residual is not converged
    for _ in range(max_iterations):
        if not np.any(active):
            break
        iterations += active
        h = np.maximum(1e-7, 1e-7 * np.abs(x))
        fp = np.asarray(drift(x + h, t), dtype=float)
        fm = np.asarray(drift(x - h, t), dtype=float)
        deriv = 1.0 - dt * (fp - fm) / (2.0 * h)
        deriv = np.where(np.abs(deriv) < 1e-300, 1.0, deriv)
        step = np.where(active, r / deriv, 0.0)
        xa = x - step
        ra = residual(xa)
        worse = active & ~(np.abs(ra) <= np.abs(r))
        backtracked |= worse
        for _ in range(8):
            if not np.any(worse):
                break
            step = np.where(worse, 0.5 * step, step)
            xa = np.where(worse, x - step, xa)
            ra = np.where(worse, residual(xa), ra)
            worse = worse & ~(np.abs(ra) <= np.abs(r))
        x = np.where(active, xa, x)
        r = np.where(active, ra, r)
        active = ~(np.abs(r) <= TOLERANCE)

    if np.any(active):
        for idx in np.argwhere(active):
            key = tuple(idx)
            root = integrators._bisect_root_scalar(drift, t, float(b[key]), dt)
            if root is not None:
                x[key] = root
        r = residual(x)
        active = ~(np.abs(r) <= TOLERANCE)
    return x, ~active, iterations, backtracked


class TestScalarSolveReference:
    """solve_implicit_batch for n = 1 against the full-width reference, bit for bit."""

    DT = 0.5

    @staticmethod
    def problem():
        # a steep arctan well makes Newton from x0 = b overshoot and backtrack;
        # beyond |x| = 50 the residual x - 0.5 (2x) - b = -b has no root, so
        # such a lane exhausts its budget and the bisection fallback
        def drift(x, t):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) >= 50.0, 2.0 * x, -20.0 * np.arctan(5.0 * x) / (1.0 + t))

        return SdeProblem(
            dimension=1, drift=drift, diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="well1d",
        )

    @staticmethod
    def lanes():
        rng = np.random.default_rng(12)
        fixed = [0.0, 100.0, 3.0, -0.4, 0.05, 25.0]
        return np.concatenate([fixed, rng.uniform(-10.0, 10.0, size=26)])[:, None]

    @pytest.mark.parametrize("max_iterations", [100, 2], ids=["newton", "bisection"])
    def test_matches_reference(self, monkeypatch, max_iterations):
        monkeypatch.setattr(integrators, "_MAX_ITERATIONS", max_iterations)
        p, b = self.problem(), self.lanes()
        ref_x, ref_ok, iterations, backtracked = reference_scalar_newton(
            p.drift, 1.0, b, self.DT, max_iterations)
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert np.array_equal(x, ref_x) and np.array_equal(ok, ref_ok[:, 0])
        assert ref_ok[0, 0] and iterations[0, 0] == 0  # converges at b
        assert not ref_ok[1, 0]  # no root: fails after bisection too
        assert backtracked.sum() >= 3
        if max_iterations == 2:
            # lanes that run out of Newton updates and are rescued by bisection
            rescued = ref_ok[:, 0] & (iterations[:, 0] == 2) & (
                np.abs(ref_x - self.DT * p.drift(ref_x, 1.0) - b)[:, 0] <= 1e-12)
            assert rescued.sum() >= 3
        else:
            assert (iterations >= 3).sum() >= 3 and ref_ok.sum() == len(b) - 1

    @pytest.mark.parametrize("max_iterations", [100], ids=["bisection"])
    def test_nan_residual_is_not_converged(self, max_iterations):
        # the drift is NaN above x = 10: a lane starting there must fail, not
        # come back as its own b with ok True
        well = self.problem().drift
        p = SdeProblem(
            dimension=1, drift=lambda x, t: np.where(np.asarray(x) > 10.0, np.nan, well(x, t)),
            diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="nan-well1d",
        )
        b = np.array([[2.0], [20.0], [-3.0], [12.0], [9.0]])
        ref_x, ref_ok, _, _ = reference_scalar_newton(p.drift, 1.0, b, self.DT, max_iterations)
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert np.array_equal(x, ref_x, equal_nan=True) and np.array_equal(ok, ref_ok[:, 0])
        assert ok.tolist() == [True, False, True, False, True]
        with pytest.raises(ImplicitSolveError):
            solve_implicit(p, 1.0, 20.0, self.DT)

    def test_bem_example_matches_reference(self):
        # the ensemble's problem at its step size, over the range its lanes cover
        p = bem_example()
        b = np.linspace(-40.0, 40.0, 161)[:, None]
        for t in (0.3, 3.0, 300.0):
            ref_x, ref_ok, _, _ = reference_scalar_newton(p.drift, t, b, 0.3, 100)
            x, ok = solve_implicit_batch(p, t, b, 0.3)
            assert np.array_equal(x, ref_x) and np.array_equal(ok, ref_ok[:, 0])

    def test_one_newton_step_takes_two_drift_calls(self):
        # the 1-D sibling of TestVectorSolveEdges' test: the first call covers
        # b and both difference points, the second the trial
        rows = []

        def drift(x, t):
            rows.append(len(x))
            return -x / (1.0 + t)

        p = SdeProblem(
            dimension=1, drift=drift, diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=-1.0, satisfies_linear_growth=True, label="lin1d",
        )
        b = np.random.default_rng(4).uniform(-1.0, 1.0, size=(64, 1))
        x, ok = solve_implicit_batch(p, 1.0, b, 1e-4)
        assert ok.all() and rows == [3 * 64, 64]
        ref_x, ref_ok, iterations, _ = reference_scalar_newton(p.drift, 1.0, b, 1e-4, 100)
        assert x.tobytes() == ref_x.tobytes() and (iterations == 1).all()


class TestAllConvergedExit:
    """A block whose every lane converges in one Newton trial ends after it.

    Bit for bit against the plain references on three kinds of block, in
    both solvers: every lane converges on its first step; some lanes
    converge at b and the rest in one step; one lane must backtrack, so the
    first trial does not end the solve.
    """

    DT = 0.5

    @staticmethod
    def counted(dimension):
        # the wells of TestScalarSolveReference (1-D) or TestVectorSolveEdges
        # (2-D), near whose root at 0 one Newton step converges; rows records
        # the number of rows of each array drift call
        base = TestScalarSolveReference.problem() if dimension == 1 else TestVectorSolveEdges.problem()
        rows = []

        def drift(x, t):
            if np.ndim(x):  # bisection passes floats
                rows.append(len(x))
            return base.drift(x, t)

        return dataclasses.replace(base, drift=drift), rows

    @staticmethod
    def block(kind, dimension):
        b = np.random.default_rng(9).uniform(-1e-9, 1e-9, size=(12, dimension))
        if kind == "converged-at-b":
            b[::3] = 0.0
        elif kind == "one-backtracks":
            b[5] = [3.0, -2.0][:dimension]
        return b

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("kind", ["one-step", "converged-at-b", "one-backtracks"])
    def test_matches_reference(self, kind, dimension):
        p, rows = self.counted(dimension)
        b = self.block(kind, dimension)
        b_before = b.copy()
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        calls = rows.copy()
        ref_x, ref_ok = TestHopelessLanes.reference(p.drift, b, self.DT, 100)
        assert x.tobytes() == ref_x.tobytes() and ok.tolist() == ref_ok.tolist()
        assert ok.all() and x.shape == b.shape
        assert b.tobytes() == b_before.tobytes() and not np.shares_memory(x, b)
        # rows per lane: at b, the residual and 2n difference points; for a
        # trial, the residual alone in 1-D and all 2n+1 points in n-d
        at_b, trial = (3, 1) if dimension == 1 else (5, 5)
        m = len(b)
        if kind == "one-step":
            assert calls == [at_b * m, trial * m]
        elif kind == "converged-at-b":
            assert calls == [at_b * m, trial * (m - len(b[::3]))]
        else:
            if dimension == 1:
                backtracked = reference_scalar_newton(p.drift, 1.0, b, self.DT, 100)[3][5, 0]
            else:
                backtracked = reference_vector_newton(p.drift, 1.0, b[5], self.DT, 100)[2] > 0
            assert backtracked and len(calls) > 2

    def test_lane_that_never_improves_returns_a_copy_of_b(self):
        # no lane leaves and no trial beats b, so the best iterate is b itself
        p, b = TestBatchedSolve.problem(), np.array([[100.0, 100.0]])
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert not ok[0] and x.tobytes() == b.tobytes() and not np.shares_memory(x, b)


class TestHopelessLanes:
    """A lane whose residual is NaN can never converge: its next iterate is x - NaN."""

    DT = 0.5
    @staticmethod
    def problem(dimension, drift):
        return SdeProblem(
            dimension=dimension, drift=drift, diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="nan-drift",
        )

    @staticmethod
    def reference(drift, b, dt, max_iterations):
        if b.shape[1] == 1:
            x, ok, _, _ = reference_scalar_newton(drift, 1.0, b, dt, max_iterations)
            return x, ok[:, 0]
        lanes = [reference_vector_newton(drift, 1.0, bi, dt, max_iterations) for bi in b]
        return np.array([lane[0] for lane in lanes]), np.array([lane[1] for lane in lanes])

    # ids: dimension, the default budget's scalar fallback, drift calls
    @pytest.mark.parametrize("dimension,expected_calls", [(1, 4), (2, 1)],
                             ids=["1-bisection-4", "2-bisection-1"])
    def test_nan_everywhere_leaves_after_one_newton_call(self, dimension, expected_calls):
        # one drift call for the residual at b, then in 1-D only what
        # bisection makes: the lane spends none of the Newton budget
        calls = []

        def drift(x, t):
            calls.append(np.shape(x))
            return np.full(np.shape(x), np.nan)

        p = self.problem(dimension, drift)
        b = np.full((1, dimension), 2.0)
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert len(calls) == expected_calls
        ref_x, ref_ok = self.reference(drift, b, self.DT, 100)
        assert x.tobytes() == ref_x.tobytes() and ok.tolist() == ref_ok.tolist() == [False]

    @pytest.mark.parametrize("max_iterations", [100], ids=["bisection"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_lane_whose_residual_turns_nan_mid_newton(self, max_iterations, dimension):
        # the drift is -20 in every component where x_0 >= 0 and NaN where
        # x_0 < 0, so a root below x_0 = 0 is out of reach: the lanes from
        # x_0 = 2 step towards 0 until every halving lands below it. The lane
        # from x_0 = -1 is NaN at b, and the lane from x_0 = 30 converges.
        def drift(x, t):
            return np.where(x[..., :1] < 0.0, np.nan, np.full(x.shape, -20.0))

        p = self.problem(dimension, drift)
        b = np.array([[2.0, 1.0, 5.0], [-1.0, 3.0, -2.0], [30.0, 40.0, 0.5],
                      [2.0, -3.0, 7.0]])[:, :dimension]
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        ref_x, ref_ok = self.reference(drift, b, self.DT, max_iterations)
        assert ok[2] and not ok[[0, 1, 3]].any()
        assert x.tobytes() == ref_x.tobytes() and ok.tolist() == ref_ok.tolist()


# The values of a drift that returns views of this one array, as a drift that
# keeps its own output buffer would: a solver that wrote into what its drift
# returned would change them.
DRIFT_VALUES = np.tile([-1.0, 0.5], (64, 1))


def cached_drift(dimension):
    """The constant drift DRIFT_VALUES[0, :dimension], returned as a slice of DRIFT_VALUES."""
    def drift(x, t):
        if np.ndim(x) == 1:  # one lane of reference_vector_newton
            return DRIFT_VALUES[0, :dimension]
        return DRIFT_VALUES[: len(x), :dimension]

    return drift


class TestSolverWritesOnlyItsOwnArrays:
    """The solver never writes into b or into an array its drift returned."""

    DT = 0.5

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("kind", ["one-step", "converged-at-b"])
    def test_drift_output_and_b_unchanged(self, kind, dimension):
        p = SdeProblem(
            dimension=dimension, drift=cached_drift(dimension),
            diffusion=lambda x, t: np.zeros_like(x),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="cached-drift",
        )
        b = np.random.default_rng(6).uniform(-2.0, 2.0, size=(8, dimension))
        b[1] = -0.0
        if kind == "converged-at-b":
            b[3] = 1e20  # b - dt f rounds to b: the residual at b is 0
        values, b_before = DRIFT_VALUES.copy(), b.copy()
        x, ok = solve_implicit_batch(p, 1.0, b, self.DT)
        assert DRIFT_VALUES.tobytes() == values.tobytes()
        assert b.tobytes() == b_before.tobytes() and not np.shares_memory(x, b)
        ref_x, ref_ok = TestHopelessLanes.reference(p.drift, b, self.DT, 100)
        assert x.tobytes() == ref_x.tobytes() and ok.tolist() == ref_ok.tolist()
        assert ok.all() and x.shape == b.shape
        if kind == "converged-at-b":
            assert x[3].tobytes() == b[3].tobytes()


class TestBemStep:
    def test_identity_when_no_dynamics(self):
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="zero",
        )
        out, ok = bem_step_batch(p, np.array([[4.0]]), 5 * 0.3, 6 * 0.3, 0.3, np.array([[1.7]]))
        assert out[0, 0] == pytest.approx(4.0) and ok.tolist() == [True]

    def test_linear_closed_form(self):
        out, ok = bem_step_batch(linear_example(), np.array([[1.0]]), 0.0, 0.1, 0.1, np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(11.0 / 12.0, abs=3e-12) and ok.tolist() == [True]

    def test_bem_example_against_oracle(self):
        p = bem_example()
        z, dt, db = 2.0, 0.3, 0.1
        out, ok = bem_step_batch(p, np.array([[z]]), 0.0, dt, dt, np.array([[db]]))
        b = z + 5.0 * math.sin(2.0) * db
        oracle = oracle_bisect(p.drift, dt, b, dt, lo=-100.0, hi=100.0)
        assert out[0, 0] == pytest.approx(oracle, abs=1e-10) and ok.tolist() == [True]

    def test_decay_guarantee_dt_warning_and_strict(self):
        from polystab.problems import problem_from_label

        # claimed K1 = 20 puts 1/K1 = 0.05 below dt while the solver
        # precondition dt < 1/|Kbar| = 1 still holds
        steep = problem_from_label("linear", k1=20.0)
        with pytest.warns(UserWarning, match="1/K1"):
            check_decay_dt(steep, 0.5)
        # strict: a warnings filter turns it into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="1/K1"):
                check_decay_dt(steep, 0.5)

    def test_batch_kernel_matches_solve_per_path(self):
        # (k+1) dt, not k dt + dt, is the solve time: here the drift differs
        p, k, dt = bem_example(), 6, 0.3
        assert (1.0 + (k * dt + dt)) ** 2 != (1.0 + (k + 1) * dt) ** 2
        rng = np.random.default_rng(4)
        x = rng.normal(scale=3.0, size=(64, 1))
        db = rng.normal(scale=math.sqrt(dt), size=(64, 1))
        out, ok = bem_step_batch(p, x, k * dt, (k + 1) * dt, dt, db)
        assert ok.all()
        for i in range(64):
            z = x[i, 0]
            b = z + float(p.diffusion(z, k * dt)) * db[i, 0]
            assert out[i, 0] == solve_implicit(p, (k + 1) * dt, b, dt)

    def test_batch_kernel_nonfinite_noise_and_failed_solve(self):
        # residual x - 0.5 x^2 - b has no root for b > 0.5; noise is infinite
        # above |x| = 5
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.asarray(x, dtype=float) ** 2,
            diffusion=lambda x, t: np.where(np.abs(x) > 5.0, np.inf, 0.0),
            k1=1.0, c=1.0, kbar=-1.0, satisfies_linear_growth=False, label="no-root",
        )
        x = np.array([[0.1], [6.0], [2.0]])
        out, ok = bem_step_batch(p, x, 0.0, 0.5, 0.5, np.ones((3, 1)))
        assert ok.tolist() == [True, True, False]
        assert out[0, 0] == solve_implicit(p, 0.5, 0.1, 0.5)
        assert out[1, 0] == np.inf and out[2, 0] == 2.0

    def test_no_warning_inside_guaranteed_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_decay_dt(linear_example(), 0.1)
            bem_step_batch(linear_example(), np.array([[1.0]]), 0.0, 0.1, 0.1, np.zeros((1, 1)))


class TestMonotonicityCertificate:
    def test_random_pairs(self):
        rng = np.random.default_rng(99)
        for problem in BUILTINS:
            dt = 0.9 / abs(problem.kbar) if problem.kbar != 0 else 0.9
            for _ in range(300):
                t = float(rng.uniform(0.0, 100.0))
                x = rng.uniform(-30, 30, size=1)
                y = rng.uniform(-30, 30, size=1)
                fx = x - dt * problem.drift(x, t)
                fy = y - dt * problem.drift(y, t)
                lhs = float((x - y) @ (fx - fy))
                rhs = (1.0 - abs(problem.kbar) * dt) * float((x - y) @ (x - y))
                assert lhs >= rhs - 1e-9, (problem.label, t, x, y)


class TestSecondMomentPropagation:
    def test_em_step_second_moment_matches_analytic(self):
        # E |y + f dt + g dB|^2 = |y + f dt|^2 + |g|^2 dt for dB ~ N(0, dt)
        lin = linear_example()
        y, k, dt = 1.0, 3, 0.1
        t = k * dt
        n = 1_000_000
        draws = np.array([brownian_increment(2024, 0, s, dt) for s in range(4)])
        assert draws.shape == (4,)  # smoke: increments are scalars
        db = np.empty((1, n))
        fill_standard_normals(db, 2024, 0, 0)
        db = db[0] * math.sqrt(dt)
        f = float(np.asarray(lin.drift(y, t)))
        g = float(np.asarray(lin.diffusion(np.asarray(y, dtype=float), t)))
        stepped = y + f * dt + g * db
        sq = stepped**2
        analytic = (y + f * dt) ** 2 + g**2 * dt
        se = float(np.std(sq, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sq)) - analytic) <= 4.0 * se
