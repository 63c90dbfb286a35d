"""One-step maps for the explicit and semi-implicit Euler schemes.

Explicit step:      Y_{k+1} = Y_k + f(Y_k, t_k) dt + g(Y_k, t_k) dB_k
Semi-implicit step: Z_{k+1} = Z_k + f(Z_{k+1}, t_{k+1}) dt + g(Z_k, t_k) dB_k

The implicit step needs the root of x = f(x,t) dt + b. Under the one-sided
Lipschitz condition with dt < 1/|Kbar| the map F(x) = x - f(x,t) dt is
strictly monotone, so the root exists and is unique; the solver is damped
Newton with a finite-difference Jacobian. For n = 1 monotonicity makes
bisection (the solver's private _bisect_root_scalar) a complete fallback for
the lanes Newton leaves unsolved (it hands the drift a (1, 1) block per
point, so a drift that overflows gives inf and an unsolved lane, not
OverflowError); for n > 1 such lanes are reported as failed.
solve_implicit_batch solves a whole (m, n) block of lanes at once in every
dimension: for n = 1 an elementwise Newton
whose first drift call stacks the residual point b and both difference
points into one (3m, 1) block, and for n > 1 a damped Newton that makes one
drift call per iteration on a ((2n+1)w, n) block: the trial point of each of
the w active lanes and its 2n difference points, so the residual and the
next Jacobian come together (the first call, at x0 = b, gives the residual
at b and the first Jacobian). Linear solves and backtracking are batched
over the lanes; each linear solve is _lapack_solve, numpy's LAPACK solve
gufunc (numpy.linalg._umath_linalg.solve) called directly under the errstate
np.linalg.solve sets, so a singular Jacobian raises LinAlgError even inside
the ensemble's np.errstate(all="ignore"). Converged lanes leave the working
set, so a lane's iterates never depend on the other lanes in its block. The explicit step applies the
formula verbatim with no safeguard: reproducing the blow-up of explicit
stepping on superlinear drifts requires the unmodified map.

Every drift and diffusion call hands the coefficient a float64 (rows, n)
block. The solvers read the drift's values through
problems.coefficient_values, at the block's shape; the two step kernels
only combine the outputs arithmetically, so they broadcast as numpy does.

Each scheme has one kernel for an (m, n) block of paths, with no per-step
validation, and both share one contract, kernel(problem, x, t, t_next, dt,
db) -> (x_new, ok): em_step_batch evaluates the drift at t and returns ok
None, as no lane can fail; bem_step_batch forms the noise term at t and
solves for the drift at t_next. em_step, the one raiser of StepError, is a
validating adapter over em_step_batch that takes a StepContext;
solve_implicit, the one raiser of ImplicitSolveError, which nothing catches,
is one over solve_implicit_batch. Every solve stops at the residual tolerance
_RESIDUAL_TOLERANCE or after _MAX_ITERATIONS Newton iterations; no caller
sets either, so neither is a parameter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .checks import integer, positive_real, real, reals
from .problems import SdeProblem, coefficient_values

__all__ = [
    "StepContext",
    "ImplicitSolveError",
    "StepError",
    "em_step",
    "em_step_batch",
    "bem_step_batch",
    "solve_implicit",
    "solve_implicit_batch",
    "check_implicit_dt",
]


@dataclass(frozen=True)
class StepContext:
    """Step index k, step size dt, and the Brownian increment dB_k.

    db may be an array for batched stepping; it must broadcast to the
    state's shape.
    """

    k: int
    dt: float
    db: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", integer("k", self.k, 0))
        object.__setattr__(self, "dt", positive_real("dt", self.dt))
        reals("db", self.db)

    @property
    def t(self) -> float:
        return self.k * self.dt


class StepError(RuntimeError):
    """Drift or diffusion produced a non-finite value during a step."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ImplicitSolveError(RuntimeError):
    """Implicit equation not solved to tolerance within the iteration budget."""

    def __init__(self, message, best_residual=None, state=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.state = state


def em_step_batch(problem: SdeProblem, x: np.ndarray, t: float, t_next: float, dt: float, db):
    """Explicit step x + f(x, t) dt + g(x, t) dB for an (m, n) block of paths.

    The formula exactly as written, with no validation: x is a float array,
    db broadcasts against it (an (m, 1) column for one increment per path),
    and non-finite results are left for the caller to detect. Returns
    (x_new, None): t_next is not used and no lane can fail.
    """
    f = np.asarray(problem.drift(x, t), dtype=float)
    g = np.asarray(problem.diffusion(x, t), dtype=float)
    return x + f * dt + g * db, None


def em_step(problem: SdeProblem, y, ctx: StepContext, validate: bool = True):
    """Explicit step y + f(y, k dt) dt + g(y, k dt) dB, exactly as written.

    Validating adapter over em_step_batch. y's elements must be finite ints
    or floats (checks.reals); for n > 1 its last axis holds the n
    components, and for n = 1 it may have any shape. The coefficients get y
    as a (rows, n) block, db is broadcast to y's shape (a db that does not
    broadcast to it is a ValueError naming both shapes), and the result has
    y's shape.
    """
    y_arr = reals("y", y)
    n = problem.dimension
    if n > 1 and y_arr.shape[-1:] != (n,):
        raise ValueError(f"y must have a last axis of length {n}, got shape {y_arr.shape}")
    rows = y_arr.reshape(-1, n)
    try:
        db = np.broadcast_to(ctx.db, y_arr.shape).reshape(rows.shape)
    except ValueError:
        raise ValueError(
            f"db of shape {np.shape(ctx.db)} does not broadcast to y's shape {y_arr.shape}"
        ) from None
    out, _ = em_step_batch(problem, rows, ctx.t, (ctx.k + 1) * ctx.dt, ctx.dt, db)
    out = out.reshape(y_arr.shape)
    if validate and not np.all(np.isfinite(out)):
        raise StepError(
            f"non-finite drift/diffusion output at k={ctx.k}, t={ctx.t}", state=y_arr
        )
    return float(out) if np.ndim(y) == 0 else out


def check_implicit_dt(problem: SdeProblem, dt: float) -> None:
    """Raise ValueError unless dt < 1/|Kbar|, where the implicit root is unique.

    Call once per run or per public solve, never per path or per step.
    """
    if problem.kbar != 0.0 and dt >= 1.0 / abs(problem.kbar):
        raise ValueError(
            f"dt={dt} violates the implicit-solve precondition dt < 1/|Kbar| = "
            f"{1.0 / abs(problem.kbar)} for problem '{problem.label}'"
        )


_BISECT_ITERATIONS = 400
_BRACKET_WIDENINGS = 200  # the most times each end of the bisection bracket moves
# a lane is solved once |x - f(x,t) dt - b| <= _RESIDUAL_TOLERANCE (max-norm
# for n > 1); Newton stops after _MAX_ITERATIONS iterations, both read at call time
_RESIDUAL_TOLERANCE = 1e-12
_MAX_ITERATIONS = 100


def _bisect_root_scalar(drift, t, b, dt):
    """Root of x - drift(x,t)*dt - b = 0 by bracket growth plus bisection, or None.

    _solve_scalar_batch's fallback, valid where the residual is strictly
    increasing in x (one-sided Lipschitz with dt < 1/|Kbar|); it checks none
    of the solver's values. None if an end of the bracket, moved from b by
    doubling steps, misses the root _BRACKET_WIDENINGS times. Stops after
    _BISECT_ITERATIONS halvings at most.
    """
    def resid(x):
        return x - dt * float(coefficient_values(drift, np.full((1, 1), x), t)[0, 0]) - b

    rb = resid(b)

    def bracket_end(direction):
        # a NaN residual ends the widening, as one of the sign sought does
        x, r, width = b, rb, max(1.0, abs(b))
        for _ in range(_BRACKET_WIDENINGS):
            if not direction * r < 0.0:
                return x
            x += direction * width
            width *= 2.0
            r = resid(x)
        return x if not direction * r < 0.0 else None

    hi = bracket_end(1.0)
    lo = None if hi is None else bracket_end(-1.0)
    if lo is None:
        return None
    mid = lo
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        rmid = resid(mid)
        if abs(rmid) <= _RESIDUAL_TOLERANCE:
            return mid
        if rmid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            break
    return mid


def _solve_scalar_batch(drift, t, b, dt):
    """Newton for x - drift(x,t)*dt - b = 0 on an (m, 1) block of lanes.

    Per lane: x0 = b; derivative from central differences with step
    h = max(1e-7, 1e-7|x|); up to 8 halvings of the step while the new
    residual is not at most the current one (NaN included). Since x0 = b,
    the first drift call is on one (3m, 1) block holding b, b+h and b-h;
    later iterations make one call on concatenate((x+h, x-h)). Only
    unconverged lanes are carried and only lanes that got worse are
    re-evaluated, so each lane's iterates depend on its own values alone.
    A lane converges once |r| <= tolerance, so a NaN residual never does.
    Such a lane's next iterate is x - NaN, and so is every later one, so it
    leaves the Newton loop at once with x - r, the NaN the rest of its
    budget would end on. Lanes with a NaN residual and lanes left after
    _MAX_ITERATIONS go to _bisect_root_scalar, and stay unsolved if it
    cannot bracket a root. Returns (x, ok) with ok of shape (m,); when one
    trial converges every lane, x is that trial.

    The solver works in temporaries it allocated itself, written with out=
    and in-place operators, and never writes into b or into what the drift
    returned. Each value is the same IEEE operation on the same operands as
    written out: the residual (x - dt f) - b and the derivative
    1 - (dt (fp - fm)) / (2h), so the bits do not depend on where a value
    is held. Whether every lane is still active, or has converged, is one
    np.count_nonzero of a mask, which costs about half an ndarray.all().
    """
    tol, max_iterations = _RESIDUAL_TOLERANCE, _MAX_ITERATIONS
    m = b.shape[0]
    h = np.abs(b)
    h *= 1e-7
    np.maximum(h, 1e-7, out=h)
    pts = np.empty((3 * m, 1))  # b, b+h and b-h, for one drift call
    pts[:m] = b
    np.add(b, h, out=pts[m : 2 * m])
    np.subtract(b, h, out=pts[2 * m :])
    f = coefficient_values(drift, pts, t)
    ri = np.multiply(f[:m], dt)
    np.subtract(b, ri, out=ri)
    ri -= b
    fp, fm = f[m : 2 * m], f[2 * m :]
    # the working set, as lane indices, and the result; the iterates are
    # never written in place, so the first one may be b itself
    lanes, xi, bi = np.arange(m), b, b
    x = np.empty_like(b)
    ai = np.abs(ri[:, 0])
    unsolved = []  # index arrays of the lanes for bisection
    for it in range(max_iterations + 1):
        left = ai > tol  # False once converged, and for a NaN residual
        if np.count_nonzero(left) < left.size:
            # converged and NaN lanes leave the working set; their iterates
            # are written back
            nan = np.isnan(ai)
            if nan.any():
                if it < max_iterations:
                    xi = np.where(nan[:, None], xi - ri, xi)
                unsolved.append(lanes[nan])
            x[lanes] = xi
            lanes = lanes[left]
            if not lanes.size:
                break
            xi, ri, ai, bi = xi[left], ri[left], ai[left], bi[left]
            if not it:
                h, fp, fm = h[left], fp[left], fm[left]
        if it == max_iterations:
            x[lanes] = xi
            unsolved.append(lanes)
            break
        if it:
            w = xi.shape[0]
            h = np.maximum(1e-7, 1e-7 * np.abs(xi))
            f = coefficient_values(drift, np.concatenate((xi + h, xi - h)), t)
            fp, fm = f[:w], f[w:]
        # deriv = 1 - dt (fp - fm) / (2h), then step = r / deriv, in one array
        step = np.subtract(fp, fm)
        step *= dt
        h *= 2.0
        step /= h
        np.subtract(1.0, step, out=step)
        # the guard |deriv| < 1e-300 can fire only if some deriv < 1e-300
        if np.count_nonzero(step < 1e-300):
            step[np.abs(step) < 1e-300] = 1.0
        np.divide(ri, step, out=step)
        xa = xi - step
        ra = np.multiply(coefficient_values(drift, xa, t), dt)
        np.subtract(xa, ra, out=ra)
        ra -= bi
        aa = np.abs(ra[:, 0])
        if lanes.size == m:  # no lane has left
            done = aa <= tol
            if np.count_nonzero(done) == done.size:
                # every lane converged on this trial
                return xa, done
        worse = ~(aa <= ai)  # catches NaN too
        for _ in range(8):
            if not worse.any():
                break
            sel = np.flatnonzero(worse)
            step[sel] = 0.5 * step[sel]
            xs = xi[sel] - step[sel]
            xa[sel] = xs
            ra[sel] = xs - dt * coefficient_values(drift, xs, t) - bi[sel]
            aa[sel] = np.abs(ra[sel, 0])
            worse[sel] = ~(aa[sel] <= ai[sel])
        xi, ri, ai = xa, ra, aa

    if not unsolved:
        return x, np.ones(m, dtype=bool)
    unsolved = np.sort(np.concatenate(unsolved))
    for i in unsolved:
        root = _bisect_root_scalar(drift, t, float(b[i, 0]), dt)
        if root is not None:
            x[i, 0] = root
    r = x - dt * coefficient_values(drift, x, t) - b
    return x, np.abs(r[:, 0]) <= tol


def _max_abs(r):
    """max_j |r_j| for each lane of an (m, n) block, n >= 2.

    Elementwise np.maximum over the columns, which is cheaper than a reduction
    over the short n axis; a NaN propagates exactly as in .max(axis=1).
    """
    a = np.abs(r)
    out = np.maximum(a[:, 0], a[:, 1])
    for j in range(2, r.shape[1]):
        out = np.maximum(out, a[:, j])
    return out


@functools.lru_cache(maxsize=8)
def _difference_signs(n):
    """The (2n+1, 1, n) sign multipliers of _stacked_residuals, built once per n."""
    eye = np.eye(n)
    signs = np.concatenate((np.full((1, n), -0.0), eye, -eye))[:, None, :]
    signs.flags.writeable = False
    return signs


def _stacked_residuals(drift, t, x, b, dt, signs):
    """Residuals at x and at every x +- h_j e_j, from one drift call.

    Returns (R, h) with h = max(1e-7, 1e-7|x|) and R of shape (2n+1, w, n):
    R[0] at x, R[1 + j] at x + h_j e_j, R[1 + n + j] at x - h_j e_j. The
    points are x + signs * h, where signs, of shape (2n+1, 1, n), is -0.0
    for x itself, then e_j, then -e_j with -0.0 off column j: x + (-0.0) is
    x and x + (-h) is x - h, so each point is bit for bit the one formed on
    its own, x + 0.0 and x - 0.0 in the columns off j included.
    """
    h = np.maximum(1e-7, 1e-7 * np.abs(x))
    pts = x + signs * h
    f = coefficient_values(drift, pts.reshape(-1, x.shape[1]), t)
    return pts - dt * f.reshape(pts.shape) - b, h


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack_solve(jac, r):
    """jac^-1 r for a (..., n, n) stack and an (..., n) right-hand side.

    The LAPACK solve gufunc that np.linalg.solve wraps,
    numpy.linalg._umath_linalg.solve with signature "dd->d", under the
    errstate that np.linalg.solve sets: a singular matrix raises the invalid
    flag, which raises np.linalg.LinAlgError whatever errstate the caller runs
    under, and over, divide and under are ignored. Same gufunc, same operands,
    so the same bits as np.linalg.solve, without its per-call type checks
    (jac and r are float64 here). This is the only LAPACK call in the package.
    """
    return _umath_linalg.solve(jac, r[..., None], signature="dd->d")[..., 0]


def _solve_vector_batch(drift, t, b, dt):
    """Damped Newton for x - drift(x,t)*dt - b = 0 on an (m, n) block of lanes.

    Per lane: x0 = b; central-difference Jacobian column j with step
    h = max(1e-7, 1e-7|x_j|); Newton step from _lapack_solve (the gufunc
    under np.linalg.solve, in its errstate), or the residual itself where
    the Jacobian is singular; up to 30 trials, halving the step after each,
    until the residual is finite and its max-norm does not grow (if none
    qualifies, the last trial is taken). A lane stops once max|r| <=
    tolerance, the last iteration included, and fails at once when its
    residual is NaN: every later trial then has a NaN component,
    so its best iterate can no longer change.

    Each iteration makes one drift call, on (2n+1) rows per lane: the trial
    point and its 2n difference points, so the next Jacobian is ready when
    the trial is taken. Since x0 = b, the first call covers the residual at b
    and the first Jacobian. Lanes that must backtrack get residual-only calls
    for their halved steps and one more stacked call after the last halving.
    Only unconverged lanes are carried, so each lane's iterates depend only
    on its own values. Returns (x, ok): the root for converged lanes and the
    best iterate for the others, plus the (m,) convergence mask.
    """
    n = b.shape[1]
    tol = _RESIDUAL_TOLERANCE
    x = b.copy()
    signs = _difference_signs(n)
    R, h = _stacked_residuals(drift, t, b, b, dt, signs)
    rn = _max_abs(R[0])
    ok = rn <= tol
    # the working set: active lanes only, compacted whenever some leave.
    # Nothing is gathered while every lane is active: xi, bi and best_x are
    # never written in place, so they may start as x and b themselves.
    lanes, xi, bi = np.arange(len(b)), x, b
    left = rn > tol  # False for a NaN residual too: such a lane keeps b
    active = np.count_nonzero(left)
    if active < left.size:
        if not active:
            return x, ok
        lanes = np.flatnonzero(left)
        xi, bi, rn, R, h = x[lanes], b[lanes], rn[lanes], R[:, lanes], h[lanes]
    best_x, best_r = xi, rn
    for _ in range(_MAX_ITERATIONS):
        ri = R[0]
        jac = ((R[1 : n + 1] - R[n + 1 :]) / (2.0 * h.T[:, :, None])).transpose(1, 2, 0)
        try:
            step = _lapack_solve(jac, ri)
        except np.linalg.LinAlgError:
            step = np.empty_like(ri)
            for i in range(lanes.size):  # rare: isolate the singular lanes
                try:
                    step[i] = _lapack_solve(jac[i], ri[i])
                except np.linalg.LinAlgError:
                    step[i] = ri[i]
        xa = xi - step
        R, h = _stacked_residuals(drift, t, xa, bi, dt, signs)
        ra = R[0]
        an = _max_abs(ra)
        worse = ~(np.isfinite(an) & (an <= rn))
        hopeless = None
        if np.count_nonzero(worse):
            moved = np.flatnonzero(worse)
            for _ in range(29):
                sel = np.flatnonzero(worse)
                step[sel] = 0.5 * step[sel]
                xs = xi[sel] - step[sel]
                xa[sel] = xs
                ra[sel] = xs - dt * coefficient_values(drift, xs, t) - bi[sel]
                an[sel] = _max_abs(ra[sel])
                worse[sel] = ~(np.isfinite(an[sel]) & (an[sel] <= rn[sel]))
                if not np.count_nonzero(worse):
                    break
            else:
                # a NaN residual stays NaN: every later trial has a NaN
                # component, so the best iterate of such a lane is final
                hopeless = np.isnan(an)
            # difference points at the trials taken; their residuals are kept
            Rm, h[moved] = _stacked_residuals(drift, t, xa[moved], bi[moved], dt, signs)
            R[1:, moved] = Rm[1:]
        xi, rn = xa, an
        better = rn < best_r
        improved = np.count_nonzero(better)
        if improved == better.size:
            best_x, best_r = xi, rn
        elif improved:
            best_x, best_r = np.where(better[:, None], xi, best_x), np.where(better, rn, best_r)
        done = rn <= tol
        leave = done if hopeless is None else done | hopeless
        leaving = np.count_nonzero(leave)
        if leaving:
            x[lanes[done]] = xi[done]
            ok[lanes[done]] = True
            if hopeless is not None:
                x[lanes[hopeless]] = best_x[hopeless]
            if leaving == leave.size:
                return x, ok
            keep = ~leave
            lanes, xi, bi, rn, R, h = lanes[keep], xi[keep], bi[keep], rn[keep], R[:, keep], h[keep]
            best_x, best_r = best_x[keep], best_r[keep]
    x[lanes] = best_x
    return x, ok


def solve_implicit_batch(problem: SdeProblem, t: float, b, dt: float):
    """Solve x = f(x,t)*dt + b lane by lane for an (m, n) block b.

    The batched kernel behind solve_implicit and the BEM ensemble. n = 1
    runs the elementwise scalar Newton with its bisection fallback; n > 1
    runs the stacked Newton, whose unsolved lanes come back with ok False
    and their best iterate. Returns (x, ok) with ok of shape (m,). Each
    lane's result is what solving it alone gives, for a drift that computes
    each row on its own. Only the shape is validated here: b must be finite
    and the caller checks dt once with check_implicit_dt. This is the one
    place the dimension picks the solver.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[1] != problem.dimension:
        raise ValueError(
            f"b must have shape (m, {problem.dimension}), got {b.shape}"
        )
    if problem.dimension == 1:
        return _solve_scalar_batch(problem.drift, t, b, dt)
    return _solve_vector_batch(problem.drift, t, b, dt)


def solve_implicit(problem: SdeProblem, t: float, b, dt: float):
    """Solve x = f(x,t)*dt + b to |x - f(x,t)*dt - b| <= _RESIDUAL_TOLERANCE.

    Newton from the initial guess x0 = b (the drift term is O(dt), so b is
    within O(dt) of the root), with backtracking and, for n = 1, bisection.
    For n = 1, b may hold any number of values, each solved on its own; for
    n > 1, b is one vector of shape (n,). Requires t >= 0 and dt < 1/|Kbar|.
    Raises ImplicitSolveError with the best residual if the budget is exhausted.
    """
    t = real("t", t, 0.0)
    dt = positive_real("dt", dt)
    check_implicit_dt(problem, dt)
    b_arr = reals("b", b)
    n = problem.dimension
    if n > 1 and b_arr.shape != (n,):
        raise ValueError(f"b must have shape ({n},) for a {n}-dimensional problem")
    rows = b_arr.reshape(-1, n)
    x, ok = solve_implicit_batch(problem, t, rows, dt)
    if not ok.all():
        r = x - dt * coefficient_values(problem.drift, x, t) - rows
        worst = float(np.max(np.abs(r)))
        raise ImplicitSolveError(
            f"implicit solve did not reach tolerance {_RESIDUAL_TOLERANCE} "
            f"(best residual {worst:.3e})",
            best_residual=worst,
            state=x.reshape(b_arr.shape),
        )
    x = x.reshape(b_arr.shape)
    return float(x) if np.ndim(b) == 0 else x


def bem_step_batch(problem: SdeProblem, x: np.ndarray, t: float, t_next: float, dt: float, db):
    """Semi-implicit step from time t to t_next for an (m, n) block of paths.

    Computes b = x + g(x, t) dB and solves x' = f(x', t_next) dt + b with
    solve_implicit_batch, which works in its own temporaries and never
    writes into b or into what the drift returned.
    Returns (x_new, ok) with ok of shape (m,): a lane whose b is not finite
    gets b back with ok True, so the caller's norm check blows it up; a lane
    whose solve fails keeps x, with ok False. No validation: b is not
    checked again, and the caller checks dt once with check_implicit_dt.
    """
    g = np.asarray(problem.diffusion(x, t), dtype=float)
    b = x + g * db
    finite = np.isfinite(b)
    if np.count_nonzero(finite) == finite.size:
        new, ok = solve_implicit_batch(problem, t_next, b, dt)
    else:
        new, ok = b, np.ones(len(b), dtype=bool)
        rows = np.flatnonzero(finite.all(axis=1))
        if rows.size:
            new[rows], ok[rows] = solve_implicit_batch(problem, t_next, b[rows], dt)
    if np.count_nonzero(ok) < ok.size:
        new[~ok] = x[~ok]
    return new, ok
