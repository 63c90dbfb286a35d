"""Decay-rate estimation, theoretical decay envelopes, and divergence bounds.

The decay claims all have the shape

    limsup  log E|state|^2 / log(k dt)  <=  -(2 K1 - 1)

so the empirical side is a log-log slope fit over the tail of a moment
series, and the theoretical side is an explicit envelope

    explicit scheme:      (k dt + 1)^(-2K1+1) (m0 + C^2 C1^{2K1}),  C1 = 1 + dt
    semi-implicit scheme: ((k+1) dt + 1)^(-2K1+1) (m0 + C^2 C2^{2K1}),
                          C2 = 1 + (1+2K1) dt

C1 and C2 are the exact suprema of the step ratios they bound (attained at
r = 0), which gives the tightest implementable constants. Each envelope
rests on an initial-term and a sum-term gamma-ratio inequality; the initial
term is the sum term at its boundary index (r = -1 explicit, r = 0
semi-implicit), so each scheme has one log-margin function, verified on
grids as four families, each reported as a checks.ConditionCheck. The cubic
counterexample's divergence recursion is included with its induction invariant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .checks import ConditionCheck, integer, positive_real, real, reals
from .gamma import log_gamma_ratio

if TYPE_CHECKING:  # annotations only: the ensemble imports this module's envelopes
    from .ensemble import MomentSeries

__all__ = [
    "DecayEstimate",
    "check_decay_fit_args",
    "estimate_decay_exponent",
    "em_envelope",
    "bem_envelope",
    "RecurrenceViolation",
    "RecurrenceCheckResult",
    "em_recurrence_bound",
    "LowerBoundSequence",
    "counterexample_lower_bound",
    "em_sum_term_log_margin",
    "bem_sum_term_log_margin",
    "verify_proof_bounds",
    "PROOF_BOUNDS_MAX_K",
]

# verify_proof_bounds builds index arrays of ~k_max**2 / 2 entries: ~5 s and
# ~120 MB at this ceiling, and a larger k_max is refused before any is built
PROOF_BOUNDS_MAX_K = 1000

# verify_proof_bounds' fixed axes and pass threshold
_PROOF_DTS = (0.05, 0.1, 0.2)
_PROOF_K1S = (1.0, 1.5, 2.0, 2.7, 3.0)
_PROOF_SLACK = 1e-12


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted log-log decay slope of a moment series tail."""

    slope: float
    slope_std_error: float
    fit_window: tuple[float, float]
    theoretical_bound: float
    conforms: bool
    n_points: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_decay_fit_args(window_fraction, k1, tolerance):
    """(window_fraction, k1, tolerance) as floats, or ValueError.

    window_fraction must lie in (0, 1), k1 must be finite and tolerance
    finite and >= 0. k1 may be 0 or below: an audited K1 is clipped at 0,
    and the bound -(2 k1 - 1) is defined for any finite k1.
    """
    k1 = real("k1", k1)
    tolerance = real("tolerance", tolerance, 0.0)
    window_fraction = real("window_fraction", window_fraction)
    if not 0.0 < window_fraction < 1.0:
        raise ValueError(f"window_fraction must be in (0, 1), got {window_fraction}")
    return window_fraction, k1, tolerance


def estimate_decay_exponent(
    series: MomentSeries,
    window_fraction: float = 0.5,
    *,
    k1: float,
    tolerance: float = 0.15,
) -> DecayEstimate:
    """OLS slope of log(mean_square) against log(1+t) over the tail window.

    The window is the final ``window_fraction`` of the log-time axis; decay
    statements are asymptotic and early transients bias slopes upward, so the
    default is the last half. A time that is not finite and >= 0 raises.
    Checkpoints with mean_square == 0 are excluded with a warning; blown-up
    paths or a NaN, infinite or negative mean_square inside the window, or
    usable checkpoints that all share one time, make the fit meaningless
    and raise. Conformance compares slope against -(2 k1 - 1) + tolerance;
    check_decay_fit_args checks the three arguments.
    """
    window_fraction, k1, tolerance = check_decay_fit_args(window_fraction, k1, tolerance)
    t = reals("time", series.time, 0.0)
    m2 = np.asarray(series.mean_square, dtype=float)
    if len(t) < 2:
        raise ValueError("series too short to fit")
    log_time = np.log1p(t)
    lo = log_time[-1] - window_fraction * (log_time[-1] - log_time[0])
    in_window = log_time >= lo
    if np.any(np.asarray(series.blown_up)[in_window] > 0):
        raise ValueError("blown-up paths inside the fit window; slope undefined")
    bad = in_window & ~(np.isfinite(m2) & (m2 >= 0.0))
    if np.any(bad):
        raise ValueError(
            f"{int(np.sum(bad))} mean_square values inside the fit window are NaN, "
            f"infinite or negative; slope undefined"
        )
    zero = in_window & ~(m2 > 0.0)
    if np.any(zero):
        warnings.warn(
            f"excluding {int(np.sum(zero))} checkpoints with mean_square == 0 from the fit",
            stacklevel=2,
        )
    usable = in_window & (m2 > 0.0)
    n = int(np.sum(usable))
    if n < 10:
        raise ValueError(f"need >= 10 usable checkpoints in the fit window, have {n}")
    x = log_time[usable]
    if (x == x[0]).all():
        raise ValueError("every usable checkpoint in the fit window has the same time; "
                         "slope undefined")
    y = np.log(m2[usable])
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / sxx
    intercept = y_mean - slope * x_mean
    rss = float(np.sum((y - (slope * x + intercept)) ** 2))
    se = math.sqrt(max(rss, 0.0) / (n - 2) / sxx)
    bound = -(2.0 * k1 - 1.0)
    t_used = t[usable]
    return DecayEstimate(
        slope=slope,
        slope_std_error=se,
        fit_window=(float(t_used[0]), float(t_used[-1])),
        theoretical_bound=bound,
        conforms=bool(slope <= bound + tolerance),
        n_points=n,
    )


def _validate_envelope_args(dt, k1, c, m0):
    """(dt, k1, c, m0) as floats; c = 0 is pure power decay of m0."""
    return positive_real("dt", dt), real("k1", k1), real("c", c, 0.0), real("m0", m0, 0.0)


def _power(base, exponent, name, value):
    """The float base**exponent. Where it overflows, which a Python float **
    raises as OverflowError, a ValueError that names the constant name = value."""
    try:
        return base**exponent
    except OverflowError:
        raise ValueError(
            f"{name} = {value!r} is too large: {base!r}**{exponent!r} overflows a float"
        ) from None


def _power_law_envelope(k, dt, k1, c, m0, shift, growth):
    """((k + shift) dt + 1)^(-2K1+1) (m0 + C^2 growth^{2K1}), vectorized over finite k >= 0."""
    k_arr = reals("k", k, 0.0)
    scale = m0 + _power(c, 2, "c", c) * _power(growth, 2.0 * k1, "k1", k1)
    out = ((k_arr + shift) * dt + 1.0) ** (-2.0 * k1 + 1.0) * scale
    return float(out) if np.ndim(k) == 0 else out


def em_envelope(k, dt: float, k1: float, c: float, m0: float):
    """Second-moment envelope (k dt + 1)^(-2K1+1) (m0 + C^2 (1+dt)^{2K1}).

    Valid for the explicit scheme under K1 >= 1 and dt < 1/(2 + K1).
    Vectorized over k.
    """
    dt, k1, c, m0 = _validate_envelope_args(dt, k1, c, m0)
    if not k1 >= 1.0:
        raise ValueError(f"the explicit-scheme envelope requires K1 >= 1, got {k1}")
    if not dt < 1.0 / (2.0 + k1):
        raise ValueError(f"need dt < 1/(2+K1) = {1.0 / (2.0 + k1)}, got {dt}")
    return _power_law_envelope(k, dt, k1, c, m0, 0.0, 1.0 + dt)


def bem_envelope(k, dt: float, k1: float, c: float, m0: float):
    """Second-moment envelope ((k+1) dt + 1)^(-2K1+1) (m0 + C^2 C2^{2K1}).

    C2 = 1 + (1+2K1) dt. Valid for the semi-implicit scheme under K1 > 0.5
    and dt < 1/K1, for a run whose step also has dt < 1/|Kbar|: that
    relation is the run's, checked by integrators.check_implicit_dt before
    any step, and not checked here. Vectorized over k.
    """
    dt, k1, c, m0 = _validate_envelope_args(dt, k1, c, m0)
    if not k1 > 0.5:
        raise ValueError(f"the semi-implicit envelope requires K1 > 0.5, got {k1}")
    if not dt < 1.0 / k1:
        raise ValueError(f"need dt < 1/K1 = {1.0 / k1}, got {dt}")
    return _power_law_envelope(k, dt, k1, c, m0, 1.0, 1.0 + (1.0 + 2.0 * k1) * dt)


@dataclass(frozen=True)
class RecurrenceViolation:
    k_from: int
    k_to: int
    observed: float
    bound: float
    allowance: float


@dataclass(frozen=True)
class RecurrenceCheckResult:
    violations: tuple[RecurrenceViolation, ...]
    n_checked: int
    n_skipped: int

    @property
    def passed(self) -> bool:
        return not self.violations


def em_recurrence_bound(
    series: MomentSeries,
    k1: float,
    c: float,
    n_sigma: float = 4.0,
) -> RecurrenceCheckResult:
    """Check the one-step moment recurrence between consecutive checkpoints.

    For unit-spaced checkpoint pairs, tests

        m2[k+1] <= (1 - K1 dt/(1+k dt))^2 m2[k] + C^2 (1+k dt)^{-2K1} dt

    within n_sigma combined standard errors, with dt from the series' config
    (a series without one is refused). Non-consecutive pairs, and pairs
    touched by blow-ups, cannot be checked and are counted as skipped; a
    checked pair with a NaN moment or standard error is a violation.
    Requires K1 dt < 1 so the contraction factor stays positive. k1 must be
    finite and positive, c and n_sigma finite and >= 0.
    """
    k1 = positive_real("k1", k1)
    c = real("c", c, 0.0)
    n_sigma = real("n_sigma", n_sigma, 0.0)
    if series.config is None:
        raise ValueError("series has no config, so the step size dt is unknown")
    dt = series.config.dt
    if not k1 * dt < 1.0:
        raise ValueError(f"need K1*dt < 1, got K1*dt = {k1 * dt}")
    c2 = _power(c, 2, "c", c)
    ks = np.asarray(series.step_index, dtype=int)
    m2 = np.asarray(series.mean_square, dtype=float)
    se = np.asarray(series.std_error, dtype=float)
    blown = np.asarray(series.blown_up, dtype=int)
    violations = []
    checked = skipped = 0
    for i in range(len(ks) - 1):
        if ks[i + 1] != ks[i] + 1 or blown[i] > 0 or blown[i + 1] > 0:
            skipped += 1
            continue
        k = int(ks[i])
        contraction = (1.0 - k1 * dt / (1.0 + k * dt)) ** 2
        bound = contraction * m2[i] + c2 * (1.0 + k * dt) ** (-2.0 * k1) * dt
        allowance = n_sigma * math.hypot(se[i + 1], contraction * se[i])
        checked += 1
        if not m2[i + 1] <= bound + allowance:  # False on NaN, so NaN is a violation
            violations.append(
                RecurrenceViolation(
                    k_from=k, k_to=k + 1, observed=float(m2[i + 1]),
                    bound=float(bound), allowance=float(allowance),
                )
            )
    return RecurrenceCheckResult(
        violations=tuple(violations), n_checked=checked, n_skipped=skipped
    )


@dataclass(frozen=True)
class LowerBoundSequence:
    """Divergence lower bounds b_k for explicit stepping on the cubic counterexample.

    b_1 = 3 ((1+dt)/dt)^0.5 and b_{k+1} = (dt/(1+k dt)) b_k^3 - b_k - 1.
    values[i] is b_{i+1}; diverged_at is the k at which the recursion left
    double range (None if it stayed finite through k_max). The induction
    invariant is b_k >= ((1+k dt)/dt)^0.5 (k+2).
    """

    dt: float
    values: np.ndarray
    diverged_at: int | None

    def invariant_margins(self) -> np.ndarray:
        k = np.arange(1, len(self.values) + 1, dtype=float)
        required = np.sqrt((1.0 + k * self.dt) / self.dt) * (k + 2.0)
        return self.values - required

    def first_step_exceeding(self, cap: float) -> int | None:
        above = np.flatnonzero(self.values > cap)
        if above.size:
            return int(above[0]) + 1
        return self.diverged_at


def counterexample_lower_bound(dt: float, k_max: int) -> LowerBoundSequence:
    """Run the divergence recursion for k = 1..k_max (or until overflow)."""
    dt = positive_real("dt", dt)
    if not dt < 0.5:
        raise ValueError(f"dt must lie in (0, 0.5), got {dt}")
    k_max = integer("k_max", k_max, 1)
    b = 3.0 * math.sqrt((1.0 + dt) / dt)
    if not math.isfinite(b):  # dt below ~5.6e-309
        raise ValueError(f"dt={dt!r} is too small: b_1 = 3 sqrt((1+dt)/dt) is not a finite float")
    values = [b]
    diverged_at = None
    for k in range(1, k_max):
        try:
            nxt = (dt / (1.0 + k * dt)) * b**3 - b - 1.0
        except OverflowError:
            nxt = math.inf
        if not math.isfinite(nxt):
            diverged_at = k + 1
            break
        values.append(nxt)
        b = nxt
    return LowerBoundSequence(dt=dt, values=np.asarray(values), diverged_at=diverged_at)


# ---------------------------------------------------------------------------
# gamma-ratio inequalities behind the envelopes (log-space margins; an
# inequality holds at a point iff its margin is >= 0 up to slack)


def em_sum_term_log_margin(k, r, dt, k1):
    """Margin of Gamma(k+D-K1)^2 Gamma(r+1+D)^2 / (Gamma(k+D)^2 Gamma(r+1+D-K1)^2)
    <= ((k-K1) dt + 1)^{-2K1} ((r+1) dt + 1)^{2K1}, with D = 1/dt, for -1 <= r < k.

    r = -1 is the initial term, Gamma(k+D-K1)^2 Gamma(D)^2 / (Gamma(k+D)^2
    Gamma(D-K1)^2) <= ((k-K1) dt + 1)^{-2K1}. Needs D > K1 and (k-K1) dt + 1 > 0.
    """
    k, r, k1 = reals("k", k, 0.0), reals("r", r, -1.0), real("k1", k1)
    d = 1.0 / positive_real("dt", dt)
    lhs = 2.0 * log_gamma_ratio(r + 1.0 + d - k1, k1) - 2.0 * log_gamma_ratio(k + d - k1, k1)
    rhs = -2.0 * k1 * np.log((k - k1) * dt + 1.0) + 2.0 * k1 * np.log((r + 1.0) * dt + 1.0)
    return rhs - lhs


def bem_sum_term_log_margin(k, r, dt, k1):
    """Margin of Gamma(k+1+D) Gamma(r+1+D+2K1) / (Gamma(k+1+D+2K1) Gamma(r+1+D))
    <= ((k+1) dt + 1)^{-2K1} ((r+1+2K1) dt + 1)^{2K1}, with D = 1/dt, for 0 <= r < k.

    r = 0 is the initial term, Gamma(k+1+D) Gamma(1+2K1+D) / (Gamma(k+1+D+2K1)
    Gamma(1+D)) <= ((k+1) dt + 1)^{-2K1} ((1+2K1) dt + 1)^{2K1}.
    """
    k, r, k1 = reals("k", k, 0.0), reals("r", r, 0.0), real("k1", k1)
    d = 1.0 / positive_real("dt", dt)
    lhs = log_gamma_ratio(r + 1.0 + d, 2.0 * k1) - log_gamma_ratio(k + 1.0 + d, 2.0 * k1)
    rhs = -2.0 * k1 * np.log((k + 1.0) * dt + 1.0) + 2.0 * k1 * np.log((r + 1.0 + 2.0 * k1) * dt + 1.0)
    return rhs - lhs


def verify_proof_bounds(k_max: int = 200) -> tuple[ConditionCheck, ...]:
    """Evaluate all four inequality families on grids k in {2..k_max}, r < k.

    Returns one checks.ConditionCheck per family, each with its least log
    margin. The initial-term families are the sum terms at r = -1 (explicit) and
    r = 0 (semi-implicit) over k alone, so their worst points read (k, dt,
    K1). The other axes are fixed: every dt in _PROOF_DTS with every K1 in
    _PROOF_K1S, for all four families (each K1 there meets the explicit
    families' K1 >= 1 and the semi-implicit ones' K1 > 0.5). A family passes
    at a worst margin >= -_PROOF_SLACK. k_max must be an integer >= 2, so
    that the grid is not empty, and at most PROOF_BOUNDS_MAX_K, since the
    paired grid has ~k_max**2 / 2 points.
    """
    ks = np.arange(2, integer("k_max", k_max, 2, PROOF_BOUNDS_MAX_K) + 1)
    pair_k = np.repeat(ks, ks)  # each k paired with r = 0..k-1
    pair_r = np.concatenate([np.arange(k) for k in ks])

    single = (ks,)
    paired = (pair_k, pair_r)
    families = (
        ("em-initial-term", lambda k, dt, k1: em_sum_term_log_margin(k, -1, dt, k1), single),
        ("em-sum-term", em_sum_term_log_margin, paired),
        ("bem-initial-term", lambda k, dt, k1: bem_sum_term_log_margin(k, 0, dt, k1), single),
        ("bem-sum-term", bem_sum_term_log_margin, paired),
    )
    results = []
    for name, margin_fn, index_arrays in families:
        worst, total = [], 0  # worst: each (dt, K1) block's least margin and its point
        for dt in _PROOF_DTS:
            for k1 in _PROOF_K1S:
                m = margin_fn(*index_arrays, dt, k1)
                total += int(m.size)
                i = int(np.argmin(m))
                worst.append((float(m[i]), tuple(int(arr[i]) for arr in index_arrays) + (dt, k1)))
        margin, point = worst[int(np.argmin([w[0] for w in worst]))]
        results.append(ConditionCheck(
            name=name, rule=f">= {-_PROOF_SLACK:g}", worst_margin=margin, worst_point=point,
            samples=total, passed=margin >= -_PROOF_SLACK,
        ))
    return tuple(results)
