"""Log-gamma arithmetic: finite products as gamma ratios, and ratio/power bounds.

Everything here works in log space. The central identity turns a finite product
of factors 1 - alpha*delta/(1 + (i+beta)*delta) into a ratio of four gamma
values; products of contraction factors of that shape are exactly what drives
polynomial decay rates, so the identity and the companion inequalities

    Gamma(x+eta)/Gamma(x) < x^eta   (0 < eta < 1)
    Gamma(x+eta)/Gamma(x) > x^eta   (eta > 1)

are exposed as tested primitives. verify_product_identity and
verify_ratio_signs check them on fixed samples as checks.ConditionCheck records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import ConditionCheck, integer, positive_real, real, reals
from .noise import uniforms

__all__ = [
    "GammaProductParams",
    "log_gamma_ratio",
    "product_direct",
    "product_via_gamma",
    "ratio_power_margin",
    "verify_product_identity",
    "verify_ratio_signs",
    "RATIO_X_GRID",
    "RATIO_ETA_BELOW_ONE",
    "RATIO_ETA_ABOVE_ONE",
]


@dataclass(frozen=True)
class GammaProductParams:
    """Parameters of the finite product prod_{i=a}^{b} (1 - alpha*delta/(1 + (i+beta)*delta)).

    ``a == b + 1`` encodes the empty product (value 1). ``delta`` must satisfy
    0 < delta < 1/alpha, which keeps every factor inside (0, 1).
    """

    a: int
    b: int
    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "a", integer("a", self.a, 0))
        object.__setattr__(self, "b", integer("b", self.b, 0))
        alpha = positive_real("alpha", self.alpha)
        beta = real("beta", self.beta, 0.0)
        delta = positive_real("delta", self.delta)
        if not delta < 1.0 / alpha:
            raise ValueError(
                f"delta must satisfy 0 < delta < 1/alpha = {1.0 / alpha}, got {delta}"
            )
        if self.a > self.b + 1:
            raise ValueError(
                f"need a <= b + 1 (a == b + 1 is the empty product), got a={self.a}, b={self.b}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)

    @property
    def is_empty(self) -> bool:
        return self.a == self.b + 1


# Stirling series coefficients B_{2n} / (2n(2n-1)) for the tail
# lnGamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + S(x); truncation error
# < 1e-16 for x >= 10, where the shifted evaluation always lands.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_SHIFT_THRESHOLD = 10.0


def _stirling_tail(x):
    r = 1.0 / x
    r2 = r * r
    acc = np.zeros_like(x)
    for c in reversed(_STIRLING_COEFFS):
        acc = acc * r2 + c
    return acc * r


def log_gamma_ratio(x, eta):
    """ln Gamma(x + eta) - ln Gamma(x), evaluated without forming either log-gamma.

    Subtracting two rounded ln-Gamma values loses absolute accuracy once the
    values themselves are large (ulp of lnGamma(1e6) is ~1e-10), which is fatal
    when the difference feeds an exp(). This uses the recurrence to shift x
    above 10 and then

        eta*ln(x) + (x + eta - 1/2)*log1p(eta/x) - eta + S(x+eta) - S(x)

    with S the Stirling tail, keeping the absolute error at a few 1e-16
    regardless of the size of x. Requires x > 0 and x + eta > 0.
    """
    x_arr, eta_arr = reals("x", x), reals("eta", eta)
    if np.any(x_arr <= 0.0) or np.any(x_arr + eta_arr <= 0.0):
        raise ValueError("need x > 0 and x + eta > 0")
    xs, etas = np.broadcast_arrays(x_arr, eta_arr)
    xs = np.array(xs, dtype=float)
    acc = np.zeros_like(xs)
    # lnG(x+eta) - lnG(x) = lnG(x+1+eta) - lnG(x+1) - log1p(eta/x)
    while np.any(xs < _SHIFT_THRESHOLD):
        low = xs < _SHIFT_THRESHOLD
        acc = np.where(low, acc - np.log1p(etas / xs), acc)
        xs = np.where(low, xs + 1.0, xs)
    t = np.log1p(etas / xs)
    out = (
        acc
        + etas * np.log(xs)
        + (xs + etas - 0.5) * t
        - etas
        + _stirling_tail(xs + etas)
        - _stirling_tail(xs)
    )
    if np.ndim(x) == 0 and np.ndim(eta) == 0:
        return float(out)
    return out


def product_direct(params: GammaProductParams) -> float:
    """The finite product, by direct multiplication of its b - a + 1 factors.

    This is the brute-force route and serves as the oracle for
    :func:`product_via_gamma`. The empty product (a == b + 1) is 1.
    """
    if params.is_empty:
        return 1.0
    i = np.arange(params.a, params.b + 1, dtype=float)
    factors = 1.0 - params.alpha * params.delta / (1.0 + (i + params.beta) * params.delta)
    if np.any(factors <= 0.0):
        bad = int(i[factors <= 0.0][0])
        raise ValueError(f"factor at i={bad} is not positive; delta < 1/alpha violated")
    return float(np.prod(factors))


def product_via_gamma(params: GammaProductParams) -> float:
    """The same finite product, through the gamma-ratio identity.

    With A = a + 1/delta + beta and B = b + 1 + 1/delta + beta the product
    equals

        Gamma(B - alpha)/Gamma(B) * Gamma(A)/Gamma(A - alpha)

    which is evaluated as exp(log_gamma_ratio(A - alpha, alpha)
    - log_gamma_ratio(B - alpha, alpha)). delta < 1/alpha guarantees all four
    gamma arguments are positive. Agrees with :func:`product_direct` to
    better than 1e-10 relative over the supported index ranges.
    """
    if params.is_empty:
        return 1.0
    dinv = 1.0 / params.delta
    lower = params.a + dinv + params.beta
    upper = params.b + 1.0 + dinv + params.beta
    exponent = log_gamma_ratio(lower - params.alpha, params.alpha) - log_gamma_ratio(
        upper - params.alpha, params.alpha
    )
    return float(np.exp(exponent))


def ratio_power_margin(x, eta):
    """Signed margin ln Gamma(x+eta) - ln Gamma(x) - eta*ln(x).

    Strictly negative for 0 < eta < 1 and strictly positive for eta > 1;
    eta == 1 is rejected because Gamma(x+1)/Gamma(x) = x exactly and neither
    strict inequality holds.
    """
    x_arr, eta_arr = reals("x", x), reals("eta", eta)
    if np.any(x_arr <= 0.0) or np.any(eta_arr <= 0.0):
        raise ValueError(f"need x > 0 and eta > 0, got x={x!r}, eta={eta!r}")
    if np.any(eta_arr == 1.0):
        raise ValueError("eta == 1 is excluded; Gamma(x+1)/Gamma(x) = x exactly")
    out = log_gamma_ratio(x_arr, eta_arr) - eta_arr * np.log(x_arr)
    if np.ndim(x) == 0 and np.ndim(eta) == 0:
        return float(out)
    return out


# verify_product_identity's sampling box and pass threshold
_IDENTITY_MAX_INDEX = 10_000
_IDENTITY_ALPHA_MAX = 5.0
_IDENTITY_BETA_MAX = 10.0
_IDENTITY_DELTA_MIN = 1e-12
_IDENTITY_TOLERANCE = 1e-10
_IDENTITY_STREAM = 0  # the samples are noise.uniforms(seed, _IDENTITY_STREAM, 5 n)


def _identity_samples(num_samples: int, seed: int) -> list[tuple[int, int, float, float, float]]:
    """verify_product_identity's points (a, b, alpha, beta, delta), one per five uniforms.

    From the uniforms (u0, ..., u4) of a sample: b = floor(u0 (max + 1)),
    a = floor(u1 (b + 1)), alpha = alpha_max (1 - u2), beta = beta_max u3
    and delta = delta_min + (0.99/alpha - delta_min) u4. A u < 1 gives
    floor(u n) < n for every n the box uses.
    """
    u = uniforms(seed, _IDENTITY_STREAM, 5 * num_samples).reshape(num_samples, 5)
    samples = []
    for u_b, u_a, u_alpha, u_beta, u_delta in u.tolist():
        b = int(u_b * (_IDENTITY_MAX_INDEX + 1))
        a = int(u_a * (b + 1))
        alpha = _IDENTITY_ALPHA_MAX * (1.0 - u_alpha)  # (0, max]
        beta = _IDENTITY_BETA_MAX * u_beta
        delta = _IDENTITY_DELTA_MIN + (0.99 / alpha - _IDENTITY_DELTA_MIN) * u_delta
        samples.append((a, b, alpha, beta, delta))
    return samples


def verify_product_identity(num_samples: int = 1000, seed: int = 20240331) -> ConditionCheck:
    """Randomized cross-check of product_via_gamma against product_direct.

    The sampling box is fixed: integer 0 <= a <= b <= _IDENTITY_MAX_INDEX,
    alpha in (0, _IDENTITY_ALPHA_MAX], beta in [0, _IDENTITY_BETA_MAX) and
    delta in [_IDENTITY_DELTA_MIN, 0.99/alpha). The samples come from
    noise.uniforms at the seed (used mod 2**64), five uniforms each, so one
    seed always gives the same points and a longer run starts with the
    points of a shorter one. The record's statistic is the worst relative
    error, at the point (a, b, alpha, beta, delta); the check passes at
    <= _IDENTITY_TOLERANCE. num_samples must be an integer >= 1, so that
    the check is never vacuous, and seed >= 0.
    """
    num_samples = integer("num_samples", num_samples, 1)
    points = _identity_samples(num_samples, integer("seed", seed, 0))
    errors = []
    for a, b, alpha, beta, delta in points:
        params = GammaProductParams(a=a, b=b, alpha=alpha, beta=beta, delta=delta)
        direct = product_direct(params)
        errors.append(abs(product_via_gamma(params) - direct) / direct)
    i = int(np.argmax(errors))
    return ConditionCheck(
        name="product identity", rule=f"<= {_IDENTITY_TOLERANCE:g}",
        worst_margin=errors[i], worst_point=points[i], samples=num_samples,
        passed=errors[i] <= _IDENTITY_TOLERANCE,
    )


RATIO_X_GRID = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4)
RATIO_ETA_BELOW_ONE = (0.1, 0.25, 0.5, 0.75, 0.9)
RATIO_ETA_ABOVE_ONE = (1.1, 1.5, 2.0, 3.7, 5.0)


def verify_ratio_signs() -> tuple[ConditionCheck, ConditionCheck]:
    """The ratio/power margin over the sign-contract grid, as two records.

    The grid is fixed: every x in RATIO_X_GRID with every eta in
    RATIO_ETA_BELOW_ONE, whose record has the largest margin and passes
    at < 0, and with every eta in RATIO_ETA_ABOVE_ONE, whose record has the
    smallest margin and passes at > 0. Points read (x, eta).
    """
    below = [(x, eta) for x in RATIO_X_GRID for eta in RATIO_ETA_BELOW_ONE]
    above = [(x, eta) for x in RATIO_X_GRID for eta in RATIO_ETA_ABOVE_ONE]
    m_below = [ratio_power_margin(x, eta) for x, eta in below]
    m_above = [ratio_power_margin(x, eta) for x, eta in above]
    i, j = int(np.argmax(m_below)), int(np.argmin(m_above))
    return (
        ConditionCheck(
            name="ratio/power eta < 1", rule="< 0", worst_margin=m_below[i],
            worst_point=below[i], samples=len(below), passed=m_below[i] < 0.0,
        ),
        ConditionCheck(
            name="ratio/power eta > 1", rule="> 0", worst_margin=m_above[j],
            worst_point=above[j], samples=len(above), passed=m_above[j] > 0.0,
        ),
    )
