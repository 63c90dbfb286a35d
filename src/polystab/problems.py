"""SDE problem definitions and numerical audits of their structural conditions.

A problem is dx = f(x,t) dt + g(x,t) dB with scalar driving noise. The decay
machinery relies on three pointwise conditions parameterized by constants
K1 > 0 and C > 0,

    |f(x,t)|   <= K1 (1+t)^-1 |x|          (drift linear growth)
    <x,f(x,t)> <= -K1 (1+t)^-1 |x|^2       (drift one-sided decay)
    |g(x,t)|   <= C (1+t)^-K1              (noise envelope)

plus a one-sided Lipschitz bound with constant Kbar. User problems are black
boxes, so the audit samples state/time grids, and for the Lipschitz bound
state pairs from polystab.noise's uniform draw, and reports each condition's
worst margin as a checks.ConditionCheck (a NaN margin is refused); a pass
is sampling evidence, never a proof.

Every call of a drift or diffusion in the package hands it a float64
(rows, n) block. coefficient_values reads its values at the block's shape,
so the audit, the implicit solvers and any other code that slices, indexes
or reduces them sees one shape, whatever broadcastable value the
coefficient returned.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import checks
from .checks import ConditionCheck, integer, positive_real, real, reals
from .noise import uniforms

__all__ = [
    "SdeProblem",
    "coefficient_values",
    "AUDIT_NOTE",
    "ConditionCheck",
    "ConditionAuditReport",
    "audit_conditions",
    "one_sided_decay_max_k1",
    "linear_example",
    "cubic_counterexample",
    "bem_example",
    "exact_linear_mean_square",
    "default_state_grid",
    "DEFAULT_AUDIT_TIMES",
    "PROBLEM_BUILDERS",
    "DEFAULT_INITIAL_VALUES",
    "problem_from_label",
]

AUDIT_NOTE = "sampled evidence only; a pass is not a proof"

# float slack for margins that are identically zero in exact arithmetic
_MARGIN_RTOL = 1e-12


@dataclass(frozen=True)
class SdeProblem:
    """Immutable SDE problem dx = f(x,t) dt + g(x,t) dB.

    drift and diffusion are pure functions of (state, time) that act on each
    row alone. Every call in the package hands them a float64 (rows,
    dimension) block, such as the ensemble's (paths, dimension) block, the
    implicit solver's stacked residual and difference points or the n = 1
    bisection's (1, 1) point, and a float time. Each may return anything
    that broadcasts to that block's shape (the built-in noise is one float),
    which simulate_ensemble checks once per run; code that slices, indexes
    or reduces the values reads them through :func:`coefficient_values`.
    k1, c, kbar are the condition constants the problem claims; claims are
    checked by :func:`audit_conditions`, not trusted.
    """

    dimension: int
    drift: Callable[[np.ndarray, float], np.ndarray]
    diffusion: Callable[[np.ndarray, float], np.ndarray]
    k1: float
    c: float
    kbar: float
    satisfies_linear_growth: bool
    label: str

    def __post_init__(self):
        object.__setattr__(self, "dimension", integer("dimension", self.dimension, 1))
        for name in ("k1", "c"):
            object.__setattr__(self, name, positive_real(name, getattr(self, name)))
        object.__setattr__(self, "kbar", real("kbar", self.kbar))


def coefficient_values(fn, states: np.ndarray, t: float) -> np.ndarray:
    """fn(states, t) as a float array of the shape of the (rows, n) block states.

    A coefficient may return anything that broadcasts to its block, such as
    one constant; its values are broadcast to the block's shape, a read-only
    view, so a caller may slice, index and reduce them by row.
    """
    out = np.asarray(fn(states, t), dtype=float)
    return out if out.shape == states.shape else np.broadcast_to(out, states.shape)


# ---------------------------------------------------------------------------
# built-in problems


def _linear_drift(x, t):
    # -x / (1 + t) in one operation: division rounds symmetrically in sign,
    # so every value but a NaN's sign bit is the same
    return x / -(1.0 + t)


def _linear_diffusion(x, t):
    return np.float64(1.0 / (1.0 + t))


def linear_example() -> SdeProblem:
    """dx = -x/(1+t) dt + 1/(1+t) dB. All three growth conditions hold with K1 = 1, C = 1."""
    return SdeProblem(
        dimension=1,
        drift=_linear_drift,
        diffusion=_linear_diffusion,
        k1=1.0,
        c=1.0,
        kbar=-1.0,
        satisfies_linear_growth=True,
        label="linear",
    )


def _cubic_drift(x, t):
    return (-3.0 * x - x**3) / (1.0 + t)


def _cubic_diffusion(x, t):
    return np.float64((1.0 + t) ** -3)


def cubic_counterexample() -> SdeProblem:
    """dx = (-3x - x^3)/(1+t) dt + (1+t)^-3 dB.

    One-sided decay and the noise envelope hold with K1 = 3, C = 1, but the
    drift grows cubically, so the linear-growth condition fails and explicit
    stepping blows up.
    """
    return SdeProblem(
        dimension=1,
        drift=_cubic_drift,
        diffusion=_cubic_diffusion,
        k1=3.0,
        c=1.0,
        kbar=-3.0,
        satisfies_linear_growth=False,
        label="counterexample",
    )


def _bem_drift(x, t):
    return (-3.0 * x - x**3) / (1.0 + t) ** 2


def _bem_diffusion(x, t):
    return 5.0 * np.sin(x) / (1.0 + t) ** 4


def bem_example() -> SdeProblem:
    """dx = (-3x - x^3)/(1+t)^2 dt + 5 sin(x)/(1+t)^4 dB.

    Ships with the claimed constants K1 = 3, C = 5. The (1+t)^-2 damping on
    the drift is weaker than the one-sided decay condition demands, so the
    claim does not survive the audit; run :func:`audit_conditions` /
    :func:`one_sided_decay_max_k1` before trusting k1 in any envelope. Kbar = 0 is
    the only valid one-sided Lipschitz constant of the (1+t)^-1 form here
    (the drift is monotone non-increasing; any negative constant fails at
    large t), so the implicit solve is well posed at every step size.
    """
    return SdeProblem(
        dimension=1,
        drift=_bem_drift,
        diffusion=_bem_diffusion,
        k1=3.0,
        c=5.0,
        kbar=0.0,
        satisfies_linear_growth=False,
        label="bem-example",
    )


def exact_linear_mean_square(x0: float, t) -> float:
    """Closed-form E|x(t)|^2 = (x0^2 + t)/(1+t)^2 for the linear problem.

    The integrating factor (1+t) gives d[(1+t)x] = dB, so
    x(t) = (x0 + B(t))/(1+t) and the second moment follows by Ito isometry.
    """
    t_arr = reals("t", t, 0.0)
    out = (real("x0", x0) ** 2 + t_arr) / (1.0 + t_arr) ** 2
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# condition audit

DEFAULT_AUDIT_TIMES = (0.0, 0.1, 1.0, 10.0, 100.0, 1e4)
_GRID_POINTS_PER_AXIS = 33
_GRID_MAX_AXES = 3
_GRID_HALF_WIDTH = 100.0
_PAIR_SAMPLES = 1000  # state pairs per time for the one-sided Lipschitz check
_PAIR_SEED = 0  # the pairs at the i-th time are noise.uniforms(_PAIR_SEED, i, ...)
_PAIR_BOX_MAX = sys.float_info.max / 2  # largest |state| whose pair box has a finite width


def _audit_pairs(half_width: float, dimension: int, index: int) -> np.ndarray:
    """The one-sided Lipschitz pairs at the audit's index-th time: xs and ys stacked, (2, _PAIR_SAMPLES, dimension).

    Each component is -half_width + 2 half_width u, uniform in the states'
    box, with the u of stream index of uniforms at _PAIR_SEED in row-major
    order: xs takes the first half and ys the second.
    """
    u = uniforms(_PAIR_SEED, index, 2 * _PAIR_SAMPLES * dimension)
    return -half_width + 2.0 * half_width * u.reshape(2, _PAIR_SAMPLES, dimension)


def default_state_grid(dimension: int) -> np.ndarray:
    """Product grid of states, 33 points per axis on [-100, 100], at most 3 axes."""
    axes = min(dimension, _GRID_MAX_AXES)
    pts = np.linspace(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH, _GRID_POINTS_PER_AXIS)
    mesh = np.meshgrid(*([pts] * axes), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    if dimension > axes:
        pad = np.zeros((grid.shape[0], dimension - axes))
        grid = np.hstack([grid, pad])
    return grid


@dataclass(frozen=True)
class ConditionAuditReport:
    """Worst sampled margins for the four structural conditions.

    A condition passes iff its margin (LHS - RHS of the inequality) is <= 0,
    up to a relative floating-point slack, at every sampled point. Margins are
    raw. The summary's title spells out that this is evidence, not proof.
    """

    problem_label: str
    linear_growth_f: ConditionCheck
    one_sided_f: ConditionCheck
    linear_growth_g: ConditionCheck
    one_sided_lipschitz: ConditionCheck

    def checks(self):
        return (
            self.linear_growth_f,
            self.one_sided_f,
            self.linear_growth_g,
            self.one_sided_lipschitz,
        )

    def summary(self) -> str:
        title = f"condition audit for '{self.problem_label}' ({AUDIT_NOTE}):"
        return checks.summary(title, self.checks())


def _point(vec) -> tuple:
    return tuple(float(v) for v in np.atleast_1d(vec))


def _eval_checked(fn, x, t, what, label):
    try:
        out = coefficient_values(fn, x, t)
    except ArithmeticError as exc:  # such as a Python-float power of t that overflows
        raise ValueError(
            f"{what} of '{label}' raised {type(exc).__name__} at t={t}: {exc}"
        ) from exc
    if not np.all(np.isfinite(out)):
        row = np.argwhere(~np.isfinite(out))[0, 0]
        raise ValueError(
            f"{what} of '{label}' returned a non-finite value at t={t}, "
            f"state={_point(x[row])}"
        )
    return out


def _check(name, margins, slacks, point) -> ConditionCheck:
    """ConditionCheck over the samples in order: per-sample margins and slacks
    as lists of arrays, and point(i) for the point of the i-th sample.

    The worst sample is the first NaN margin, else the first largest margin;
    a sample passes at a margin <= its slack, so a NaN one fails.
    """
    margins, slacks = np.concatenate(margins), np.concatenate(slacks)
    i = int(np.argmax(margins))
    return ConditionCheck(
        name=name, rule=f"<= 0 ({_MARGIN_RTOL:g} rel. slack)", worst_margin=margins[i], worst_point=point(i),
        samples=margins.size, passed=bool((margins <= slacks).all()),
    )


def audit_conditions(
    problem: SdeProblem, states: np.ndarray | None = None, times=None
) -> ConditionAuditReport:
    """Sample the four conditions over grids and report worst margins.

    states: (m, dimension) array, default :func:`default_state_grid`.
    times: array-like of t >= 0, default DEFAULT_AUDIT_TIMES. The one-sided
    Lipschitz condition quantifies over state pairs, so it is sampled with
    a fixed 1000 uniform pairs per time in the states' box, the i-th time's
    from stream i of noise.uniforms at seed 0: the same problem and grids
    give the same report, and a time's pairs do not depend on the others. A
    |state| above half the float maximum is refused, since the box would
    have no finite width. An infinite margin is a verdict; a NaN one (its
    sides overflow) is a ValueError that names the condition, t and sample.
    """
    if states is None:
        states = default_state_grid(problem.dimension)
    states = np.atleast_2d(reals("states", states))
    if states.shape[1] != problem.dimension:
        raise ValueError(
            f"states must have {problem.dimension} columns, got {states.shape[1]}"
        )
    times = DEFAULT_AUDIT_TIMES if times is None else reals("times", times, 0.0).ravel().tolist()
    if len(times) == 0 or len(states) == 0:
        raise ValueError("need non-empty state and time samples")
    half_width = float(np.max(np.abs(states))) or 1.0
    if half_width > _PAIR_BOX_MAX:
        raise ValueError(
            f"states must lie within +-{_PAIR_BOX_MAX!r} (half the float maximum), "
            f"got a largest |state| of {half_width!r}"
        )

    k1, c, kbar, label = problem.k1, problem.c, problem.kbar, problem.label
    with np.errstate(over="ignore"):  # an inf norm is judged with the margins below
        xn = np.linalg.norm(states, axis=1)
        xn2 = xn**2

    def state_point(i):
        k, j = divmod(i, len(states))
        return (times[k], _point(states[j]))

    def pair_point(i):
        k, j = divmod(i, _PAIR_SAMPLES)
        xs, ys = pairs[k]
        return (times[k], _point(xs[j]), _point(ys[j]))

    # _check's arguments per condition: name, per-time margins and slacks, sample points
    conditions = [(name, [], [], point) for name, point in (
        ("drift linear growth", state_point), ("drift one-sided decay", state_point),
        ("noise envelope", state_point), ("one-sided Lipschitz", pair_point))]
    pairs = []
    for i, t in enumerate(times):
        f = _eval_checked(problem.drift, states, t, "drift", label)
        g = _eval_checked(problem.diffusion, states, t, "diffusion", label)
        xs, ys = _audit_pairs(half_width, problem.dimension, i)
        pairs.append((xs, ys))
        fx = _eval_checked(problem.drift, xs, t, "drift", label)
        fy = _eval_checked(problem.drift, ys, t, "drift", label)
        # an overflowing side gives an infinite margin (a verdict: the slack is finite) or a NaN one
        with np.errstate(over="ignore", invalid="ignore"):
            d = xs - ys
            sides = (  # (lhs, rhs) of each condition, in the order of conditions
                (np.linalg.norm(f, axis=1), k1 * xn / (1.0 + t)),
                (np.einsum("ij,ij->i", states, f), -k1 * xn2 / (1.0 + t)),
                (np.linalg.norm(g, axis=1), c * (1.0 + t) ** (-k1)),
                (np.einsum("ij,ij->i", d, fx - fy), kbar * np.einsum("ij,ij->i", d, d) / (1.0 + t)),
            )
            for (_, margins, slacks, _), (lhs, rhs) in zip(conditions, sides):
                margins.append(lhs - rhs)
                bound = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
                slacks.append(_MARGIN_RTOL * np.minimum(bound, sys.float_info.max))

    report = ConditionAuditReport(label, *(_check(*condition) for condition in conditions))
    for check in report.checks():
        if np.isnan(check.worst_margin):  # no verdict; the worst sample is the first NaN
            t, *sample = check.worst_point
            raise ValueError(f"{check.name} of '{label}' has a NaN margin (its sides overflow) "
                             f"at t={t}, sample {', '.join(map(str, sample))}")
    return report


def one_sided_decay_max_k1(problem: SdeProblem) -> float:
    """Largest K1 for which the one-sided decay condition holds on the audit grid.

    Returns min over the points of default_state_grid with |x| > 0 and the
    times in DEFAULT_AUDIT_TIMES of -<x, f(x,t)> (1+t)/|x|^2, clipped at 0
    when even that fails. This is the audited K1: what the data supports, as
    opposed to what the problem claims.
    """
    states = default_state_grid(problem.dimension)
    xn2 = np.einsum("ij,ij->i", states, states)
    nz = xn2 > 0.0  # every point but the origin
    best = np.inf
    for t in DEFAULT_AUDIT_TIMES:
        f = _eval_checked(problem.drift, states, t, "drift", problem.label)
        xf = np.einsum("ij,ij->i", states, f)
        best = min(best, float(np.min(-xf[nz] * (1.0 + t) / xn2[nz])))
    return max(0.0, best)  # 0.0, not -0.0, when best is -0.0


# ---------------------------------------------------------------------------
# registry

PROBLEM_BUILDERS = {
    "linear": linear_example,
    "counterexample": cubic_counterexample,
    "bem-example": bem_example,
}

DEFAULT_INITIAL_VALUES = {
    # counterexample default sits inside the explicit scheme's instability
    # region at t=0 so the blow-up is witnessed at desk scale
    "linear": 1.0,
    "counterexample": 5.0,
    "bem-example": 2.0,
}


def problem_from_label(label: str, k1=None, c=None) -> SdeProblem:
    """Built-in problem by label, optionally overriding the claimed K1 / C."""
    try:
        build = PROBLEM_BUILDERS[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        known = ", ".join(sorted(PROBLEM_BUILDERS))
        raise ValueError(f"unknown problem label {label!r}; known: {known}") from None
    problem = build()
    overrides = {name: v for name, v in (("k1", k1), ("c", c)) if v is not None}
    if overrides:
        problem = dataclasses.replace(problem, **overrides)
    return problem
