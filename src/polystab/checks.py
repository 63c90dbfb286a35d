"""The integer and real-number preconditions, and the one record of a sampled check.

Step indices, counts, path ids and seeds are integers; step sizes and the
constants a problem claims are finite positive reals; a fit's K1 and
tolerance are finite reals, the tolerance >= 0. Every public entry
checks such an argument with one of these validators, so a rule such as "a
bool is not an integer" holds at all of them. An array argument (times,
states, initial values, increments, gamma arguments, the indices k and r)
goes through reals, whose elements must be ints or floats: a bool or a
string is not a real there either. All raise ValueError, never TypeError,
whatever the value's type, and return an int, a float or a float array.
Relational conditions (x + eta > 0, dt < 1/K1, dt < 1/|Kbar|, a state's
shape against the problem) stay with the function whose result needs them.
No step kernel or solver calls a validator: em_step_batch, bem_step_batch,
solve_implicit_batch, the solvers behind it (the n = 1 bisection fallback
included) and the ensemble's chunk loop, which forms each step's t and
t_next from a checked dt, take checked values as they are.

Every sampled check (the condition audit, the gamma product identity, the
ratio/power signs and the four proof-bound families) returns ConditionCheck
records, which summary renders as one table. A NaN statistic is its check's
worst sample and fails it: argmax and argmin return the first NaN, and every
rule's comparison is False on one. The condition audit is the exception: a
NaN margin there means its two sides overflowed, and it refuses the sample
with a ValueError instead of reporting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["integer", "real", "positive_real", "reals", "ConditionCheck", "summary"]

# concrete types: an isinstance check against the numbers ABCs costs ~4x more
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def integer(name: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as an int: an int or numpy integer, not a bool, in [minimum, maximum] where given."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be an integer <= {maximum}, got {value!r}")
    return int(value)


def _as_float(name: str, value, what: str) -> float:
    """value as a float if it is a real number, not a bool; an int beyond the floats is inf."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def real(name: str, value, minimum: float | None = None) -> float:
    """value as a float: an int, float or numpy scalar, not a bool, finite, >= minimum if given."""
    what = "a finite real" if minimum is None else f"a finite real >= {minimum}"
    v = _as_float(name, value, what)
    if not (math.isfinite(v) and (minimum is None or v >= minimum)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return v


def positive_real(name: str, value) -> float:
    """value as a float: a real number (int, float or numpy scalar), not a bool, finite and > 0."""
    v = _as_float(name, value, "a positive real")
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be a positive real, got {value!r}")
    return v


def reals(name: str, value, minimum: float | None = None) -> np.ndarray:
    """value as a float array: int or float elements, not bool, str, object or complex,
    each finite and >= minimum if given; a message names the first bad element's index."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    ok = np.isfinite(arr) if minimum is None else np.isfinite(arr) & (arr >= minimum)
    if not ok.all():
        what = "finite" if minimum is None else f"finite and >= {minimum}"
        i = tuple(int(j) for j in np.argwhere(~ok)[0])
        at = f" at index {i[0] if len(i) == 1 else i}" if i else ""
        raise ValueError(f"{name} must be {what}, got {float(arr[i])!r}{at}")
    return arr


@dataclass(frozen=True)
class ConditionCheck:
    """The worst sample of a sampled check: worst_margin is the statistic that
    rule compares there (a margin, or the identity's relative error)."""

    name: str
    rule: str
    worst_margin: float
    worst_point: tuple
    samples: int
    passed: bool


def summary(title: str, records) -> str:
    """title, then one row per record: name, rule, pass or FAIL, worst value, point, samples."""
    name_width = max(len(r.name) for r in records)
    rule_width = max(len(r.rule) for r in records)
    lines = [title]
    for r in records:
        lines.append(
            f"  {r.name:<{name_width}s}  {r.rule:<{rule_width}s}  "
            f"{'pass' if r.passed else 'FAIL'}  worst {r.worst_margin:+.3e} "
            f"at {r.worst_point}  ({r.samples} samples)"
        )
    return "\n".join(lines)
