"""The integer and real-number preconditions, each defined once.

Step indices, counts, path ids and seeds are integers; step sizes and the
constants a problem claims are finite positive reals; a fit's K1 and
tolerance are finite reals, the tolerance >= 0. Every public entry
checks such an argument with one of these validators, so a rule such as "a
bool is not an integer" holds at all of them. All raise ValueError, never
TypeError, whatever the value's type, and return the value as an int or a
float. Range conditions beyond these (dt < 1/K1, dt < 1/|Kbar|) stay with
the function whose result needs them. em_step_batch, bem_step_batch,
solve_implicit_batch and the ensemble's chunk loop, which forms each step's
t and t_next from a checked dt, take checked values and call none of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["integer", "real", "positive_real"]

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
