import math
import re

import numpy as np
import pytest

from polystab.analysis import (
    bem_envelope,
    bem_sum_term_log_margin,
    em_envelope,
    em_sum_term_log_margin,
    estimate_decay_exponent,
)
from polystab.checks import integer, positive_real, real, reals
from polystab.ensemble import MomentSeries, SimConfig
from polystab.gamma import log_gamma_ratio, ratio_power_margin
from polystab.integrators import StepContext, em_step, solve_implicit
from polystab.problems import audit_conditions, exact_linear_mean_square, linear_example


@pytest.mark.parametrize("value,minimum,expected", [
    (True, None, None),
    (False, 0, None),
    (np.bool_(True), None, None),
    (3.0, None, None),
    (2.5, 0, None),
    (math.nan, None, None),
    (math.inf, 0, None),
    ("3", None, None),
    (None, None, None),
    (0, 1, None),  # below the minimum
    (np.int64(-1), 0, None),
    (np.int64(5), 1, 5),
    (np.uint64(2**63), 0, 2**63),
    (-12345, None, -12345),  # no minimum: seeds are used mod 2**64
    (2**64 + 9, None, 2**64 + 9),
    (2, 2, 2),
], ids=lambda v: repr(v))
def test_integer(value, minimum, expected):
    if expected is None:
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            integer("n", value, minimum)
    else:
        out = integer("n", value, minimum)
        assert out == expected and type(out) is int


@pytest.mark.parametrize("value,expected", [
    (10, 10), (np.int64(10), 10), (-3, -3), (11, None), (np.uint64(2**63), None), (2**70, None),
], ids=lambda v: repr(v))
def test_integer_maximum(value, expected):
    if expected is None:
        with pytest.raises(ValueError, match=r"^n must be an integer <= 10, got"):
            integer("n", value, maximum=10)
    else:
        assert integer("n", value, maximum=10) == expected


@pytest.mark.parametrize("value,expected", [
    (True, None),
    (np.bool_(True), None),
    (0.0, None),  # below the minimum
    (-0.1, None),
    (np.int64(-1), None),
    (math.nan, None),
    (math.inf, None),
    (-math.inf, None),
    (10**400, None),  # an int beyond the float range
    ("0.1", None),
    (None, None),
    (np.array(0.1), None),
    (0.1, 0.1),
    (3, 3.0),
    (np.int64(5), 5.0),
    (np.float32(0.5), 0.5),
    (5e-324, 5e-324),
], ids=lambda v: repr(v))
def test_positive_real(value, expected):
    if expected is None:
        with pytest.raises(ValueError, match=r"^x must be a positive real"):
            positive_real("x", value)
    else:
        out = positive_real("x", value)
        assert out == expected and type(out) is float


@pytest.mark.parametrize("value,minimum,expected", [
    (True, None, None),
    (np.bool_(False), 0.0, None),
    (math.nan, None, None),
    (math.inf, None, None),
    (-math.inf, 0.0, None),
    (10**400, None, None),
    ("1", None, None),
    (None, None, None),
    (-1e-300, 0.0, None),  # below the minimum
    (0, None, 0.0),  # zero: an audited K1 is clipped at 0
    (-2.5, None, -2.5),
    (0.0, 0.0, 0.0),
    (np.float64(0.15), 0.0, 0.15),
    (np.int64(3), 0.0, 3.0),
], ids=lambda v: repr(v))
def test_real(value, minimum, expected):
    if expected is None:
        with pytest.raises(ValueError, match=r"^r must be a finite real"):
            real("r", value, minimum)
    else:
        out = real("r", value, minimum)
        assert out == expected and type(out) is float


@pytest.mark.parametrize("value,minimum,expected", [
    ([1, 2], None, [1.0, 2.0]),
    (np.arange(3), 0.0, [0.0, 1.0, 2.0]),
    (np.array([2**63], dtype=np.uint64), None, [2.0**63]),
    (np.array([0.5, -1.5], dtype=np.float32), None, [0.5, -1.5]),
    ((0, 0.0), 0.0, [0.0, 0.0]),
    ([], 0.0, []),
], ids=lambda v: repr(v))
def test_reals_accepts(value, minimum, expected):
    out = reals("v", value, minimum)
    assert out.dtype == np.float64 and out.tolist() == expected


@pytest.mark.parametrize("value,minimum,message", [
    (True, None, "v must be real numbers, got dtype bool"),
    ([True, False], None, "v must be real numbers, got dtype bool"),
    ("1", None, "v must be real numbers, got dtype <U1"),
    ([1.0, None], None, "v must be real numbers, got dtype object"),
    (10**400, None, "v must be real numbers, got dtype object"),
    (np.array([1j]), None, "v must be real numbers, got dtype complex128"),
    ([0.0, 1.0, math.nan], None, "v must be finite, got nan at index 2"),
    ([[1.0, math.inf]], None, "v must be finite, got inf at index (0, 1)"),
    ([0, -1, -2], 0.0, "v must be finite and >= 0.0, got -1.0 at index 1"),
    (-0.5, 0.0, "v must be finite and >= 0.0, got -0.5"),
    (-math.inf, 0.0, "v must be finite and >= 0.0, got -inf"),
], ids=lambda v: repr(v))
def test_reals_refuses(value, minimum, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reals("v", value, minimum)


def moment_series(time):
    n = len(time)
    return MomentSeries(
        problem_label="s", config=None, step_index=np.arange(n), time=time,
        mean_square=np.ones(n), std_error=np.zeros(n), surviving=np.ones(n, dtype=int),
        blown_up=np.zeros(n, dtype=int), capped_mean_abs=np.ones(n),
    )


# each public entry whose array arguments go through reals, with the margins'
# k1: a call with one argument set to v, and whether the entry refuses a
# negative v
ARRAY_ENTRIES = {
    "log_gamma_ratio x": (lambda v: log_gamma_ratio(v, 0.5), True),
    "log_gamma_ratio eta": (lambda v: log_gamma_ratio(2.0, v), True),
    "ratio_power_margin x": (lambda v: ratio_power_margin(v, 0.5), True),
    "ratio_power_margin eta": (lambda v: ratio_power_margin(2.0, v), True),
    "em_envelope k": (lambda v: em_envelope(v, 0.1, 1.0, 1.0, 1.0), True),
    "bem_envelope k": (lambda v: bem_envelope(v, 0.1, 1.0, 1.0, 1.0), True),
    "estimate_decay_exponent time": (
        lambda v: estimate_decay_exponent(moment_series(np.full(20, v)), k1=1.0), True),
    "em_sum_term_log_margin k": (lambda v: em_sum_term_log_margin(v, -1, 0.1, 2.0), True),
    "em_sum_term_log_margin r": (lambda v: em_sum_term_log_margin(7, v, 0.1, 2.0), True),
    "em_sum_term_log_margin k1": (lambda v: em_sum_term_log_margin(7, -1, 0.1, v), False),
    "bem_sum_term_log_margin k": (lambda v: bem_sum_term_log_margin(v, 0, 0.1, 2.0), True),
    "bem_sum_term_log_margin r": (lambda v: bem_sum_term_log_margin(7, v, 0.1, 2.0), True),
    "bem_sum_term_log_margin k1": (lambda v: bem_sum_term_log_margin(7, 0, 0.1, v), False),
    "exact_linear_mean_square t": (lambda v: exact_linear_mean_square(1.0, v), True),
    "audit_conditions times": (lambda v: audit_conditions(linear_example(), times=(v,)), True),
    "audit_conditions states": (
        lambda v: audit_conditions(linear_example(), states=[[v]], times=(1.0,)), False),
    "SimConfig initial_value": (
        lambda v: SimConfig(dt=0.1, num_steps=5, num_paths=2, seed=1, scheme="em",
                            initial_value=(v,)), False),
    "StepContext db": (lambda v: StepContext(k=0, dt=0.1, db=v), False),
    "em_step y": (lambda v: em_step(linear_example(), v, StepContext(k=0, dt=0.1, db=0.0)), False),
    "solve_implicit b": (lambda v: solve_implicit(linear_example(), 0.0, v, 0.1), False),
}


@pytest.mark.parametrize("entry,value", [
    (entry, value)
    for entry, (_, bounded) in ARRAY_ENTRIES.items()
    for value in ("2", True, math.nan, math.inf) + ((-5.0,) if bounded else ())
], ids=lambda v: repr(v))
def test_entry_refuses_what_is_not_a_real_in_range(entry, value):
    call, _ = ARRAY_ENTRIES[entry]
    with pytest.raises(ValueError):
        call(value)
