import math

import numpy as np
import pytest

from polystab.checks import integer, positive_real, real


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
