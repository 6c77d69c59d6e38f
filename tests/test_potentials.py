import math

import numpy as np
import pytest

from todagibbs import Potential


def test_zero_potential():
    v = Potential.zero()
    assert v.is_zero and v.is_polynomial
    assert np.all(v(np.linspace(-3, 3, 7)) == 0.0)
    assert v.coeffs == () and not v.is_tabulated


def test_polynomial_evaluation():
    v = Potential.polynomial([0.5, 0, 0.25, 0, 1.0])
    x = np.array([-2.0, 0.0, 1.5])
    assert np.allclose(v(x), 0.5 + 0.25 * x ** 2 + x ** 4)
    assert v.coeffs == (0.5, 0.0, 0.25, 0.0, 1.0)
    assert v.is_polynomial and not (v.is_zero or v.is_tabulated)


def test_polynomial_rejects_odd_degree_and_negative_leading():
    with pytest.raises(ValueError):
        Potential.polynomial([0, 0, 0, 1.0])
    with pytest.raises(ValueError):
        Potential.polynomial([0, 0, -1.0])
    with pytest.raises(ValueError):
        Potential.polynomial([0, 1.0, 0, 0, 1.0])  # odd coefficient


def test_all_zero_coefficients_collapse_to_zero():
    # V = 0 is the polynomial with no terms, whichever way it is built
    forms = (Potential.zero(), Potential.polynomial([0.0, 0.0, 0.0]),
             Potential.from_dict({"type": "zero"}))
    assert forms[0] == forms[1] == forms[2]
    for v in forms:
        assert v.is_zero and v.coeffs == ()
        assert v.to_dict() == {"type": "zero"}


def test_confinement():
    v = Potential.polynomial([0, 0, 1.0])
    x = np.array([2.0])
    assert v.confinement(x)[0] == pytest.approx(2.0 + 4.0)


def test_tabulated_range_and_envelope():
    xs = np.linspace(-4, 4, 401)
    vs = 0.1 * xs ** 4
    v = Potential.tabulated(xs, vs, envelope_coeffs=[0, 0, 0, 0, 0.1], slack=1e-6)
    assert v(np.array([1.0]))[0] == pytest.approx(0.1, abs=1e-4)
    # the envelope outside the table, the table's interpolant inside it
    outside = np.array([-50.0, -4.5, 4.0 + 1e-9, 5.0, 10.0])
    assert np.array_equal(v(outside), Potential.polynomial(v.coeffs)(outside))
    inside = np.array([-4.0, -1.23, 0.0, 0.7, 4.0])
    assert np.array_equal(v(inside), np.interp(inside, xs, vs))
    mixed = np.concatenate([outside, inside])
    assert np.array_equal(v(mixed), np.concatenate([v(outside), v(inside)]))
    assert np.array_equal(v.confinement(mixed), 0.5 * mixed ** 2 + v(mixed))


def test_tabulated_envelope_is_its_coeffs():
    xs = np.linspace(-2, 2, 41)
    v = Potential.tabulated(xs, 0.3 * xs ** 2, envelope_coeffs=[0, 0, 0.3, 0, 0])
    assert v.is_tabulated and not (v.is_zero or v.is_polynomial)
    assert v.coeffs == (0.0, 0.0, 0.3)
    assert v.to_dict()["envelope"] == list(v.coeffs)


def test_tabulated_envelope_mismatch_rejected():
    xs = np.linspace(-2, 2, 41)
    with pytest.raises(ValueError):
        Potential.tabulated(xs, xs ** 2, envelope_coeffs=[0, 0, 5.0], slack=1e-3)


@pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf, -1e-3])
def test_tabulated_slack_must_be_finite_and_nonnegative(slack):
    # V(1) = 5 against an envelope of 0.01 at x = 1: a NaN slack used to accept it
    with pytest.raises(ValueError, match="slack"):
        Potential.tabulated([-1.0, 0.0, 1.0], [5.0, 0.0, 5.0],
                            envelope_coeffs=[0, 0, 0, 0, 0.01], slack=slack)


def test_tabulated_nonconfining_envelope():
    xs = np.linspace(-2, 2, 41)
    # envelope -x^2 falls outside the allowed class already at construction
    with pytest.raises(ValueError):
        Potential.tabulated(xs, -(xs ** 2), envelope_coeffs=[0, 0, -1.0])


def test_round_trip_dict():
    for v in (Potential.zero(),
              Potential.polynomial([1.0, 0, 2.0]),
              Potential.tabulated(np.linspace(-3, 3, 31),
                                  0.2 * np.linspace(-3, 3, 31) ** 2,
                                  envelope_coeffs=[0, 0, 0.2])):
        again = Potential.from_dict(v.to_dict())
        assert again == v
