import math

import numpy as np
import pytest
from scipy import special as sp

import oracles
from noncompact import specfun


@pytest.fixture(scope="module")
def rule():
    return oracles.gauss_legendre_unit()


def test_rule_shapes_and_range(rule):
    assert rule.order == oracles.DEFAULT_ORDER
    assert rule.nodes.shape == rule.weights.shape == (rule.order,)
    assert np.all((rule.nodes > 0) & (rule.nodes < 1))
    assert np.all(rule.weights > 0)


def test_weighted_measure_total(rule):
    # integral of 1 against r dr over [0,1] is 1/2.
    assert oracles.radial_integral(lambda r: np.ones_like(r), rule) == pytest.approx(
        0.5, abs=1e-14
    )


def test_polynomial_exactness():
    # An order-q rule integrates polynomials of degree <= 2q-1 exactly; the
    # r dr weight uses up one degree.
    rule = oracles.gauss_legendre_unit(8)
    for d in range(0, 15):
        value = oracles.radial_integral(lambda r, d=d: r**d, rule)
        assert value == pytest.approx(1.0 / (d + 2), abs=1e-13)


def test_invalid_order():
    with pytest.raises(ValueError):
        oracles.gauss_legendre_unit(0)


def test_bessel_norm_identity(rule):
    # integral of J_0(alpha_{0,1} r)^2 r dr = J_1(alpha_{0,1})^2 / 2.
    alpha = specfun.bessel_zero(0, 1)
    value = oracles.radial_integral(
        lambda r: np.square(sp.jv(0, r * alpha)), rule
    )
    expected = 0.5 * sp.jv(1, alpha) ** 2
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.1348, abs=5e-4)


def test_spinor_normalization_identity(rule):
    # integral of (J_n^2 + J_{n-1}^2)(alpha_{n-1,k} r) r dr = J_n(alpha_{n-1,k})^2.
    jv = sp.jv
    for n in range(1, 7):
        for k in range(1, 7):
            alpha = specfun.bessel_zero(n - 1, k)
            value = oracles.radial_integral(
                lambda r, n=n, a=alpha: jv(n, r * a) ** 2 + jv(n - 1, r * a) ** 2,
                rule,
            )
            assert value == pytest.approx(jv(n, alpha) ** 2, abs=1e-10)


def test_oracle_selection_rules(rule):
    assert oracles.oracle_disc_element(2, 3, 1, 1, 2, 2, rule) == 0
    assert oracles.oracle_disc_element(1, 2, 1, 2, 1, 1, rule) == 0
    assert oracles.oracle_disc_element(1, 2, 1, 1, 4, 1, rule) == 0
    assert oracles.oracle_disc_element(2, 2, 1, 2, 2, 1, rule) == 0


def test_oracle_trace_case_diagonal(rule):
    value = oracles.oracle_disc_element(1, 1, 1, 2, 1, 1, rule)
    assert value.imag == 0
    assert value.real == pytest.approx(1.0 / specfun.bessel_zero(0, 1), abs=1e-10)


def test_oracle_trace_case_off_diagonal(rule):
    value = oracles.oracle_disc_element(1, 1, 2, 2, 1, 3, rule)
    expected = 1.0 / (specfun.bessel_zero(0, 2) + specfun.bessel_zero(0, 3))
    assert value.real == pytest.approx(expected, abs=1e-10)


def test_oracle_interior_case(rule):
    a = specfun.bessel_zero(1, 2)
    b = specfun.bessel_zero(0, 1)
    expected = 2.0 * a / ((a - b) * (a + b) ** 2)
    value = oracles.oracle_disc_element(1, 2, 2, 1, 1, 1, rule)
    assert value.real == pytest.approx(expected, abs=1e-10)


def test_oracle_invalid_arguments(rule):
    with pytest.raises(ValueError):
        oracles.oracle_disc_element(3, 1, 1, 1, 1, 1, rule)
    with pytest.raises(ValueError):
        oracles.oracle_disc_element(1, 0, 1, 1, 1, 1, rule)
