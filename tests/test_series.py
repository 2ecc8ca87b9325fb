from fractions import Fraction

import pytest

from tautcalc.scalars import (FormalSeries, LOG2, Scalar,
                              ch_even_defect_series, harmonic,
                              sech_squared_half, tanh_series,
                              zeta_negative_odd, zeta_prime_symbol)


def test_sech_squared_from_tanh_route():
    # independent oracle: derivative of 2*tanh(z/2) from Bernoulli numbers
    order = 12
    q = sech_squared_half(order)
    t = tanh_series("z", order + 1)
    half = FormalSeries("z", order + 1,
                        {k: c * Fraction(1, 2 ** k)
                         for k, c in t.coefficients().items()})
    alt = half.derivative() * 2
    for k in range(order):
        assert q.coefficient(k) == alt.coefficient(k), k


def test_sech_squared_frozen_values():
    q = sech_squared_half(8)
    assert q.coefficient(0) == Scalar.coerce(1)
    assert q.coefficient(2) == Scalar.coerce(Fraction(-1, 4))
    assert q.coefficient(4) == Scalar.coerce(Fraction(1, 24))
    assert q.coefficient(6) == Scalar.coerce(Fraction(-17, 2880))
    assert all(not q.coefficient(k) for k in range(1, 8, 2))


def test_exp_log_inverse_pair():
    s = FormalSeries("z", 9, {1: 1, 3: Fraction(2, 5), 4: -2})
    assert s.exp().log() == s
    t = FormalSeries("z", 9, {0: 1, 1: 1})
    assert t.log().exp() == t


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        FormalSeries("z", 4, {0: 1}).exp()
    with pytest.raises(ValueError):
        FormalSeries("z", 4, {0: 2}).log()
    with pytest.raises(ValueError):
        FormalSeries("z", 4, {1: 1}).inverse()


def test_compose_even():
    sq = FormalSeries("z", 6, {2: 1})
    assert sq.compose_even() == FormalSeries("z", 3, {1: -1})
    with pytest.raises(ValueError):
        FormalSeries("z", 4, {1: 1}).compose_even()


def test_compose_even_multiplicative():
    s = FormalSeries("z", 12, {0: 1, 2: Fraction(1, 3), 6: -2})
    t = FormalSeries("z", 12, {0: 2, 4: Fraction(5, 7)})
    left = (s * t).compose_even()
    right = s.compose_even() * t.compose_even()
    assert left == right


def test_derivative_and_arithmetic():
    s = FormalSeries("z", 5, {0: 3, 2: Fraction(1, 2), 5: 7})
    ds = s.derivative()
    assert ds.coefficient(1) == Scalar.coerce(1)
    assert ds.coefficient(4) == Scalar.coerce(35)
    assert (s - s).is_zero()
    inv = FormalSeries("z", 8, {0: 1, 1: 1}).inverse()
    assert inv.coefficient(5) == Scalar.coerce(-1)


def test_truncation_is_exact():
    a = FormalSeries("z", 3, {1: 1})
    b = FormalSeries("z", 9, {0: 1, 5: 4})
    assert (a * b).order == 3
    assert (a * b).coefficient(1) == Scalar.coerce(1)


def test_ch_even_defect_coefficients():
    u = ch_even_defect_series(5)
    Z1 = zeta_prime_symbol(1)
    assert u.coefficient(1) == Z1 * (-12) + Fraction(1, 2) - LOG2 * Fraction(4, 3)
    from math import factorial
    k = 2
    bracket = (zeta_prime_symbol(k) / zeta_negative_odd(k)
               + Scalar.from_rational(harmonic(3) / 2)
               - LOG2 * Fraction(16, 15))
    assert u.coefficient(3) == bracket / factorial(3)
