from fractions import Fraction

import pytest

from tautcalc.scalars import (LOG2, ONE, ZERO, Scalar, bernoulli, harmonic,
                              zeta_negative_odd, zeta_prime_symbol)
from tautcalc.series import (ch_even_defect_series, compose_even,
                             sech_squared_half, series, series_derivative,
                             series_inverse, series_log, series_mul, Series)


def tanh_series(order: int) -> Series:
    """tanh x from Bernoulli numbers: sum 4^k (4^k - 1) B_{2k} x^{2k-1} / (2k)!."""
    coeffs: dict[int, Fraction] = {}
    fact = 1
    for m in range(1, order + 2):
        fact *= m  # running m!
        if m % 2 == 0:
            k = m // 2
            coeffs[m - 1] = Fraction(4**k * (4**k - 1)) * bernoulli(2 * k) / fact
    return series(order, coeffs)


def series_exp(f: Series) -> Series:
    """exp of a series with constant term 0, the oracle for series_log."""
    if f[0]:
        raise ValueError("exp needs constant term 0")
    # e' = f' e  gives  k e_k = sum_{j=1..k} j f_j e_{k-j}
    out = [ONE]
    for k in range(1, len(f)):
        acc = ZERO
        for j in range(1, k + 1):
            if f[j]:
                acc = acc + f[j] * j * out[k - j]
        out.append(acc / k)
    return out


def test_sech_squared_from_tanh_route():
    # independent oracle: derivative of 2*tanh(z/2) from Bernoulli numbers
    order = 12
    q = sech_squared_half(order)
    t = tanh_series(order + 1)
    half = [c * Fraction(1, 2 ** k) for k, c in enumerate(t)]
    alt = [c * 2 for c in series_derivative(half)]
    assert len(alt) == order + 1
    for k in range(order + 1):
        assert q[k] == alt[k], k


def test_sech_squared_frozen_values():
    q = sech_squared_half(8)
    assert len(q) == 9
    assert q[0] == Scalar.coerce(1)
    assert q[2] == Scalar.coerce(Fraction(-1, 4))
    assert q[4] == Scalar.coerce(Fraction(1, 24))
    assert q[6] == Scalar.coerce(Fraction(-17, 2880))
    assert all(not q[k] for k in range(1, 8, 2))


def test_nothing_is_read_past_the_order():
    # z^10 of 1/cosh^2(z/2) is -691/7257600; a series known to order 8
    # cannot say so, and must not answer 0.
    assert sech_squared_half(10)[10] == Scalar.coerce(Fraction(-691, 7257600))
    with pytest.raises(IndexError):
        sech_squared_half(8)[10]


def test_series_constructor():
    assert series(3, {1: 2}) == [Scalar.coerce(c) for c in (0, 2, 0, 0)]
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            series(3, {bad: 1})
    with pytest.raises(ValueError):
        series(-1, {})


def test_exp_log_inverse_pair():
    s = series(9, {1: 1, 3: Fraction(2, 5), 4: -2})
    assert series_log(series_exp(s)) == s
    t = series(9, {0: 1, 1: 1})
    assert series_exp(series_log(t)) == t


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        series_exp(series(4, {0: 1}))
    with pytest.raises(ValueError):
        series_log(series(4, {0: 2}))
    with pytest.raises(ValueError):
        series_inverse(series(4, {1: 1}))


def test_compose_even():
    sq = series(6, {2: 1})
    assert compose_even(sq) == series(3, {1: -1})
    with pytest.raises(ValueError):
        compose_even(series(4, {1: 1}))


def test_compose_even_multiplicative():
    s = series(12, {0: 1, 2: Fraction(1, 3), 6: -2})
    t = series(12, {0: 2, 4: Fraction(5, 7)})
    left = compose_even(series_mul(s, t))
    right = series_mul(compose_even(s), compose_even(t))
    assert left == right


def test_derivative_and_arithmetic():
    s = series(5, {0: 3, 2: Fraction(1, 2), 5: 7})
    ds = series_derivative(s)
    assert len(ds) == 5
    assert ds[1] == Scalar.coerce(1)
    assert ds[4] == Scalar.coerce(35)
    inv = series_inverse(series(8, {0: 1, 1: 1}))
    assert inv[5] == Scalar.coerce(-1)


def test_truncation_is_exact():
    a = series(3, {1: 1})
    b = series(9, {0: 1, 5: 4})
    assert len(series_mul(a, b)) == 4
    assert series_mul(a, b)[1] == Scalar.coerce(1)


def test_ch_even_defect_coefficients():
    u = ch_even_defect_series(5)
    Z1 = zeta_prime_symbol(1)
    assert u[1] == Z1 * (-12) + Fraction(1, 2) - LOG2 * Fraction(4, 3)
    from math import factorial
    k = 2
    bracket = (zeta_prime_symbol(k) / zeta_negative_odd(k)
               + Scalar.from_rational(harmonic(3) / 2)
               - LOG2 * Fraction(16, 15))
    assert u[3] == bracket / factorial(3)
