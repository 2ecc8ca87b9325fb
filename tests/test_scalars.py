import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import tautcalc
from tautcalc.scalars import (LOG2, Scalar, ZERO, bernoulli, harmonic,
                              harmonic_symbol, zeta_negative_odd,
                              zeta_prime_symbol)


def bernoulli_oracle(n):
    """Independent oracle: Akiyama-Tanigawa algorithm (second convention),
    flipped to B_1 = -1/2."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for m in range(1, n + 1):
        for j in range(n, m - 1, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    value = row[0] if n == 0 else row[0]
    # Akiyama-Tanigawa builds B_n with B_1 = +1/2
    return -value if n == 1 else value


def bernoulli_oracle_full(n):
    out = []
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    out = list(out)
    if n >= 1:
        out[1] = -out[1]
    return out


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_independent_oracle():
    oracle = bernoulli_oracle_full(24)
    for n in range(25):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_odd_vanish():
    for k in range(1, 12):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_negative_odd_values():
    assert zeta_negative_odd(1) == Fraction(-1, 12)
    assert zeta_negative_odd(2) == Fraction(1, 120)
    assert zeta_negative_odd(3) == Fraction(-1, 252)
    for k in range(1, 21):
        assert zeta_negative_odd(k) == -bernoulli(2 * k) / (2 * k)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)
    direct = sum((Fraction(1, j) for j in range(1, 8)), Fraction(0))
    assert harmonic(7) == direct


def test_scalar_canonical_arithmetic():
    Z1 = zeta_prime_symbol(1)
    a = Z1 * 24 + 1
    assert a + (-1) == Z1 * 24
    assert LOG2 * 0 == ZERO
    assert not (LOG2 * ZERO)


def test_scalar_product_example():
    # (a + bL)(c + dL) = ac + (ad + bc)L + bd L^2
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-1)
    left = Scalar.from_rational(a) + LOG2 * b
    right = Scalar.from_rational(c) + LOG2 * d
    product = left * right
    assert product.rational_part() == a * c
    assert product.coefficient((("L", 1),)) == a * d + b * c
    assert product.coefficient((("L", 2),)) == b * d


def test_scalar_ring_axioms_random():
    rng = random.Random(7)
    symbols = [LOG2, zeta_prime_symbol(1), zeta_prime_symbol(2),
               harmonic_symbol(1)]

    def rand_scalar():
        acc = Scalar.from_rational(Fraction(rng.randrange(-5, 6),
                                            rng.randrange(1, 4)))
        for s in symbols:
            if rng.random() < 0.5:
                acc = acc + s * Fraction(rng.randrange(-3, 4))
        return acc

    for _ in range(200):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == ZERO


def test_substitution_known_examples():
    Z1 = zeta_prime_symbol(1)
    r2 = Z1 * 24 - 1 + LOG2 * Fraction(8, 3)
    assert harmonic_symbol(1).substitute({"h1": r2}) == r2
    # log-2 binding drops the L term only
    assert r2.substitute({"L": ZERO}) == Z1 * 24 - 1
    # identity bindings leave the value unchanged
    assert r2.substitute({"Z1": Scalar.symbol("Z1")}) == r2


def test_substitution_simultaneous_and_cyclic():
    h1, h3 = harmonic_symbol(1), harmonic_symbol(2)
    swapped = (h1 + h3 * 2).substitute({"h1": h3, "h3": h1})
    assert swapped == h3 + h1 * 2
    with pytest.raises(ValueError):
        h1.substitute({"h1": h1 + 1})


def test_scalar_division():
    Z1 = zeta_prime_symbol(1)
    assert (Z1 * 24) / 24 == Z1
    with pytest.raises(ValueError):
        (Z1 + 1) / LOG2
    with pytest.raises(ZeroDivisionError):
        Z1 / 0


def test_scalar_json_round_trip():
    Z1, Z3 = zeta_prime_symbol(1), zeta_prime_symbol(2)
    value = (Z1 * 24 - 1 + LOG2 * Fraction(8, 3) + Z3 * Z1 * Fraction(1, 7)
             + harmonic_symbol(1) * 5)
    doc = value.to_json()
    assert doc["rat"] == "-1"
    assert doc["Z1"] == "24"
    assert doc["L"] == "8/3"
    assert doc["h1"] == "5"
    assert doc["terms"] == [{"monomial": {"Z1": 1, "Z3": 1}, "coeff": "1/7"}]
    assert set(doc) == {"rat", "Z1", "L", "h1", "terms"}
    assert json.loads(json.dumps(doc)) == doc


def test_scalar_rendering():
    Z1 = zeta_prime_symbol(1)
    value = Z1 * 24 - 1 + LOG2 * Fraction(8, 3)
    assert value.render() == "-1 + 8/3*log2 + 24*zeta'(-1)"
    assert "\\zeta'(-1)" in value.render(latex=True)
    assert str(ZERO) == "0"
    # A formal unknown renders as itself, never as a harmonic symbol.
    unknowns = harmonic_symbol(2) + Scalar.symbol("x3") * 2
    assert unknowns.render() == "h3 + 2*x3"
    assert unknowns.render(latex=True) == "h_{3} + 2x_{3}"


def test_symbol_validation():
    with pytest.raises(ValueError):
        Scalar.symbol("Q7")
    for fn, message in ((zeta_prime_symbol, "k must be positive"),
                        (harmonic_symbol, "k must be positive"),
                        (zeta_negative_odd, "k must be positive"),
                        (harmonic, "n must be positive")):
        with pytest.raises(ValueError) as exc:
            fn(0)
        assert str(exc.value) == message, fn


# Eight threads extend a fresh Bernoulli table to B_79 at once, under a
# short switch interval, in each of 50 rounds.  Prints the rounds whose
# table differs from the single-threaded one or whose threads raised.
BERNOULLI_RACE = textwrap.dedent("""
    import importlib, sys, threading
    import tautcalc.scalars as scalars

    N, THREADS = 79, 8
    expected = [scalars.bernoulli(n) for n in range(N + 1)]
    wrong = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            importlib.reload(scalars)
            barrier = threading.Barrier(THREADS)
            errors = []

            def extend():
                try:
                    barrier.wait(timeout=60)
                    scalars.bernoulli(N)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=extend) for _ in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                if t.is_alive():
                    raise SystemExit("a thread did not finish")
            table = [scalars.bernoulli(n) for n in range(N + 1)]
            wrong += bool(errors or table != expected
                          or len(scalars._BERNOULLI_CACHE) != N + 1)
    finally:
        sys.setswitchinterval(interval)
    print(wrong)
""")


def test_bernoulli_table_survives_concurrent_extension():
    # In a fresh interpreter, so a corrupted table cannot reach other tests.
    env = dict(os.environ, PYTHONPATH=str(Path(tautcalc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", BERNOULLI_RACE],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
