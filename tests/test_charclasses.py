import random
from fractions import Fraction
from math import factorial

import pytest

from tautcalc.scalars import Scalar, zeta_negative_odd
from tautcalc.graded import GeneratorSet, GradedPoly, monomials_of_degree
from tautcalc.arakelov import tautological_ring
from tautcalc.charclasses import (ClassVector, c_from_ch, ch_from_c,
                                  pontrjagin_direct, pontrjagin_from_c)
from tautcalc.series import (additive_class, cauchy_single_class,
                             multiplicative_class, sech_squared_half, series,
                             series_mul, single_class_slots)


def standard(rank):
    gens = GeneratorSet([(f"c{j}", j) for j in range(1, rank + 1)])
    return gens, ClassVector.standard(gens, list(gens.names))


def test_newton_first_values():
    gens, C = standard(4)
    c1, c2, c3 = (GradedPoly.generator(gens, f"c{j}") for j in (1, 2, 3))
    s = ch_from_c(C, 3)
    assert s[0] == c1
    assert s[1] == c1 * c1 - c2 * 2
    assert s[2] == c1 ** 3 - c1 * c2 * 3 + c3 * 3


def test_newton_round_trip_random():
    rng = random.Random(20260808)
    for _ in range(100):
        rank = rng.randrange(2, 7)
        gens = GeneratorSet([(f"c{j}", j) for j in range(1, rank + 1)])
        classes = [GradedPoly.generator(gens, f"c{j}")
                   * Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                   for j in range(1, rank + 1)]
        C = ClassVector(gens, classes)
        back = c_from_ch(ch_from_c(C, rank), rank, gens)
        for j in range(1, rank + 1):
            assert back.chern(j) == C.chern(j)


def test_pontrjagin_known_values():
    gens, C = standard(6)
    c = {j: GradedPoly.generator(gens, f"c{j}") for j in range(1, 7)}
    p = pontrjagin_from_c(C, 3)
    assert p[0] == c[1] * c[1] - c[2] * 2
    assert p[1] == c[4] * 2 - c[3] * c[1] * 2 + c[2] * c[2]
    assert p[2] == -c[6] * 2 + c[5] * c[1] * 2 - c[4] * c[2] * 2 + c[3] * c[3]


def test_pontrjagin_two_formulas_agree():
    rng = random.Random(9)
    for _ in range(20):
        rank = rng.randrange(2, 6)
        gens = GeneratorSet([(f"c{j}", j) for j in range(1, rank + 1)])
        classes = [GradedPoly.generator(gens, f"c{j}")
                   * Fraction(rng.randrange(-4, 5))
                   for j in range(1, rank + 1)]
        C = ClassVector(gens, classes)
        p = pontrjagin_from_c(C, rank)
        for k in range(1, rank + 1):
            assert p[k - 1] == pontrjagin_direct(C, k)


def test_generating_identity():
    # sum (-z^2)^j p_j = c(z) c(-z), checked as the graded identity
    gens, C = standard(5)
    product = C.total() * C.dual().total()
    p = pontrjagin_from_c(C, 5)
    for k in range(1, 6):
        assert product.graded_component(2 * k) == p[k - 1] * Fraction((-1) ** k)
    for odd in range(1, 10, 2):
        assert product.graded_component(odd).is_zero()


def test_additive_class_basics():
    gens, C = standard(3)
    c1 = GradedPoly.generator(gens, "c1")
    assert additive_class(series(4, {1: 1}), C, 4) == c1
    assert additive_class(series(4, {}), C, 4).is_zero()
    with pytest.raises(ValueError):
        additive_class(series(4, {0: 1}), C, 4)


def test_classes_need_the_series_to_their_degree():
    # Known to order 2, a series says nothing about degrees 3 and 4; the
    # classes refuse instead of reading zeros there.
    gens, C = standard(2)
    with pytest.raises(ValueError):
        additive_class(series(2, {1: 1, 2: 1}), C, 4)
    with pytest.raises(ValueError):
        multiplicative_class(series(2, {0: 1, 1: 1, 2: 1}), C, 4)
    # Known to order 4, 1 + z + z^2 gives its true class.
    c1, c2 = (GradedPoly.generator(gens, n) for n in ("c1", "c2"))
    one = GradedPoly.constant(gens, 1)
    assert (multiplicative_class(series(4, {0: 1, 1: 1, 2: 1}), C, 4)
            == one + c1 + c1 * c1 - c2 + c1 * c2 + c2 * c2)


def test_additive_defect_degree_one():
    from tautcalc.scalars import LOG2, zeta_prime_symbol
    from tautcalc.series import ch_even_defect_series
    gens, C = standard(3)
    poly = additive_class(ch_even_defect_series(5), C, 1)
    expected = GradedPoly.generator(gens, "c1") * (
        zeta_prime_symbol(1) * (-12) + Fraction(1, 2) - LOG2 * Fraction(4, 3))
    assert poly == expected


def test_multiplicative_class_rank2():
    gens, C = standard(2)
    Q = series(5, {0: 1, 1: 1})
    total = multiplicative_class(Q, C, 2)
    assert total == (GradedPoly.constant(gens, 1)
                     + GradedPoly.generator(gens, "c1")
                     + GradedPoly.generator(gens, "c2"))


def test_multiplicative_degree2_coefficient():
    # degree-2 part of the sech^2(z/2)-class is -1/4 (c1^2 - 2 c2)
    gens, C = standard(4)
    q = sech_squared_half(8)
    total = multiplicative_class(q, C, 2)
    s2 = ch_from_c(C, 2)[1]
    assert total.graded_component(2) == s2 * Fraction(-1, 4)
    assert total.graded_component(0) == GradedPoly.constant(gens, 1)


def test_multiplicative_is_multiplicative():
    gens, C = standard(4)
    q1 = series(8, {0: 1, 1: 1, 3: Fraction(1, 2)})
    q2 = series(8, {0: 1, 2: Fraction(-1, 3)})
    lhs = multiplicative_class(series_mul(q1, q2), C, 6)
    rhs = multiplicative_class(q1, C, 6).mul_truncated(
        multiplicative_class(q2, C, 6), 6)
    assert lhs == rhs


def test_multiplicative_needs_unit():
    gens, C = standard(2)
    with pytest.raises(ValueError):
        multiplicative_class(series(3, {0: 2}), C, 2)


def test_cauchy_single_class_values():
    q = sech_squared_half(14)
    extracted = cauchy_single_class(q)
    assert len(extracted) == 8
    frozen = {1: Fraction(-1, 4), 2: Fraction(-1, 48), 3: Fraction(-1, 480),
              4: Fraction(-17, 80640), 5: Fraction(-31, 1451520),
              6: Fraction(-691, 319334400)}
    for k, value in frozen.items():
        assert extracted[k] == Scalar.from_rational(value)
        closed = (Fraction((4 ** k - 1) * (-1) ** (k + 1))
                  * zeta_negative_odd(k) / factorial(2 * k - 1))
        assert value == closed


def test_cauchy_trivial_and_errors():
    one = series(6, {0: 1})
    extracted = cauchy_single_class(one)
    assert extracted[0] == Scalar.coerce(1)
    assert all(not c for c in extracted[1:])
    with pytest.raises(ValueError):
        cauchy_single_class(series(4, {0: 1, 1: 1}))
    with pytest.raises(ValueError):
        cauchy_single_class(series(4, {0: 2}))


def test_cauchy_matches_pure_slot_route():
    q = sech_squared_half(26)
    extracted = cauchy_single_class(q)
    slots = single_class_slots(q, 12)
    gens = slots.gens
    for k in range(1, 13):
        assert slots.coefficient(gens.single(f"p{k}")) == extracted[k]


def test_class_vector_validation():
    gens = GeneratorSet([("c1", 1), ("c2", 2)])
    with pytest.raises(ValueError):
        ClassVector(gens, [GradedPoly.generator(gens, "c2")])


def reference_ch_from_c(classes, up_to, reduce=None):
    """Newton's identities term by term, one temporary product per term."""
    sums = []
    for k in range(1, up_to + 1):
        acc = classes.chern(k) * Fraction((-1) ** (k - 1) * k)
        for i in range(1, k):
            ci = classes.chern(i)
            if not ci.is_zero():
                acc = acc + ci * sums[k - i - 1] * Fraction((-1) ** (i - 1))
        sums.append(reduce(acc) if reduce else acc)
    return sums


def reference_c_from_ch(power_sums, rank, gens):
    classes = []
    for k in range(1, rank + 1):
        acc = power_sums[k - 1]
        for i in range(1, k):
            acc = acc + classes[i - 1] * power_sums[k - i - 1] * Fraction((-1) ** i)
        classes.append(acc * Fraction((-1) ** (k - 1), k))
    return ClassVector(gens, classes)


def random_classes(rng, gens, rank):
    """Classes with symbolic coefficients, each zero with chance 1/4."""
    atoms = [Scalar.coerce(1), Scalar.symbol("L"), Scalar.symbol("Z1"),
             Scalar.symbol("h1") * Scalar.symbol("x0")]
    classes = []
    for j in range(1, rank + 1):
        poly = GradedPoly.zero(gens)
        if rng.randrange(4):
            for mono in rng.sample(monomials_of_degree(gens, j), 2 if j > 1 else 1):
                coeff = sum((a * Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                             for a in rng.sample(atoms, 2)), Scalar())
                poly = poly + GradedPoly.monomial(gens, mono, coeff)
        classes.append(poly)
    return ClassVector(gens, classes)


def assert_same(x, y):
    assert x == y and hash(x) == hash(y)


def test_newton_steps_match_the_term_by_term_loop():
    rng = random.Random(1907)
    for rank in range(1, 8):
        ring = tautological_ring(rank)
        gens = ring.gens
        zero = ClassVector(gens, [GradedPoly.zero(gens)] * rank)
        for C in [zero, ClassVector.standard(gens, list(gens.names))] + [
                random_classes(rng, gens, rank) for _ in range(3)]:
            for reduce, up_to in ((None, rank + 2),
                                  (ring.normal_form, ring.top_degree)):
                sums = ch_from_c(C, up_to, reduce)
                expected = reference_ch_from_c(C, up_to, reduce)
                assert len(sums) == up_to
                for s, e in zip(sums, expected):
                    assert_same(s, e)
            sums = ch_from_c(C, rank)
            back, expected = c_from_ch(sums, rank, gens), reference_c_from_ch(sums, rank, gens)
            for j in range(1, rank + 1):
                assert_same(back.chern(j), expected.chern(j))
                assert_same(back.chern(j), C.chern(j))
