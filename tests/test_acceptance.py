"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 (the proportionality map) holds with every residue zero for
d <= 4.  At d = 5 no map of the required shape exists in the modelled
quotient; the criterion asserts the exact certificate of that obstruction.
See the notes on the obstruction in the project README.
"""

import random
import time
from fractions import Fraction
from math import factorial

from tautcalc.scalars import (LOG2, Scalar, bernoulli, harmonic,
                              zeta_negative_odd, zeta_prime_symbol)
from tautcalc.graded import GeneratorSet, GradedPoly
from tautcalc.charclasses import (ClassVector, c_from_ch, ch_from_c,
                                  pontrjagin_from_c)
from tautcalc.arakelov import (AbelianTautRing, c1_critical_power,
                               height_polynomial, tautological_ring)
from tautcalc.series import (cauchy_single_class, ch_even_check,
                             sech_squared_half, single_class_slots)
from tautcalc.propmap import proportionality_map_check, verify_map_certificate

Z1, Z3, Z5 = (zeta_prime_symbol(k) for k in (1, 2, 3))


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget
        self.start = time.monotonic()

    def finish(self, ok):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        assert ok, f"criterion {self.number}: {self.label}"
        assert elapsed < 2 * self.budget, \
            f"criterion {self.number} exceeded twice its runtime budget"


def test_criterion_1_reference_formulas():
    crit = Criterion(1, "reference critical powers d=1..4", 10)
    ok = True

    res1 = c1_critical_power(1)
    ring1 = res1.reduced.ring
    ok &= (res1.reduced.z.is_zero() and res1.reduced.a.is_zero()
           and res1.reduced.g == GradedPoly.constant(ring1.agens, 1))

    res2 = c1_critical_power(2)
    ok &= res2.r == Z1 * 24 - 1 + LOG2 * Fraction(8, 3)
    ok &= res2.phi == GradedPoly.constant(res2.reduced.ring.agens, 2)

    res3 = c1_critical_power(3)
    ok &= res3.r == (Scalar.from_rational(Fraction(-17, 3))
                     + LOG2 * Fraction(48, 5) + Z1 * 48 - Z3 * 480)
    ok &= res3.phi == GradedPoly.generator(res3.reduced.ring.agens, "u1") * 8

    res4 = c1_critical_power(4)
    g4 = res4.reduced.ring.agens
    u1, u2, u3 = (GradedPoly.generator(g4, n) for n in ("u1", "u2", "u3"))
    ok &= res4.r == (Scalar.from_rational(Fraction(-1063, 60))
                     + LOG2 * Fraction(1520, 63)
                     + Z1 * 96 - Z3 * 600 + Z5 * 2016)
    ok &= res4.phi == u1 * u2 * 112 - u3 * 64
    crit.finish(ok)


def test_criterion_2_d4_witness_form():
    # The second cofactor enters with a plus sign: the exact d=4 values of
    # criterion 1 force it (see the README).
    crit = Criterion(2, "d=4 intermediate witness form", 10)
    ring = AbelianTautRing(4)
    res = c1_critical_power(4, ring)
    g = ring.agens
    u1, u2, u3 = (GradedPoly.generator(g, n) for n in ("u1", "u2", "u3"))
    combo = ((u2 * u3 * 64) * ring.rho[1]
             + (u1 * u2 * 8 + u3 * 32) * ring.rho[2]
             + (u1 * 64) * ring.rho[3])
    ok = ring.aq.normal_form(combo.truncate(6)) == res.reduced.a
    ok &= ring.aq.normal_form(u1 * u2 * 112 - u3 * 64) == res.phi
    crit.finish(ok)


def test_criterion_3_ring_structure_through_d7():
    crit = Criterion(3, "dim R_d = 2^(d-1), socle d(d-1)/2, u1^top != 0, d<=7", 60)
    ok = True
    for d in range(2, 8):
        ring = tautological_ring(d)
        rep = ring.dimension_report()
        top = d * (d - 1) // 2
        ok &= rep.total == 2 ** (d - 1)
        ok &= rep.socle_degree == top and rep.socle_dim == 1
        u1_top = ring.normal_form(GradedPoly.monomial(
            ring.gens, ring.gens.single("u1", top)))
        ok &= not u1_top.is_zero()
    crit.finish(ok)


def test_criterion_4_two_route_agreement():
    crit = Criterion(4, "r_d via both relation sets, d=2..5", 120)
    ok = True
    for d in range(2, 6):
        ok &= height_polynomial(d).substituted == c1_critical_power(d).r
    crit.finish(ok)


def test_criterion_5_proportionality_map():
    # For d <= 4 the map is constructed and every relation component maps
    # to zero.  At d = 5 no graded ring map of the required shape exists
    # once the classical form relations are imposed: the exact linear
    # system M x = b for the correction forms is inconsistent.  The report
    # carries a certificate y with yᵀM = 0 and yᵀb != 0, which is re-checked
    # by evaluating the map's conditions, not by re-running the
    # elimination.  The criterion fails if the map ever becomes
    # constructible at d = 5 or the certificate does not verify.
    crit = Criterion(5, "relation components map to 0 under h for d<=4, "
                        "certified obstruction at d=5", 120)
    ok = True
    for d in range(2, 5):
        rep = proportionality_map_check(d)
        if not rep.ok:
            print(f"  d={d}: {rep.diagnosis or 'nonzero residues'}")
        ok &= rep.ok
    ring = AbelianTautRing(5)
    rep = proportionality_map_check(5, ring)
    if rep.constructed:
        print("  d=5: map constructed")
    ok &= not rep.constructed
    ok &= (rep.certificate is not None
           and verify_map_certificate(rep.certificate, ring))
    crit.finish(ok)


def test_criterion_6_even_chern_character():
    crit = Criterion(6, "even Chern character equals rank minus defect, d<=6", 60)
    ok = True
    for d in range(1, 7):
        rep = ch_even_check(d)
        ok &= rep.ok
    crit.finish(ok)


def test_criterion_7_series_identities():
    crit = Criterion(7, "single-class extraction coefficients", 10)
    series = sech_squared_half(26)
    extracted = cauchy_single_class(series)
    ok = True
    for k in range(1, 7):
        closed = (Fraction((4 ** k - 1) * (-1) ** (k + 1))
                  * zeta_negative_odd(k) / factorial(2 * k - 1))
        ok &= extracted[k] == Scalar.from_rational(closed)
    ok &= extracted[1] == Scalar.from_rational(Fraction(-1, 4))
    ok &= extracted[2] == Scalar.from_rational(Fraction(-1, 48))
    ok &= extracted[3] == Scalar.from_rational(Fraction(-1, 480))
    slots = single_class_slots(series, 12)
    for k in range(1, 13):
        ok &= (slots.coefficient(slots.gens.single(f"p{k}"))
               == extracted[k])
    crit.finish(ok)


def test_criterion_8_property_suites():
    crit = Criterion(8, "Newton round-trip, square-zero, witnesses, linearity", 120)
    ok = True

    rng = random.Random(20260808)
    for _ in range(100):
        rank = rng.randrange(2, 7)
        gens = GeneratorSet([(f"c{j}", j) for j in range(1, rank + 1)])
        classes = [GradedPoly.generator(gens, f"c{j}")
                   * Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                   for j in range(1, rank + 1)]
        vector = ClassVector(gens, classes)
        back = c_from_ch(ch_from_c(vector, rank), rank, gens)
        ok &= all(back.chern(j) == vector.chern(j)
                  for j in range(1, rank + 1))

    ring = AbelianTautRing(4)
    x = ring.from_a(GradedPoly.generator(ring.agens, "u1"))
    y = ring.from_a(GradedPoly.generator(ring.agens, "u2"))
    ok &= (x * y).is_zero()
    classes = ClassVector.standard(ring.zgens, list(ring.zgens.names))
    p = pontrjagin_from_c(classes, 3)
    ok &= ring.reduce(ring.from_z(p[0].mul_truncated(p[1], ring.cap))).is_zero()
    ok &= ring.reduce(ring.from_z(p[0].mul_truncated(p[0], ring.cap))).is_zero()

    for d in (2, 3, 4, 5):
        r = AbelianTautRing(d)
        top = d * (d - 1) // 2
        power = r.from_z(GradedPoly.monomial(r.zgens, r.zgens.single("C1", top + 1)))
        variants = r.reduce_variants(power)
        ok &= all(v.a == variants[0].a and v.g == variants[0].g for v in variants)
        if d >= 4:
            ok &= len(variants) >= 3

    rng2 = random.Random(99)
    r3 = AbelianTautRing(3)
    for _ in range(30):
        terms = {}
        for _ in range(3):
            mono = tuple(rng2.randrange(2) for _ in range(3))
            if r3.zgens.degree_of(mono) <= r3.cap:
                terms[mono] = Fraction(rng2.randrange(-4, 5))
        x = r3.from_z(GradedPoly(r3.zgens, terms))
        rx = r3.reduce(x)
        ok &= r3.reduce(rx) == rx
        ok &= r3.reduce(x * x) == r3.reduce(rx * rx)

    for d in (2, 3, 4, 5):
        res = c1_critical_power(d)
        ok &= res.reduced.symbol_degree() <= 1
        hp = height_polynomial(d)
        ok &= hp.height.symbol_degree() <= 1
        ok &= hp.substituted.symbol_degree() <= 1
    crit.finish(ok)


def test_criterion_9_bernoulli_zeta_consistency():
    crit = Criterion(9, "zeta(1-2k) = -B_2k/(2k) for k<=20; harmonic sums", 1)
    ok = True
    for k in range(1, 21):
        ok &= zeta_negative_odd(k) == -bernoulli(2 * k) / (2 * k)
    for n in (1, 2, 3, 5, 10, 20):
        ok &= harmonic(n) == sum((Fraction(1, j) for j in range(1, n + 1)),
                                 Fraction(0))
    crit.finish(ok)
