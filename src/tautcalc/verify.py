"""Verification suite: named checks with expectation-source tags.

Each check recomputes its target quantities and compares exactly; random
inputs come from a fixed seed so reports are reproducible byte for byte.
The checks share one abelian ring per d through ``_abelian``, whose cache
lives for one ``run_checks`` call.

The module also holds what only its witness-independence check runs: the
witnesses that differ from the division's by Koszul syzygies, and the
reductions of a class by each of them.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from math import factorial
from typing import Iterator, NamedTuple

from .scalars import (Scalar, LOG2, bernoulli, harmonic,
                      zeta_negative_odd, zeta_prime_symbol)
from .graded import GeneratorSet, GradedPoly, monomials_of_degree
from .charclasses import ClassVector, ch_from_c
from .arakelov import (AbelianTautRing, ArithClass, ArithRing,
                       c1_critical_power, height_polynomial)
from .classical import dimension_report, lagrangian_degree, tautological_ring
from .series import (c_from_ch, cauchy_single_class, ch_even_check,
                     sech_squared_half, single_class_slots)
from .propmap import proportionality_map_check, verify_map_certificate
from .quotient import QuotientRing, ReductionError, Witness


class CheckResult(NamedTuple):
    name: str
    source: str
    ok: bool
    detail: str
    seconds: float = 0.0    # the check's run time, set by run_checks


_abelian = functools.cache(AbelianTautRing)


# ---------------------------------------------------------------------------
# Witnesses moved by Koszul syzygies
# ---------------------------------------------------------------------------


def alternative_witnesses(ring: QuotientRing, poly: GradedPoly) -> list[Witness]:
    """Up to three distinct witnesses for poly: the division witness and
    that witness perturbed by Koszul syzygies (s_j e_i - s_i e_j) * m of
    the relations, scaled 1, 2.  Fewer when fewer exist.  Each is
    re-expanded; ReductionError if one fails."""
    base = ring.membership_witness(poly)
    degrees = sorted(poly.degree_components())
    out = [base]
    for scale in range(1, 3):
        for syzygy in _koszul_syzygies(ring, degrees):
            if len(out) == 3:
                return out
            cofactors = dict(base.cofactors)
            for ri, p in syzygy.items():
                cofactors[ri] = (cofactors.get(ri, GradedPoly.zero(ring.gens))
                                 + p * scale)
            cofactors = {ri: p for ri, p in cofactors.items() if p}
            if all(cofactors != w.cofactors for w in out):
                out.append(ring._checked_witness(poly, cofactors))
    return out


def _koszul_syzygies(ring: QuotientRing, degrees: list[int]
                     ) -> Iterator[dict[int, GradedPoly]]:
    relations = ring.presentation.relations
    for k in degrees:
        for i, si in enumerate(relations):
            for j, sj in enumerate(relations[i + 1:], i + 1):
                rem = k - si.max_degree() - sj.max_degree()
                for mult in monomials_of_degree(ring.gens, rem) if rem >= 0 else ():
                    m = GradedPoly.monomial(ring.gens, mult)
                    yield {i: sj * m, j: -(si * m)}


def reduce_variants(ring: ArithRing, x: ArithClass) -> list[ArithClass]:
    """Reductions of a class whose polynomial part lies in the relation
    ideal, one per witness of alternative_witnesses: the division's
    cofactors and those cofactors moved by Koszul syzygies of the lifted
    relations."""
    z = x.z.truncate(ring.cap)
    witnesses = alternative_witnesses(ring.zq, z)
    out = []
    for w in witnesses:
        a, g = ring._form_contributions(w.cofactors, x.a, x.g)
        out.append(ArithClass(ring, GradedPoly.zero(ring.zgens), a, g))
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _published_r_values() -> dict[int, Scalar]:
    Z1, Z3, Z5 = (zeta_prime_symbol(k) for k in (1, 2, 3))
    return {
        2: Z1 * 24 - 1 + LOG2 * Fraction(8, 3),
        3: Scalar.from_rational(Fraction(-17, 3)) + LOG2 * Fraction(48, 5)
           + Z1 * 48 - Z3 * 480,
        4: Scalar.from_rational(Fraction(-1063, 60)) + LOG2 * Fraction(1520, 63)
           + Z1 * 96 - Z3 * 600 + Z5 * 2016,
    }


def check_examples() -> CheckResult:
    """Critical powers of the first lifted Chern class for d = 1..4."""
    failures = []
    res1 = c1_critical_power(1, _abelian(1))
    if not (res1.reduced.z.is_zero() and res1.reduced.a.is_zero()
            and res1.phi == GradedPoly.constant(res1.reduced.ring.agens, 1)):
        failures.append("d=1")
    published = _published_r_values()
    r2, r3, r4 = results = [c1_critical_power(d, _abelian(d))
                            for d in published]
    for res in results:
        if res.r != published[res.d]:
            failures.append(f"d={res.d} scalar")
    if r2.phi != GradedPoly.constant(r2.reduced.ring.agens, 2):
        failures.append("d=2 gamma form")
    if r3.phi != GradedPoly.generator(r3.reduced.ring.agens, "u1") * 8:
        failures.append("d=3 gamma form")
    g4 = r4.reduced.ring.agens
    phi4 = (GradedPoly.generator(g4, "u1") * GradedPoly.generator(g4, "u2") * 112
            - GradedPoly.generator(g4, "u3") * 64)
    if r4.phi != phi4:
        failures.append("d=4 gamma form")
    return CheckResult("examples", "published",
                       not failures, ", ".join(failures) or "d=1..4 exact")


def check_witness_form() -> CheckResult:
    """The d=4 intermediate witness combination reduces to the same form
    part as the critical power.  All three cofactors enter positively; the
    exact d=4 values force the signs (see the README)."""
    ring = _abelian(4)
    res = c1_critical_power(4, ring)
    g = ring.agens
    u1, u2, u3 = (GradedPoly.generator(g, n) for n in ("u1", "u2", "u3"))
    combo = ((u2 * u3 * 64) * ring.rho[1]
             + (u1 * u2 * 8 + u3 * 32) * ring.rho[2]
             + (u1 * 64) * ring.rho[3])
    ok_a = ring.aq.normal_form(combo.truncate(6)) == res.reduced.a
    ok_g = ring.aq.normal_form(u1 * u2 * 112 - u3 * 64) == res.phi
    return CheckResult("witness-form", "published", ok_a and ok_g,
                       "d=4 intermediate matches" if ok_a and ok_g
                       else "d=4 witness mismatch")


def check_dimensions() -> CheckResult:
    failures = []
    for d in range(2, 8):
        ring = tautological_ring(d)
        rep = dimension_report(ring)
        top = d * (d - 1) // 2
        if rep.total != 2 ** (d - 1):
            failures.append(f"d={d} total {rep.total}")
        if rep.socle_degree != top or rep.socle_dim != 1:
            failures.append(f"d={d} socle")
        u1_top = ring.normal_form(GradedPoly.monomial(
            ring.gens, ring.gens.single("u1", top)))
        if u1_top.is_zero():
            failures.append(f"d={d} u1^top = 0")
        deg = u1_top.coefficient(ring.monomial_basis(top)[0]).rational_part()
        if deg != lagrangian_degree(d):
            failures.append(f"d={d} degree {deg}")
    return CheckResult("dimensions", "published", not failures,
                       ", ".join(failures) or "d=2..7: dim 2^(d-1), "
                       "socle d(d-1)/2, u1^top matches the degree formula")


def check_two_route() -> CheckResult:
    failures = []
    for d in range(2, 6):
        hp = height_polynomial(d)
        rd = c1_critical_power(d, _abelian(d))
        if hp.substituted != rd.r:
            failures.append(f"d={d}")
    return CheckResult("two-route", "derived", not failures,
                       ", ".join(failures) or "d=2..5 agree exactly")


def check_hmap() -> CheckResult:
    failures = []
    for d in range(2, 6):
        ring = _abelian(d)
        rep = proportionality_map_check(d, ring)
        if rep.certificate is not None:
            verdict = ("verified" if verify_map_certificate(rep.certificate, ring)
                       else "rejected")
            failures.append(f"d={d} (inconsistent, certificate {verdict})")
        elif not rep.ok:
            failures.append(f"d={d} ({rep.diagnosis or 'nonzero residues'})")
    return CheckResult("hmap", "derived", not failures,
                       "; ".join(failures) or "d=2..5: all residues zero")


def check_ch_even() -> CheckResult:
    failures = []
    for d in range(1, 7):
        rep = ch_even_check(d, _abelian(d))
        if not rep.ok:
            failures.append(f"d={d}")
    return CheckResult("ch-even", "derived", not failures,
                       ", ".join(failures) or "d<=6: both routes agree "
                       "in every even degree")


def check_newton() -> CheckResult:
    rng = random.Random(20260808)
    failures = 0
    for _ in range(120):
        rank = rng.randrange(2, 7)
        gens = GeneratorSet([(f"c{j}", j) for j in range(1, rank + 1)])
        classes = []
        for j in range(1, rank + 1):
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            classes.append(GradedPoly.generator(gens, f"c{j}") * coeff)
        vector = ClassVector(gens, classes)
        sums = ch_from_c(vector, rank)
        back = c_from_ch(sums, rank, gens)
        if any(back.chern(j) != vector.chern(j) for j in range(1, rank + 1)):
            failures += 1
    return CheckResult("newton", "derived", failures == 0,
                       f"120 round-trips, {failures} failures")


def check_cauchy() -> CheckResult:
    series = sech_squared_half(26)
    extracted = cauchy_single_class(series)
    failures = []
    for k in range(1, 7):
        expected = (Fraction((4 ** k - 1) * (-1) ** (k + 1))
                    * zeta_negative_odd(k) / factorial(2 * k - 1))
        if extracted[k] != Scalar.from_rational(expected):
            failures.append(f"k={k}")
    slots = single_class_slots(series, 12)
    gens = slots.gens
    for k in range(1, 13):
        mono = gens.single(f"p{k}")
        if slots.coefficient(mono) != extracted[k]:
            failures.append(f"slot k={k}")
    return CheckResult("cauchy", "published", not failures,
                       ", ".join(failures) or "closed form to k=6; pure-slot "
                       "route matches through degree 12")


def check_witness_independence() -> CheckResult:
    failures = []
    for d in range(2, 6):
        ring = _abelian(d)
        top = d * (d - 1) // 2
        power = GradedPoly.monomial(ring.zgens, ring.zgens.single("C1", top + 1))
        try:
            variants = reduce_variants(ring, ring.from_z(power))
        except ReductionError:
            failures.append(f"d={d} expansion")
            continue
        first = variants[0]
        if any(v.a != first.a or v.g != first.g for v in variants):
            failures.append(f"d={d} disagree")
        if d >= 4 and len(variants) < 3:
            failures.append(f"d={d} fewer than 3 witnesses")
    return CheckResult("witness-independence", "derived", not failures,
                       ", ".join(failures) or "d=2..5: all solutions "
                       "reduce identically")


def check_bernoulli() -> CheckResult:
    failures = []
    for k in range(1, 21):
        if zeta_negative_odd(k) != -bernoulli(2 * k) / (2 * k):
            failures.append(f"zeta k={k}")
    for n in (1, 3, 5, 12):
        direct = sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))
        if harmonic(n) != direct:
            failures.append(f"H_{n}")
    if bernoulli(12) != Fraction(-691, 2730) or bernoulli(1) != Fraction(-1, 2):
        failures.append("bernoulli values")
    return CheckResult("bernoulli-zeta", "derived", not failures,
                       ", ".join(failures) or "zeta(1-2k) = -B_2k/2k for k<=20; "
                       "harmonic sums match")


CHECKS = {
    "examples": check_examples,
    "witness-form": check_witness_form,
    "dimensions": check_dimensions,
    "two-route": check_two_route,
    "hmap": check_hmap,
    "ch-even": check_ch_even,
    "newton": check_newton,
    "cauchy": check_cauchy,
    "witness-independence": check_witness_independence,
    "bernoulli-zeta": check_bernoulli,
}


def run_checks(selection: list[str] | None = None) -> list[CheckResult]:
    names = list(CHECKS) if not selection else selection
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}; "
                         f"available: {', '.join(CHECKS)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"checks named more than once: {', '.join(repeated)}")
    results = []
    try:
        for name in names:
            start = time.perf_counter()
            result = CHECKS[name]()
            results.append(result._replace(seconds=time.perf_counter() - start))
        return results
    finally:
        _abelian.cache_clear()
