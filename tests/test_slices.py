"""GradedPoly stores its integer slices, one per constant monomial
(rationals, L, Z, h and their products), each a map of integer numerators
over one denominator in lowest terms; products and reductions run on them.
The term-by-term Scalar loops they replaced, built on items(), are kept here
as the reference."""

import random
from fractions import Fraction
from math import gcd, inf
from pathlib import Path

import pytest

from tautcalc.scalars import Scalar, ZERO, _merge_monomials, symbol_sort_key
from tautcalc.graded import (EXPONENT_LIMIT, GeneratorSet, GradedPoly,
                             _add_slice, _add_slices, linear_image,
                             monomials_of_degree, sum_of_products)
from tautcalc.quotient import QuotientRing, RingPresentation
from tautcalc.arakelov import (AbelianTautRing, ArithClass, LagrangianArithRing,
                               c1_critical_power, height_polynomial)
from tautcalc.charclasses import ClassVector
from packed import normal_forms, unpack_terms

L, Z1, Z3 = Scalar.symbol("L"), Scalar.symbol("Z1"), Scalar.symbol("Z3")
H1, H3 = Scalar.symbol("h1"), Scalar.symbol("h3")
ATOMS = [Scalar.coerce(1), L, Z1, Z3, H1, H3, L * Z1, H1 * H3, L * L, Z1 * H3]


def reference_mul_truncated(p, q, max_degree):
    degree_of = p.gens.degree_of
    cap = inf if max_degree is None else max_degree
    terms = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if degree_of(m1) + degree_of(m2) > cap:
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            terms[m] = terms.get(m, ZERO) + c1 * c2
    return GradedPoly(p.gens, terms)


def reference_scale(p, s):
    return GradedPoly(p.gens, {m: c * s for m, c in p.items()})


def reference_add(p, q):
    terms = dict(p.items())
    for m, c in q.items():
        terms[m] = terms.get(m, ZERO) + c
    return GradedPoly(p.gens, terms)


def reference_select(p, keep):
    return GradedPoly(p.gens, {m: c for m, c in p.items()
                               if keep(p.gens.degree_of(m))})


def assert_same(x, y):
    """Equal, with equal hashes: the slices reached by different routes are
    in the same lowest terms."""
    assert x == y
    assert hash(x) == hash(y)


def reference_reduce(ring, poly):
    """Normal form and cofactors {relation index: poly}, accumulated in Scalars
    from the ring's per-monomial integer divisions."""
    nf, cof = {}, {}
    for mono, coeff in poly.items():
        mono_nf = normal_forms(ring, [mono])[mono]
        mono_cof = ring._cof.get(ring.gens.pack(mono))
        for m, v in mono_nf:
            nf[m] = nf.get(m, ZERO) + coeff * v
        for ri, terms in (mono_cof or {}).items():
            rel_cof = cof.setdefault(ri, {})
            for m, v in unpack_terms(ring.gens, terms):
                rel_cof[m] = rel_cof.get(m, ZERO) + coeff * v
    cofactors = {ri: GradedPoly(ring.gens, t) for ri, t in sorted(cof.items())}
    return (GradedPoly(ring.gens, nf),
            {ri: p for ri, p in cofactors.items() if p})


def relation_sides(ring, ri):
    """Relation ri's form side and gamma side: p_{ri+1}(C) rewrites to
    a(rho_{ri+1}), and the relation after them, C_d, to a(gamma)."""
    zero = GradedPoly.zero(ring.agens)
    if ri + 1 in ring.rho:
        return ring.rho[ri + 1], zero
    assert ri == len(ring.rho) and ring.gamma_degree is not None
    return zero, GradedPoly.constant(ring.agens, 1)


def reference_form_parts(ring, cofactors, a, g):
    """The product route: a and g plus omega(cofactor) times each relation's
    form sides, expanded term by term, truncated, then reduced in aq."""
    for ri, c in cofactors.items():
        (apart, gpart), w = relation_sides(ring, ri), ring.omega(c)
        a = a + reference_mul_truncated(w, apart, ring.cap - 1)
        g = g + reference_mul_truncated(w, gpart,
                                        ring.cap - (ring.gamma_degree or 0))
    a = ring.aq.normal_form(a.truncate(ring.cap - 1))
    if ring.gamma_degree is None:
        return a, g
    return a, ring.aq.normal_form(g.truncate(ring.cap - ring.gamma_degree))


def random_scalar(rng):
    """A Fraction combination of one to three constant monomials."""
    out = ZERO
    for atom in rng.sample(ATOMS, rng.randrange(1, 4)):
        out = out + atom * Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return out


def random_poly(rng, gens, max_degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        mono = rng.choice(monomials_of_degree(gens, rng.randrange(max_degree + 1)))
        terms[mono] = random_scalar(rng)
    return GradedPoly(gens, terms)


def test_mul_truncated_matches_scalar_loop():
    rng = random.Random(2026)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    for _ in range(40):
        p, q = random_poly(rng, gens, 5, 4), random_poly(rng, gens, 5, 4)
        for cap in [None, *range(-1, 11)]:
            assert p.mul_truncated(q, cap) == reference_mul_truncated(p, q, cap)
        assert p * q == reference_mul_truncated(p, q, None)
        s = random_scalar(rng)
        for factor in (s, Fraction(-3, 7), 2, 0, ZERO):
            assert p * factor == reference_scale(p, Scalar.coerce(factor))


def test_degree_limit_keeps_the_reference_terms():
    # sum_of_products keeps a product when its key is below the key limit of
    # the degree above the cap; the reference keeps it when its degree,
    # summed from the exponent tuples, is at most the cap.  Every cap from 0
    # to the top degree, over small exponents and over exponents near the
    # field limit, whose degrees pass 2^16.  Positive coefficients cancel
    # nothing, so each product degree up to the cap is kept.
    rng = random.Random(32)
    gens = GeneratorSet([("a", 1), ("b", 2), ("c", 3)])
    half = EXPONENT_LIMIT // 2

    def positive_poly(monos):
        return GradedPoly(gens, {m: rng.randrange(1, 4) for m in monos})

    for trial in range(30):
        if trial % 2:
            # Exponents at most half - 1 sum below the limit.
            pick = [tuple(rng.choice((0, 1, half - 2, half - 1)) for _ in range(3))
                    for _ in range(8)]
        else:
            pick = [m for k in range(5) for m in monomials_of_degree(gens, k)]
        p, q = (positive_poly(rng.sample(pick, 4)) for _ in range(2))
        degrees = {gens.degree_of(m1) + gens.degree_of(m2)
                   for m1 in p.monomials() for m2 in q.monomials()}
        caps = set(range(max(degrees) + 2)) if max(degrees) < 20 else {
            c for d in degrees for c in (d - 1, d, d + 1)} | {0}
        for cap in sorted(caps):
            got = sum_of_products(gens, [(p, q)], cap)
            assert got == reference_mul_truncated(p, q, cap), (trial, cap)
            kept = {gens.degree_of(m) for m in got.monomials()}
            assert kept == {d for d in degrees if d <= cap}, (trial, cap)
    # A product whose exponent reaches the limit is dropped above the cap,
    # and raises once the cap keeps it.
    x = GradedPoly.monomial(gens, (0, half, 0))
    assert sum_of_products(gens, [(x, x)], 4 * half - 1).is_zero()
    with pytest.raises(ValueError, match="reaches"):
        sum_of_products(gens, [(x, x)], 4 * half)
    # With no cap the limit lies above every product key: the largest
    # exponents are kept, and a product that reaches the limit raises.
    top = GradedPoly.monomial(gens, (EXPONENT_LIMIT - 1,) * 3)
    y, z = (GradedPoly.monomial(gens, (e,) * 3) for e in (half, half - 1))
    assert sum_of_products(gens, [(y, z)], None) == top
    with pytest.raises(ValueError, match="reaches"):
        sum_of_products(gens, [(top, top)], None)


def test_mul_truncated_slices_cancel_to_zero():
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    u1 = GradedPoly.generator(gens, "u1")
    one = GradedPoly.constant(gens, 1)
    # (1 + L) u1 * (1 - L) u1 = (1 - L^2) u1^2: the L slice cancels.
    p, q = u1 * (one * L + 1), u1 * (1 - one * L)
    prod = p * q
    assert prod == reference_mul_truncated(p, q, None)
    assert prod.coefficient((2, 0)) == 1 - L * L
    # Every slice cancels: L u1 * Z1 u1 - Z1 u1 * L u1.
    assert (u1 * L * (u1 * Z1) - u1 * Z1 * (u1 * L)).is_zero()
    assert (p * (one * L - one * L)).is_zero()


def test_mixed_denominators_in_one_slice():
    # L*Z1 forms from both factor orders, over denominators 2 and 3 (and 7
    # on the right), so the target slice is brought to a common denominator.
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    u1, u2 = GradedPoly.generator(gens, "u1"), GradedPoly.generator(gens, "u2")
    p = u1 * (L * Fraction(1, 2) + Z1 * Fraction(1, 3) + Fraction(1, 5)) + u2 * Z1
    q = u1 * (Z1 + L * Fraction(3, 7)) + u2 * Fraction(-2, 9)
    for cap in (None, 1, 2, 3, 4):
        assert p.mul_truncated(q, cap) == reference_mul_truncated(p, q, cap)
    assert (p * q).coefficient((2, 0)) == (
        L * Z1 * Fraction(9, 14) + L * L * Fraction(3, 14) + Z1 * Z1 / 3
        + Z1 / 5 + L * Fraction(3, 35))

    ring = AbelianTautRing(3)
    C1 = GradedPoly.generator(ring.zgens, "C1")
    one_z = GradedPoly.constant(ring.zgens, 1)
    u1 = GradedPoly.generator(ring.agens, "u1")
    one_a = GradedPoly.constant(ring.agens, 1)
    # Keys are relation indices: p_1(C), p_2(C) and C_3 -> a(gamma).  The
    # C1^3 and C1^2 terms push forms above the working degree, which drop.
    cofactors = {0: C1 * (L * Fraction(1, 2) + Z1 * Fraction(1, 3)) + C1 * C1 * C1 * Z1,
                 1: one_z * (Z1 * Fraction(2, 5) - L),
                 2: one_z * L * Fraction(1, 2) + C1 * C1 * L}
    a = u1 * u1 * (L * Z1 * Fraction(1, 5)) + u1 * Fraction(1, 7)
    g = one_a * (Z1 * Fraction(1, 3) + L * Fraction(1, 5))
    ref_a, ref_g = a, g
    for ri, c in cofactors.items():
        (apart, gpart), w = relation_sides(ring, ri), ring.omega(c)
        ref_a = ref_a + reference_mul_truncated(w, apart, ring.cap - 1)
        ref_g = ref_g + reference_mul_truncated(
            w, gpart, ring.cap - ring.gamma_degree)
    # The reduced parts: normal forms of the same products.
    expected = (ring.aq.normal_form(ref_a.truncate(ring.cap - 1)),
                ring.aq.normal_form(ref_g.truncate(ring.cap - ring.gamma_degree)))
    assert ring._form_contributions(cofactors, a, g) == expected
    assert ref_a.coefficient((2, 0, 0)).coefficient((("L", 1), ("Z1", 1)))


def test_relations_must_be_integral_with_unit_leads():
    # Division stays in the integers: a relation with a non-integer
    # coefficient, or with a leading coefficient other than +-1, is rejected.
    gens = GeneratorSet([("u1", 1), ("u2", 2), ("u3", 3)])
    u1, u2, u3 = (GradedPoly.generator(gens, n) for n in gens.names)
    with pytest.raises(ValueError, match=r"leading coefficient 2 of relation 0"):
        QuotientRing(RingPresentation(gens, [u1 * u1 * 2 - u2], 8))
    with pytest.raises(ValueError, match=r"leading coefficient -3 of relation 1"):
        QuotientRing(RingPresentation(gens, [u1 * u1 - u2, u1 * u3 - u2 * u2 * 3], 8))
    for coeff in (Fraction(1, 2), L):
        with pytest.raises(ValueError, match="must be integers"):
            RingPresentation(gens, [u1 * u1 - u2 * coeff], 8)
    # A lead of -1 divides in the integers as well.
    ring = QuotientRing(RingPresentation(gens, [u2 - u1 * u1, u3 * u3], 8))
    rng = random.Random(11)
    for _ in range(20):
        poly = random_poly(rng, gens, 8, 6)
        nf, cof = ring.reduce_with_cofactors(poly)
        assert (nf, cof) == reference_reduce(ring, poly)
        expanded = nf
        for ri, c in cof.items():
            expanded = expanded + c * ring.presentation.relations[ri]
        assert expanded == poly
    assert ring.normal_form(u1 * u1 * u3) == u2 * u3


def test_reductions_match_scalar_loop():
    rng = random.Random(7)
    for d in range(2, 7):
        for ring in (AbelianTautRing(d), LagrangianArithRing(d, "formal")):
            zq, aq = ring.zq, ring.aq
            # Symbolic multiples of relations: every slice of the normal
            # form cancels to zero, the cofactors stay.
            multiples = []
            for rel in zq.presentation.relations[:3]:
                mult = rng.choice(monomials_of_degree(
                    ring.zgens, rng.randrange(ring.cap - rel.max_degree() + 1)))
                multiples.append(rel * GradedPoly.monomial(ring.zgens, mult)
                                 * (L + Z1 * Fraction(2, 3) - H1 * H3))
            for poly in multiples:
                assert zq.normal_form(poly).is_zero()
            for poly in multiples + [random_poly(rng, ring.zgens, ring.cap, 6)
                                     for _ in range(6)]:
                nf, cof = zq.reduce_with_cofactors(poly)
                ref_nf, ref_cof = reference_reduce(zq, poly)
                assert cof == ref_cof
                assert_same(nf, ref_nf)
                assert_same(zq.normal_form(poly), nf)
                # The form contributions are the normal forms of the
                # cofactor products, in the same lowest terms.
                zero = GradedPoly.zero(ring.agens)
                for got, want in zip(ring._form_contributions(cof, zero, zero),
                                     reference_form_parts(ring, cof, zero, zero)):
                    assert_same(got, want)
            for _ in range(6):
                poly = random_poly(rng, ring.agens, aq.top_degree, 6)
                assert aq.normal_form(poly) == reference_reduce(aq, poly)[0]


def random_class(rng, ring):
    """z, a and, in a ring with gamma, g with symbolic coefficients up to
    the working degree of each, plus one term above it in each."""
    z = random_poly(rng, ring.zgens, ring.cap, 5)
    z = z + GradedPoly.monomial(ring.zgens, ring.zgens.single("C1", ring.cap + 1), L)
    a = random_poly(rng, ring.agens, ring.cap - 1, 4)
    a = a + GradedPoly.monomial(ring.agens, ring.agens.single("u1", ring.cap), Z1)
    g = GradedPoly.zero(ring.agens)
    if ring.gamma_degree is not None:
        g_cap = ring.cap - ring.gamma_degree
        g = random_poly(rng, ring.agens, g_cap, 3)
        g = g + GradedPoly.monomial(ring.agens, ring.agens.single("u1", g_cap + 1), H1)
    return ArithClass(ring, z, a, g)


def reference_reduce_class(x):
    ring = x.ring
    nf, cof = ring.zq.reduce_with_cofactors(x.z.truncate(ring.cap))
    return ArithClass(ring, nf, *reference_form_parts(ring, cof, x.a, x.g))


def kept_tables(ring):
    """The normal forms both quotients keep, each as a dict, and the push
    table: the order of a normal form's terms may follow the order of the
    queries, its values may not."""
    return ({m: dict(nf) for m, nf in ring.aq._nf.items()},
            {m: dict(nf) for m, nf in ring.zq._nf.items()}, dict(ring._pushes))


def test_reduce_through_kept_tables_matches_product_route():
    rng = random.Random(17)
    for d in range(2, 7):
        for make in (AbelianTautRing, lambda d: LagrangianArithRing(d, "formal")):
            ring = make(d)
            queries = [random_class(rng, ring) for _ in range(6)]
            assert all(x.a for x in queries)
            assert any(x.g for x in queries) == (ring.gamma_degree is not None)
            # A zero form part, and in a ring with gamma a zero gamma part.
            x = queries[0]
            queries += [ArithClass(ring, x.z, GradedPoly.zero(ring.agens), x.g),
                        x.drop_gamma()]
            # Multiples of the relations: only the cofactors are left.
            c1 = GradedPoly.generator(ring.zgens, "C1") * L
            queries += [ring.from_z(rel * c1) for rel in ring.zq.presentation.relations
                        if rel.max_degree() < ring.cap]
            expected = [reference_reduce_class(x) for x in queries]
            # A cold ring, then warm ones: each query once, then all again
            # twice.  The second pass admits every lifted monomial to the
            # push table with its push and the third reads it.  Each part is
            # in the lowest terms of the product route.
            for _ in range(3):
                for x, y in zip(queries, expected):
                    reduced = ring.reduce(x)
                    for got, want in ((reduced.z, y.z), (reduced.a, y.a),
                                      (reduced.g, y.g)):
                        assert_same(got, want)
            assert None not in ring._pushes.values()
            # The other order on a fresh ring keeps the same normal forms
            # and builds the same pushes.
            other = make(d)
            for _ in range(3):
                assert [other.reduce(ArithClass(other, x.z, x.a, x.g))
                        for x in reversed(queries)] == [
                            ArithClass(other, y.z, y.a, y.g) for y in reversed(expected)]
            assert kept_tables(other) == kept_tables(ring)


def drawn_class(rng, ring):
    """A class like random_class's, with each monomial drawn one generator
    at a time rather than from an enumeration, so it is cheap at large d."""
    def poly(gens, cap, n_terms, symbol):
        terms = {}
        for degree in [rng.randrange(cap + 1) for _ in range(n_terms)]:
            mono = [0] * len(gens)
            while degree:
                j = rng.randrange(min(degree, len(gens)))
                mono[j] += 1
                degree -= j + 1
            terms[tuple(mono)] = random_scalar(rng)
        return GradedPoly(gens, terms) + GradedPoly.monomial(
            gens, gens.single(gens.names[0], cap + 1), symbol)

    g = GradedPoly.zero(ring.agens)
    if ring.gamma_degree is not None:
        g = poly(ring.agens, ring.cap - ring.gamma_degree, 3, H1)
    return ArithClass(ring, poly(ring.zgens, ring.cap, 5, L),
                      poly(ring.agens, ring.cap - 1, 4, Z1), g)


def reduce_three_passes(ring, classes):
    """Three passes of ring.reduce over the classes, each as (reduced
    classes, (aq, zq) division steps after it).  The first divides each
    lifted monomial with cofactors, the second reduces them again and
    admits them with their pushes to the push table, and the third answers
    every class from the table, with no division with cofactors."""
    def run():
        return ([ring.reduce(x) for x in classes],
                (ring.aq.division_steps, ring.zq.division_steps))

    passes = [run(), run()]
    assert all(x.z.truncate(ring.cap)._keys() <= ring._pushes.keys()
               for x in classes)
    ring.zq.reduce_with_cofactors = None    # a call raises TypeError
    try:
        passes.append(run())
    finally:
        del ring.zq.reduce_with_cofactors
    return passes


def test_reduce_from_push_table_matches_product_route():
    # The product route runs on a twin ring, so it divides nothing in the
    # ring under test and every monomial there is admitted by reduce alone.
    rng = random.Random(34)
    for d in range(2, 7):
        for make in (AbelianTautRing, lambda d: LagrangianArithRing(d, "formal")):
            ring, twin = make(d), make(d)
            classes = [random_class(rng, ring) for _ in range(5)]
            classes += [drawn_class(rng, ring) for _ in range(3)]
            assert all(x.z.truncate(ring.cap).symbol_degree() for x in classes)
            expected = [reference_reduce_class(ArithClass(twin, x.z, x.a, x.g))
                        for x in classes]
            passes = reduce_three_passes(ring, classes)
            # The third pass reads kept tables alone: no division step.
            assert passes[2][1] == passes[1][1], (d, ring)
            for reduced, _ in passes:
                for x, y in zip(reduced, expected):
                    for got, want in ((x.z, y.z), (x.a, y.a), (x.g, y.g)):
                        assert_same(got, want)
                        assert_lowest_terms(got)


def reference_class_mul(x, y):
    """The parts of x * y by the generic products: z z' and omega(z) times
    the other class's form and gamma parts, each truncated to its working
    degree."""
    ring = x.ring
    a_cap, g_cap = ring.form_caps
    w1, w2 = ring.omega(x.z), ring.omega(y.z)
    return (x.z.mul_truncated(y.z, ring.cap),
            sum_of_products(ring.agens, [(w1, y.a), (w2, x.a)], a_cap),
            sum_of_products(ring.agens, [(w1, y.g), (w2, x.g)], g_cap))


def assert_as_checked(r):
    """r, a class that reduce or * returned, is the class the checking
    constructor builds from its parts, each in lowest terms."""
    assert_same(r, ArithClass(r.ring, r.z, r.a, r.g))
    for part in (r.z, r.a, r.g):
        assert_lowest_terms(part)


def test_class_products_and_reductions_match_the_generic_route():
    # Products of drawn and random classes, with symbolic coefficients, a
    # zero form part and a zero gamma part among them, and of their
    # reductions: each part equals the generic product's, and every class
    # that reduce or * returns passes the checking constructor.  Two passes
    # of reductions, so the push route answers the second.
    rng = random.Random(4343)
    for d in range(2, 8):
        for make in (AbelianTautRing, LagrangianArithRing):
            ring = make(d)
            classes = [random_class(rng, ring) for _ in range(3)]
            classes += [drawn_class(rng, ring) for _ in range(3)]
            x = classes[0]
            classes += [ArithClass(ring, x.z, GradedPoly.zero(ring.agens), x.g),
                        x.drop_gamma(), ring.from_a(x.a), ring.zero()]
            assert all(y.z.symbol_degree() for y in classes[:6])
            for _ in range(2):
                reduced = [ring.reduce(y) for y in classes]
            operands = classes + reduced
            s = L - Fraction(2, 3)
            for x, y in zip(operands, operands[1:] + operands[:1]):
                product, scaled = x * y, x * s
                for got, want in zip((product.z, product.a, product.g),
                                     reference_class_mul(x, y)):
                    assert_same(got, want)
                assert (scaled.z, scaled.a, scaled.g) == (x.z * s, x.a * s, x.g * s)
                for r in (product, scaled, ring.reduce(product)):
                    assert_as_checked(r)
            for r in reduced:
                assert_as_checked(r)


def test_push_table_admits_monomials_reduced_again(monkeypatch):
    for ring in (AbelianTautRing(5), LagrangianArithRing(5)):
        calls = []
        divide = ring.zq.reduce_with_cofactors
        monkeypatch.setattr(ring.zq, "reduce_with_cofactors",
                            lambda poly: calls.append(poly) or divide(poly))
        x = random_class(random.Random(8), ring)
        monos = x.z.truncate(ring.cap)._keys()
        first = ring.reduce(x)
        assert len(calls) == 1 and not ring._pushes
        assert ring.reduce(x) == first
        assert len(calls) == 2 and ring._pushes.keys() == monos
        # Admitted complete: a (form, gamma) pair of slices each, so the
        # first read from the table divides nothing in either quotient.
        assert all(type(push) is tuple and len(push) == 2
                   and all(type(side) is dict for side in push)
                   for push in ring._pushes.values())
        steps = (ring.aq.division_steps, ring.zq.division_steps)
        assert ring.reduce(x) == first and len(calls) == 2
        assert (ring.aq.division_steps, ring.zq.division_steps) == steps
        # One fresh monomial sends the class down the cofactor route, and
        # only the monomials held before that call are admitted.
        fresh = ring.lifted(1) ** ring.cap
        assert fresh.z._keys().isdisjoint(ring.zq.kept_cofactors(()))
        mixed = ring.reduce(x + fresh)
        assert len(calls) == 3 and ring._pushes.keys() == monos
        assert ring.reduce(x + fresh) == mixed
        assert len(calls) == 4 and ring._pushes.keys() == monos | fresh.z._keys()
        assert ring.reduce(x + fresh) == mixed == first + ring.reduce(fresh)
        assert len(calls) == 4


def test_stored_pushes_equal_the_push_builder_on_a_twin():
    # After two passes every stored push is complete: slice for slice, the
    # monomial's kept cofactors pushed by _form_contributions in a twin
    # ring that never reduced a class.
    rng = random.Random(40)
    for d in range(2, 7):
        for make in (AbelianTautRing, LagrangianArithRing):
            ring, twin = make(d), make(d)
            classes = [random_class(rng, ring) for _ in range(3)]
            for _ in range(2):
                for x in classes:
                    ring.reduce(x)
            assert ring._pushes, (d, ring)
            zero = GradedPoly.zero(twin.agens)
            for m, push in ring._pushes.items():
                mono = GradedPoly.monomial(twin.zgens, twin.zgens.unpack(m))
                _, cofactors = twin.zq.reduce_with_cofactors(mono)
                built = twin._form_contributions(cofactors, zero, zero)
                assert push == tuple(side._slices for side in built), (d, m)


def test_push_route_divides_a_fresh_form_monomial_once():
    # A class whose lifted monomials all have built pushes, with a form
    # monomial that aq never divided and form and gamma terms above their
    # working degrees.  The push route divides the fresh monomial alone: as
    # many aq steps as its division takes in a twin ring with the same
    # history, and no zq step.
    rng = random.Random(35)
    for make in (AbelianTautRing, LagrangianArithRing):
        ring, twin = make(5), make(5)
        x = random_class(rng, ring)
        for r in (ring, twin):
            for _ in range(3):
                r.reduce(ArithClass(r, x.z, x.a, x.g))
        monos = x.z.truncate(ring.cap)._keys()
        assert monos and all(ring._pushes.get(m) is not None for m in monos)
        gens, kept = ring.agens, ring.aq.normal_forms(())
        fresh = next(m for m in monomials_of_degree(gens, ring.cap - 1)
                     if m[0] >= 2 and gens.pack(m) not in kept)
        steps = twin.aq.division_steps
        twin.aq.normal_forms([gens.pack(fresh)])
        fresh_steps = twin.aq.division_steps - steps
        assert fresh_steps > 0
        above = GradedPoly.monomial(gens, gens.single("u2", ring.cap // 2 + 1), Z3)
        a = x.a + GradedPoly.monomial(gens, fresh, L * Fraction(2, 3)) + above
        g = x.g
        if ring.gamma_degree is not None:
            g = g + above * GradedPoly.monomial(gens, gens.single("u1", 1), H3)
        y = ArithClass(ring, x.z, a, g)
        steps = (ring.aq.division_steps, ring.zq.division_steps)
        ring.zq.reduce_with_cofactors = None    # a call raises TypeError
        try:
            got = ring.reduce(y)
        finally:
            del ring.zq.reduce_with_cofactors
        assert (ring.aq.division_steps - steps[0],
                ring.zq.division_steps - steps[1]) == (fresh_steps, 0)
        want = reference_reduce_class(ArithClass(twin, y.z, y.a, y.g))
        for part, expected in ((got.z, want.z), (got.a, want.a), (got.g, want.g)):
            assert_same(part, expected)
            assert_lowest_terms(part)


def test_push_route_settles_its_route_before_any_division():
    # A class whose lifted monomials all have pushes but one that zq never
    # divided, and with a form monomial that aq never divided, goes down
    # the cofactor route before anything is divided: the same division
    # order as the cofactor route run explicitly on a twin with the same
    # history, so the same steps, the same kept tables in the same key
    # order and the same push table.
    rng = random.Random(42)
    for make in (AbelianTautRing, LagrangianArithRing):
        ring, twin = make(5), make(5)
        x = random_class(rng, ring)
        for r in (ring, twin):
            for _ in range(3):
                r.reduce(ArithClass(r, x.z, x.a, x.g))
        monos = x.z.truncate(ring.cap)._keys()
        assert monos and monos <= ring._pushes.keys()
        fresh_z = ring.lifted(1) ** ring.cap
        assert fresh_z.z._keys().isdisjoint(ring.zq.normal_forms(()))
        gens, kept = ring.agens, ring.aq.normal_forms(())
        fresh_a = next(m for m in monomials_of_degree(gens, ring.cap - 1)
                       if m[0] >= 2 and gens.pack(m) not in kept)
        y = x + fresh_z + ring.from_a(GradedPoly.monomial(gens, fresh_a, Z3))

        def state(r):
            return ((r.aq.division_steps, r.zq.division_steps),
                    list(r.aq.normal_forms(())), list(r.zq.normal_forms(())),
                    r._pushes)

        # A class from another ring is refused before any step.
        before = state(ring)
        with pytest.raises(ValueError, match="another ring"):
            ring.reduce(ArithClass(twin, y.z, y.a, y.g))
        assert state(ring) == before
        got = ring.reduce(y)
        aq_keys = len(twin.aq.normal_forms(()))
        nf, cofactors = twin.zq.reduce_with_cofactors(y.z.truncate(twin.cap))
        assert cofactors
        want = (nf, *twin._form_contributions(cofactors, y.a, y.g))
        # The cofactor route divides product keys before the fresh form
        # monomial, so a route that divided the form part first would
        # leave another key order.
        assert len(twin.aq.normal_forms(())) - aq_keys > 1
        assert (got.z, got.a, got.g) == want
        assert state(ring) == state(twin)


def test_benchmark_queries_keep_their_division_order(monkeypatch):
    # lib-reduce's own queries (seed 1) against its d = 6 rings: every
    # answer is correct, the (aq, zq) division steps after one round are
    # pinned, and a second round divides nothing and admits the monomials
    # met again to the push table.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    from lib_reduce import Checker, build_rings, make_queries, run_query
    rings = build_rings()
    queries = make_queries(1, rings)
    checker = Checker()
    steps = {"abelian": (688, 1482), "lagrangian": (489, 1087)}
    for pushes in ({"abelian": 302, "lagrangian": 272},
                   {"abelian": 386, "lagrangian": 350}):
        assert all(run_query(rings, query, checker)[1] for query in queries)
        assert {name: (ring.aq.division_steps, ring.zq.division_steps)
                for name, ring in rings.items()} == steps
        assert {name: len(ring._pushes) for name, ring in rings.items()} == pushes


def test_add_slices_matches_one_slice_at_a_time():
    # _add_slices adds k1 * num * slices / den in one call; _add_slice adds
    # one slice.  From an empty accumulator and from one already filled,
    # with k1 empty and symbolic, and the source slices left unchanged.
    rng = random.Random(3535)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    mixed = 0
    for _ in range(40):
        source = random_poly(rng, gens, 5, 6)
        mixed += len({den for den, _ in source._slices.values()}) > 1
        kept = {k: (den, dict(terms)) for k, (den, terms) in source._slices.items()}
        for start in (GradedPoly.zero(gens), random_poly(rng, gens, 5, 4)):
            for k1, q in [((), Fraction(1)), ((), Fraction(-3, 4)),
                          *random_scalar(rng)._terms.items()]:
                one, each = ({k: (den, dict(terms)) for k, (den, terms)
                              in start._slices.items()} for _ in range(2))
                # Twice, so a slice that took the source's terms as they are
                # would change them on the second call.
                for _ in range(2):
                    _add_slices(one, k1, q.numerator, q.denominator, source._slices)
                    for k2, (d2, terms) in source._slices.items():
                        _add_slice(each, _merge_monomials(k1, k2), q.numerator,
                                   q.denominator * d2, terms.items())
                got = GradedPoly.from_slices(gens, one)
                assert_same(got, GradedPoly.from_slices(gens, each))
                assert_same(got, reference_add(start, reference_scale(
                    source, Scalar({k1: q * 2}))))
        assert source._slices == kept
    assert mixed >= 10


def test_linear_image_skips_keys_at_the_limit_and_keeps_denominators():
    # The image of each slice is summed through image below limit; a key at
    # or above limit is skipped, so image need not hold it, and a slice
    # whose image is empty is dropped.  The input slices are not changed.
    image = {1: ((10, 1), (11, -2)), 2: ((10, 3),), 3: ()}
    slices = {(): (3, {1: 2, 2: 1, 5: 7}),
              (("L", 1),): (2, {3: 4, 4: 1}),
              (("Z1", 1),): (5, {6: 1})}
    kept = {k: (den, dict(terms)) for k, (den, terms) in slices.items()}
    assert linear_image(slices, 4, image) == {(): (3, {10: 5, 11: -4})}
    assert slices == kept
    assert linear_image(slices, 6, {**image, 4: ((12, 1),), 5: ((10, 1),)}) == {
        (): (3, {10: 12, 11: -4}), (("L", 1),): (2, {12: 1})}
    with pytest.raises(KeyError):
        linear_image(slices, 5, image)   # key 4 is below 5, and image lacks it


def test_kept_reductions_and_pushes_are_integers():
    # Every relation has integer coefficients and a leading coefficient of
    # +-1, so every kept normal form and cofactor holds ints.  Each is a
    # tuple of (packed monomial, int) pairs with no zero; aq keeps no
    # cofactors, and zq keeps them for every normal form.  A push's slices
    # hold int numerators over an int denominator, in lowest terms.
    def kept_terms(ring):
        for q in (ring.aq, ring.zq):
            for nf in q._nf.values():
                yield nf
            for cof in q._cof.values():
                yield from cof.values()

    rng = random.Random(518)
    for d in range(1, 10):
        rings = [AbelianTautRing(d)]
        c1_critical_power(d, rings[0])
        if d >= 2:
            rings.append(LagrangianArithRing(d))
            height_polynomial(d, rings[1])
        for ring in rings:
            x = drawn_class(rng, ring)
            for _ in range(3):
                ring.reduce(x)
            pushed = [side for push in ring._pushes.values() for side in push]
            assert pushed and None not in ring._pushes.values(), (d, ring)
            for den, terms in (s for side in pushed for s in side.values()):
                assert type(den) is int and den > 0 and terms, (d, ring)
                assert all(type(n) is int and n for n in terms.values()), (d, ring)
                assert gcd(den, *terms.values()) == 1, (d, ring)
            seen = list(kept_terms(ring))
            assert seen and all(type(v) is int for terms in seen for _, v in terms), (d, ring)
            assert all(type(terms) is tuple and all(
                type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int
                and pair[1] for pair in terms) for terms in seen), (d, ring)
            # Each monomial, kept or a key, is packed: it unpacks to an
            # exponent tuple that packs back to it (C_j and u_j pack alike).
            gens = ring.agens
            monos = [m for terms in seen for m, _ in terms]
            monos += [m for q in (ring.aq, ring.zq) for m in q._nf]
            monos += [m for side in pushed for _, terms in side.values() for m in terms]
            assert all(gens.pack(gens.unpack(m)) == m for m in monos), (d, ring)
            assert not ring.aq._cof and ring.zq._cof.keys() == ring.zq._nf.keys()
            # Monomials already kept: no division step, the kept table itself.
            for q in (ring.aq, ring.zq):
                steps = q.division_steps
                assert q._nf and q.normal_forms(list(q._nf)) is q._nf
                assert q.division_steps == steps


def test_division_steps_one_pass_over_slices():
    # Over C1..C4 the division of C1^7 passes through C1^5*C2, and that of
    # C1^4*C3 through C1^2*C2*C3.  Each symbolic slice holds the larger
    # monomial of one pair and the smaller of the other, so a pass per slice
    # would divide one of the smaller monomials a second time.
    pres = AbelianTautRing(4).zq.presentation
    coeffs = {(7, 0, 0, 0): L, (2, 1, 1, 0): L * 3,
              (5, 1, 0, 0): Z1, (4, 0, 1, 0): Z1 + Fraction(2, 3)}
    poly = GradedPoly(pres.gens, coeffs)
    shadow = GradedPoly(pres.gens, {m: 1 for m in coeffs})
    for method in ("normal_form", "reduce_with_cofactors"):
        ring, fresh = QuotientRing(pres), QuotientRing(pres)
        getattr(ring, method)(poly)
        getattr(fresh, method)(shadow)
        assert ring.division_steps == fresh.division_steps > 0


def test_linear_operations_match_scalar_loop():
    rng = random.Random(909)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    probes = monomials_of_degree(gens, 3) + monomials_of_degree(gens, 6)
    for _ in range(40):
        p, q = random_poly(rng, gens, 5, 5), random_poly(rng, gens, 5, 5)
        assert_same(p + q, reference_add(p, q))
        assert_same(p - q, reference_add(p, reference_scale(q, Scalar.coerce(-1))))
        assert_same(-p, reference_scale(p, Scalar.coerce(-1)))
        components = p.degree_components()
        for k in range(-1, 8):
            assert_same(p.truncate(k), reference_select(p, lambda e: e <= k))
            assert_same(components.get(k, GradedPoly.zero(gens)),
                        reference_select(p, lambda e: e == k))
        assert list(components) == sorted({gens.degree_of(m) for m, _ in p.items()})
        for fn in (lambda c: c * L + Fraction(1, 6), lambda c: c * 4, lambda c: c - c):
            assert_same(p.map_coefficients(fn),
                        GradedPoly(gens, {m: fn(c) for m, c in p.items()}))
        terms = dict(p.items())
        for mono in probes + list(terms):
            assert p.coefficient(mono) == terms.get(mono, ZERO)
        assert p.max_degree() == max((gens.degree_of(m) for m in terms), default=0)
        assert p.symbol_degree() == max((c.symbol_degree() for c in terms.values()),
                                        default=0)


def test_selections_that_drop_nothing_return_self():
    rng = random.Random(77)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    for _ in range(40):
        p = random_poly(rng, gens, 6, rng.randrange(0, 6))
        degrees = {gens.degree_of(m) for m, _ in p.items()}
        if degrees:
            # At its top degree a truncation keeps everything; one below
            # it drops the top monomials.
            top = max(degrees)
            assert p.truncate(top) is p
            below = p.truncate(top - 1)
            assert below is not p
            assert_same(below, reference_select(p, lambda e: e < top))
        for k in range(-1, 9):
            selected = p.truncate(k)
            if all(e <= k for e in degrees):
                assert selected is p
            else:
                assert selected is not p
                assert_same(selected, reference_select(p, lambda e: e <= k))


def reference_merge(m1, m2):
    exps = {}
    for name, e in m1 + m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: symbol_sort_key(p[0])))


def test_merge_with_the_empty_monomial():
    for atom in ATOMS + [L * Z1 * H3, Z3 * Z3 * H1]:
        for mono in atom._terms:
            for m1, m2 in ((mono, ()), ((), mono), (mono, mono)):
                assert _merge_monomials(m1, m2) == reference_merge(m1, m2)
    assert _merge_monomials((), ()) == ()


def test_routes_to_one_polynomial_agree_with_hash():
    rng = random.Random(404)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    for _ in range(30):
        p, q = random_poly(rng, gens, 4, 5), random_poly(rng, gens, 4, 5)
        assert_same((p * Fraction(3, 2)) * Fraction(2, 3), p)
        assert_same((p + q) - q, p)
        assert_same(p.mul_truncated(q, 3) + p.mul_truncated(q, None).truncate(3) * -1,
                    GradedPoly.zero(gens))
    # Over denominator 2, u1 cancels and leaves the even numerator 2 in both
    # slices; over 6, the rational slice sums to 6 and 6 and the L slice
    # leaves 3.  Each must drop to lowest terms.
    u1, u2 = GradedPoly.generator(gens, "u1"), GradedPoly.generator(gens, "u2")
    x, y = (u1 + u2) * ((1 + L) / 2), (u2 - u1) * ((1 + L) / 2)
    assert_same(x + y, u2 * (1 + L))
    x = u1 * (Fraction(1, 2) + L / 6) + u2 * Fraction(1, 3)
    y = u1 * (Fraction(1, 2) - L / 6) + u2 * (Fraction(2, 3) + L / 2)
    expected = GradedPoly(gens, {(1, 0, 0): 1, (0, 1, 0): 1 + L / 2})
    assert_same(x + y, expected)
    assert_same(x * 2 + y * 2 - u2 * L - u1 * 2, u2 * 2)
    assert len({x + y, expected, y + x}) == 1


def test_sum_of_products_copies_what_it_starts_from():
    # omega shares a class's slices, so neither + nor sum_of_products may
    # change the slices of their arguments in place.
    rng = random.Random(5)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    for _ in range(20):
        p, q, r = (random_poly(rng, gens, 4, 5) for _ in range(3))
        before = [x.items() for x in (p, q, r)]
        total = sum_of_products(gens, [(p, q), (q, r)], 5, start=r)
        assert_same(total, reference_add(
            r, reference_add(reference_mul_truncated(p, q, 5),
                             reference_mul_truncated(q, r, 5))))
        p + q, q - r, -r, p * q
        components = p.degree_components()
        for k in range(-1, 6):
            component = components.get(k, GradedPoly.zero(gens))
            p.truncate(k) + q, component - r
            sum_of_products(gens, [(q, r)], k, start=p.truncate(k))
            sum_of_products(gens, [(r, q)], k, start=component)
        assert [x.items() for x in (p, q, r)] == before
        # from_slices keeps the dicts it is handed; operations on the result
        # leave them as they were.
        slices = {k: (den, dict(terms)) for k, (den, terms) in (p + r)._slices.items()}
        snapshot = {k: (den, dict(terms)) for k, (den, terms) in slices.items()}
        built = GradedPoly.from_slices(gens, slices)
        assert_same(built, p + r)
        built + q, built - q, -built, built * q, built.truncate(3) + q
        sum_of_products(gens, [(built, q)], 5, start=built)
        sum_of_products(gens, [(q, q)], 5, start=built.truncate(2))
        sum_of_products(gens, [(q, q)], None,
                        start=built.degree_components().get(3, GradedPoly.zero(gens)))
        assert slices == snapshot
        assert_same(built, p + r)
    ring = AbelianTautRing(3)
    x = ring.lifted(1) + ring.from_a(GradedPoly.generator(ring.agens, "u1") * L)
    shared = ring.omega(x.z)
    snapshot = x.z.items()
    (x * x) * L, ring.reduce(x * x + x)
    sum_of_products(ring.agens, [(shared, shared)], None, start=shared)
    assert x.z.items() == snapshot == [((1, 0, 0), Scalar.coerce(1))]


X0 = Scalar.symbol("x0")
SCALAR_OPERANDS = [
    7, -2, 0, Fraction(-5, 6), Fraction(0), ZERO, Scalar.coerce(Fraction(4, 9)),
    # Several symbols, a product monomial among them: slices k1 * k2 are
    # reached from more than one pair and must merge.
    L * Fraction(1, 2) + Z1 * Fraction(3, 4) + H1 / 3 + X0 * 2
    + L * Z1 * Fraction(-5, 6) + Fraction(1, 10),
    1 + L, L - 1, L * L * Fraction(2, 3) + H1 * X0,
]


def slices_of(p):
    return {k: (den, dict(terms)) for k, (den, terms) in p._slices.items()}


def test_scalar_operands_act_on_slices():
    rng = random.Random(1919)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    u1, u2 = GradedPoly.generator(gens, "u1"), GradedPoly.generator(gens, "u2")
    # Slices over the denominators 3 (rational), 14 (L), 5 (Z1) and 1; the
    # constant term 1 + x0 lies in two of them.
    fixed = [u1 * (L / 2 + Fraction(1, 3)) + u2 * (Z1 * Fraction(2, 5) - L / 7)
             + (1 + X0) + u1 * u2 * (L * Z1),
             GradedPoly.constant(gens, L / 3), GradedPoly.zero(gens)]
    polys = fixed + [random_poly(rng, gens, 5, rng.randrange(1, 7)) for _ in range(30)]
    for p in polys:
        for c in SCALAR_OPERANDS + [random_scalar(rng) for _ in range(3)]:
            before = slices_of(p)
            const = GradedPoly.constant(gens, c)
            scaled = p.mul_truncated(const, None)
            assert_same(p * c, scaled)
            assert_same(c * p, scaled)
            assert_same(p * c, reference_scale(p, Scalar.coerce(c)))
            assert_same(p + c, reference_add(p, const))
            assert_same(c + p, reference_add(p, const))
            assert_same(p - c, reference_add(p, reference_scale(const, Scalar.coerce(-1))))
            assert_same(c - p, reference_add(const, reference_scale(p, Scalar.coerce(-1))))
            assert slices_of(p) == before


def test_scalar_on_the_left_matches_the_right():
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    u1, u2 = GradedPoly.generator(gens, "u1"), GradedPoly.generator(gens, "u2")
    p = u1 * (L / 2 + 1) + u2 * (Z1 / 3)
    ring = AbelianTautRing(3)
    x = ring.lifted(1) * Fraction(1, 2) + ring.from_a(
        GradedPoly.generator(ring.agens, "u1") * L)
    for s in (L, Scalar.coerce(Fraction(-3, 4)), L * Z1 + H1 / 5, ZERO):
        assert_same(s * p, p * s)
        assert_same(s + p, p + s)
        assert_same(s - p, -(p - s))
        assert s * x == x * s
    for bad in (lambda: L / p, lambda: L + "1", lambda: L * 1.5, lambda: L - None):
        with pytest.raises(TypeError):
            bad()


def kept_values(ring):
    """Deep copies of the kept normal forms and cofactors of both quotients
    and of the push table."""
    def kept(q):
        return {m: (dict(nf), {ri: dict(t) for ri, t in q._cof.get(m, {}).items()})
                for m, nf in q._nf.items()}
    pushes = {m: tuple({k: (den, dict(terms)) for k, (den, terms) in side.items()}
                       for side in push)
              for m, push in ring._pushes.items()}
    return kept(ring.zq), kept(ring.aq), pushes


def test_warm_queries_leave_kept_values_unchanged():
    # A slice's first contribution is a fresh scaled dict.  Were it a kept
    # normal form, cofactor or push itself, the next contribution to that
    # slice would change the kept value in place.
    rng = random.Random(2626)
    for d in range(4, 7):
        for ring in (AbelianTautRing(d), LagrangianArithRing(d)):
            classes = [random_class(rng, ring) for _ in range(3)]
            reduced = [ring.reduce(x) for x in classes]
            pairs = [(x, y) for x in reduced for y in reduced]
            expected = [ring.reduce(x * y) for x, y in pairs]
            before = kept_values(ring)
            # The first warm pass admits every lifted monomial to the push
            # table with its push; the later ones read it.
            for n in range(4):
                assert [ring.reduce(x) for x in classes] == reduced
                assert [ring.reduce(x * y) for x, y in pairs] == expected
                for x, y in pairs:
                    sum_of_products(ring.agens, [(ring.omega(x.z), y.a),
                                                 (x.a, y.a)], None, x.a)
                if n == 1:
                    built = kept_values(ring)[2]
            after = kept_values(ring)
            assert after[:2] == before[:2]
            assert built and after[2] == built


def assert_lowest_terms(poly):
    for den, terms in poly._slices.values():
        assert terms and all(type(n) is int and n for n in terms.values())
        assert type(den) is int and den > 0
        assert gcd(den, *terms.values()) == 1


def test_stored_slices_are_in_lowest_terms():
    rng = random.Random(2627)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    # Over 1 a slice is kept as it is; over 6 it is divided by its gcd.
    # Slices are keyed by packed monomials.
    u1_2, u1, u2 = (gens.pack(m) for m in ((2, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)))
    terms = {u1_2: 4, u2: 6}
    assert GradedPoly.from_slices(gens, {(): (1, terms)})._slices[()][1] is terms
    assert GradedPoly.from_slices(gens, {(): (6, {**terms, u1: 0})}
                                  )._slices == {(): (3, {u1_2: 2, u2: 3})}
    assert GradedPoly.from_slices(gens, {(): (6, {**terms, u1: 0})}) == GradedPoly(
        gens, {(2, 0, 0, 0): Fraction(2, 3), (0, 1, 0, 0): 1})
    assert GradedPoly.from_slices(gens, {(): (5, {u1: 0})}).is_zero()
    integral = [GradedPoly(gens, {m: rng.randrange(-6, 7) for m in
                                  monomials_of_degree(gens, rng.randrange(6))})
                for _ in range(10)]
    polys = integral + [random_poly(rng, gens, 5, 5) for _ in range(20)]
    for p, q in zip(polys, polys[1:] + polys[:1]):
        for s in (2, -6, Fraction(3, 4), L * 2, random_scalar(rng)):
            for result in (p + q, p - q, p - p, p * q, p.mul_truncated(q, 5),
                           p * s, (p * s - q * s) * Fraction(1, 3),
                           sum_of_products(gens, [(p, q), (q, p)], 6, p * s)):
                assert_lowest_terms(result)
    for ring in (AbelianTautRing(4), LagrangianArithRing(5)):
        relations = ring.zq.presentation.relations
        for _ in range(10):
            x = random_class(rng, ring)
            # A symbolic multiple of a relation: its normal form cancels.
            multiple = rng.choice(relations) * (L - Z1 * Fraction(2, 3))
            z = x.z.truncate(ring.cap)
            for z in (z, z * 6, z + multiple, multiple):
                nf, cof = ring.zq.reduce_with_cofactors(z)
                for result in (nf, *cof.values(),
                               ring.aq.normal_form(x.a.truncate(ring.cap - 1))):
                    assert_lowest_terms(result)
            y = ring.reduce(x)
            for result in (y.z, y.a, y.g, (y * y).a, (y * 3).g):
                assert_lowest_terms(result)


def reference_coefficient(p, key):
    """The coefficient of a packed monomial as _coefficient built it: a scan
    of every slice, through the checking Scalar(...)."""
    return Scalar({k: Fraction(n, den) for k, (den, terms) in p._slices.items()
                   if (n := terms.get(key))})


def reference_items(p):
    """items() as it was: the keys sorted by exponent tuple from the
    largest, then stably by degree, each coefficient by
    reference_coefficient."""
    gens = p.gens
    keys = set().union(*(terms for _, terms in p._slices.values()))
    pairs = sorted(((gens.unpack(key), key) for key in keys), reverse=True)
    pairs.sort(key=lambda pair: pair[1] >> gens.shift)
    return [(mono, reference_coefficient(p, key)) for mono, key in pairs]


def reference_eq(p, other):
    """== as it was: a constant operand made a constant polynomial first,
    then generator sets and slices compared."""
    if isinstance(other, (int, Fraction, Scalar)):
        other = GradedPoly.constant(p.gens, other)
    return p.gens == other.gens and p._slices == other._slices


def reference_accepts(ring, z, a, g):
    """ArithClass(...)'s generator-set test as it was: one tuple compare."""
    return (z.gens, a.gens, g.gens) == (ring.zgens, ring.agens, ring.agens)


def test_read_path_matches_the_scan_through_checked_scalars():
    # items(), coefficient(), monomials() and == against the routes they
    # replaced: one pass over the slices with the package's own Scalar
    # constructor, one sort, and a GradedPoly operand compared first.
    rng = random.Random(4401)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    twin = GeneratorSet([(f"u{j}", j) for j in range(1, 5)])
    other = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    integral = [GradedPoly(gens, {m: rng.randrange(-6, 7) for m in
                                  rng.sample(monomials_of_degree(gens, d), 2)})
                for d in range(2, 7)]
    halves = [p * Fraction(1, 2) + GradedPoly.monomial(gens, gens.unit(), 3)
              for p in integral]
    symbolic = [random_poly(rng, gens, 6, 6) for _ in range(25)]
    constants = [GradedPoly.constant(gens, c)
                 for c in (1, -4, Fraction(3, 2), L * 2, L * Fraction(1, 3) + 5)]
    polys = [GradedPoly.zero(gens), *constants, *integral, *halves, *symbolic]
    assert any(len(p._slices) > 2 for p in symbolic)
    assert {den for p in polys for den, _ in p._slices.values()} >= {1, 2, 3}
    for p in polys:
        got = p.items()
        assert got == reference_items(p)
        for mono, coeff in got:
            assert type(mono) is tuple and all(type(e) is int for e in mono)
            assert type(coeff) is Scalar and coeff
            assert all(type(k) is tuple and type(q) is Fraction and q
                       for k, q in coeff._terms.items())
            assert p.coefficient(mono) == coeff
        assert p.monomials() == {mono for mono, _ in got}
        missing = [m for m in monomials_of_degree(gens, 3) if m not in p.monomials()]
        assert all(p.coefficient(m) == ZERO and not p.coefficient(m)._terms
                   for m in missing)
        for q in polys[:12] + [p, p + 0, p * 1, p - p, GradedPoly(twin, dict(got)),
                               GradedPoly.zero(other)]:
            assert (p == q) is reference_eq(p, q)
        for c in (0, 1, -4, Fraction(3, 2), L * 2, ZERO):
            assert (p == c) is reference_eq(p, c)
        assert (p == "u1") is False
    for ring in (AbelianTautRing(3), LagrangianArithRing(4)):
        x = random_class(rng, ring)
        zt = GeneratorSet(zip(ring.zgens.names, ring.zgens.degrees))
        at = GeneratorSet(zip(ring.agens.names, ring.agens.degrees))
        parts = (GradedPoly(zt, dict(x.z.items())), GradedPoly(at, dict(x.a.items())),
                 GradedPoly(at, dict(x.g.items())))
        assert reference_accepts(ring, *parts)
        assert ArithClass(ring, *parts) == x
        assert ArithClass(ring, *parts).z.gens is zt
        wrong = GeneratorSet(zip(ring.agens.names, reversed(ring.agens.degrees)))
        for bad in ((parts[0], GradedPoly.zero(wrong), parts[2]),
                    (GradedPoly.zero(at), parts[1], parts[2]),
                    (parts[0], parts[1], GradedPoly.zero(zt))):
            assert not reference_accepts(ring, *bad)
            with pytest.raises(ValueError, match="part over the wrong generator set"):
                ArithClass(ring, *bad)


def general_scale(p, q):
    """p * q by the general route: the terms of Scalar.coerce(q) through
    _add_slices, then one from_slices pass."""
    out = {}
    for k, c in Scalar.coerce(q)._terms.items():
        _add_slices(out, k, c.numerator, c.denominator, p._slices)
    return GradedPoly.from_slices(p.gens, out)


def test_constructors_and_rational_scaling_match_the_general_route():
    # zero, constant, generator and monomial build their one slice
    # directly, p * q for an int or Fraction q multiplies the numerators
    # and denominators and takes one lowest-terms pass, and -p negates the
    # numerators.  Each must give the general route's slices, in lowest
    # terms: GradedPoly(gens, {mono: coeff}) for a constructor, and
    # _add_slices with Scalar.coerce(q) for a product.
    rng = random.Random(4545)
    sets = [GeneratorSet([(f"u{j}", j) for j in range(1, n + 1)]) for n in (1, 3, 6)]
    sets.append(GeneratorSet([("x", 2), ("y", 1), ("z", 3)]))
    rationals = [0, 1, -1, 7, -12, Fraction(-3, 4), Fraction(5, 6), Fraction(-1, 9),
                 Fraction(12, 1)]
    for gens in sets:
        values = (rationals + [Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
                               for _ in range(4)]
                  + [ZERO, L, L * Z1 - H1 / 3] + [random_scalar(rng) for _ in range(4)])
        assert slices_of(GradedPoly.zero(gens)) == slices_of(GradedPoly(gens)) == {}
        for name in gens.names:
            single = gens.single(name)
            for got in (GradedPoly.generator(gens, name), GradedPoly.monomial(gens, single)):
                assert slices_of(got) == slices_of(GradedPoly(gens, {single: 1}))
                assert_lowest_terms(got)
        for c in values:
            got = GradedPoly.constant(gens, c)
            assert slices_of(got) == slices_of(GradedPoly(gens, {gens.unit(): c}))
            assert_lowest_terms(got)
            for _ in range(3):
                mono = rng.choice(monomials_of_degree(gens, rng.randrange(6)))
                got = GradedPoly.monomial(gens, mono, c)
                assert slices_of(got) == slices_of(GradedPoly(gens, {mono: c}))
                assert_lowest_terms(got)
        polys = [GradedPoly.zero(gens)] + [random_poly(rng, gens, 4, rng.randrange(1, 6))
                                           for _ in range(12)]
        for p in polys:
            before = slices_of(p)
            for q in values:
                for got in (p * q, q * p):
                    assert slices_of(got) == slices_of(general_scale(p, q))
                    assert_lowest_terms(got)
            got = -p
            assert slices_of(got) == slices_of(general_scale(p, -1))
            assert_lowest_terms(got)
            assert slices_of(p) == before
    u = sets[1]
    for bad in ("u4", "x", "U1"):
        with pytest.raises(ValueError, match=f"no generator {bad!r}"):
            GradedPoly.generator(u, bad)
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            GradedPoly.constant(u, bad)


def test_class_vectors_check_each_degree_in_one_pass():
    gens = GeneratorSet([(f"c{j}", j) for j in range(1, 4)])
    c1, c2, c3 = (GradedPoly.generator(gens, n) for n in gens.names)
    zero = GradedPoly.zero(gens)
    # Homogeneous classes of the right degree, over several slices too.
    for classes in ([c1, c2, c3], [c1 * L + c1, c1 * c1 * Z1 + c2 * Fraction(-1, 3), zero],
                    [zero, zero, c1 * c2 * H1 + c3 * L]):
        assert ClassVector(gens, classes).classes == classes
    for j, classes in ((1, [c2]), (2, [c1, c2 + c1]), (2, [c1, c2 * L + c1 * L]),
                       (3, [c1, c2, c3 + 1]), (3, [c1, c2, c3 * L + c1 * c1])):
        with pytest.raises(ValueError, match=f"c_{j} must be homogeneous of degree {j}"):
            ClassVector(gens, classes)
