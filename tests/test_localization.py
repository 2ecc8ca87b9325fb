"""The socle functional by Atiyah-Bott localization on the Lagrangian
Grassmannian LG(n), n = d - 1, with no quotient ring (Atiyah-Bott, *The
moment map and equivariant cohomology*, Topology 1984).

The form rings are H*(LG(d-1)): u_j is the j-th elementary symmetric
function of the Chern roots, which at the fixed point eps in {+-1}^n are
x_i = eps_i t_i.  For P homogeneous of degree N = dim LG(n) = n(n+1)/2,

    integral(P) = sum over eps of P(e(x)) / prod_{i <= j} (x_i + x_j),

and an element of the relation ideal integrates to 0.  So the integral is a
multiple of the socle coordinate, and checks the normal form and socle step
of the critical power independently of the form ring's division.
"""

from fractions import Fraction
from itertools import product

from tautcalc.scalars import Scalar
from tautcalc.graded import GeneratorSet, GradedPoly, sum_of_products
from tautcalc.arakelov import (AbelianTautRing, LagrangianArithRing,
                               c1_critical_power, height_polynomial)
from tautcalc.classical import lagrangian_degree


def elementary(x, k):
    """e_0..e_k of the numbers x."""
    e = [1] + [0] * k
    for xi in x:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * xi
    return e


def integral(poly: GradedPoly, n: int) -> Scalar:
    """The localization integral over LG(n) of poly's degree-n(n+1)/2 part,
    with u_j = e_j(x) (so u_j = 0 for j > n) and t = (1, ..., n)."""
    top = n * (n + 1) // 2
    terms = [(m, c) for m, c in poly.items() if poly.gens.degree_of(m) == top]
    weights = [Fraction(0)] * len(terms)
    for eps in product((1, -1), repeat=n):
        x = [e * t for e, t in zip(eps, range(1, n + 1))]
        denominator = 1
        for i in range(n):
            for j in range(i, n):
                denominator *= x[i] + x[j]
        e = elementary(x, len(poly.gens))
        for k, (mono, _) in enumerate(terms):
            value = 1
            for j, exp in enumerate(mono, 1):
                value *= e[j] ** exp
            weights[k] += Fraction(value, denominator)
    total = Scalar.coerce(0)
    for (_, coeff), weight in zip(terms, weights):
        total = total + coeff * weight
    return total


def u1_power(gens, exponent):
    return GradedPoly.monomial(gens, gens.single("u1", exponent))


def test_integral_of_u1_power_is_the_lagrangian_degree():
    for d in range(2, 13):
        n = d - 1
        gens = GeneratorSet([(f"u{j}", j) for j in range(1, d)])
        assert integral(u1_power(gens, n * (n + 1) // 2), n) == lagrangian_degree(d), d


def test_integral_vanishes_on_the_relations():
    ring = AbelianTautRing(4)
    top = 6
    for rel in ring.aq.presentation.relations:
        rest = top - rel.max_degree()
        for mono in ring.aq.monomial_basis(rest) if rest >= 0 else ():
            multiple = rel * GradedPoly.monomial(ring.agens, mono)
            assert integral(multiple, 3) == 0


def raw_form_part(ring, top):
    """The form part of C1^(top+1) before any normal form: omega(cofactor)
    times each relation's form side, from the lifted ring's division.
    Relation k - 1 is p_k(C), whose form side is rho_k; the relation after
    them, C_d, rewrites to gamma and has no form side."""
    power = GradedPoly.monomial(ring.zgens, ring.zgens.single("C1", top + 1))
    nf, cofactors = ring.zq.reduce_with_cofactors(power)
    assert nf.is_zero()
    return sum_of_products(ring.agens, [(ring.omega(c), ring.rho[ri + 1])
                                        for ri, c in cofactors.items()
                                        if ri + 1 in ring.rho], ring.cap - 1)


def test_critical_power_from_the_raw_form_part():
    for d in range(2, 8):
        n, top = d - 1, d * (d - 1) // 2
        abelian = AbelianTautRing(d)
        scale = integral(u1_power(abelian.agens, top), n)
        assert integral(raw_form_part(abelian, top), n) / scale == c1_critical_power(d).r
        lagrangian = LagrangianArithRing(d, "formal")
        assert (integral(raw_form_part(lagrangian, top), n) / scale
                == height_polynomial(d).height)
