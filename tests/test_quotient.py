import itertools
import json
import random
from fractions import Fraction

import pytest

from tautcalc.scalars import Scalar, zeta_prime_symbol
from tautcalc.graded import GeneratorSet, GradedPoly, monomial_sort_key
from tautcalc.quotient import (QuotientRing, ReductionError, RingPresentation)
from tautcalc.arakelov import (AbelianTautRing, LagrangianArithRing,
                               arithmetic_dimension, lagrangian_degree,
                               tautological_ring)


def u(ring_or_gens, name):
    gens = getattr(ring_or_gens, "gens", ring_or_gens)
    return GradedPoly.generator(gens, name)


def test_r2_basis_and_dimension():
    ring = tautological_ring(2)
    rep = ring.dimension_report()
    assert rep.total == 2
    assert ring.monomial_basis(0) == [(0, 0)]
    assert ring.monomial_basis(1) == [(1, 0)]
    assert ring.monomial_basis(2) == []
    assert rep.socle_degree == 1 and rep.socle_dim == 1


def test_r4_total_dimension():
    assert tautological_ring(4).dimension_report().total == 8


def test_free_ring():
    gens = GeneratorSet([("u1", 1)])
    ring = QuotientRing(RingPresentation(gens, [], 2))
    assert ring.monomial_basis(0) == [(0,)]
    assert ring.monomial_basis(1) == [(1,)]
    assert ring.monomial_basis(2) == [(2,)]


def test_normal_form_examples_d3():
    ring = tautological_ring(3)
    u1, u2 = u(ring, "u1"), u(ring, "u2")
    assert ring.normal_form(u1 * u1) == u2 * 2
    assert ring.normal_form(u1 ** 4).is_zero()


def test_normal_form_newton_d4():
    # 3! ch^[3] reduces to -c1^3/2 + 3 c3, i.e. -u1*u2 + 3*u3 in the basis
    ring = tautological_ring(4)
    u1, u2, u3 = u(ring, "u1"), u(ring, "u2"), u(ring, "u3")
    s3 = u1 ** 3 - u1 * u2 * 3 + u3 * 3
    reduced = ring.normal_form(s3)
    assert reduced == -(u1 * u2) + u3 * 3
    # and agrees with reducing -c1^3/2 + 3 c3 directly
    assert reduced == ring.normal_form(u1 ** 3 * Fraction(-1, 2) + u3 * 3)


def test_normal_form_idempotent_linear():
    ring = tautological_ring(4)
    rng = random.Random(5)
    gens = ring.gens
    for _ in range(30):
        terms = {}
        for _ in range(5):
            mono = tuple(rng.randrange(3) for _ in range(4))
            if gens.degree_of(mono) <= ring.top_degree:
                terms[mono] = Fraction(rng.randrange(-5, 6))
        p = GradedPoly(gens, terms)
        q = GradedPoly(gens, {m: 2 * c for m, c in terms.items()})
        nf = ring.normal_form(p)
        assert ring.normal_form(nf) == nf
        assert ring.normal_form(p + q) == nf + ring.normal_form(q)
        prod_rule = ring.normal_form(
            ring.normal_form(p).mul_truncated(ring.normal_form(q), ring.top_degree))
        assert ring.normal_form(p.mul_truncated(q, ring.top_degree)) == prod_rule


def test_membership_witness_d2_explicit():
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    p_rel = u(gens, "u1") * u(gens, "u1") - u(gens, "u2") * 2
    ring = QuotientRing(RingPresentation(gens, [p_rel, u(gens, "u2")], 2))
    target = u(gens, "u1") * u(gens, "u1")
    w = ring.membership_witness(target)
    assert w.verify()
    assert w.residue.is_zero()
    by_rel = w.by_relation()
    assert by_rel[0] == GradedPoly.constant(gens, 1)
    assert by_rel[1] == GradedPoly.constant(gens, 2)


def test_membership_witness_d3_cofactors():
    # u1^4 against the three homogeneous relations; cofactors reduce to the
    # displayed combination 2 c1^2 (p1-part) + 4 (p2-part) + 8 c1 (u3-part).
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    u1, u2, u3 = (u(gens, f"u{j}") for j in (1, 2, 3))
    p1 = u1 * u1 - u2 * 2
    p2 = u2 * u2 - u1 * u3 * 2
    ring = QuotientRing(RingPresentation(gens, [p1, p2, u3], 4))
    w = ring.membership_witness(u1 ** 4)
    assert w.verify()
    classical = tautological_ring(3)
    reduce = classical.normal_form
    by_rel = w.by_relation()
    assert reduce(by_rel[0]) == reduce(u1 * u1 * 2)
    assert reduce(by_rel[1]) == GradedPoly.constant(gens, 4)
    assert reduce(by_rel.get(2, GradedPoly.zero(gens))) == reduce(u1 * 8)


def test_membership_witness_zero_and_failure():
    ring = tautological_ring(3, track_witnesses=True)
    w = ring.membership_witness(GradedPoly.zero(ring.gens))
    assert not w.cofactors and w.residue.is_zero()
    u1 = u(ring, "u1")
    with pytest.raises(ReductionError):
        ring.membership_witness(u1)  # nonzero normal form
    with pytest.raises(ReductionError):
        tautological_ring(3).reduce_with_cofactors(u1)  # witness-free build


def test_membership_witness_subset():
    # u1^2 is not in the ideal generated by u3 alone
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    u1, u2, u3 = (u(gens, f"u{j}") for j in (1, 2, 3))
    p1 = u1 * u1 - u2 * 2
    ring = QuotientRing(RingPresentation(gens, [p1, u3], 4))
    with pytest.raises(ReductionError):
        ring.membership_witness(u1 * u1, relation_indices=[1])
    w = ring.membership_witness(p1 * u1, relation_indices=[0])
    assert w.verify()
    assert set(ri for ri, _ in w.cofactors) == {0}


def test_dimension_reports():
    r3 = tautological_ring(3).dimension_report()
    assert r3.dims[:4] == [1, 1, 1, 1] and r3.total == 4
    assert r3.socle_degree == 3
    assert tautological_ring(5).dimension_report().total == 16
    r2 = tautological_ring(2).dimension_report()
    assert r2.socle_degree == 1 and r2.socle_dim == 1


def test_dimensions_match_expected_through_7():
    for d in range(2, 8):
        rep = tautological_ring(d).dimension_report()
        assert rep.total == 2 ** (d - 1)
        assert rep.socle_degree == d * (d - 1) // 2
        assert rep.socle_dim == 1


def test_socle_coordinate_is_lagrangian_degree():
    for d in range(2, 7):
        ring = tautological_ring(d)
        top = d * (d - 1) // 2
        nf = ring.normal_form(GradedPoly.monomial(
            ring.gens, ring.gens.single("u1", top)))
        coord = nf.coefficient(ring.monomial_basis(top)[0])
        assert coord == Scalar.from_rational(lagrangian_degree(d))


def test_alternative_witnesses_reexpand():
    ring = tautological_ring(4, track_witnesses=True)
    u1 = u(ring, "u1")
    witnesses = ring.alternative_witnesses(u1 ** 7, 3)
    assert len(witnesses) >= 3
    seen = set()
    for w in witnesses:
        assert w.verify()
        seen.add(tuple(sorted((key, tuple(sorted(p.items())))
                              for key, p in w.cofactors.items())))
    assert len(seen) == len(witnesses)


def test_degree_overflow():
    ring = tautological_ring(2)
    with pytest.raises(ReductionError):
        ring.normal_form(u(ring, "u1") ** 5)


def test_scalar_coefficients_reduce():
    ring = tautological_ring(3)
    u1 = u(ring, "u1")
    z = zeta_prime_symbol(1)
    nf = ring.normal_form(u1 * u1 * z)
    assert nf == u(ring, "u2") * (z * 2)


def test_mixed_degree_relation_components():
    # one mixed relation: its homogeneous parts act independently
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    u1, u2 = u(gens, "u1"), u(gens, "u2")
    mixed = u1 * u1 - u2 * 2 + u2 * u2
    ring = QuotientRing(RingPresentation(gens, [mixed], 4))
    assert ring.normal_form(u1 * u1) == u2 * 2
    assert ring.normal_form(u2 * u2).is_zero()
    w = ring.membership_witness(u2 * u2)
    assert w.verify()
    assert (0, 4) in w.cofactors
    both = ring.membership_witness(mixed)
    assert both.verify()
    assert {(0, 2), (0, 4)} <= set(both.cofactors)
    with pytest.raises(ValueError):
        both.by_relation()  # two components of the same relation were used


def test_rejects_irrational_relations():
    gens = GeneratorSet([("u1", 1)])
    bad = u(gens, "u1") * zeta_prime_symbol(1)
    with pytest.raises(ValueError):
        RingPresentation(gens, [bad], 2)


def test_audit_dump_serializable():
    ring = tautological_ring(3)
    dump = ring.audit_dump()
    text = json.dumps(dump)
    doc = json.loads(text)
    assert doc["top_degree"] == 4
    degree2 = doc["degrees"][2]
    assert degree2["basis"] == ["u2"]
    assert "u1^2" in degree2["reduction_rows"]


def test_rejects_shared_lead_variables():
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    u1, u2 = u(gens, "u1"), u(gens, "u2")
    # leads u1^2 and u1^3 share u1: not a Groebner basis by the first criterion
    with pytest.raises(ValueError, match="coprime"):
        QuotientRing(RingPresentation(gens, [u1 * u1 - u2 * 2,
                                             u1 ** 3 - u1 * u2], 4))
    # a monomial does not escape the check when the other component is not one
    with pytest.raises(ValueError, match="coprime"):
        QuotientRing(RingPresentation(gens, [u1 * u1 - u2 * 2, u1 * u2], 4))
    # two monomials sharing a variable have S-polynomial 0
    ring = QuotientRing(RingPresentation(gens, [u1 * u1, u1 * u2], 4))
    assert ring.monomial_basis(3) == []
    assert ring.monomial_basis(4) == [(0, 2)]


def squarefree_monomials(gens, count, degree):
    """Squarefree monomials of the given degree in the first count
    generators, enumerated independently of the quotient code."""
    out = []
    for picks in itertools.product((0, 1), repeat=count):
        mono = picks + (0,) * (len(gens) - count)
        if gens.degree_of(mono) == degree:
            out.append(mono)
    return sorted(out, key=lambda m: monomial_sort_key(gens, m))


def assert_squarefree_basis(ring, count):
    for k in range(ring.top_degree + 1):
        assert ring.monomial_basis(k) == squarefree_monomials(ring.gens, count, k)


def test_standard_monomials_are_squarefree():
    # The generators of degree < d span; u_d (C_d) is itself a relation.
    for d in range(2, 10):
        assert_squarefree_basis(tautological_ring(d), d - 1)
    for d in range(2, 10):
        cap = arithmetic_dimension(d)
        for ring in (AbelianTautRing(d, cap), LagrangianArithRing(d, "formal", cap)):
            assert_squarefree_basis(ring.zq, d - 1)
            assert_squarefree_basis(ring.aq, d - 1)


def test_constant_relation_leaves_no_standard_monomials():
    gens = GeneratorSet([("u1", 1), ("u2", 2), ("u3", 3)])
    ring = QuotientRing(RingPresentation(
        gens, [u(gens, "u1") * u(gens, "u2"), GradedPoly.constant(gens, 3)], 6))
    for k in range(7):
        assert ring.monomial_basis(k) == []


def test_reduction_does_not_depend_on_query_order():
    ring = tautological_ring(5, track_witnesses=True)
    rng = random.Random(11)
    polys = []
    for _ in range(12):
        terms = {}
        for _ in range(4):
            mono = tuple(rng.randrange(4) for _ in range(5))
            if ring.gens.degree_of(mono) <= ring.top_degree:
                terms[mono] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
        polys.append(GradedPoly(ring.gens, terms))
    forward = [ring.reduce_with_cofactors(p) for p in polys]
    fresh = tautological_ring(5, track_witnesses=True)
    backward = [fresh.reduce_with_cofactors(p) for p in reversed(polys)]
    assert forward == backward[::-1]
    for p, (nf, cof) in zip(polys, forward):
        expanded = nf
        for (ri, cd), c in cof.items():
            expanded = expanded + c * ring.slot_poly(ri, cd)
        assert expanded == p


def test_alternative_witnesses_respect_relation_subset():
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, 4)])
    u1, u2, u3 = (u(gens, f"u{j}") for j in (1, 2, 3))
    p1 = u1 * u1 - u2 * 2
    p2 = u2 * u2 - u1 * u3 * 2
    ring = QuotientRing(RingPresentation(gens, [p1, p2, u3], 6))
    target = p1 * u1 * u3 + p2 * u2
    witnesses = ring.alternative_witnesses(target, 4, relation_indices=[0, 1])
    assert len(witnesses) == 4
    for w in witnesses:
        assert w.verify()
        assert {ri for ri, _ in w.cofactors} <= {0, 1}
