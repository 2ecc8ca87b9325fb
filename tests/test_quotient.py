import itertools
import json
import random
from fractions import Fraction

import pytest

from tautcalc.scalars import Scalar, zeta_prime_symbol
from tautcalc.graded import GeneratorSet, GradedPoly, monomial_sort_key
from tautcalc.quotient import (QuotientRing, ReductionError, RingPresentation)
from packed import normal_forms
from tautcalc.arakelov import AbelianTautRing, LagrangianArithRing
from tautcalc.classical import (audit_dump, dimension_report,
                                lagrangian_degree, tautological_presentation,
                                tautological_ring)
from tautcalc import verify


def u(ring_or_gens, name):
    gens = getattr(ring_or_gens, "gens", ring_or_gens)
    return GradedPoly.generator(gens, name)


def test_r2_basis_and_dimension():
    ring = tautological_ring(2)
    rep = dimension_report(ring)
    assert rep.total == 2
    assert ring.monomial_basis(0) == [(0, 0)]
    assert ring.monomial_basis(1) == [(1, 0)]
    assert ring.monomial_basis(2) == []
    assert rep.socle_degree == 1 and rep.socle_dim == 1


def test_r4_total_dimension():
    assert dimension_report(tautological_ring(4)).total == 8


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
    assert w.cofactors == {0: GradedPoly.constant(gens, 1),
                           1: GradedPoly.constant(gens, 2)}


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
    cof = w.cofactors
    assert reduce(cof[0]) == reduce(u1 * u1 * 2)
    assert reduce(cof[1]) == GradedPoly.constant(gens, 4)
    assert reduce(cof.get(2, GradedPoly.zero(gens))) == reduce(u1 * 8)


def test_membership_witness_zero_and_failure():
    ring = QuotientRing(tautological_presentation(3))
    w = ring.membership_witness(GradedPoly.zero(ring.gens))
    assert not w.cofactors and w.verify()
    u1 = u(ring, "u1")
    with pytest.raises(ReductionError):
        ring.membership_witness(u1)  # nonzero normal form
    with pytest.raises(ReductionError):
        tautological_ring(3).reduce_with_cofactors(u1)  # witness-free build


def test_dimension_reports():
    r3 = dimension_report(tautological_ring(3))
    assert r3.dims[:4] == [1, 1, 1, 1] and r3.total == 4
    assert r3.socle_degree == 3
    assert dimension_report(tautological_ring(5)).total == 16
    r2 = dimension_report(tautological_ring(2))
    assert r2.socle_degree == 1 and r2.socle_dim == 1


def test_dimensions_match_expected_through_11():
    for d in range(2, 12):
        rep = dimension_report(tautological_ring(d))
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
    ring = QuotientRing(tautological_presentation(4))
    u1 = u(ring, "u1")
    witnesses = verify.alternative_witnesses(ring, u1 ** 7)
    assert len(witnesses) >= 3
    seen = set()
    for w in witnesses:
        assert w.verify()
        seen.add(tuple(sorted((key, tuple(sorted(p.items())))
                              for key, p in w.cofactors.items())))
    assert len(seen) == len(witnesses)


def test_alternative_witnesses_reexpand_each_perturbation(monkeypatch):
    # A perturbation by something that is no syzygy changes the expansion,
    # so the witness it makes fails its re-expansion and is not returned.
    ring = QuotientRing(tautological_presentation(4))
    u1 = u(ring, "u1")
    monkeypatch.setattr(verify, "_koszul_syzygies",
                        lambda ring, degrees: iter([{0: u1 ** 5}]))
    with pytest.raises(ReductionError, match="re-expand"):
        verify.alternative_witnesses(ring, u1 ** 7)


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
    # a mixed relation is rejected; its homogeneous parts, passed as separate
    # relations, act independently
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    u1, u2 = u(gens, "u1"), u(gens, "u2")
    mixed = u1 * u1 - u2 * 2 + u2 * u2
    with pytest.raises(ValueError, match="homogeneous"):
        RingPresentation(gens, [mixed], 4)
    ring = QuotientRing(RingPresentation(
        gens, mixed.degree_components().values(), 4))
    assert ring.normal_form(u1 * u1) == u2 * 2
    assert ring.normal_form(u2 * u2).is_zero()
    w = ring.membership_witness(u2 * u2)
    assert w.verify()
    assert w.cofactors == {1: GradedPoly.constant(gens, 1)}
    both = ring.membership_witness(mixed)
    assert both.verify()
    assert set(both.cofactors) == {0, 1}


def test_rejects_irrational_relations():
    gens = GeneratorSet([("u1", 1)])
    bad = u(gens, "u1") * zeta_prime_symbol(1)
    with pytest.raises(ValueError):
        RingPresentation(gens, [bad], 2)


def test_presentation_rejects_negative_top_degree():
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    with pytest.raises(ValueError, match="top degree must be non-negative"):
        RingPresentation(gens, [], -1)
    # A non-int working degree was accepted and failed in dimension_report.
    for top in (2.5, 2.0, Fraction(3)):
        with pytest.raises(ValueError, match="top degree must be an int"):
            RingPresentation(gens, [], top)
    assert RingPresentation(gens, [], True).top_degree == 1
    # No generators: the degree check has no generator degree to compare, and
    # a constant relation has no generator to lead on.
    empty = GeneratorSet([])
    constant = RingPresentation(empty, [GradedPoly.constant(empty, 1)], 0)
    with pytest.raises(ValueError, match="relation 0 is not a power of one"):
        QuotientRing(constant)
    assert dimension_report(QuotientRing(RingPresentation(empty, [], 0))) == (
        [1], 1, 0, 1)


def raises_exactly(exc_type, message, fn, *args):
    with pytest.raises(exc_type) as exc:
        fn(*args)
    assert type(exc.value) is exc_type and str(exc.value) == message


def test_presentations_and_rings_reject_what_they_cannot_use():
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    other = GeneratorSet([("u1", 1), ("u3", 3)])
    u1 = u(gens, "u1")
    raises_exactly(ValueError, "zero relation", RingPresentation,
                   gens, [u1 * u1, GradedPoly.zero(gens)], 4)
    raises_exactly(ValueError, "relation over wrong generator set",
                   RingPresentation, gens, [u(other, "u1") ** 2], 4)
    raises_exactly(ValueError, "top degree below maximal generator degree",
                   RingPresentation, gens, [u1 ** 2], 1)
    plain = tautological_ring(3)
    raises_exactly(ReductionError, "ring built without witness tracking",
                   plain.kept_cofactors, ())
    raises_exactly(ReductionError, "ring built without witness tracking",
                   plain.reduce_with_cofactors, u(plain, "u1"))
    raises_exactly(ReductionError, "polynomial over wrong generator set",
                   plain.normal_form, u(other, "u1"))


def test_malformed_monomials_rejected_by_degree_and_normal_forms():
    ring = tautological_ring(3)
    # (1, 0, 0, 0, 5) was read as u1, (3, -1, 0) reduced to 2*u1, a 4-tuple
    # was kept in the normal-form table and (1,) raised IndexError.  The
    # table is keyed by packed monomials, and packing rejects each of them
    # before the ring is asked: the table is left as it was.
    kept = dict(ring.normal_forms([]))
    for mono in ((1, 0, 0, 0, 5), (1, 0, 0, 0), (3, -1, 0), (1,)):
        with pytest.raises(ValueError, match="monomial"):
            ring.gens.degree_of(mono)
        with pytest.raises(ValueError, match="monomial"):
            ring.gens.pack(mono)
        with pytest.raises(ValueError, match="monomial"):
            normal_forms(ring, [mono])
        assert ring.normal_forms([]) == kept
    assert ring.gens.degree_of((1, 0, 1)) == 4
    assert normal_forms(ring, [(3, 0, 0)])[(3, 0, 0)] == (((1, 1, 0), 2),)


def test_audit_dump_serializable():
    ring = tautological_ring(3)
    dump = audit_dump(ring)
    text = json.dumps(dump)
    doc = json.loads(text)
    assert doc["top_degree"] == 4
    degree2 = doc["degrees"][2]
    assert degree2["basis"] == ["u2"]
    assert "u1^2" in degree2["reduction_rows"]


def test_audit_dump_divides_each_degree_in_one_pass():
    # Each degree's monomials are divided together, smallest first, so each
    # division reuses the normal forms of the smaller monomials: 2,735
    # steps here.
    ring = tautological_ring(7)
    dump = audit_dump(ring)
    assert ring.division_steps <= 3000
    # The basis, the monomials that are their own normal form, is the
    # staircase of the leads; every other monomial has a row.
    for k, degree in enumerate(dump["degrees"]):
        assert degree["basis"] == [GradedPoly.monomial(ring.gens, m).render()
                                   for m in ring.monomial_basis(k)]
        rows = degree["reduction_rows"]
        assert set(degree["basis"]).isdisjoint(rows)
        assert sorted([*degree["basis"], *rows]) == sorted(degree["monomials"])


def test_rejects_shared_lead_variables():
    gens = GeneratorSet([("u1", 1), ("u2", 2)])
    u1, u2 = u(gens, "u1"), u(gens, "u2")
    # leads u1^2 and u1^3 share u1: not a Groebner basis by the first criterion
    with pytest.raises(ValueError, match="coprime"):
        QuotientRing(RingPresentation(gens, [u1 * u1 - u2 * 2,
                                             u1 ** 3 - u1 * u2], 4))
    # a monomial does not escape the check when the other relation is not one
    with pytest.raises(ValueError, match="coprime"):
        QuotientRing(RingPresentation(gens, [u1 * u1 - u2 * 2, u1 ** 3], 4))
    # two monomials leading on one generator have S-polynomial 0
    ring = QuotientRing(RingPresentation(gens, [u1 ** 3, u1 * u1], 4))
    assert ring.monomial_basis(3) == [(1, 1)]
    assert ring.monomial_basis(4) == [(0, 2)]
    # a lead in two generators is not a power of one, even for a monomial
    for relations in ([u1 * u1, u1 * u2], [u1 * u1 * u2 - u2 * u2]):
        with pytest.raises(ValueError, match="is not a power of one generator"):
            QuotientRing(RingPresentation(gens, relations, 4))


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
        for ring in (AbelianTautRing(d), LagrangianArithRing(d, "formal")):
            assert_squarefree_basis(ring.zq, d - 1)
            assert_squarefree_basis(ring.aq, d - 1)


def test_rejects_constant_relation():
    gens = GeneratorSet([("u1", 1), ("u2", 2), ("u3", 3)])
    presentation = RingPresentation(
        gens, [u(gens, "u1") ** 2, GradedPoly.constant(gens, -1)], 6)
    with pytest.raises(ValueError, match="relation 1 is not a power of one"):
        QuotientRing(presentation)


def test_rule_order_picks_first_relation_whose_lead_divides():
    # In the abelian z-ring at d = 5, relation 4 is p_5 = C5^2 and relation
    # 5 is C5: both lead on C5, and C5^2 is divided by the first of them.
    zq = AbelianTautRing(5).zq
    C1, C5 = u(zq, "C1"), u(zq, "C5")
    assert zq.presentation.relations[4] == C5 * C5
    assert zq.presentation.relations[5] == C5
    assert zq.membership_witness(C5 * C5).cofactors == {4: 1}
    assert zq.membership_witness(C1 * C5).cofactors == {5: C1}


def test_cofactors_are_kept_before_the_normal_form():
    # A thread that shares the ring and finds a normal form kept must find
    # its cofactors kept too: every store into _nf comes after the one into
    # _cof.
    ring = AbelianTautRing(4)
    zq = ring.zq
    stored = []

    class CofactorsFirst(dict):
        def __setitem__(self, mono, nf):
            assert mono in zq._cof, "normal form kept before its cofactors"
            stored.append(mono)
            super().__setitem__(mono, nf)

    zq._nf = CofactorsFirst(zq._nf)
    c1 = GradedPoly.generator(zq.gens, "C1")
    nf, cof = zq.reduce_with_cofactors(c1 ** 7)
    assert stored and cof
    assert nf + sum((c * zq.presentation.relations[ri] for ri, c in cof.items()),
                    GradedPoly.zero(zq.gens)) == c1 ** 7


def test_reduction_does_not_depend_on_query_order():
    ring = QuotientRing(tautological_presentation(5))
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
    fresh = QuotientRing(tautological_presentation(5))
    backward = [fresh.reduce_with_cofactors(p) for p in reversed(polys)]
    assert forward == backward[::-1]
    for p, (nf, cof) in zip(polys, forward):
        expanded = nf
        for ri, c in cof.items():
            expanded = expanded + c * ring.presentation.relations[ri]
        assert expanded == p
