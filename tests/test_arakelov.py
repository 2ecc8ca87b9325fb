import json
import random
from fractions import Fraction

import pytest

from tautcalc.scalars import (LOG2, Scalar, ZERO, harmonic, harmonic_symbol,
                              zeta_negative_odd, zeta_prime_symbol)
from tautcalc.graded import GradedPoly
from tautcalc.quotient import QuotientRing
from tautcalc.charclasses import ClassVector, ch_from_c, pontrjagin_from_c
from tautcalc import propmap
from tautcalc.arakelov import (AbelianTautRing, ArithClass,
                               LagrangianArithRing, arithmetic_dimension,
                               c1_critical_power, harmonic_substitution,
                               height_polynomial, lagrangian_degree)
from tautcalc.series import ch_even_check
from tautcalc.propmap import (MapCertificate, _MapSolver,
                              _solve_rational_system, condition_pairing,
                              proportionality_map_check,
                              verify_map_certificate)

Z1, Z3, Z5 = (zeta_prime_symbol(k) for k in (1, 2, 3))


def gen(ring, name, kind="a"):
    gens = ring.agens if kind == "a" else ring.zgens
    return GradedPoly.generator(gens, name)


def c1_power_class(ring, exponent):
    mono = ring.zgens.single("C1", exponent)
    return ring.from_z(GradedPoly.monomial(ring.zgens, mono))


def test_d1_top_class_is_gamma():
    result = c1_critical_power(1)
    ring = result.reduced.ring
    assert result.reduced.z.is_zero()
    assert result.reduced.a.is_zero()
    assert result.reduced.g == GradedPoly.constant(ring.agens, 1)
    assert result.r == ZERO
    assert result.phi == GradedPoly.constant(ring.agens, 1)


def test_d2_square_of_first_class():
    ring = AbelianTautRing(2)
    reduced = ring.reduce(ring.lifted(1) * ring.lifted(1))
    expected_a = gen(ring, "u1") * (Z1 * 24 - 1 + LOG2 * Fraction(8, 3))
    assert reduced.z.is_zero()
    assert reduced.a == expected_a
    assert reduced.g == GradedPoly.constant(ring.agens, 2)


def test_d3_fourth_power():
    ring = AbelianTautRing(3)
    reduced = ring.reduce(c1_power_class(ring, 4))
    # c1^3 = 2 c1 c2 in the squarefree basis, so the stated coefficient of
    # c1^3 appears doubled on the basis monomial u1 u2.
    coeff = (Scalar.from_rational(Fraction(-17, 3)) + LOG2 * Fraction(48, 5)
             + Z1 * 48 - Z3 * 480)
    u1u2 = GradedPoly.monomial(ring.agens, (1, 1, 0))
    assert reduced.a == u1u2 * (coeff * 2)
    assert reduced.g == gen(ring, "u1") * 8


def test_d4_critical_power_values():
    result = c1_critical_power(4)
    ring = result.reduced.ring
    assert result.r == (Scalar.from_rational(Fraction(-1063, 60))
                        + LOG2 * Fraction(1520, 63)
                        + Z1 * 96 - Z3 * 600 + Z5 * 2016)
    u1, u2, u3 = (gen(ring, f"u{j}") for j in (1, 2, 3))
    assert result.phi == u1 * u2 * 112 - u3 * 64
    assert result.socle_coordinate == lagrangian_degree(4)
    # the raw witness gamma cofactor reduces to the same form
    assert ring.aq.normal_form(result.phi_raw.truncate(3)) == result.phi


# r_7 as computed by the degreewise-elimination quotient that division by a
# Groebner basis replaced: the old path is the oracle for the new one.
R7_ELIMINATION = (
    "-759532303/5290740 + 1322387679848/9061714935*log2 + 6072/13*zeta'(-1)"
    " - 15360/13*zeta'(-3) + 710640/221*zeta'(-5) - 17520480/4199*zeta'(-7)"
    " + 12719520/4199*zeta'(-9) - 318890880/223193*zeta'(-11)")


# r_10 where c1-power and the height route agree and the socle coordinate
# is lagrangian_degree(10), with working degree arithmetic_dimension(10).
R10_TWO_ROUTES = (
    "-29700810208831/58133475400"
    " + 2107928039048647956872/4647659902484897025*log2 + 25944/19*zeta'(-1)"
    " - 684480/323*zeta'(-3) + 1537200/323*zeta'(-5) - 1891680/323*zeta'(-7)"
    " + 6597888/1615*zeta'(-9) - 11720724288/6472597*zeta'(-11)"
    " + 806600368/1451885*zeta'(-13) - 7772636096/61781977*zeta'(-15)"
    " + 878828832/39436433*zeta'(-17)")

# r_11, pinned the same way as r_10.
R11_TWO_ROUTES = (
    "-918682002559271/1289317436550"
    " + 7060723056875821427816917792/11526526128054010302046125*log2"
    " + 1824*zeta'(-1) - 1106880/437*zeta'(-3) + 8616384/1615*zeta'(-5)"
    " - 47979904/7429*zeta'(-7) + 4816587776/1077205*zeta'(-9)"
    " - 9083468913792/4614961661*zeta'(-11) + 1175349056/1964315*zeta'(-13)"
    " - 189722041088/1420985471*zeta'(-15) + 4525540992/197182165*zeta'(-17)"
    " - 11502191360/3610431647*zeta'(-19)")


def test_d7_critical_power_two_routes():
    result = c1_critical_power(7)
    assert result.r.render() == R7_ELIMINATION
    assert height_polynomial(7).substituted == result.r
    assert result.socle_coordinate == lagrangian_degree(7)
    ring = result.reduced.ring
    assert ring.aq.normal_form(
        result.phi_raw.truncate(ring.cap - ring.gamma_degree)) == result.phi


def abelian_coefficient(k):
    """(-1)^k (2 Z(2k-1)/zeta(1-2k) + H(2k-1) - 2 log2/(1-4^-k))."""
    bracket = (zeta_prime_symbol(k) * (Fraction(2) / zeta_negative_odd(k))
               + harmonic(2 * k - 1) - LOG2 * 2 / (1 - Fraction(1, 4**k)))
    return bracket * (-1) ** k


def lagrangian_coefficient(k):
    return harmonic_symbol(k) * (-1) ** (k + 1)


def assert_relations_from_odd_sums(ring, coefficient):
    """ring.odd_sums[k] is the form normal form of the free-ring power sum
    s_{2k-1}(u), and p_k(C) rewrites to a(coefficient(k) * odd_sums[k])."""
    top_k = min(len(ring.agens), ring.cap // 2)
    assert sorted(ring.odd_sums) == list(range(1, top_k + 1))
    free = ch_from_c(ClassVector.standard(ring.agens, list(ring.agens.names)),
                     2 * top_k - 1)
    pontrjagin = pontrjagin_from_c(
        ClassVector.standard(ring.zgens, list(ring.zgens.names)), top_k)
    for k in range(1, top_k + 1):
        assert ring.odd_sums[k] == ring.aq.normal_form(
            free[2 * k - 2].truncate(ring.cap - 1)), (ring.d, k)
        rel = ring.relations[k - 1]
        assert rel.zpoly == pontrjagin[k - 1]
        assert rel.apart == ring.odd_sums[k] * coefficient(k), (ring.d, k)
        assert rel.gpart.is_zero()
        assert ring.rho[k] == rel.apart
    gamma = ring.relations[top_k:]
    if ring.gamma_degree is None:
        assert gamma == []
    else:
        (rel,) = gamma
        assert rel.zpoly == gen(ring, f"C{ring.d}", "z")
        assert rel.apart.is_zero()
        assert rel.gpart == GradedPoly.constant(ring.agens, 1)


def test_relations_from_odd_power_sums():
    for d in range(2, 8):
        assert_relations_from_odd_sums(AbelianTautRing(d), abelian_coefficient)
        assert_relations_from_odd_sums(LagrangianArithRing(d),
                                       lagrangian_coefficient)


def test_critical_power_two_routes_d8_d11():
    pinned = {10: R10_TWO_ROUTES, 11: R11_TWO_ROUTES}
    for d in (8, 9, 10, 11):
        abelian = AbelianTautRing(d)
        lagrangian = LagrangianArithRing(d, "formal")
        assert_relations_from_odd_sums(abelian, abelian_coefficient)
        assert_relations_from_odd_sums(lagrangian, lagrangian_coefficient)
        result = c1_critical_power(d, abelian)
        height = height_polynomial(d, lagrangian)
        assert result.r == height.substituted, d
        assert result.socle_coordinate == lagrangian_degree(d)
        assert height.socle_coordinate == lagrangian_degree(d)
        if d in pinned:
            assert result.r.render() == pinned[d]


def test_critical_power_division_steps():
    # The form side divides the product monomials of every step image once,
    # smallest first, so each larger division reuses the smaller ones.  The
    # counts are those of dividing the expanded form part in one pass.
    for d, (aq_steps, zq_steps) in {8: (740, 383), 9: (1779, 1068)}.items():
        ring = AbelianTautRing(d)
        c1_critical_power(d, ring)
        assert (ring.aq.division_steps, ring.zq.division_steps) == (aq_steps, zq_steps)


def test_critical_power_one_degree_at_a_time():
    # A third route for r_d: multiply by C1 and reduce, one degree at a
    # time.  It never divides C1^(1 + d(d-1)/2) with cofactors, so agreeing
    # with c1_critical_power checks that reduce is a homomorphism up to the
    # critical degree.
    for d in range(2, 11):
        ring = AbelianTautRing(d)
        c1 = ring.lifted(1)
        x = c1
        for _ in range(d * (d - 1) // 2):
            x = ring.reduce(x * c1)
        assert x == c1_critical_power(d, ring).reduced, d


def test_d4_intermediate_witness_combination():
    ring = AbelianTautRing(4)
    result = c1_critical_power(4, ring)
    u1, u2, u3 = (gen(ring, f"u{j}") for j in (1, 2, 3))
    combo = ((u2 * u3 * 64) * ring.rho[1]
             + (u1 * u2 * 8 + u3 * 32) * ring.rho[2]
             + (u1 * 64) * ring.rho[3])
    assert ring.aq.normal_form(combo.truncate(6)) == result.reduced.a


def test_rho_values_and_linearity():
    ring = AbelianTautRing(3)
    assert ring.rho[1] == gen(ring, "u1") * (Z1 * 24 - 1 + LOG2 * Fraction(8, 3))
    for k, rho in ring.rho.items():
        assert rho.symbol_degree() <= 1
        expected = {f"Z{2 * k - 1}", "L"}
        symbols = set()
        for _, coeff in rho.items():
            symbols |= coeff.symbols()
        assert symbols <= expected


def test_square_zero_ideal():
    ring = AbelianTautRing(4)
    x = ring.from_a(gen(ring, "u1") * 3 + gen(ring, "u2"))
    y = ring.from_a(gen(ring, "u2") * 5)
    assert (x * y).is_zero()
    assert (ring.from_gamma(1) * x).is_zero()


def test_pontrjagin_products_vanish():
    from tautcalc.charclasses import ClassVector, pontrjagin_from_c
    ring = AbelianTautRing(4)
    classes = ClassVector.standard(ring.zgens, list(ring.zgens.names))
    p = pontrjagin_from_c(classes, 3)
    for i in range(3):
        for j in range(3):
            if p[i].max_degree() + p[j].max_degree() > ring.cap:
                continue
            prod = ring.reduce(ring.from_z(
                p[i].mul_truncated(p[j], ring.cap)))
            assert prod.is_zero(), (i, j)


def test_reduce_idempotent_and_homomorphic():
    ring = AbelianTautRing(3)
    rng = random.Random(17)
    zgens, agens = ring.zgens, ring.agens

    def rand_class():
        z = GradedPoly.zero(zgens)
        for _ in range(3):
            mono = tuple(rng.randrange(3) for _ in range(len(zgens)))
            if zgens.degree_of(mono) <= ring.cap:
                z = z + GradedPoly.monomial(zgens, mono, rng.randrange(-3, 4))
        a = GradedPoly.zero(agens)
        for _ in range(2):
            mono = tuple(rng.randrange(2) for _ in range(len(agens)))
            if agens.degree_of(mono) <= ring.cap - 1:
                a = a + GradedPoly.monomial(agens, mono, rng.randrange(-3, 4))
        return ArithClass(ring, z, a, GradedPoly.zero(agens))

    for _ in range(25):
        x, y = rand_class(), rand_class()
        rx = ring.reduce(x)
        assert ring.reduce(rx) == rx
        assert ring.reduce(x + y) == ring.reduce(x) + ring.reduce(y)
        assert ring.reduce(x * y) == ring.reduce(ring.reduce(x) * ring.reduce(y))


def test_lagrangian_d2_relations():
    formal = LagrangianArithRing(2, "formal")
    reduced = formal.reduce(c1_power_class(formal, 2))
    assert reduced.a == gen(formal, "u1") * harmonic_symbol(1)


def test_lagrangian_odd_components_vanish():
    # the dual square c(t)c(-t) - 1 has no odd-degree components: it is
    # sum_k (-1)^k p_k, each p_k nonzero and homogeneous of degree 2k
    for d in (3, 4, 5):
        ring = LagrangianArithRing(d, "formal")
        zc = ClassVector.standard(ring.zgens, ring.zgens.names)
        pontrjagin = pontrjagin_from_c(zc)
        square = zc.total() * zc.dual().total() - 1
        assert square == sum((p * (-1) ** k for k, p in enumerate(pontrjagin, 1)),
                             GradedPoly.zero(ring.zgens))
        for k, p in enumerate(pontrjagin, 1):
            assert p.is_homogeneous() and p.max_degree() == 2 * k


@pytest.mark.parametrize("cls, ds", [(AbelianTautRing, range(1, 9)),
                                     (LagrangianArithRing, range(2, 9))])
def test_form_relations_are_the_lifted_ones_with_the_lift_forgotten(cls, ds):
    for d in ds:
        ring = cls(d)
        lifted = ring.zq.presentation.relations
        assert ring.aq.presentation.relations == tuple(map(ring.omega, lifted))


def test_lagrangian_rejects_small_d_and_bad_mode():
    with pytest.raises(ValueError):
        LagrangianArithRing(1)
    for mode in ("numeric", "exact"):
        with pytest.raises(ValueError):
            LagrangianArithRing(3, mode)


def test_height_polynomial_d2():
    result = height_polynomial(2)
    assert result.height == harmonic_symbol(1)
    assert result.substituted == Z1 * 24 - 1 + LOG2 * Fraction(8, 3)


def test_height_polynomial_matches_abelian_route():
    for d in (2, 3, 4):
        hp = height_polynomial(d)
        rd = c1_critical_power(d)
        assert hp.substituted == rd.r, d


def test_height_polynomial_sum_identities():
    # With N = d(d-1)/2, the height polynomial sum_k beta_k h(2k-1) takes
    # the value (d-1)(N+1)/2 at h(m) = 1: a derivation D with D(p_k) = rho_k
    # at h = 1 splits the square-zero extension, and C1^(N+1) goes to
    # (N+1) u1^N D(C1) with D(C1) = (d-1)/2.  At h(m) = m it takes d-1
    # times that, which is observed, not proved.
    for d in range(2, 11):
        height = height_polynomial(d).height
        names = [f"h{2 * k - 1}" for k in range(1, d)]
        assert height.symbols() == set(names), d
        expected = Fraction((d - 1) * (d * (d - 1) // 2 + 1), 2)
        at_one = height.substitute({h: Scalar.coerce(1) for h in names})
        at_m = height.substitute({h: Scalar.coerce(int(h[1:])) for h in names})
        assert at_one == Scalar.from_rational(expected), d
        assert at_m == Scalar.from_rational((d - 1) * expected), d


def test_harmonic_substitution_values():
    bindings = harmonic_substitution(2)
    assert bindings["h1"] == Z1 * 24 - 1 + LOG2 * Fraction(8, 3)


def test_formula_outputs_linear_in_constants():
    for d in (2, 3, 4):
        res = c1_critical_power(d)
        assert res.r.symbol_degree() <= 1
        assert res.reduced.symbol_degree() <= 1
        hp = height_polynomial(d)
        assert hp.height.symbol_degree() <= 1
        assert hp.substituted.symbol_degree() <= 1


def test_critical_power_shape_reported():
    for d in (2, 3, 4, 5, 6):
        res = c1_critical_power(d)
        expected_phi_degree = (d - 1) * (d - 2) // 2
        if not res.phi.is_zero():
            assert res.phi.max_degree() == expected_phi_degree
        assert res.reduced.z.is_zero()
        # integrality of phi is reported, not asserted, beyond d = 4
        if d <= 4:
            for _, coeff in res.phi.items():
                assert coeff.rational_part().denominator == 1


def test_proportionality_map_small_d():
    for d in (2, 3):
        rep = proportionality_map_check(d)
        assert rep.ok, d
        assert rep.form_unit == Scalar.coerce(1)
    rep2 = proportionality_map_check(2)
    image = rep2.generator_images[1]
    ring = image.ring
    assert image.z == gen(ring, "C1", "z") * Fraction(-1)
    assert image.a == GradedPoly.constant(ring.agens,
                                          Z1 * 12 + LOG2 * Fraction(4, 3))


def test_proportionality_map_builds_no_ring_beyond_the_abelian_one(monkeypatch):
    # The source relations are written in the abelian ring it is handed.
    built = []
    init = QuotientRing.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuotientRing, "__init__", counted_init)
    for d in range(2, 7):
        ring = AbelianTautRing(d)
        built.clear()
        proportionality_map_check(d, ring)
        assert built == [], d


def test_proportionality_map_d4_needs_scaled_unit():
    rep = proportionality_map_check(4)
    assert rep.ok
    assert rep.form_unit != Scalar.coerce(1)
    assert rep.form_unit.symbol_degree() == 1


def test_proportionality_map_d5_obstruction_reported():
    # No compatible map exists in this model at d = 5; the operation reports
    # the failure instead of raising.  See the README for the analysis.
    ring = AbelianTautRing(5)
    rep = proportionality_map_check(5, ring)
    assert not rep.constructed
    assert "inconsistent" in rep.diagnosis
    assert any(not res.is_zero() for _, res in rep.relation_residues)
    cert = rep.certificate
    assert verify_map_certificate(cert, ring)
    assert list(cert.y.values()) == [Fraction(-1), Fraction(-102, 161),
                                     Fraction(-16, 161), Fraction(1)]
    # The harmonic part does not obstruct: only log2 and zeta' do.
    assert cert.value.rational_part() == 0
    assert cert.value.symbols() == {"L", "Z1", "Z3", "Z5", "Z7"}
    for label in cert.y:
        altered = dict(cert.y)
        altered[label] += 1
        assert not verify_map_certificate(MapCertificate(5, altered, cert.value),
                                          ring)
    assert not verify_map_certificate(MapCertificate(5, cert.y, -cert.value),
                                      ring)
    for d in (2, 3, 4):
        assert proportionality_map_check(d).certificate is None

    # At d = 6 the left null space of the 9 x 5 system has dimension 4 and
    # holds a vector from an all-zero row whose pairing with b is 0; the
    # certificate must be one whose pairing is not.
    ring6 = AbelianTautRing(6)
    rep6 = proportionality_map_check(6, ring6)
    assert not rep6.constructed and "inconsistent" in rep6.diagnosis
    cert6 = rep6.certificate
    assert len(cert6.y) == 9
    assert cert6.value != 0
    assert verify_map_certificate(cert6, ring6)
    trivial = [label for label in cert6.y
               if condition_pairing({label: Fraction(1)}, ring6) == 0]
    assert trivial
    assert all(cert6.y[label] == 0 for label in trivial)


def test_proportionality_map_needs_working_degree():
    # The ring of d = 4 has working degree 7, below d = 5's 11: the map of
    # d = 5 is computed only in the ring of d = 5.
    with pytest.raises(ValueError, match="AbelianTautRing"):
        proportionality_map_check(5, AbelianTautRing(4))


def test_map_solver_rejects_symbolic_matrix(monkeypatch):
    # A certificate is a proof only over a rational matrix, so a symbol in
    # a matrix entry must raise rather than be dropped.
    harmonic_rhs = _MapSolver._harmonic_rhs
    monkeypatch.setattr(_MapSolver, "_harmonic_rhs",
                        lambda self, degree, e0:
                        harmonic_rhs(self, degree, e0 * LOG2))
    with pytest.raises(ValueError, match="not rational"):
        proportionality_map_check(3)


def test_certificate_rejected_when_build_skips_an_unknown(monkeypatch):
    # A certificate proves nothing about the map unless the conditions it
    # pairs with consume every unknown of the map's shape.
    ring = AbelianTautRing(5)
    cert = proportionality_map_check(5, ring).certificate
    assert verify_map_certificate(cert, ring)
    skipped = _MapSolver(ring).unknowns.index((1, ring.aq.monomial_basis(0)[0]))
    build = _MapSolver._build
    monkeypatch.setattr(_MapSolver, "_build", lambda self, x: build(
        self, [ZERO if j == skipped else v for j, v in enumerate(x)]))
    assert condition_pairing(cert.y, ring) is None
    assert not verify_map_certificate(cert, ring)


def test_certificate_rejected_below_the_working_degree():
    # The d = 5 certificate does not verify in the ring of d = 4, whose
    # working degree is 7, and checking it there does not raise.
    cert = proportionality_map_check(5).certificate
    assert not verify_map_certificate(cert, AbelianTautRing(4))


def test_rational_system_certificate():
    # x0 + x1 = 1, x0 - x1 = L, 2 x0 = 0 is inconsistent; y is a Fredholm
    # certificate: yᵀA = 0 and yᵀb != 0.
    rows = [({0: Fraction(1), 1: Fraction(1)}, Scalar.coerce(1)),
            ({0: Fraction(1), 1: Fraction(-1)}, LOG2),
            ({0: Fraction(2)}, ZERO)]
    solution, y = _solve_rational_system(rows, [ZERO, ZERO])
    assert solution is None
    for col in range(2):
        assert sum(w * entries.get(col, 0)
                   for w, (entries, _) in zip(y, rows)) == 0
    assert sum((rhs * w for w, (_, rhs) in zip(y, rows)), ZERO) != 0
    solution, y = _solve_rational_system(rows[:2], [ZERO, ZERO])
    assert y is None
    assert solution == [(LOG2 + 1) * Fraction(1, 2), (1 - LOG2) * Fraction(1, 2)]
    # The last variable plays e0, started at 1: while it is free it keeps
    # its start value, and once a row pins it, it takes the forced value.
    one = Scalar.coerce(1)
    free = [({0: Fraction(1), 1: Fraction(2)}, LOG2)]
    assert _solve_rational_system(free, [ZERO, one]) == ([LOG2 - 2, one], None)
    forced = free + [({1: Fraction(3)}, Scalar.coerce(6))]
    assert _solve_rational_system(forced, [ZERO, one]) == ([LOG2 - 4, 2], None)


def test_symbolic_linearize_matches_unit_probes():
    # The route the symbolic build replaced is the oracle: c(0) is the
    # conditions at the zero vector, and column j of M is their change at
    # the j-th unit vector.
    for d in range(2, 9):
        solver = _MapSolver(AbelianTautRing(d))
        n = len(solver.unknowns)
        _, _, system = solver.linearize()
        assert list(system) == solver.rows

        def probe(j):
            x = [ZERO] * n
            if j is not None:
                x[j] = Scalar.coerce(1)
            return dict(solver._build(x)[1])

        base = probe(None)
        probes = [probe(j) for j in range(n)]
        for degree, mono in solver.rows:
            c0 = base[degree].a.coefficient(mono)
            column = {j: probes[j][degree].a.coefficient(mono) - c0
                      for j in range(n)}
            assert all(v.is_rational() for v in column.values()), d
            entries, constant = system[(degree, mono)]
            assert constant == c0, (d, degree, mono)
            assert entries == {j: v.rational_part()
                               for j, v in column.items() if v}, (d, degree, mono)


def test_solve_builds_twice_and_eliminates_once(monkeypatch):
    calls = []
    build = _MapSolver._build
    monkeypatch.setattr(_MapSolver, "_build",
                        lambda self, x: calls.append("build") or build(self, x))
    monkeypatch.setattr(propmap, "_solve_rational_system",
                        lambda rows, start: calls.append("solve")
                        or _solve_rational_system(rows, start))
    solved, _, _ = _MapSolver(AbelianTautRing(4)).solve()
    assert solved is not None
    assert calls == ["build", "solve", "build"]
    # An inconsistent system stops after the elimination.
    calls.clear()
    solved, _, certificate = _MapSolver(AbelianTautRing(5)).solve()
    assert solved is None and certificate is not None
    assert calls == ["build", "solve"]


def test_map_report_has_no_unknown_symbols():
    # The formal unknowns of the symbolic build must not reach a report.
    def leaks(value):
        return any(name[0] == "x" for name in Scalar.coerce(value).symbols())

    def class_leaks(cls):
        return any(leaks(c) for poly in (cls.z, cls.a, cls.g)
                   for _, c in poly.items())

    for d in range(2, 9):
        rep = proportionality_map_check(d)
        assert not any(class_leaks(image)
                       for image in rep.generator_images.values()), d
        assert not any(class_leaks(res) for _, res in rep.relation_residues), d
        if rep.form_unit is not None:
            assert not leaks(rep.form_unit), d
        if rep.certificate is not None:
            assert not leaks(rep.certificate.value), d


def test_ch_even_small_d():
    for d in (1, 2, 3, 4):
        rep = ch_even_check(d)
        assert rep.ok, d


def test_ch_even_d2_coefficient():
    # degree-2 part: (1/2) rho_1 = (12 Z1 - 1/2 + 4/3 L) u1
    ring = AbelianTautRing(2)
    s2 = ring.z_power_sums(2)[1]
    reduced = ring.reduce(ring.from_z(s2 * Fraction(1, 2)))
    expected = gen(ring, "u1") * (Z1 * 12 - Fraction(1, 2) + LOG2 * Fraction(4, 3))
    assert reduced.z.is_zero() and reduced.g.is_zero()
    assert reduced.a == expected
    assert reduced.a == ring.rho[1] * Fraction(1, 2)


def test_witness_independence_variants():
    for d in (4, 5):
        ring = AbelianTautRing(d)
        top = d * (d - 1) // 2
        variants = ring.reduce_variants(c1_power_class(ring, top + 1))
        assert len(variants) >= 3
        assert all(v.a == variants[0].a and v.g == variants[0].g
                   for v in variants)


def test_arith_class_json_round_trip():
    ring = AbelianTautRing(3)
    reduced = ring.reduce(c1_power_class(ring, 4))
    doc = json.loads(json.dumps(reduced.to_json()))
    assert doc == {"zpart": {"terms": []}, "apart": reduced.a.to_json(),
                   "gamma_part": reduced.g.to_json()}


def test_arith_class_value_semantics():
    ring = AbelianTautRing(3)
    x = ring.lifted(1) + ring.from_a(gen(ring, "u1"))
    y = ring.lifted(2) + ring.from_gamma()
    assert x * y == y * x
    assert hash(x * y) == hash(y * x)
    assert len({x * y, y * x, x * y * 1}) == 1
    # classes of two rings differ even with equal parts
    other = AbelianTautRing(3)
    assert other.lifted(1) != ring.lifted(1)


def test_render_display_style():
    ring = AbelianTautRing(2)
    reduced = ring.reduce(ring.lifted(1) * ring.lifted(1))
    assert reduced.render() == "a((-1 + 8/3*log2 + 24*zeta'(-1))*c1 + 2*g)"
    latex = reduced.render(latex=True)
    assert "\\gamma" in latex and "\\zeta'(-1)" in latex


def test_builder_ranges():
    with pytest.raises(ValueError):
        AbelianTautRing(0)
    # the working degree is the arithmetic dimension at every d
    assert AbelianTautRing(8).cap == 29
    for d in range(2, 8):
        assert (AbelianTautRing(d).cap == LagrangianArithRing(d).cap
                == arithmetic_dimension(d))
    # d alone fixes a ring: neither constructor takes a working degree
    with pytest.raises(TypeError):
        AbelianTautRing(3, cap=3)
    with pytest.raises(TypeError):
        LagrangianArithRing(3, "formal", 3)


@pytest.mark.parametrize("call", [
    lambda: height_polynomial(5, LagrangianArithRing(4, "formal")),
    lambda: height_polynomial(4, AbelianTautRing(4)),
    lambda: c1_critical_power(4, LagrangianArithRing(4, "formal")),
    lambda: c1_critical_power(2, AbelianTautRing(1)),
    lambda: ch_even_check(5, AbelianTautRing(3)),
    lambda: proportionality_map_check(4, AbelianTautRing(3)),
], ids=["height-other-d", "height-abelian",
        "critical-lagrangian", "critical-other-d", "ch-even-other-d",
        "map-other-d"])
def test_quantity_rejects_a_ring_it_is_not_defined_in(call):
    # Each of these answered, before the ring check, for the ring it was
    # handed under the caller's d (or raised KeyError).
    with pytest.raises(ValueError, match="needs"):
        call()


def test_quantities_accept_the_rings_of_their_d():
    r6 = c1_critical_power(6).r
    assert c1_critical_power(6, AbelianTautRing(6)).r == r6 != 0
    assert (height_polynomial(6, LagrangianArithRing(6, "formal")).substituted
            == r6)
    # The second argument's default is the one value it accepts.
    assert (height_polynomial(4, LagrangianArithRing(4)).height
            == height_polynomial(4).height)


def test_gamma_only_in_abelian():
    lag = LagrangianArithRing(3)
    with pytest.raises(ValueError):
        lag.from_gamma(1)


def test_ring_without_gamma_rejects_a_gamma_part_where_the_class_is_made():
    # Such a part cannot be reduced, and a product would drop it without
    # an error, so reduce would be no homomorphism: the constructor
    # rejects it.
    ring = LagrangianArithRing(3, "formal")
    c1, zero = gen(ring, "C1", "z"), GradedPoly.zero(ring.agens)
    one = GradedPoly.constant(ring.agens, 1)
    with pytest.raises(ValueError, match="gamma"):
        ArithClass(ring, c1, zero, one)
    # Nor can a gamma part be set in place: a class is immutable.
    x = ring.lifted(1)
    with pytest.raises(AttributeError):
        x.g = one
    for part in ("ring", "z", "a", "g"):
        with pytest.raises(AttributeError):
            setattr(x, part, getattr(x, part))
        with pytest.raises(AttributeError):
            delattr(x, part)
    assert x == ring.lifted(1) and x.g.is_zero()
    # The abelian ring keeps its gamma part through products and reduce.
    ring = AbelianTautRing(3)
    x = ArithClass(ring, gen(ring, "C1", "z"), GradedPoly.zero(ring.agens),
                   GradedPoly.constant(ring.agens, 1))
    y = ring.lifted(1)
    assert (x * y).g == gen(ring, "u1")
    assert ring.reduce(x * y) == ring.reduce(ring.reduce(x) * ring.reduce(y))
    assert ring.reduce(x * y).g == gen(ring, "u1")


def test_class_rejects_a_part_over_the_wrong_generator_set():
    # A lifted polynomial must not be read as a form, nor a form as a
    # lifted polynomial.
    for ring in (AbelianTautRing(3), LagrangianArithRing(3)):
        c1, u1 = gen(ring, "C1", "z"), gen(ring, "u1")
        zero_z, zero_a = GradedPoly.zero(ring.zgens), GradedPoly.zero(ring.agens)
        for parts in ((zero_z, c1, zero_a), (u1, zero_a, zero_a),
                      (zero_z, zero_a, c1), (zero_a, zero_a, zero_a)):
            with pytest.raises(ValueError, match="generator set"):
                ArithClass(ring, *parts)
        other = AbelianTautRing(4)
        with pytest.raises(ValueError, match="generator set"):
            ArithClass(ring, zero_z, gen(other, "u1"), zero_a)
        assert ArithClass(ring, c1, u1, zero_a) == ring.lifted(1) + ring.from_a(u1)
