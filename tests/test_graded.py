import itertools
import random
from fractions import Fraction

import pytest

from tautcalc.scalars import Scalar
from tautcalc.graded import (EXPONENT_LIMIT, GeneratorSet, GradedPoly,
                             monomial_sort_key, monomials_of_degree,
                             sum_of_products)
from tautcalc.quotient import RingPresentation
from tautcalc.arakelov import AbelianTautRing, c1_critical_power


def gens_u(d):
    return GeneratorSet([(f"u{j}", j) for j in range(1, d + 1)])


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet([("a", 0)])
    with pytest.raises(ValueError):
        GeneratorSet([("a", 1), ("a", 2)])
    # A non-int degree was accepted and failed at the first pack.
    for degree in (1.5, 2.0, Fraction(3)):
        with pytest.raises(ValueError, match="must have an int degree"):
            GeneratorSet([("a", degree), ("b", 1)])
    assert GeneratorSet([("a", True)]).degrees == (1,)


def test_malformed_monomials_rejected():
    g = gens_u(3)
    u1, u3 = GradedPoly.generator(g, "u1"), GradedPoly.generator(g, "u3")
    for mono in ((1, 0), (1, 0, 0, 0), (-1, 1, 0), (0, 0, -2)):
        with pytest.raises(ValueError, match="monomial"):
            GradedPoly.monomial(g, mono)
        with pytest.raises(ValueError, match="monomial"):
            GradedPoly(g, {mono: 1, (0, 0, 0): 2})
    # A well-formed monomial keeps every factor.
    assert GradedPoly.monomial(g, (1, 0, 0)) * u3 != u1
    assert GradedPoly.monomial(g, (1, 0, 1)) == u1 * u3


def test_unknown_generator_names_rejected():
    # Each raised a bare KeyError naming neither the generator nor the set.
    g = gens_u(3)
    ring = AbelianTautRing(2)
    cases = [(lambda: g.index("z"), "z", g),
             (lambda: g.single("u4"), "u4", g),
             (lambda: GradedPoly.generator(g, "z"), "z", g),
             (lambda: ring.lifted(3), "C3", ring.zgens),
             (lambda: ring.lifted(0), "C0", ring.zgens)]
    for call, name, gens in cases:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"no generator {name!r} in {gens!r}"
    assert g.index("u3") == 2 and ring.lifted(2).z == GradedPoly.generator(
        ring.zgens, "C2")


def test_wrong_length_monomials_rejected_on_lookup_and_as_leads():
    g = GeneratorSet([("u1", 1), ("u2", 2)])
    u2 = GradedPoly.generator(g, "u2")
    for mono in ((1,), (0, 1, 0), (0, -1)):
        # Neither read as u1 (or u2) nor reported as a zero coefficient.
        with pytest.raises(ValueError, match="monomial"):
            u2.coefficient(mono)
        with pytest.raises(ValueError, match="monomial"):
            monomials_of_degree(g, 2, [mono])
    assert u2.coefficient((0, 1)) == 1 and u2.coefficient([0, 1]) == 1
    assert monomials_of_degree(g, 2, [(1, 0)]) == [(0, 1)]


def test_degree_field_matches_weighted_sum():
    rng = random.Random(31)
    for _ in range(20):
        weights = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 6))]
        g = GeneratorSet([(f"v{j}", w) for j, w in enumerate(weights)])
        monos = [tuple(rng.randrange(4) for _ in weights) for _ in range(30)]
        # Each monomial with its reverse, and exponents near the limit, where
        # a sum of two fields must not reach the degree field.
        monos += [m[::-1] for m in monos]
        monos += [tuple(rng.randrange(EXPONENT_LIMIT - 4, EXPONENT_LIMIT)
                        if rng.random() < 0.5 else rng.randrange(4)
                        for _ in weights) for _ in range(10)]

        def weighted(m):
            return sum(e * w for e, w in zip(m, weights))

        for _ in range(2):
            for m in monos:
                assert g.degree_of(m) == weighted(m)
                assert g.pack(m) >> g.shift == weighted(m)
        # The degree of a sum of two keys, a product, is the sum of their
        # degrees, its exponents guarded or not.
        for m1, m2 in zip(monos, reversed(monos)):
            key = g.pack(m1) + g.pack(m2)
            assert key >> g.shift == weighted(m1) + weighted(m2)
            assert g.unpack(key) == tuple(a + b for a, b in zip(m1, m2))
        fresh = GeneratorSet(zip(g.names, g.degrees))
        assert fresh.degree_of(monos[0]) == g.degree_of(monos[0])
        # Equality and hashing read the names and the degrees.
        assert fresh == g and hash(fresh) == hash(g)
        assert fresh != GeneratorSet(zip(g.names, [w + 1 for w in weights]))


def test_generator_set_is_unchanged_by_use():
    # A generator set holds no per-monomial state: a degree memo grew by
    # one entry for each monomial whose degree was asked.
    ring = AbelianTautRing(8)

    def state():
        # A dict is copied, so that a change to it in place shows.
        return [[v.copy() if isinstance(v := getattr(g, s), dict) else v
                 for s in GeneratorSet.__slots__]
                for g in (ring.zgens, ring.agens)]

    before = state()
    c1_critical_power(8, ring)
    assert state() == before


def test_exponents_must_be_ints_below_the_field_limit():
    # A float exponent was taken: degree_of((1.5, 0)) returned 1.5 and the
    # monomial rendered a^1.5.  Every boundary rejects a non-int exponent
    # and one at or above the field limit before anything is packed.
    g = GeneratorSet((("a", 1), ("b", 2)))
    a = GradedPoly.generator(g, "a")
    for mono in ((1.5, 0), (0, 2.0), (Fraction(1), 0), ("1", 0), (None, 0),
                 (EXPONENT_LIMIT, 0), (0, 40000)):
        for reject in (g.degree_of, g.pack, lambda m: GradedPoly.monomial(g, m),
                       lambda m: GradedPoly(g, {m: 1}), a.coefficient,
                       lambda m: monomials_of_degree(g, 2, [m]),
                       lambda m: monomial_sort_key(g, m)):
            with pytest.raises(ValueError, match="monomial"):
                reject(mono)
    # A list is the exponent vector it holds, as it is for coefficient, so
    # it raises no TypeError.
    assert g.degree_of([1, 0]) == 1 and g.degree_of([0, 1]) == 2
    assert a.coefficient([1, 0]) == 1


def test_packed_order_is_the_reversed_tuple_order():
    # The division's heap pops the smallest packed monomial, and sorts the
    # monomials it divides by packed value.  Packed order is (degree,
    # reversed exponent tuple), so within one degree it is the quotient's
    # order, the reversed exponent tuple (the larger monomial has the
    # smaller one), and every division takes the same steps in the same
    # order.  Packed + is tuple addition, and it adds the degrees.
    rng = random.Random(1881)
    for n in (1, 6, 13, 17):
        g = GeneratorSet([(f"u{j}", j) for j in range(1, n + 1)])
        # Small exponents, and some near the limit in any field.
        monos = [tuple(rng.randrange(EXPONENT_LIMIT) if rng.random() < 0.1
                       else rng.randrange(4) for _ in range(n)) for _ in range(300)]
        monos += monomials_of_degree(g, 6) + monomials_of_degree(g, 7)
        rng.shuffle(monos)
        packed = [g.pack(m) for m in monos]
        assert [g.unpack(k) for k in packed] == monos
        # items() lists the monomials in monomial_sort_key order.
        listed = [m for m, _ in GradedPoly(g, dict.fromkeys(monos, 1)).items()]
        assert listed == sorted(set(monos), key=lambda m: monomial_sort_key(g, m))

        def packed_order(m):
            return g.degree_of(m), m[::-1]

        assert ([g.unpack(k) for k in sorted(packed)]
                == sorted(monos, key=packed_order)), n
        for degree in (6, 7):
            same = [k for k in packed if k >> g.shift == degree]
            assert ([g.unpack(k) for k in sorted(same)]
                    == sorted(map(g.unpack, same), key=lambda m: m[::-1])), n
        for (m1, k1), (m2, k2) in zip(zip(monos, packed), zip(monos[1:], packed[1:])):
            assert (k1 < k2) == (packed_order(m1) < packed_order(m2))
            if g.degree_of(m1) == g.degree_of(m2):
                assert (k1 < k2) == (m1[::-1] < m2[::-1])
            half1, half2 = ([e // 2 for e in m] for m in (m1, m2))
            total = g.pack(half1) + g.pack(half2)
            assert g.unpack(total) == tuple(a + b for a, b in zip(half1, half2))
            assert total == g.pack([a + b for a, b in zip(half1, half2)])
            assert total >> g.shift == g.degree_of(half1) + g.degree_of(half2)
            # The pure-power test: x_i^e divides m2 exactly when one
            # mask-and-compare against the lead's field says so.
            i = rng.randrange(n)
            e = rng.randrange(1, 5)
            lead = g.pack([e if j == i else 0 for j in range(n)])
            assert (k2 & g.field_mask(i) >= lead & g.field_mask(i)) == (m2[i] >= e)


def test_field_limit_and_product_guard():
    g = GeneratorSet((("a", 1), ("b", 2)))
    assert EXPONENT_LIMIT == 32768
    top = GradedPoly.monomial(g, (32767, 0))
    assert g.unpack(g.pack((32767, 32767))) == (32767, 32767)
    assert top.items() == [((32767, 0), 1)] and top.monomials() == {(32767, 0)}
    assert g.degree_of((0, 32767)) == 65534
    for mono in ((32768, 0), (0, 32768)):
        with pytest.raises(ValueError, match="monomial"):
            g.pack(mono)
    # A product that would cross the limit raises; it never carries into
    # the next generator's field.
    x = GradedPoly.monomial(g, (20000, 0))
    with pytest.raises(ValueError, match="reaches 32768"):
        x ** 2
    with pytest.raises(ValueError, match="reaches 32768"):
        x * GradedPoly.monomial(g, (12768, 3))
    with pytest.raises(ValueError, match="reaches 32768"):
        x.mul_truncated(x, None)
    assert x * GradedPoly.monomial(g, (12767, 3)) == GradedPoly.monomial(g, (32767, 3))
    assert x.mul_truncated(x, 39999).is_zero()
    # A cap below the limit keeps no product that reaches it, so the keys
    # go unchecked; a cap above it keeps x^2 and still raises.
    assert x.mul_truncated(x, EXPONENT_LIMIT - 1).is_zero()
    with pytest.raises(ValueError, match="reaches 32768"):
        x.mul_truncated(x, 40000)
    raw = g.pack((20000, 0)) + g.pack((20000, 3))
    assert raw & g.guard and g.unpack(raw) == (40000, 3)
    # No monomial of a working degree reaches the limit.
    with pytest.raises(ValueError, match="top degree must be below 32768"):
        RingPresentation(g, [], EXPONENT_LIMIT)


def test_u1_power_over_17_generators_round_trips():
    # AbelianTautRing(17) works to degree 137, with u1^136 in its form
    # ring; its 17 generators pack without a ring being built.
    g = gens_u(17)
    mono = (136,) + (0,) * 16
    assert g.unpack(g.pack(mono)) == mono and g.degree_of(mono) == 136
    u1_136 = GradedPoly.monomial(g, mono, 3)
    assert u1_136.items() == [(mono, 3)] and u1_136.coefficient(mono) == 3
    product = u1_136 * GradedPoly.generator(g, "u17")
    assert product.monomials() == {(136,) + (0,) * 15 + (1,)}
    assert product.max_degree() == 153


def test_hash_agrees_with_equality_for_constants():
    g = gens_u(2)
    for value in (2, Fraction(-3, 4), 0, Fraction(0), 1):
        equal = [value, Fraction(value), Scalar.coerce(value),
                 GradedPoly.constant(g, value), GradedPoly.constant(gens_u(3), value)]
        for x in equal:
            assert x == value and hash(x) == hash(value), x
        assert len(set(equal)) == 1
    assert len({GradedPoly.constant(g, 2), Scalar.coerce(2), 2}) == 1
    assert len({GradedPoly.zero(g), Scalar.coerce(0), 0}) == 1
    u1 = GradedPoly.generator(g, "u1")
    L = Scalar.symbol("L")
    # A constant equals its symbolic coefficient too; u1 and 2*u1 are not
    # constants.
    assert len({u1, u1 * 2, 2, GradedPoly.constant(g, L), L, Scalar.coerce(1)}) == 5
    assert hash(GradedPoly.constant(g, L)) == hash(L)
    assert hash(u1 - u1) == hash(0)


def test_monomials_of_degree_examples():
    g = GeneratorSet([("u1", 1), ("u2", 2)])
    assert monomials_of_degree(g, 2) == [(2, 0), (0, 1)]
    assert monomials_of_degree(g, 0) == [(0, 0)]
    g3 = gens_u(3)
    assert monomials_of_degree(g3, 3) == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_monomials_of_degree_enumeration_oracle():
    g = gens_u(4)
    for k in range(9):
        listed = monomials_of_degree(g, k)
        assert len(listed) == len(set(listed))
        brute = 0
        for e1 in range(k + 1):
            for e2 in range(k // 2 + 1):
                for e3 in range(k // 3 + 1):
                    for e4 in range(k // 4 + 1):
                        if e1 + 2 * e2 + 3 * e3 + 4 * e4 == k:
                            brute += 1
                            assert (e1, e2, e3, e4) in listed
        assert len(listed) == brute
        # Listed in order, with no sort after the enumeration.
        assert listed == sorted(listed, key=lambda m: monomial_sort_key(g, m))


def divides(lead, mono):
    return all(a <= b for a, b in zip(lead, mono))


def test_monomials_pruned_by_leads_match_filter():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.choice((3, 4))
        g = GeneratorSet([(f"v{j}", rng.randrange(1, 4)) for j in range(n)])
        leads = []
        for _ in range(rng.randrange(1, 4)):
            lead = [0] * n
            lead[rng.randrange(n)] = rng.randrange(1, 4)
            leads.append(tuple(lead))
        for k in range(13):
            kept = [m for m in monomials_of_degree(g, k)
                    if not any(divides(lead, m) for lead in leads)]
            assert monomials_of_degree(g, k, leads) == kept, (g, leads, k)
        # A lead in two or more generators, or the constant lead, is not a
        # power of one generator.
        mixed = [0] * n
        for i in rng.sample(range(n), rng.randrange(2, n + 1)):
            mixed[i] = rng.randrange(1, 3)
        for bad in (tuple(mixed), (0,) * n):
            with pytest.raises(ValueError, match="not a power of one generator"):
                monomials_of_degree(g, trial % 13, leads + [bad])


def brute_force_staircase(g, k, leads):
    """Every exponent vector of degree k that no lead divides, sorted."""
    ranges = [range(k // d + 1) for d in g.degrees]
    found = [m for m in itertools.product(*ranges)
             if g.degree_of(m) == k and not any(divides(lead, m) for lead in leads)]
    return sorted(found, key=lambda m: monomial_sort_key(g, m))


def test_monomials_of_degree_brute_force_oracle():
    rng = random.Random(25)
    for trial in range(80):
        n = rng.randrange(1, 5)
        # Repeated generator degrees half the time.
        degrees = [rng.randrange(1, 3 if trial % 2 else 4) for _ in range(n)]
        g = GeneratorSet([(f"v{j}", d) for j, d in enumerate(degrees)])
        leads = []
        for _ in range(rng.randrange(0, 5)):
            lead = [0] * n
            lead[rng.randrange(n)] = rng.randrange(1, 4)
            leads.append(tuple(lead))
        if trial % 4 == 0:
            # Two pure powers of one generator: the smaller one caps it.
            i = rng.randrange(n)
            leads += [tuple(3 if j == i else 0 for j in range(n)),
                      tuple(2 if j == i else 0 for j in range(n))]
        for k in range(13):
            assert (monomials_of_degree(g, k, leads)
                    == brute_force_staircase(g, k, leads)), (g, leads, k)
    g = GeneratorSet([("a", 1), ("b", 1), ("c", 2)])
    for k in range(8):
        assert monomials_of_degree(g, k) == brute_force_staircase(g, k, [])
        # The unit lead and a mixed lead are rejected, not enumerated around.
        for bad in ((0, 0, 0), (1, 1, 0), (1, 0, 1)):
            with pytest.raises(ValueError, match="not a power of one generator"):
                monomials_of_degree(g, k, [(1, 0, 0), bad])
    # Caps below the degree leave nothing to list.
    assert monomials_of_degree(g, 5, [(2, 0, 0), (0, 2, 0), (0, 0, 1)]) == []
    assert monomials_of_degree(g, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 1)]) == [(1, 1, 0)]


def test_monomial_count_generating_function():
    # coefficient of t^k in prod 1/(1 - t^deg)
    g = gens_u(3)
    N = 12
    series = [Fraction(0)] * (N + 1)
    series[0] = Fraction(1)
    for deg in g.degrees:
        for k in range(deg, N + 1):
            series[k] += series[k - deg]
    for k in range(N + 1):
        assert len(monomials_of_degree(g, k)) == series[k]


def test_poly_examples():
    g = gens_u(1)
    u1 = GradedPoly.generator(g, "u1")
    one = GradedPoly.constant(g, 1)
    prod = (one + u1) * (one - u1)
    assert prod.degree_components()[2] == -(u1 * u1)
    assert (u1 ** 3).truncate(2).is_zero()


def test_relation_component_example_d3():
    g = gens_u(3)
    one = GradedPoly.constant(g, 1)
    total = one
    alternating = one
    for j in (1, 2, 3):
        uj = GradedPoly.generator(g, f"u{j}")
        total = total + uj
        alternating = alternating + uj * Fraction((-1) ** j)
    comp2 = (total * alternating).degree_components()[2]
    u1, u2 = GradedPoly.generator(g, "u1"), GradedPoly.generator(g, "u2")
    assert comp2 == u2 * 2 - u1 * u1


def test_ring_axioms_random():
    rng = random.Random(11)
    g = gens_u(3)

    def rand_poly():
        out = GradedPoly.zero(g)
        for _ in range(4):
            mono = tuple(rng.randrange(3) for _ in range(3))
            out = out + GradedPoly.monomial(
                g, mono, Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)))
        return out

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_graded_components_partition():
    g = gens_u(3)
    rng = random.Random(3)
    poly = GradedPoly.zero(g)
    for _ in range(8):
        mono = tuple(rng.randrange(3) for _ in range(3))
        poly = poly + GradedPoly.monomial(g, mono, rng.randrange(1, 5))
    total = GradedPoly.zero(g)
    for _, comp in poly.degree_components().items():
        assert comp.is_homogeneous()
        total = total + comp
    assert total == poly


def test_generator_set_mismatch():
    a = GradedPoly.generator(gens_u(2), "u1")
    b = GradedPoly.generator(gens_u(3), "u1")
    with pytest.raises(ValueError):
        a + b
    for start, pairs in ((b, [(a, a)]), (None, [(a, a), (a, b)]),
                         (None, [(b, b)])):
        with pytest.raises(ValueError) as exc:
            sum_of_products(a.gens, pairs, None, start)
        assert str(exc.value) == "generator-set mismatch"


def test_negative_degrees_and_powers_rejected():
    with pytest.raises(ValueError) as exc:
        monomials_of_degree(gens_u(2), -1)
    assert str(exc.value) == "degree must be non-negative"
    with pytest.raises(ValueError) as exc:
        GradedPoly.generator(gens_u(2), "u1") ** -1
    assert str(exc.value) == "negative power"


def test_render_style():
    g = gens_u(3)
    u1, u3 = GradedPoly.generator(g, "u1"), GradedPoly.generator(g, "u3")
    poly = u1 ** 3 * Fraction(-17, 3) + u3 * 8
    assert poly.render() == "-17/3*u1^3 + 8*u3"
    assert poly.render(names={"u3": "g"}) == "-17/3*u1^3 + 8*g"
    latex = poly.render(latex=True, names={"u1": "c_1"})
    assert "c_1^{3}" in latex
