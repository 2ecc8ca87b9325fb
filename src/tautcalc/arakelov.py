"""Two-component arithmetic tautological rings with square-zero form part.

Elements are pairs (z, a(alpha + phi*gamma)): a polynomial part in the lifted
classes C1..Cd and a form part in the classical classes u1..ud plus the
special degree-(d-1) form gamma.  The grading pairs ring degree k with form
degree k-1; products of two form parts vanish.

Each relation is written once, on the lifted side: p_k(C) rewrites to
a((-1)^(k+1) b_k s_{2k-1}(u)) for a bracket sequence b, and C_d, where the
ring has gamma, to a(gamma).  Forgetting the lift (omega, C_j -> u_j) gives
the form relations.  Two quotients are modelled:

* the abelian-scheme ring: b_k is minus the Gillet-Soule bracket, and the
  top lifted Chern class reduces to a(gamma);
* the Lagrangian-Grassmannian ring: b_k is the formal symbol h(2k-1).

Reduction tracks ideal-membership cofactors on the polynomial side and pushes
each eliminated relation occurrence into the form part.  The critical power
and the height polynomial are computed here; the proportionality map
(``propmap``) and the even Chern character check (``series``) load on first
use.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add
from typing import Callable, Mapping, NamedTuple

from .scalars import Scalar, _merge_monomials, bracket, harmonic_symbol
from .graded import (GeneratorSet, GradedPoly, Monomial, _add_slice,
                     sum_of_products)
from .quotient import QuotientRing, ReductionError, RingPresentation
from .charclasses import ClassVector, ch_from_c, pontrjagin_from_c


def arithmetic_dimension(d: int) -> int:
    """d(d-1)/2 + 1, every ring's working degree: every arithmetic class
    vanishes above it, and C1 to this power is the critical power."""
    return d * (d - 1) // 2 + 1


# ---------------------------------------------------------------------------
# Classical tautological ring
# ---------------------------------------------------------------------------


def tautological_presentation(d: int) -> RingPresentation:
    """Presentation of the rank-d tautological ring: generators u1..ud with
    the classical relations p_k(u) = 0 for k = 1..d (up to sign, the
    homogeneous components of the dual square c(t)c(-t) = 1), in degree
    order, and u_d = 0, up to the arithmetic dimension."""
    if d < 1:
        raise ValueError("d must be positive")
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, d + 1)])
    relations = [*pontrjagin_from_c(ClassVector.standard(gens, gens.names)),
                 GradedPoly.generator(gens, f"u{d}")]
    return RingPresentation(gens, relations, arithmetic_dimension(d))


def tautological_ring(d: int) -> QuotientRing:
    return QuotientRing(tautological_presentation(d), track_witnesses=False)


def lagrangian_degree(d: int) -> int:
    """Projective degree of the rank-(d-1) Lagrangian Grassmannian:
    (d(d-1)/2)! / prod_{k<d} (2k-1)!!."""
    if d < 2:
        raise ValueError("d must be at least 2")
    num = factorial(d * (d - 1) // 2)
    den = 1
    for k in range(1, d):
        m = 2 * k - 1
        while m > 1:
            den *= m
            m -= 2
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("degree formula did not divide evenly")
    return q


# ---------------------------------------------------------------------------
# Arithmetic classes
# ---------------------------------------------------------------------------


class ArithClass:
    """Element z + a(alpha + phi*gamma) of an arithmetic tautological ring.
    The polynomial part must be over the ring's lifted generators and the
    form parts over its form generators, and a ring without gamma rejects a
    nonzero gamma coefficient.  A class is immutable: setting or deleting a
    part raises AttributeError, so the constructor's checks hold and the
    hash never changes."""

    __slots__ = ("ring", "z", "a", "g")

    def __init__(self, ring: "ArithRing", z: GradedPoly, a: GradedPoly,
                 g: GradedPoly):
        if (z.gens, a.gens, g.gens) != (ring.zgens, ring.agens, ring.agens):
            raise ValueError("part over the wrong generator set")
        if ring.gamma_degree is None and g:
            raise ValueError("gamma part in a ring without gamma")
        _set_ring(self, ring)
        _set_z(self, z)
        _set_a(self, a)
        _set_g(self, g)

    def __setattr__(self, name: str, value):
        raise AttributeError(f"ArithClass is immutable: cannot set {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"ArithClass is immutable: cannot delete {name!r}")

    def __add__(self, other: "ArithClass") -> "ArithClass":
        self._check(other)
        return ArithClass(self.ring, self.z + other.z, self.a + other.a,
                          self.g + other.g)

    def __sub__(self, other: "ArithClass") -> "ArithClass":
        self._check(other)
        return ArithClass(self.ring, self.z - other.z, self.a - other.a,
                          self.g - other.g)

    def __neg__(self) -> "ArithClass":
        return ArithClass(self.ring, -self.z, -self.a, -self.g)

    def __mul__(self, other) -> "ArithClass":
        if isinstance(other, (int, Fraction, Scalar)):
            return ArithClass(self.ring, self.z * other, self.a * other,
                              self.g * other)
        self._check(other)
        ring = self.ring
        z = self.z.mul_truncated(other.z, ring.cap)
        w1, w2 = ring.omega(self.z), ring.omega(other.z)
        a_cap, g_cap = ring.form_caps
        a = sum_of_products(ring.agens, [(w1, other.a), (w2, self.a)], a_cap)
        g = self.g
        if g or other.g:
            g = sum_of_products(ring.agens, [(w1, other.g), (w2, g)], g_cap)
        return ArithClass(ring, z, a, g)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ArithClass":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _check(self, other: "ArithClass"):
        if other.ring is not self.ring:
            raise ValueError("classes from different rings")

    def is_zero(self) -> bool:
        return self.z.is_zero() and self.a.is_zero() and self.g.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArithClass):
            return NotImplemented
        return (self.ring is other.ring and self.z == other.z
                and self.a == other.a and self.g == other.g)

    def __hash__(self) -> int:
        return hash((self.ring, self.z, self.a, self.g))

    def drop_gamma(self) -> "ArithClass":
        return ArithClass(self.ring, self.z, self.a,
                          GradedPoly.zero(self.ring.agens))

    def symbol_degree(self) -> int:
        return max(self.z.symbol_degree(), self.a.symbol_degree(),
                   self.g.symbol_degree())

    def render(self, latex: bool = False) -> str:
        ring = self.ring
        znames = ring.display_znames(latex)
        anames = ring.display_anames(latex)
        gname = "\\gamma" if latex else "g"
        parts = []
        if not self.z.is_zero():
            parts.append(self.z.render(latex, znames))
        inner = []
        if not self.a.is_zero():
            inner.append(self.a.render(latex, anames))
        if not self.g.is_zero():
            if self.g == GradedPoly.constant(ring.agens, 1):
                inner.append(gname)
            else:
                phi = self.g.render(latex, anames)
                inner.append((f"({phi})" if (" " in phi) else phi)
                             + ("" if latex else "*") + gname)
        if inner:
            parts.append("a(" + " + ".join(inner) + ")")
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()

    def to_json(self) -> dict:
        return {"zpart": self.z.to_json(), "apart": self.a.to_json(),
                "gamma_part": self.g.to_json()}


# The slot setters, which only the constructor calls: they bypass the
# __setattr__ that makes a class immutable.
_set_ring, _set_z, _set_a, _set_g = (ArithClass.__dict__[name].__set__
                                     for name in ArithClass.__slots__)


class ArithRelation(NamedTuple):
    """Rewriting rule zpoly = a(apart + gpart * gamma)."""
    zpoly: GradedPoly
    apart: GradedPoly
    gpart: GradedPoly


class ArithRing:
    """Shared machinery of the two arithmetic quotients."""

    d: int
    cap: int
    gamma_degree: int | None
    form_caps: tuple[int, int]
    zgens: GeneratorSet
    agens: GeneratorSet
    relations: list[ArithRelation]
    odd_sums: dict[int, GradedPoly]
    rho: dict[int, GradedPoly]
    zq: QuotientRing
    aq: QuotientRing

    def _setup(self, d: int, n_gens: int, gamma_degree: int | None,
               b: Callable[[int], Scalar | Fraction]):
        """Build both quotients up to the working degree cap, the arithmetic
        dimension of d.  zq's lifted relations: p_k(C) for k <= top_k =
        min(n, cap // 2), rewriting to a((-1)^(k+1) b(k) s_{2k-1}(u)), and
        C_n, rewriting to a(gamma), when the ring has gamma.  aq's form
        relations are these with the lift forgotten; a p_k with k > top_k
        would lie above both working degrees."""
        self.d = d
        self.cap = cap = arithmetic_dimension(d)
        self.gamma_degree = gamma_degree
        # Working degrees of the form part and of the gamma coefficient.
        self.form_caps = (cap - 1, cap - (gamma_degree or 0))
        self.zgens = GeneratorSet([(f"C{j}", j) for j in range(1, n_gens + 1)])
        self.agens = GeneratorSet([(f"u{j}", j) for j in range(1, n_gens + 1)])
        top_k = min(n_gens, cap // 2)
        lifted = pontrjagin_from_c(
            ClassVector.standard(self.zgens, self.zgens.names), top_k)
        if gamma_degree is not None:
            lifted.append(GradedPoly.generator(self.zgens, f"C{n_gens}"))
        self.aq = QuotientRing(
            RingPresentation(self.agens, map(self.omega, lifted),
                             max(cap - 1, n_gens)),
            track_witnesses=False)
        self.zq = QuotientRing(RingPresentation(self.zgens, lifted, cap),
                               track_witnesses=True)

        sums = ch_from_c(ClassVector.standard(self.agens, self.agens.names),
                         2 * top_k - 1, self.aq.normal_form)
        # odd_sums[k]: normal form of the odd power sum s_{2k-1}(u), of
        # degree at most cap - 1; the relations read no other power sum.
        self.odd_sums = {k: sums[2 * k - 2] for k in range(1, top_k + 1)}
        self.rho = {k: s * (b(k) * (-1) ** (k + 1))
                    for k, s in self.odd_sums.items()}
        zero = GradedPoly.zero(self.agens)
        self.relations = [ArithRelation(p, self.rho[k], zero)
                          for k, p in enumerate(lifted[:top_k], 1)]
        if gamma_degree is not None:
            self.relations.append(ArithRelation(
                lifted[-1], zero, GradedPoly.constant(self.agens, 1)))
        # Per relation: its form parts (side, 0 for the form part and 1 for
        # the gamma coefficient; degree; a primitive integer polynomial P;
        # its Scalar factor, see GradedPoly.rational_parts), and the memo
        # {t: step image of (r, t)}, which holds nf(u^t * P) per form part.
        # Each image is a normal form, so it does not depend on the queries.
        self._form_parts = [[(side, form.max_degree(), poly, scalar)
                             for side, form in enumerate(rel[1:])
                             for poly, scalar in form.rational_parts()]
                            for rel in self.relations]
        self._step_images: list[dict[Monomial, list[tuple]]] = [
            {} for _ in self.relations]

    # -- constructors of elements -------------------------------------------

    def zero(self) -> ArithClass:
        z = GradedPoly.zero(self.zgens)
        a = GradedPoly.zero(self.agens)
        return ArithClass(self, z, a, a)

    def one(self) -> ArithClass:
        return ArithClass(self, GradedPoly.constant(self.zgens, 1),
                          GradedPoly.zero(self.agens),
                          GradedPoly.zero(self.agens))

    def lifted(self, j: int) -> ArithClass:
        """The lifted generator C_j as a ring element."""
        return self.from_z(GradedPoly.generator(self.zgens, f"C{j}"))

    def from_z(self, poly: GradedPoly) -> ArithClass:
        zero = GradedPoly.zero(self.agens)
        return ArithClass(self, poly, zero, zero)

    def from_a(self, poly: GradedPoly) -> ArithClass:
        zero_z = GradedPoly.zero(self.zgens)
        return ArithClass(self, zero_z, poly, GradedPoly.zero(self.agens))

    def from_gamma(self, poly: GradedPoly | int = 1) -> ArithClass:
        if self.gamma_degree is None:
            raise ValueError("this ring has no gamma class")
        if isinstance(poly, int):
            poly = GradedPoly.constant(self.agens, poly)
        zero_z = GradedPoly.zero(self.zgens)
        return ArithClass(self, zero_z, GradedPoly.zero(self.agens), poly)

    # -- structure -----------------------------------------------------------

    def omega(self, poly: GradedPoly) -> GradedPoly:
        """Forget the arithmetic lift: rename C_j to u_j.  Both sit at index
        j - 1 with degree j, so the result shares poly's slices (neither
        polynomial is ever changed in place)."""
        out = GradedPoly.__new__(GradedPoly)
        out.gens = self.agens
        out._slices = poly._slices
        return out

    def z_power_sums(self, up_to: int) -> list[GradedPoly]:
        classes = ClassVector.standard(self.zgens, list(self.zgens.names))
        return ch_from_c(classes, up_to)

    # -- reduction -----------------------------------------------------------

    def reduce(self, x: ArithClass) -> ArithClass:
        if x.ring is not self:
            raise ValueError("class from another ring")
        nf, cofactors = self.zq.reduce_with_cofactors(x.z.truncate(self.cap))
        return ArithClass(self, nf, *self._form_contributions(cofactors, x.a, x.g))

    def _form_contributions(self, cofactors: Mapping[int, GradedPoly],
                            a: GradedPoly, g: GradedPoly):
        """Normal forms of the form part a and the gamma coefficient g plus
        what the cofactors push into them, each truncated to its working
        degree.  A cofactor term c*C^t of relation r pushes c times the step
        image of (r, t): the normal forms of u^t times r's form sides.  Each
        side is summed in one slice accumulator."""
        self._add_step_images(cofactors)
        sides: tuple[dict, dict] = ({}, {})
        for out, poly, cap in zip(sides, (a, g), self.form_caps):
            slices = poly.truncate(cap)._slices
            reduced = self.aq.monomial_reductions(
                m for _, terms in slices.values() for m in terms)
            for k, (den, terms) in slices.items():
                acc: dict[Monomial, int | Fraction] = {}
                for mono, n in terms.items():
                    for m, v in reduced[mono][0].items():
                        acc[m] = acc.get(m, 0) + n * v
                _add_slice(out, k, 1, den, acc)
        images = self._step_images
        for ri, cof in cofactors.items():
            relation_images = images[ri]
            for j, (side, _, _, scalar) in enumerate(self._form_parts[ri]):
                for k1, (d1, terms) in cof._slices.items():
                    acc: dict[Monomial, int | Fraction] = {}
                    for t, n in terms.items():
                        for m, v in relation_images[t][j]:
                            acc[m] = acc.get(m, 0) + n * v
                    for k2, num, den in scalar:
                        _add_slice(sides[side], _merge_monomials(k1, k2),
                                   num, d1 * den, acc)
        return tuple(GradedPoly.from_slices(self.agens, out) for out in sides)

    def _add_step_images(self, cofactors: Mapping[int, GradedPoly]):
        """Keep the step images that the cofactor terms need and the memo
        lacks: per form part, the normal form as a tuple of (monomial,
        coefficient).  Their product monomials are divided in one pass,
        smallest first."""
        degree_of = self.agens.degree_of
        caps = self.form_caps
        products: dict[Monomial, Monomial] = {}   # one tuple per monomial
        fresh: dict[int, dict[Monomial, list[tuple]]] = {}
        pending = []
        for ri, cof in cofactors.items():
            known, parts = self._step_images[ri], self._form_parts[ri]
            new = fresh[ri] = {}
            for _, terms in cof._slices.values():
                for t in terms:
                    if t in known or t in new:
                        continue
                    image = new[t] = [()] * len(parts)
                    t_degree = degree_of(t)
                    for j, (side, degree, poly, _) in enumerate(parts):
                        # A form side is homogeneous: its image is kept or
                        # dropped whole.
                        if t_degree + degree <= caps[side]:
                            shifted = [tuple(map(add, t, m)) for m in poly]
                            pending.append((image, j, poly, [
                                products.setdefault(p, p) for p in shifted]))
        reduced = self.aq.monomial_reductions(products) if products else {}
        for image, j, poly, shifted in pending:
            acc: dict[Monomial, int | Fraction] = {}
            for product, n in zip(shifted, poly.values()):
                for m, v in reduced[product][0].items():
                    acc[m] = acc.get(m, 0) + n * v
            image[j] = tuple(acc.items())
        for ri, new in fresh.items():
            self._step_images[ri].update(new)

    def reduce_variants(self, x: ArithClass) -> list[ArithClass]:
        """Reductions of a class whose polynomial part lies in the relation
        ideal, one per witness of alternative_witnesses: the division's
        cofactors and those cofactors moved by Koszul syzygies of the lifted
        relations."""
        z = x.z.truncate(self.cap)
        witnesses = self.zq.alternative_witnesses(z)
        out = []
        for w in witnesses:
            a, g = self._form_contributions(w.cofactors, x.a, x.g)
            out.append(ArithClass(self, GradedPoly.zero(self.zgens), a, g))
        return out

    # -- display helpers -----------------------------------------------------

    def display_znames(self, latex: bool) -> dict[str, str]:
        if latex:
            return {f"C{j}": f"\\hat{{c}}_{{{j}}}" for j in range(1, len(self.zgens) + 1)}
        return {f"C{j}": f"C{j}" for j in range(1, len(self.zgens) + 1)}

    def display_anames(self, latex: bool) -> dict[str, str]:
        if latex:
            return {f"u{j}": f"c_{{{j}}}" for j in range(1, len(self.agens) + 1)}
        return {f"u{j}": f"c{j}" for j in range(1, len(self.agens) + 1)}


class AbelianTautRing(ArithRing):
    """Arithmetic tautological ring of the rank-d Hodge bundle.

    Lifted relations: every Pontrjagin polynomial p_k(C) rewrites to the
    form rho_k = (-1)^k (2 Z(2k-1)/zeta(1-2k) + H(2k-1) - 2 log2/(1-4^-k))
    times the odd power sum s_{2k-1}(u), and C_d rewrites to a(gamma).
    Form relations are these with the lift forgotten: p_k(u) = 0, u_d = 0.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be positive")
        self._setup(d, d, gamma_degree=d, b=lambda k: -bracket(k))


class LagrangianArithRing(ArithRing):
    """Arithmetic ring of the rank-(d-1) Lagrangian Grassmannian.

    The abelian ring without C_d and gamma, with the formal symbol h(2k-1)
    as the bracket sequence: p_k(C) rewrites to (-1)^(k+1) h(2k-1)
    s_{2k-1}(u), and the form relations are p_k(u) = 0.  The second
    argument accepts only "formal", its one value.
    """

    def __init__(self, d: int, harmonic_mode: str = "formal"):
        if d < 2:
            raise ValueError("d must be at least 2")
        if harmonic_mode != "formal":
            raise ValueError("harmonic_mode must be 'formal'")
        self._setup(d, d - 1, gamma_degree=None, b=harmonic_symbol)


# ---------------------------------------------------------------------------
# Critical power and height operations
# ---------------------------------------------------------------------------


def _ring_for(d: int, ring: ArithRing | None, cls: type):
    """The ring a quantity of d is computed in: cls(d) when ring is None,
    else ring itself, which must be a cls of this d."""
    if ring is None:
        return cls(d)
    if not isinstance(ring, cls) or ring.d != d:
        raise ValueError(f"d = {d} needs {cls.__name__}({d}); "
                         f"got {type(ring).__name__} with d = {ring.d}")
    return ring


class CriticalPowerResult(NamedTuple):
    d: int
    exponent: int
    reduced: ArithClass
    r: Scalar
    phi: GradedPoly          # reduced gamma coefficient, squarefree basis
    phi_raw: GradedPoly      # gamma coefficient straight from the witness
    socle_monomial: Monomial
    socle_coordinate: Fraction


def _critical_split(ring: ArithRing):
    """Reduce C1^(1 + top), top = d(d-1)/2, whose form part must lie in the
    one-dimensional socle R^top.  Returns (reduced class, gamma coefficient
    straight from the witness, socle monomial, form coordinate normalized
    against u1^top, the socle coordinate lam of u1^top)."""
    top = ring.d * (ring.d - 1) // 2
    power = GradedPoly.monomial(ring.zgens, ring.zgens.single("C1", top + 1))
    nf, cofactors = ring.zq.reduce_with_cofactors(power)
    zero = GradedPoly.zero(ring.agens)
    reduced = ArithClass(ring, nf, *ring._form_contributions(cofactors, zero, zero))
    raw_g = zero
    for ri, cof in cofactors.items():
        if ring.relations[ri].gpart:    # C_d -> a(gamma), gamma side 1
            raw_g = ring.omega(cof).truncate(ring.form_caps[1])
    if not reduced.z.is_zero():
        raise ReductionError("critical power kept a polynomial part; "
                             "shape of the reduction is violated")
    basis = ring.aq.monomial_basis(top)
    if len(basis) != 1:
        raise ReductionError("socle is not one-dimensional")
    socle = basis[0]
    if any(mono != socle for mono, _ in reduced.a.items()):
        raise ReductionError("form part not proportional to the socle")
    u1_top = ring.aq.normal_form(
        GradedPoly.monomial(ring.agens, ring.agens.single("u1", top)))
    lam = u1_top.coefficient(socle).rational_part()
    if top > 0 and not lam:
        raise ReductionError("u1^top vanished in the classical ring")
    coordinate = reduced.a.coefficient(socle)
    return reduced, raw_g, socle, coordinate / lam if top > 0 else coordinate, lam


def c1_critical_power(d: int, ring: AbelianTautRing | None = None) -> CriticalPowerResult:
    """Reduce C1^(1 + d(d-1)/2) and split the result as
    a(r * u1^(d(d-1)/2) + phi * gamma)."""
    ring = _ring_for(d, ring, AbelianTautRing)
    reduced, raw_g, socle, r, lam = _critical_split(ring)
    phi = reduced.g
    expected_phi_degree = (d - 1) * (d - 2) // 2
    if not phi.is_zero() and phi.max_degree() != expected_phi_degree:
        raise ReductionError("gamma coefficient has the wrong form degree")
    return CriticalPowerResult(d, arithmetic_dimension(d), reduced, r, phi,
                               raw_g, socle, lam)


def harmonic_substitution(d: int) -> dict[str, Scalar]:
    """h(2k-1) -> -2 Z(2k-1)/zeta(1-2k) - H(2k-1) + 2 log2/(1-4^-k)."""
    out = {}
    for k in range(1, d * (d - 1) // 4 + 2):
        out[f"h{2 * k - 1}"] = -bracket(k)
    return out


class HeightPolynomialResult(NamedTuple):
    d: int
    height: Scalar               # linear form in the h symbols
    substituted: Scalar          # equals the abelian-route r_d
    socle_coordinate: Fraction


def height_polynomial(d: int, ring: LagrangianArithRing | None = None) -> HeightPolynomialResult:
    """Top form coefficient of C1^(1 + d(d-1)/2) in the formal-harmonic
    Lagrangian ring, normalized against u1^top; substituting the
    zeta-derivative brackets for the h symbols yields r_d."""
    ring = _ring_for(d, ring, LagrangianArithRing)
    _, _, _, height, lam = _critical_split(ring)
    substituted = height.substitute(harmonic_substitution(d))
    return HeightPolynomialResult(d, height, substituted, lam)


def __getattr__(name: str):
    # The map and the even-character check live in modules that load on
    # first use (PEP 562); benchmarks/tracing.py still reads these two
    # names here.
    if name == "proportionality_map_check":
        from .propmap import proportionality_map_check
        return proportionality_map_check
    if name == "ch_even_check":
        from .series import ch_even_check
        return ch_even_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
