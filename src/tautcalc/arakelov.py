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
each eliminated relation occurrence into the form part.  A lifted monomial
that reduction meets a second time gets its complete push, so a class whose
monomials all have theirs is reduced without cofactors.  The critical power
and the height polynomial are computed here.  What no ring command runs loads
on first use: the classical ring R_d (``classical``), the proportionality map
(``propmap``), the even Chern character check (``series``) and the
reductions by other witnesses (``verify``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .scalars import _EXACT, Scalar, bracket, harmonic_symbol
from .graded import (GeneratorSet, GradedPoly, Slices, _add_products, _add_slices,
                     _combine, _poly, _power, linear_image)
from .quotient import QuotientRing, ReductionError, RingPresentation
from .charclasses import ClassVector, ch_from_c, pontrjagin_from_c


# The largest d whose working degree d(d-1)/2 + 1 is below EXPONENT_LIMIT,
# the bound on a quotient's working degree.
MAX_D = 256


def arithmetic_dimension(d: int) -> int:
    """d(d-1)/2 + 1, every ring's working degree: every arithmetic class
    vanishes above it, and C1 to this power is the critical power.
    ValueError unless d is an int from 1 to MAX_D; each ring asks for it
    before it builds anything."""
    if not isinstance(d, int) or not 1 <= d <= MAX_D:
        raise ValueError(f"d must be an int from 1 to {MAX_D}, not {d!r}")
    return d * (d - 1) // 2 + 1


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
        if not isinstance(other, ArithClass):
            return NotImplemented
        self._check(other)
        return ArithClass(self.ring, self.z + other.z, self.a + other.a,
                          self.g + other.g)

    def __sub__(self, other: "ArithClass") -> "ArithClass":
        if not isinstance(other, ArithClass):
            return NotImplemented
        self._check(other)
        return ArithClass(self.ring, self.z - other.z, self.a - other.a,
                          self.g - other.g)

    def __neg__(self) -> "ArithClass":
        return ArithClass(self.ring, -self.z, -self.a, -self.g)

    def __mul__(self, other) -> "ArithClass":
        if isinstance(other, (int, Fraction, Scalar)):
            return _assemble(self.ring, self.z * other, self.a * other,
                             self.g * other)
        if not isinstance(other, ArithClass):
            return NotImplemented
        self._check(other)
        # z z' + a(omega(z) a' + omega(z') a), and alike for gamma, each
        # truncated to its working degree, on the parts' slices: C_j and u_j
        # pack alike, and the ring's caps lie below EXPONENT_LIMIT, so no
        # product key needs its guard bits checked.
        ring = self.ring
        z_limit, a_limit, g_limit = ring._limits
        left, right = self.z._slices, other.z._slices
        z: Slices = {}
        _add_products(z, left, right, z_limit)
        a: Slices = {}
        if other.a._slices:
            _add_products(a, left, other.a._slices, a_limit)
        if self.a._slices:
            _add_products(a, right, self.a._slices, a_limit)
        g: Slices = {}
        if other.g._slices:
            _add_products(g, left, other.g._slices, g_limit)
        if self.g._slices:
            _add_products(g, right, self.g._slices, g_limit)
        agens = ring.agens
        return _assemble(ring, GradedPoly.from_slices(ring.zgens, z),
                         GradedPoly.from_slices(agens, a),
                         GradedPoly.from_slices(agens, g))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ArithClass":
        return _power(self, n, self.ring.one())

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


# The slot setters, which only the constructors call: they bypass the
# __setattr__ that makes a class immutable.
_set_ring, _set_z, _set_a, _set_g = (ArithClass.__dict__[name].__set__
                                     for name in ArithClass.__slots__)


def _assemble(ring: "ArithRing", z: GradedPoly, a: GradedPoly,
              g: GradedPoly) -> ArithClass:
    """ArithClass(ring, z, a, g) without its checks, for the parts that
    reduce and * build over ring's own generator sets, which hold no gamma
    part in a ring without gamma."""
    x = object.__new__(ArithClass)
    _set_ring(x, ring)
    _set_z(x, z)
    _set_a(x, a)
    _set_g(x, g)
    return x


class ArithRing:
    """Shared machinery of the two arithmetic quotients."""

    d: int
    cap: int
    gamma_degree: int | None
    form_caps: tuple[int, int]
    zgens: GeneratorSet
    agens: GeneratorSet
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
        # Both quotients' kept normal-form tables, the same dicts for the
        # ring's life, and the key limits of the working degrees of the
        # lifted part, the form part and the gamma coefficient (C_j and u_j
        # pack alike).
        self._zkept = self.zq.normal_forms(())
        self._akept = self.aq.normal_forms(())
        self._limits = tuple((c + 1) << self.zgens.shift
                             for c in (cap, *self.form_caps))

        sums = ch_from_c(ClassVector.standard(self.agens, self.agens.names),
                         2 * top_k - 1, self.aq.normal_form)
        # odd_sums[k]: normal form of the odd power sum s_{2k-1}(u), of
        # degree at most cap - 1; the relations read no other power sum.
        self.odd_sums = {k: sums[2 * k - 2] for k in range(1, top_k + 1)}
        # Each lifted relation rewrites to a(beta * poly) on one side, 0 for
        # the form part and 1 for the gamma coefficient.  Per relation r,
        # whose lift is zq.presentation.relations[r], its form record
        # _form_parts[r]: side, room (the largest degree of a cofactor term
        # whose push lies within the side's working degree), poly's integer
        # terms and beta as [(constant monomial, numerator, denominator)].
        # All are keyed by packed monomial; C_j and u_j pack alike.
        forms = [(0, s, b(k) * (-1) ** (k + 1)) for k, s in self.odd_sums.items()]
        self.rho = {k: s * beta for k, (_, s, beta) in enumerate(forms, 1)}
        if gamma_degree is not None:
            forms.append((1, GradedPoly.constant(self.agens, 1), 1))
        self._form_parts = []
        for side, poly, beta in forms:
            den, terms = poly._slices.get((), (1, {}))
            self._form_parts.append((side, self.form_caps[side] - poly.max_degree(),
                                     terms, [(k, q.numerator, q.denominator * den)
                                             for k, q in Scalar.coerce(beta)._terms.items()]))
        # The push table {lifted monomial m: (form slices, gamma slices)}:
        # m's kept zq cofactors pushed into both sides.  reduce admits a
        # monomial it meets again with its complete push, so a stored value
        # is never partial.
        self._pushes: dict[int, tuple[Slices, Slices]] = {}

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

    def from_a(self, poly: GradedPoly | int | Fraction | Scalar) -> ArithClass:
        zero_z = GradedPoly.zero(self.zgens)
        return ArithClass(self, zero_z, self._form(poly), GradedPoly.zero(self.agens))

    def from_gamma(self, poly: GradedPoly | int | Fraction | Scalar = 1
                   ) -> ArithClass:
        if self.gamma_degree is None:
            raise ValueError("this ring has no gamma class")
        zero_z = GradedPoly.zero(self.zgens)
        return ArithClass(self, zero_z, GradedPoly.zero(self.agens), self._form(poly))

    def _form(self, poly) -> GradedPoly:
        """poly as a form polynomial: an int, Fraction or Scalar is a
        constant form; anything but these and a GradedPoly is a TypeError."""
        if isinstance(poly, _EXACT):
            return GradedPoly.constant(self.agens, poly)
        if not isinstance(poly, GradedPoly):
            raise TypeError("a form part must be a GradedPoly, int, Fraction "
                            f"or Scalar, not {type(poly).__name__}")
        return poly

    # -- structure -----------------------------------------------------------

    def omega(self, poly: GradedPoly) -> GradedPoly:
        """Forget the arithmetic lift: rename C_j to u_j.  Both sit at index
        j - 1 with degree j, so the result shares poly's slices (neither
        polynomial is ever changed in place)."""
        return _poly(self.agens, poly._slices)

    # -- reduction -----------------------------------------------------------

    def reduce(self, x: ArithClass) -> ArithClass:
        """The normal form of x: its lifted part truncated to the working
        degree and reduced, with what the cofactors push into its form part
        and gamma coefficient.  One sweep over the lifted terms below the
        working degree settles the route and builds the normal form: each
        term looks up its push, and while the push table holds every one,
        adds its kept zq normal form to its slice.  Then _form_sides starts
        both sides and the collected pushes are added, one _add_slices call
        per side and term.  The first term without a push sends x down
        _cofactor_route before anything is divided."""
        if x.ring is not self:
            raise ValueError("class from another ring")
        pushes = self._pushes
        kept = self._zkept
        limit = self._limits[0]
        nf: Slices = {}
        collected = []
        for k1, (d1, terms) in x.z._slices.items():
            acc: dict[int, int] = {}
            for m, n in terms.items():
                # Every key of the table lies below the limit.
                push = pushes.get(m)
                if push is None:
                    if m < limit:
                        return self._cofactor_route(x)
                    continue
                collected.append((k1, n, d1, push))
                for t, v in kept[m]:
                    acc[t] = acc.get(t, 0) + n * v
            if acc:
                nf[k1] = d1, acc
        form, gamma = sides = self._form_sides(x.a, x.g)
        for k1, n, d1, (form_push, gamma_push) in collected:
            if form_push:
                _add_slices(form, k1, n, d1, form_push)
            if gamma_push:
                _add_slices(gamma, k1, n, d1, gamma_push)
        agens = self.agens
        return _assemble(self, GradedPoly.from_slices(self.zgens, nf),
                         GradedPoly.from_slices(agens, form),
                         GradedPoly.from_slices(agens, gamma))

    def _cofactor_route(self, x: ArithClass) -> ArithClass:
        """reduce's cofactor route: the division's cofactors are pushed,
        and then each monomial that zq had divided before this call is
        admitted to the push table: a monomial reduced a second time gets
        its complete push, its kept cofactors pushed by
        _form_contributions."""
        z = x.z.truncate(self.cap)
        monos = z._keys()
        pushes = self._pushes
        held = self.zq.kept_cofactors(())
        repeats = [m for m in monos if m in held and m not in pushes]
        nf, cofactors = self.zq.reduce_with_cofactors(z)
        out = _assemble(self, nf, *self._form_contributions(cofactors, x.a, x.g))
        zero = GradedPoly.zero(self.agens)
        for m in repeats:
            push = self._form_contributions(
                {ri: GradedPoly.from_slices(self.zgens, {(): (1, dict(terms))})
                 for ri, terms in held[m].items()}, zero, zero)
            pushes[m] = tuple(side._slices for side in push)
        return out

    def _form_contributions(self, cofactors: Mapping[int, GradedPoly],
                            a: GradedPoly, g: GradedPoly):
        """The push arithmetic of both routes: the normal forms of the form
        part a and the gamma coefficient g plus what the cofactors
        {relation: cofactor} push into them, each truncated to its working
        degree, as a pair of polynomials.  A cofactor term c*C^t of
        relation r pushes c * beta times the normal form of u^t times r's
        integer form side into r's side; the side is homogeneous, so a term
        above r's room pushes nothing.  The keys t + m of the products are
        divided in one aq.normal_forms pass, smallest first, before the
        monomials of a and g; the products themselves are summed per slice
        through the kept normal forms."""
        shift = self.agens.shift
        parts = self._form_parts
        nf = self.aq.normal_forms({
            t + m for ri, cof in cofactors.items()
            for _, terms in cof._slices.values() for t in terms
            if t >> shift <= parts[ri][1] for m in parts[ri][2]})
        sides = self._form_sides(a, g)
        for ri, cof in cofactors.items():
            side, room, poly, scalar = parts[ri]
            image = {k: (den, _combine(((t + m, c * s) for t, c in terms.items()
                                        if t >> shift <= room
                                        for m, s in poly.items()), nf))
                     for k, (den, terms) in cof._slices.items()}
            for k, num, den in scalar:
                _add_slices(sides[side], k, num, den, image)
        return tuple(GradedPoly.from_slices(self.agens, out) for out in sides)

    def _form_sides(self, a: GradedPoly, g: GradedPoly) -> list[Slices]:
        """One slice accumulator per side, started by the normal form of a
        or g truncated to its working degree: one sweep over its slices
        through the normal forms aq keeps, none for an empty side.  The
        first missing one sends every monomial of that side to
        aq.normal_forms, in one call.  Most sides find every one kept: one
        call per side and no retry read lib-reduce wall_s +6.9% (0.3238 ->
        0.3462 s, higher in 8 of 8 pairs)."""
        kept = self._akept
        sides = []
        for poly, limit in zip((a, g), self._limits[1:]):
            slices = poly._slices
            if not slices:
                sides.append({})
                continue
            try:
                side = linear_image(slices, limit, kept)
            except KeyError:
                self.aq.normal_forms(m for _, terms in slices.values()
                                     for m in terms if m < limit)
                side = linear_image(slices, limit, kept)
            sides.append(side)
        return sides

    # -- display helpers -----------------------------------------------------

    def display_znames(self, latex: bool) -> dict[str, str]:
        if latex:
            return {f"C{j}": f"\\hat{{c}}_{{{j}}}" for j in range(1, len(self.zgens) + 1)}
        return {}

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
        self._setup(d, d, gamma_degree=d, b=lambda k: -bracket(k))


class LagrangianArithRing(ArithRing):
    """Arithmetic ring of the rank-(d-1) Lagrangian Grassmannian.

    The abelian ring without C_d and gamma, with the formal symbol h(2k-1)
    as the bracket sequence: p_k(C) rewrites to (-1)^(k+1) h(2k-1)
    s_{2k-1}(u), and the form relations are p_k(u) = 0.  The second
    argument accepts only "formal", its one value.
    """

    def __init__(self, d: int, harmonic_mode: str = "formal"):
        arithmetic_dimension(d)     # ValueError first for a d that is no int
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
    socle_coordinate: Fraction


def _critical_split(ring: ArithRing):
    """Reduce C1^(1 + top), top = d(d-1)/2, whose form part must lie in the
    one-dimensional socle R^top.  Returns (reduced class, gamma coefficient
    straight from the witness, form coordinate normalized against u1^top,
    the socle coordinate lam of u1^top)."""
    top = ring.d * (ring.d - 1) // 2
    power = GradedPoly.monomial(ring.zgens, ring.zgens.single("C1", top + 1))
    nf, cofactors = ring.zq.reduce_with_cofactors(power)
    zero = GradedPoly.zero(ring.agens)
    reduced = ArithClass(ring, nf, *ring._form_contributions(cofactors, zero, zero))
    raw_g = zero
    for ri, cof in cofactors.items():
        if ring._form_parts[ri][0]:    # C_d -> a(gamma), gamma side 1
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
    return reduced, raw_g, coordinate / lam if top > 0 else coordinate, lam


def c1_critical_power(d: int, ring: AbelianTautRing | None = None) -> CriticalPowerResult:
    """Reduce C1^(1 + d(d-1)/2) and split the result as
    a(r * u1^(d(d-1)/2) + phi * gamma)."""
    ring = _ring_for(d, ring, AbelianTautRing)
    reduced, raw_g, r, lam = _critical_split(ring)
    phi = reduced.g
    # The gamma coefficient's working degree, (d-1)(d-2)/2.
    if not phi.is_zero() and phi.max_degree() != ring.form_caps[1]:
        raise ReductionError("gamma coefficient has the wrong form degree")
    return CriticalPowerResult(d, arithmetic_dimension(d), reduced, r, phi,
                               raw_g, lam)


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
    _, _, height, lam = _critical_split(ring)
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
