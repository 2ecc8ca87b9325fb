"""Sparse graded multivariate polynomials over the exact scalar ring.

Generators carry positive integer degrees; monomials are dense exponent
tuples ordered graded-lexicographically in the declared generator order.

Inside the pipeline a monomial is one int, its packed key.  Generator i's
exponent fills the 16-bit field at bit 16 i, and the top bit of each field
is an overflow guard, so every exponent is below EXPONENT_LIMIT = 2^15.
Above the fields, from bit shift = 16 * len(gens), the key holds the
weighted degree, with no width limit.  Three operations act on packed
monomials:

* a product is +: two exponents below 2^15 sum below 2^16, so no field
  carries into the next, the degrees add, and a sum at or over the limit
  sets its field's guard bit (GeneratorSet.guard), which sum_of_products
  checks;
* dividing by a monomial known to divide is -;
* x_i^e divides m exactly when m & field_mask(i) >= x_i^e & field_mask(i),
  one mask-and-compare.

The degree of a key is key >> shift.  Two keys compare by degree, then as
their exponent tuples read from the last generator, so within one degree
the larger monomial in the quotient's graded reverse-lex order is the
smaller int.  Tuples appear only at the public boundary (degree_of, single,
unit, the GradedPoly constructors, coefficient, items, monomials and
monomials_of_degree), and each is validated there before it is packed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from struct import Struct, error as StructError
from typing import Callable, Iterable, Mapping

from .scalars import _EXACT, ConstMonomial, Scalar, _merge_monomials, join_signed

Monomial = tuple[int, ...]

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1

# A polynomial split by constant monomial: {constant monomial: (denominator,
# {packed monomial: numerator})}, the layout GradedPoly stores, each slice in
# lowest terms (int numerators, none 0, with the denominator coprime to their
# gcd).  Stored slices are never changed in place, so polynomials may share
# them.
Slices = dict[ConstMonomial, tuple[int, dict[int, int]]]

# Integer terms as (packed monomial, int) pairs: a dict's items(), or a
# tuple of pairs, the format of every kept normal form, cofactor and step
# image.
Terms = Iterable[tuple[int, int]]


class GeneratorSet:
    """Ordered list of named generators with int degrees >= 1."""

    __slots__ = ("names", "degrees", "shift", "guard", "product_limit",
                 "_index", "_fields")

    def __init__(self, generators: Iterable[tuple[str, int]]):
        names = []
        degrees = []
        for name, degree in generators:
            if not isinstance(degree, int):
                raise ValueError(f"generator {name!r} must have an int degree")
            if degree < 1:
                raise ValueError(f"generator {name!r} must have degree >= 1")
            if name in names:
                raise ValueError(f"duplicate generator {name!r}")
            names.append(name)
            degrees.append(degree)
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        # The degree field's first bit, above every exponent field.
        self.shift = FIELD_BITS * len(names)
        # The top bit of every field: set in a product exactly when one of
        # its exponents reached EXPONENT_LIMIT.
        self.guard = sum(EXPONENT_LIMIT << FIELD_BITS * i for i in range(len(names)))
        # An int above the key of every product of two monomials: its
        # exponents are below 2^16, so its degree is below 2^16 * sum(degrees).
        self.product_limit = ((sum(degrees) << FIELD_BITS) + 1) << self.shift
        self._index = {n: i for i, n in enumerate(names)}
        # A packed monomial's little-endian bytes are its unsigned 16-bit
        # fields, first generator first.
        self._fields = Struct(f"<{len(names)}H")

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.names == other.names and self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def index(self, name: str) -> int:
        """The position of the named generator; ValueError if the set has
        no such generator."""
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"no generator {name!r} in {self!r}") from None

    def pack(self, mono: Iterable[int]) -> int:
        """mono's packed key, the one place a degree is computed; ValueError
        unless it holds one int exponent per generator, each in
        0 .. EXPONENT_LIMIT - 1.  The 16-bit fields reject a wrong length, a
        non-int and an exponent outside 0 .. 2^16 - 1; the guard bits, one at
        or above the limit."""
        mono = tuple(mono)
        try:
            key = int.from_bytes(self._fields.pack(*mono), "little")
        except StructError:
            key = None
        if key is None or key & self.guard:
            raise ValueError(f"monomial {mono} is not an exponent vector over "
                             f"{len(self.names)} generators (int exponents "
                             f"below {EXPONENT_LIMIT})")
        return key + (sum(map(mul, mono, self.degrees)) << self.shift)

    def unpack(self, key: int) -> Monomial:
        """The exponent tuple of a packed monomial, its degree masked off."""
        fields = self._fields
        return fields.unpack((key & ~(-1 << self.shift)).to_bytes(fields.size, "little"))

    @staticmethod
    def field_mask(i: int) -> int:
        """The bits of generator i's field: x_i^e divides m exactly when
        m & field_mask(i) >= x_i^e & field_mask(i), both packed."""
        return _FIELD << FIELD_BITS * i

    def degree_of(self, mono: Iterable[int]) -> int:
        """ValueError unless mono is an exponent vector, checked on every
        call: it is packed first."""
        return self.packed_degree(self.pack(mono))

    def packed_degree(self, key: int) -> int:
        """The degree of a packed monomial, read off its degree field."""
        return key >> self.shift

    def unit(self) -> Monomial:
        return (0,) * len(self.names)

    def single(self, name: str, exp: int = 1) -> Monomial:
        mono = [0] * len(self.names)
        mono[self.index(name)] = exp
        return tuple(mono)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GeneratorSet({inner})"


def monomial_sort_key(gens: GeneratorSet, mono: Monomial):
    """Graded lexicographic order: by degree, then by exponents with the
    first declared generator most significant."""
    return (gens.degree_of(mono), tuple(-e for e in mono))


def monomials_of_degree(gens: GeneratorSet, degree: int,
                        leads: Iterable[Monomial] = ()) -> list[Monomial]:
    """The monomials of the given degree that no monomial in leads divides
    (the staircase of the lead ideal), in monomial_sort_key order.

    Each lead must be a power x_i^a of one generator (ValueError otherwise),
    which caps x_i's exponent below a.  Each generator's exponent is then
    kept high enough that the later generators, under their caps, can still
    reach the remaining degree, so no branch is entered that cannot end in a
    monomial."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    degrees = gens.degrees
    caps = [degree // d for d in degrees]
    for lead in leads:
        support = [(i, e) for i, e in enumerate(gens.unpack(gens.pack(lead))) if e]
        if len(support) != 1:
            raise ValueError(f"lead {tuple(lead)} is not a power of one generator")
        (i, e), = support
        caps[i] = min(caps[i], e - 1)
    # reach[pos]: the highest degree that generators pos.. reach under their caps.
    reach = [0] * (len(degrees) + 1)
    for pos in range(len(degrees) - 1, -1, -1):
        reach[pos] = reach[pos + 1] + caps[pos] * degrees[pos]
    out: list[Monomial] = []
    acc: list[int] = []

    def rec(pos: int, remaining: int):
        if pos == len(degrees):
            out.append(tuple(acc))
            return
        d = degrees[pos]
        # Exponents from high to low list the monomials in order; the lowest
        # leaves the later generators no more than they reach, so the last
        # generator's exponent brings the remaining degree to exactly 0.
        low = max(0, -((reach[pos + 1] - remaining) // d))
        for e in range(min(remaining // d, caps[pos]), low - 1, -1):
            acc.append(e)
            rec(pos + 1, remaining - e * d)
            acc.pop()

    if degree <= reach[0]:
        rec(0, degree)
    return out


class GradedPoly:
    """Polynomial with Scalar coefficients over a fixed GeneratorSet, stored
    as its integer slices; Scalars are built where a coefficient is read."""

    __slots__ = ("gens", "_slices")

    def __init__(self, gens: GeneratorSet,
                 terms: Mapping[Monomial, Scalar | Fraction | int] | None = None):
        self.gens = gens
        out: Slices = {}
        for mono, coeff in (terms or {}).items():
            mono = gens.pack(mono)
            for k, q in Scalar.coerce(coeff)._terms.items():
                _add_slice(out, k, q.numerator, q.denominator, ((mono, 1),))
        self._slices = GradedPoly.from_slices(gens, out)._slices

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "GradedPoly":
        return cls(gens)

    @classmethod
    def constant(cls, gens: GeneratorSet, value) -> "GradedPoly":
        return cls(gens, {gens.unit(): Scalar.coerce(value)})

    @classmethod
    def generator(cls, gens: GeneratorSet, name: str) -> "GradedPoly":
        return cls(gens, {gens.single(name): Scalar.coerce(1)})

    @classmethod
    def monomial(cls, gens: GeneratorSet, mono: Monomial, coeff=1) -> "GradedPoly":
        return cls(gens, {tuple(mono): Scalar.coerce(coeff)})

    @classmethod
    def from_slices(cls, gens: GeneratorSet, slices: Mapping) -> "GradedPoly":
        """sum_k k * terms / den over slices {k: (den, terms)}, brought to
        lowest terms in one pass; numerators are ints and may be 0, and den
        must be positive.  A terms dict that is already in lowest terms is
        stored as it is, so the caller hands it over and must never change
        it afterwards.  A slice over 1 is in lowest terms once its zeros are
        gone, so it takes no gcd."""
        out = cls.__new__(cls)
        out.gens = gens
        out._slices = kept = {}
        for k, (den, terms) in slices.items():
            if not all(terms.values()):
                terms = {m: n for m, n in terms.items() if n}
            if not terms:
                continue
            if den != 1 and (g := gcd(den, *terms.values())) != 1:
                den //= g
                terms = {m: n // g for m, n in terms.items()}
            kept[k] = den, terms
        return out

    # -- inspection ----------------------------------------------------------

    def items(self) -> list[tuple[Monomial, Scalar]]:
        """(monomial, coefficient) pairs in monomial_sort_key order: by
        exponent tuple from the largest, then stably by degree."""
        shift = self.gens.shift
        pairs = sorted(((self.gens.unpack(key), key) for key in self._keys()),
                       reverse=True)
        pairs.sort(key=lambda pair: pair[1] >> shift)
        return [(mono, self._coefficient(key)) for mono, key in pairs]

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._coefficient(self.gens.pack(mono))

    def _coefficient(self, key: int) -> Scalar:
        return Scalar({k: Fraction(n, den) for k, (den, terms) in self._slices.items()
                       if (n := terms.get(key))})

    def is_zero(self) -> bool:
        return not self._slices

    def __bool__(self) -> bool:
        return bool(self._slices)

    def monomials(self) -> set[Monomial]:
        """The monomials with a nonzero coefficient."""
        return set(map(self.gens.unpack, self._keys()))

    def _keys(self) -> set[int]:
        """The packed monomials with a nonzero coefficient."""
        return set().union(*(terms for _, terms in self._slices.values()))

    def max_degree(self) -> int:
        """The largest degree of a monomial, 0 for the zero polynomial: the
        degree of the largest key."""
        return max((max(terms) for _, terms in self._slices.values()),
                   default=0) >> self.gens.shift

    def is_homogeneous(self) -> bool:
        return len({m >> self.gens.shift for m in self._keys()}) <= 1

    def degree_components(self) -> dict[int, "GradedPoly"]:
        """The homogeneous components by increasing degree, split in one
        pass over the terms."""
        shift = self.gens.shift
        split: dict[int, Slices] = {}
        for k, (den, terms) in self._slices.items():
            for m, n in terms.items():
                split.setdefault(m >> shift, {}).setdefault(k, (den, {}))[1][m] = n
        return {j: GradedPoly.from_slices(self.gens, split[j]) for j in sorted(split)}

    def truncate(self, max_degree: int) -> "GradedPoly":
        """The monomials of degree at most max_degree; self if that is all."""
        if not self._slices or self.max_degree() <= max_degree:
            return self
        limit = (max_degree + 1) << self.gens.shift
        return GradedPoly.from_slices(self.gens, {
            k: (den, {m: n for m, n in terms.items() if m < limit})
            for k, (den, terms) in self._slices.items()})

    def symbol_degree(self) -> int:
        return max((sum(e for _, e in k) for k in self._slices), default=0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "GradedPoly"):
        if self.gens != other.gens:
            raise ValueError("generator-set mismatch")

    def __add__(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            self._check(other)
            added = other._slices
        elif isinstance(other, _EXACT):
            # A constant's slices: each term on the unit monomial, key 0.
            added = {k: (q.denominator, {0: q.numerator})
                     for k, q in _scalar_terms(other)}
        else:
            return NotImplemented
        out: Slices = {}
        _add_slices(out, (), 1, 1, self._slices)
        _add_slices(out, (), 1, 1, added)
        return GradedPoly.from_slices(self.gens, out)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return GradedPoly.from_slices(self.gens, {
            k: (den, {m: -n for m, n in terms.items()})
            for k, (den, terms) in self._slices.items()})

    def __sub__(self, other) -> "GradedPoly":
        return self + (-other)

    def __rsub__(self, other) -> "GradedPoly":
        return -self + other

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, _EXACT):
            # One target slice per merged constant monomial: k1 * k2 is
            # reached from several pairs when the scalar has symbols.
            out: Slices = {}
            for k, q in _scalar_terms(other):
                _add_slices(out, k, q.numerator, q.denominator, self._slices)
            return GradedPoly.from_slices(self.gens, out)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedPoly":
        return _power(self, n, GradedPoly.constant(self.gens, 1))

    def mul_truncated(self, other: "GradedPoly",
                      max_degree: int | None) -> "GradedPoly":
        """Product with monomials above max_degree dropped during expansion;
        None drops none."""
        return sum_of_products(self.gens, [(self, other)], max_degree)

    def map_coefficients(self, fn: Callable[[Scalar], Scalar]) -> "GradedPoly":
        return GradedPoly(self.gens, {m: fn(c) for m, c in self.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, _EXACT):
            other = GradedPoly.constant(self.gens, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.gens == other.gens and self._slices == other._slices

    def __hash__(self) -> int:
        # A constant equals its coefficient (and an int or Fraction), so it
        # hashes alike.
        if self._keys() <= {0}:
            return hash(self._coefficient(0))
        return hash((self.gens, frozenset((k, den, frozenset(terms.items()))
                                          for k, (den, terms) in self._slices.items())))

    # -- rendering -----------------------------------------------------------

    def render(self, latex: bool = False,
               names: Mapping[str, str] | None = None) -> str:
        parts = []
        for mono, coeff in self.items():
            factors = []
            for i, e in enumerate(mono):
                if not e:
                    continue
                name = self.gens.names[i]
                if names and name in names:
                    name = names[name]
                if e == 1:
                    factors.append(name)
                else:
                    factors.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
            body = (" " if latex else "*").join(factors)
            cs = coeff.render(latex)
            if not body:
                parts.append(cs if " " not in cs else f"({cs})")
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            elif " " in cs:
                parts.append(f"({cs})" + (" " if latex else "*") + body)
            else:
                parts.append(cs + ("" if latex else "*") + body)
        return join_signed(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GradedPoly({self.render()})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for mono, coeff in self.items():
            named = {self.gens.names[i]: e for i, e in enumerate(mono) if e}
            terms.append({"monomial": named, "coeff": coeff.to_json()})
        return {"terms": terms}


def _power(base, n: int, one):
    """base ** n by square and multiply, starting from one; ValueError for
    a negative n."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _scalar_terms(value) -> Iterable[tuple[ConstMonomial, int | Fraction]]:
    """The nonzero (constant monomial, rational) terms of an int, Fraction
    or Scalar."""
    if isinstance(value, Scalar):
        return value._terms.items()
    return [((), value)] if value else []


def sum_of_products(gens: GeneratorSet, pairs: Iterable[tuple[GradedPoly, GradedPoly]],
                    max_degree: int | None, start: GradedPoly | None = None) -> GradedPoly:
    """start + the sum of p * q over the pairs, with monomials above
    max_degree dropped during expansion (None drops none).  One integer
    product per pair of slices: the constant monomials are merged and the
    denominators multiplied once per pair.  A product of packed monomials is
    their sum, kept when below (max_degree + 1) << shift, or below
    gens.product_limit, an int above every product key, when there is no
    cap.  A product that reaches EXPONENT_LIMIT keeps its guard bit
    whatever its coefficient, so the keys of the sum are checked once, and
    it raises ValueError.  Under a cap below EXPONENT_LIMIT no kept product
    can reach it (each exponent is at most the degree), so no key is
    checked."""
    if start is not None and start.gens != gens:
        raise ValueError("generator-set mismatch")
    limit = (gens.product_limit if max_degree is None
             else (max_degree + 1) << gens.shift)
    out: Slices = {}
    if start is not None:
        _add_slices(out, (), 1, 1, start._slices)
    for p, q in pairs:
        if not p.gens == q.gens == gens:
            raise ValueError("generator-set mismatch")
        _add_products(out, p._slices, q._slices, limit)
    if max_degree is None or max_degree >= EXPONENT_LIMIT:
        guard = gens.guard
        for _, terms in out.values():
            for m in terms:
                if m & guard:
                    raise ValueError("a product exponent reaches "
                                     f"{EXPONENT_LIMIT}: {gens.unpack(m)}")
    return GradedPoly.from_slices(gens, out)


def _add_products(out: dict, left: Slices, right: Slices, limit: int):
    """out += left * right, in place, as _add_slice adds: one integer
    product per pair of slices, into out's slice of the merged constant
    monomial over the product of the denominators.  A product of packed
    monomials is their sum, kept when below limit; nothing checks the
    generator sets or the guard bits, which is the caller's part."""
    for k1, (d1, lterms) in left.items():
        for k2, (d2, rterms) in right.items():
            terms, scale = _target_slice(out, _merge_monomials(k1, k2), d1 * d2)
            for m1, n1 in lterms.items():
                n1 *= scale
                for m2, n2 in rterms.items():
                    if (m := m1 + m2) < limit:
                        terms[m] = terms.get(m, 0) + n1 * n2


def linear_image(slices: Slices, limit: int,
                 image: Mapping[int, Terms]) -> Slices:
    """The linear map m -> image[m] for m below limit, 0 for the others,
    applied to slices in one sweep: each slice keeps its denominator and
    gets fresh terms, which may hold zeros, and a slice left with no term is
    dropped.  KeyError if image lacks a monomial below limit."""
    out: Slices = {}
    for k, (den, terms) in slices.items():
        acc: dict[int, int] = {}
        for m, n in terms.items():
            if m < limit:
                for t, v in image[m]:
                    acc[t] = acc.get(t, 0) + n * v
        if acc:
            out[k] = den, acc
    return out


def _combine(pairs: Terms, image: Mapping[int, Terms]) -> dict[int, int]:
    """The sum of n * image[m] over the pairs (m, n), a fresh dict that may
    hold zeros.  KeyError if image lacks a monomial."""
    acc: dict[int, int] = {}
    for m, n in pairs:
        for t, v in image[m]:
            acc[t] = acc.get(t, 0) + n * v
    return acc


def _add_slice(out: dict, k: ConstMonomial, num: int, den: int, source: Terms):
    """out's slice k += num * source / den, in place; out is an accumulator
    of slices that GradedPoly.from_slices then takes over.  The first
    contribution to a slice becomes the slice: a fresh dict of num * source."""
    if k not in out:
        out[k] = den, {m: n * num for m, n in source}
        return
    terms, scale = _target_slice(out, k, den)
    scale *= num
    for m, n in source:
        terms[m] = terms.get(m, 0) + n * scale


def _add_slices(out: dict, k1: ConstMonomial, num: int, den: int,
                slices: Slices):
    """out += k1 * num * slices / den, in place, as _add_slice does for one
    slice: slice k2 of slices goes to out's slice k1 * k2 (k2 itself when
    k1 is the empty monomial), brought to a common denominator."""
    for k2, (d2, source) in slices.items():
        _add_slice(out, _merge_monomials(k1, k2) if k1 else k2, num, den * d2,
                   source.items())


def _target_slice(out: dict, k: ConstMonomial, den: int) -> tuple[dict, int]:
    """The terms of out's slice k, brought to a common denominator with
    den, and the factor that takes a numerator over den to it."""
    slot = out.get(k)
    if slot is None:
        terms = {}
        out[k] = den, terms
        return terms, 1
    old, terms = slot
    if old % den:
        new = lcm(old, den)
        for m in terms:
            terms[m] *= new // old
        out[k] = (new, terms)
        old = new
    return terms, old // den
