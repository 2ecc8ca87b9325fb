"""Sparse graded multivariate polynomials over the exact scalar ring.

Generators carry positive integer degrees; monomials are dense exponent
tuples ordered graded-lexicographically in the declared generator order.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from operator import add, mul
from typing import Callable, Iterable, Mapping

from .scalars import (ConstMonomial, Scalar, ZERO, FormalSeries,
                      _merge_monomials)

Monomial = tuple[int, ...]

# A polynomial split by constant monomial: {constant monomial: (denominator,
# {monomial: numerator})}.  Q-linear work runs on these integer slices; a
# numerator may be 0 until _from_slices drops it.
Slices = dict[ConstMonomial, tuple[int, dict[Monomial, int]]]


class GeneratorSet:
    """Ordered list of named generators with degrees >= 1."""

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, generators: Iterable[tuple[str, int]]):
        names = []
        degrees = []
        for name, degree in generators:
            if degree < 1:
                raise ValueError(f"generator {name!r} must have degree >= 1")
            if name in names:
                raise ValueError(f"duplicate generator {name!r}")
            names.append(name)
            degrees.append(degree)
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.names == other.names and self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def index(self, name: str) -> int:
        return self._index[name]

    def degree_of(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.degrees))

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
    (the staircase of the lead ideal), in monomial_sort_key order."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    # Each lead is tested once its last nonzero exponent is placed.
    tests: list[list[list[tuple[int, int]]]] = [[] for _ in gens.degrees]
    for lead in leads:
        support = [(i, e) for i, e in enumerate(lead) if e]
        if not support:
            return []
        tests[support[-1][0]].append(support)
    out: list[Monomial] = []
    acc: list[int] = []

    def rec(pos: int, remaining: int):
        if pos == len(gens.degrees):
            if remaining == 0:
                out.append(tuple(acc))
            return
        d, checks = gens.degrees[pos], tests[pos]
        # Exponents from high to low list the monomials in order.
        for e in range(remaining // d, -1, -1):
            acc.append(e)
            if not (checks and any(all(acc[i] >= f for i, f in s)
                                   for s in checks)):
                rec(pos + 1, remaining - e * d)
            acc.pop()

    rec(0, degree)
    return out


class GradedPoly:
    """Polynomial with Scalar coefficients over a fixed GeneratorSet."""

    __slots__ = ("gens", "_terms")

    def __init__(self, gens: GeneratorSet,
                 terms: Mapping[Monomial, Scalar | Fraction | int] | None = None):
        self.gens = gens
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                s = Scalar.coerce(coeff)
                if s:
                    clean[tuple(mono)] = s
        self._terms = clean

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

    # -- inspection ----------------------------------------------------------

    def items(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self._terms.items(),
                      key=lambda kv: monomial_sort_key(self.gens, kv[0]))

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(mono), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def max_degree(self) -> int:
        return max((self.gens.degree_of(m) for m in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {self.gens.degree_of(m) for m in self._terms}
        return len(degs) <= 1

    def degree_components(self) -> dict[int, "GradedPoly"]:
        comps: dict[int, dict[Monomial, Scalar]] = {}
        for m, c in self._terms.items():
            comps.setdefault(self.gens.degree_of(m), {})[m] = c
        return {k: GradedPoly(self.gens, t) for k, t in sorted(comps.items())}

    def graded_component(self, degree: int) -> "GradedPoly":
        terms = {m: c for m, c in self._terms.items()
                 if self.gens.degree_of(m) == degree}
        return GradedPoly(self.gens, terms)

    def truncate(self, max_degree: int) -> "GradedPoly":
        terms = {m: c for m, c in self._terms.items()
                 if self.gens.degree_of(m) <= max_degree}
        return GradedPoly(self.gens, terms)

    def symbol_degree(self) -> int:
        return max((c.symbol_degree() for c in self._terms.values()), default=0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "GradedPoly"):
        if self.gens != other.gens:
            raise ValueError("generator-set mismatch")

    def __add__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = GradedPoly.constant(self.gens, other)
        self._check(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            new = terms.get(m, ZERO) + c
            if new:
                terms[m] = new
            else:
                terms.pop(m, None)
        out = GradedPoly.__new__(GradedPoly)
        out.gens = self.gens
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        out = GradedPoly.__new__(GradedPoly)
        out.gens = self.gens
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = GradedPoly.constant(self.gens, other)
        return self + (-other)

    def __rsub__(self, other) -> "GradedPoly":
        return GradedPoly.constant(self.gens, other) + (-self)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = GradedPoly.constant(self.gens, other)
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedPoly":
        if n < 0:
            raise ValueError("negative power")
        result = GradedPoly.constant(self.gens, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_truncated(self, other: "GradedPoly",
                      max_degree: int | None) -> "GradedPoly":
        """Product with monomials above max_degree dropped during expansion;
        None drops none."""
        self._check(other)
        return _from_slices(self.gens, _mul_into({}, self, other, max_degree))

    def rename(self, target: GeneratorSet,
               mapping: Mapping[str, str] | None = None) -> "GradedPoly":
        """Carry the polynomial to another generator set by renaming
        generators (name-to-name by default)."""
        terms: dict[Monomial, Scalar] = {}
        for m, c in self._terms.items():
            out = [0] * len(target)
            for i, e in enumerate(m):
                if e:
                    name = self.gens.names[i]
                    out[target.index(mapping.get(name, name) if mapping else name)] = e
            terms[tuple(out)] = c
        return GradedPoly(target, terms)

    def map_coefficients(self, fn: Callable[[Scalar], Scalar]) -> "GradedPoly":
        return GradedPoly(self.gens, {m: fn(c) for m, c in self._terms.items()})

    def partial(self, name: str) -> "GradedPoly":
        """Formal partial derivative with respect to a generator."""
        i = self.gens.index(name)
        terms: dict[Monomial, Scalar] = {}
        for m, c in self._terms.items():
            if m[i]:
                lowered = m[:i] + (m[i] - 1,) + m[i + 1:]
                terms[lowered] = terms.get(lowered, ZERO) + c * m[i]
        return GradedPoly(self.gens, terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = GradedPoly.constant(self.gens, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.gens == other.gens and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.gens, frozenset(self._terms.items())))

    # -- rendering -----------------------------------------------------------

    def render(self, latex: bool = False,
               names: Mapping[str, str] | None = None) -> str:
        if not self._terms:
            return "0"
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
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

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

    @classmethod
    def from_json(cls, gens: GeneratorSet, data: Mapping) -> "GradedPoly":
        terms: dict[Monomial, Scalar] = {}
        for entry in data["terms"]:
            mono = [0] * len(gens)
            for name, e in entry["monomial"].items():
                mono[gens.index(name)] = int(e)
            terms[tuple(mono)] = Scalar.from_json(entry["coeff"])
        return cls(gens, terms)


def _mul_into(out: Slices, p: GradedPoly, q: GradedPoly,
              max_degree: int | None) -> Slices:
    """out += p * q with monomials above max_degree dropped (None drops
    none): one integer product per pair of slices, the constant monomials
    merged and the denominators multiplied once per pair."""
    if not (p and q):
        return out
    degree_of = p.gens.degree_of
    cap = inf if max_degree is None else max_degree
    right = [(k2, d2, [(m2, n2, degree_of(m2)) for m2, n2 in terms.items()])
             for k2, (d2, terms) in _to_slices(q).items()]
    for k1, (d1, left_terms) in _to_slices(p).items():
        left = [(m1, n1, cap - degree_of(m1)) for m1, n1 in left_terms.items()]
        for k2, d2, right_terms in right:
            k, den = _merge_monomials(k1, k2), d1 * d2
            old, terms = out.setdefault(k, (den, {}))
            if old % den:
                # Bring the target slice to a common denominator.
                new = lcm(old, den)
                for m in terms:
                    terms[m] *= new // old
                out[k] = (new, terms)
                old = new
            scale = old // den
            for m1, n1, room in left:
                n1 *= scale
                for m2, n2, deg2 in right_terms:
                    if deg2 <= room:
                        m = tuple(map(add, m1, m2))
                        terms[m] = terms.get(m, 0) + n1 * n2
    return out


def _denominators(poly: GradedPoly) -> dict[ConstMonomial, int]:
    """Per constant monomial, the lcm of its coefficients' denominators."""
    dens: dict[ConstMonomial, int] = {}
    for c in poly._terms.values():
        for k, q in c._terms.items():
            dens[k] = lcm(dens.get(k, 1), q.denominator)
    return dens


def _to_slices(poly: GradedPoly) -> Slices:
    out: Slices = {k: (den, {}) for k, den in _denominators(poly).items()}
    for m, c in poly._terms.items():
        for k, q in c._terms.items():
            den, terms = out[k]
            terms[m] = q.numerator * (den // q.denominator)
    return out


def _from_slices(gens: GeneratorSet, slices: Slices) -> GradedPoly:
    """The polynomial sum_k k * slices[k], zero numerators dropped.  Consumes
    slices one at a time, so only one slice's numerators are alive next to
    the new Fractions."""
    grouped: dict[Monomial, dict[ConstMonomial, Fraction]] = {}
    while slices:
        k, (den, terms) = slices.popitem()
        for m, n in terms.items():
            if n:
                grouped.setdefault(m, {})[k] = Fraction(n, den)
    out = GradedPoly.__new__(GradedPoly)
    out.gens = gens
    out._terms = terms = {}
    for m, coeffs in grouped.items():
        terms[m] = c = Scalar.__new__(Scalar)
        c._terms = coeffs
    return out


def apply_series_as_polynomial(series: FormalSeries,
                               power_image: Callable[[int], GradedPoly],
                               gens: GeneratorSet,
                               max_degree: int) -> GradedPoly:
    """Substitute ring elements for the powers of the series variable:
    sum_j S_j * power_image(j), truncated at max_degree.

    Every image must be homogeneous, with degree j * w for a fixed weight w
    inferred from the first nonzero image; inconsistent degrees are rejected.
    """
    result = GradedPoly.zero(gens)
    weight = None
    for j in sorted(series.coefficients()):
        coeff = series.coefficient(j)
        if not coeff:
            continue
        if j == 0:
            result = result + GradedPoly.constant(gens, coeff)
            continue
        image = power_image(j)
        if image.is_zero():
            continue
        if not image.is_homogeneous():
            raise ValueError(f"image of power {j} is not homogeneous")
        if weight is None:
            weight, rem = divmod(image.max_degree(), j)
            if rem:
                raise ValueError(f"image of power {j} has degree not divisible by {j}")
        if image.max_degree() != j * weight:
            raise ValueError(f"image of power {j} breaks the degree pattern")
        if j * weight <= max_degree:
            result = result + image * coeff
    return result.truncate(max_degree)
