"""Exact scalar arithmetic: rationals, Bernoulli/zeta/harmonic values and
the formal-constant ring Q[L, Z1, Z3, ..., h1, h3, ..., x0, x1, ...].
Truncated power series over these scalars live in ``series``.

The symbol L stands for log 2, Z(2k-1) for the zeta derivative at 1-2k,
h(2k-1) for a formal odd harmonic coefficient and xj for the j-th unknown of
a linear system.  All are independent commuting indeterminates; zeta(1-2k)
itself is the exact rational -B(2k)/(2k) and never a symbol.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

Rational = Fraction

# Monomial in the formal constants: sorted tuple of (symbol, exponent) pairs.
ConstMonomial = tuple[tuple[str, int], ...]

_SYMBOL_KIND_ORDER = {"L": 0, "Z": 1, "h": 2, "x": 3}


def symbol_sort_key(name: str) -> tuple[int, int]:
    """Deterministic symbol order: L, Z1 < Z3 < ..., h1 < h3 < ..., x0 < x1 < ..."""
    if name == "L":
        return (0, 0)
    kind, index = name[0], name[1:]
    if kind not in _SYMBOL_KIND_ORDER or not index.isdigit():
        raise ValueError(f"unknown formal constant {name!r}")
    return (_SYMBOL_KIND_ORDER[kind], int(index))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Scalar:
    """Element of the formal-constant ring, stored as a sparse monomial map.

    Immutable; all arithmetic returns new values.  No zero coefficients are
    ever stored and monomials are kept sorted, so equal values compare equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ConstMonomial, Fraction] | None = None):
        clean: dict[ConstMonomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        return cls({(): _as_fraction(value)})

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        symbol_sort_key(name)  # validates
        return cls({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.from_rational(value)

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterable[tuple[ConstMonomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: _monomial_key(kv[0]))

    def coefficient(self, mono: ConstMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def rational_part(self) -> Fraction:
        return self._terms.get((), Fraction(0))

    def is_rational(self) -> bool:
        return all(m == () for m in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def symbols(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    def symbol_degree(self) -> int:
        """Largest total degree in the formal constants (0 for rationals)."""
        return max((sum(e for _, e in m) for m in self._terms), default=0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        other = Scalar.coerce(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, Fraction(0)) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        out = Scalar.__new__(Scalar)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        out = Scalar.__new__(Scalar)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other) -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other) -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                return Scalar()
            out = Scalar.__new__(Scalar)
            out._terms = {m: c * q for m, c in self._terms.items()}
            return out
        if not isinstance(other, Scalar):
            return NotImplemented
        terms: dict[ConstMonomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                new = terms.get(mono, Fraction(0)) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    terms.pop(mono, None)
        out = Scalar.__new__(Scalar)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        if isinstance(other, Scalar):
            if not other.is_rational():
                raise ValueError("can only divide by a rational scalar")
            other = other.rational_part()
        q = _as_fraction(other)
        if not q:
            raise ZeroDivisionError("division by zero scalar")
        return self * (Fraction(1) / q)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A rational value equals its Fraction (and int), so it hashes alike.
        if self._terms.keys() <= {()}:
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Simultaneously replace formal constants by scalar values.

        Each bound symbol must map to a value not mentioning that symbol
        (self-referential bindings are rejected).  Unbound symbols pass
        through unchanged.
        """
        for name, value in bindings.items():
            symbol_sort_key(name)
            value = Scalar.coerce(value)
            if name in value.symbols() and value != Scalar.symbol(name):
                raise ValueError(f"cyclic binding for {name!r}")
        result = Scalar()
        for mono, coeff in self._terms.items():
            term = Scalar.from_rational(coeff)
            for name, exp in mono:
                if name in bindings:
                    factor = Scalar.coerce(bindings[name])
                else:
                    factor = Scalar.symbol(name)
                for _ in range(exp):
                    term = term * factor
            result = result + term
        return result

    # -- rendering and serialization ---------------------------------------

    def render(self, latex: bool = False) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            factors = [_symbol_display(name, latex) + _exp_display(exp, latex)
                       for name, exp in mono]
            body = (" " if latex else "*").join(factors)
            parts.append(_coeff_display(coeff, bool(body), latex) + body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"

    def to_json(self) -> dict:
        """JSON form: rational and linear parts as flat keys, higher monomials
        under "terms"; every number is an exact fraction string."""
        out: dict = {}
        extra = []
        for mono, coeff in self.items():
            if mono == ():
                out["rat"] = str(coeff)
            elif len(mono) == 1 and mono[0][1] == 1:
                out[mono[0][0]] = str(coeff)
            else:
                extra.append({"monomial": {n: e for n, e in mono}, "coeff": str(coeff)})
        if extra:
            out["terms"] = extra
        return out


# The operands Scalar arithmetic takes; with any other, Python tries the
# other operand's reflected method.
_EXACT = (int, Fraction, Scalar)


def _monomial_key(mono: ConstMonomial):
    return (sum(e for _, e in mono), tuple((symbol_sort_key(n), e) for n, e in mono))


def _merge_monomials(m1: ConstMonomial, m2: ConstMonomial) -> ConstMonomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[str, int] = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items(), key=lambda p: symbol_sort_key(p[0])))


def _symbol_display(name: str, latex: bool) -> str:
    if name == "L":
        return "\\log 2" if latex else "log2"
    if name.startswith("Z"):
        return ("\\zeta'(-%s)" if latex else "zeta'(-%s)") % name[1:]
    return "%s_{%s}" % (name[0], name[1:]) if latex else name


def _exp_display(exp: int, latex: bool) -> str:
    if exp == 1:
        return ""
    return ("^{%d}" if latex else "^%d") % exp


def _coeff_display(coeff: Fraction, has_body: bool, latex: bool) -> str:
    if not has_body:
        if latex and coeff.denominator != 1:
            sign = "-" if coeff < 0 else ""
            return f"{sign}\\frac{{{abs(coeff.numerator)}}}{{{coeff.denominator}}}"
        return str(coeff)
    if coeff == 1:
        return ""
    if coeff == -1:
        return "-"
    if latex:
        if coeff.denominator != 1:
            sign = "-" if coeff < 0 else ""
            return f"{sign}\\frac{{{abs(coeff.numerator)}}}{{{coeff.denominator}}}"
        return f"{coeff}"
    return f"{coeff}*"


ZERO = Scalar()
ONE = Scalar.from_rational(1)
LOG2 = Scalar.symbol("L")


def zeta_prime_symbol(k: int) -> Scalar:
    """The formal constant standing for the zeta derivative at -(2k-1)."""
    if k < 1:
        raise ValueError("k must be positive")
    return Scalar.symbol(f"Z{2 * k - 1}")


def harmonic_symbol(k: int) -> Scalar:
    """The formal odd harmonic placeholder h(2k-1)."""
    if k < 1:
        raise ValueError("k must be positive")
    return Scalar.symbol(f"h{2 * k - 1}")


# ---------------------------------------------------------------------------
# Bernoulli numbers, zeta values, harmonic numbers
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention B_1 = -1/2.

    Computed by the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)
        acc = sum(Fraction(comb(m + 1, j)) * _BERNOULLI_CACHE[j] for j in range(m))
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[n]


def zeta_negative_odd(k: int) -> Fraction:
    """Exact value zeta(1-2k) = -B_{2k}/(2k) for k >= 1."""
    if k < 1:
        raise ValueError("k must be positive")
    return -bernoulli(2 * k) / (2 * k)


def harmonic(n: int) -> Fraction:
    """Harmonic number H_n = 1 + 1/2 + ... + 1/n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def bracket(k: int) -> Scalar:
    """2 Z(2k-1)/zeta(1-2k) + H(2k-1) - 2 log2/(1-4^-k), exact: the bracket
    of the arithmetic Riemann-Roch theorem (Gillet-Soule) in degree 2k-1."""
    return (zeta_prime_symbol(k) * (2 / zeta_negative_odd(k))
            + Scalar.from_rational(harmonic(2 * k - 1))
            - LOG2 * Fraction(2 * 4**k, 4**k - 1))
