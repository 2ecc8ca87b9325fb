"""Truncated power series and the code that only the series checks run:
Chern classes from their power sums (Newton's identities inverted),
additive and multiplicative classes of a series, the single-class
extraction of an even series and its reference route, and the even Chern
character check of an abelian ring.

No ring command runs this module, so it loads on first use: ``verify``
imports it, and so do the package's lazy table (``tautcalc.ch_even_check``
and the class functions) and ``arakelov.ch_even_check``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, NamedTuple, Sequence

from .scalars import ONE, ZERO, Scalar, bracket
from .graded import GeneratorSet, GradedPoly, sum_of_products
from .charclasses import ClassVector, ch_from_c, pontrjagin_from_c
from .arakelov import AbelianTautRing, _ring_for


# ---------------------------------------------------------------------------
# Truncated power series over Scalar: a series known to order N is the list
# of its N + 1 coefficients, so nothing past the order can be read.
# ---------------------------------------------------------------------------

Series = list[Scalar]


def series(order: int, coeffs: Mapping[int, Scalar | Fraction | int]) -> Series:
    """The series of the given order with coefficient coeffs[k] at z^k and
    zero elsewhere; every exponent must lie in 0..order."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    out = [ZERO] * (order + 1)
    for k, c in coeffs.items():
        if not 0 <= k <= order:
            raise ValueError(f"exponent {k} outside 0..{order}")
        out[k] = Scalar.coerce(c)
    return out


def series_mul(f: Series, g: Series) -> Series:
    """Product, truncated at the lower of the two orders."""
    n = min(len(f), len(g))
    out = [ZERO] * n
    for i in range(n):
        if f[i]:
            for j in range(n - i):
                if g[j]:
                    out[i + j] = out[i + j] + f[i] * g[j]
    return out


def series_derivative(f: Series) -> Series:
    """d/dz, one order lower (a constant stays at order 0)."""
    return [c * k for k, c in enumerate(f) if k] or [ZERO]


def series_inverse(f: Series) -> Series:
    """Multiplicative inverse; the constant term must be invertible (rational, nonzero)."""
    if not f[0].is_rational() or f[0].is_zero():
        raise ValueError("series inverse needs a nonzero rational constant term")
    inv0 = Fraction(1) / f[0].rational_part()
    out = [Scalar.from_rational(inv0)]
    for k in range(1, len(f)):
        acc = ZERO
        for j in range(1, k + 1):
            if f[j]:
                acc = acc + f[j] * out[k - j]
        out.append(-acc * inv0)
    return out


def series_log(f: Series) -> Series:
    """log of a series with constant term 1."""
    if f[0] != ONE:
        raise ValueError("log needs constant term 1")
    # l' = f'/f  gives  l_k = f_k - (1/k) sum_{j<k} j l_j f_{k-j}
    out = [ZERO]
    for k in range(1, len(f)):
        acc = ZERO
        for j in range(1, k):
            if out[j] and f[k - j]:
                acc = acc + out[j] * j * f[k - j]
        out.append(f[k] - acc / k)
    return out


def compose_even(f: Series) -> Series:
    """Substitute z^2 -> -z in an even series: the result has coefficient
    (-1)^k * [z^(2k)] f at z^k.  Rejects series with odd terms."""
    if any(f[1::2]):
        raise ValueError("compose_even needs an even series")
    return [c * (-1) ** k for k, c in enumerate(f[::2])]


# ---------------------------------------------------------------------------
# Built-in series
# ---------------------------------------------------------------------------


def sech_squared_half(order: int) -> Series:
    """The even series 1/cosh^2(z/2), computed by squaring and inverting cosh."""
    cosh: dict[int, Fraction] = {}
    fact = 1
    for m in range(0, order + 1):
        if m > 0:
            fact *= m
        if m % 2 == 0:
            cosh[m] = Fraction(1, fact * 2**m)
    c = series(order, cosh)
    return series_inverse(series_mul(c, c))


def ch_even_defect_series(order: int) -> Series:
    """Odd additive series with x^(2k-1) coefficient
    (Z(2k-1)/zeta(1-2k) + H(2k-1)/2 - L/(1-4^-k)) / (2k-1)!.

    Applying it as an additive class to the Hodge classes measures the defect
    of the even part of the arithmetic Chern character from the rank."""
    coeffs: dict[int, Scalar] = {}
    fact = Fraction(1)
    for m in range(1, order + 1):
        fact *= m
        if m % 2 == 1:
            coeffs[m] = bracket((m + 1) // 2) / (2 * fact)
    return series(order, coeffs)


# ---------------------------------------------------------------------------
# Chern classes from power sums
# ---------------------------------------------------------------------------


def c_from_ch(power_sums: Sequence[GradedPoly], rank: int,
              gens: GeneratorSet) -> ClassVector:
    """Invert Newton's identities: recover c_1..c_rank from s_1..s_rank,
    c_k = (-1)^(k-1)/k (s_k + sum_{i<k} (-1)^i c_i s_{k-i}), each step one
    sum of products.  ValueError for fewer than rank power sums."""
    if len(power_sums) < rank:
        raise ValueError(f"rank {rank} needs the power sums s_1..s_{rank}, "
                         f"got {len(power_sums)}")
    classes: list[GradedPoly] = []
    signed: list[GradedPoly] = []
    for k in range(1, rank + 1):
        pairs = [(c, power_sums[k - i - 1]) for i, c in enumerate(signed, 1)]
        acc = sum_of_products(gens, pairs, None, power_sums[k - 1])
        classes.append(acc * Fraction((-1) ** (k - 1), k))
        signed.append(classes[-1] * (-1) ** k)
    return ClassVector(gens, classes)


# ---------------------------------------------------------------------------
# Classes of a series
# ---------------------------------------------------------------------------


def additive_class(series: Series, classes: ClassVector,
                   max_degree: int) -> GradedPoly:
    """sum_k f_k k! ch^[k] for k <= max_degree, for a series f with zero
    constant term known at least to order max_degree."""
    if series[0]:
        raise ValueError("additive class needs zero constant term")
    if max_degree >= len(series):
        raise ValueError(f"series known to order {len(series) - 1}, "
                         f"class asked to degree {max_degree}")
    result = GradedPoly.zero(classes.gens)
    for j, s in enumerate(ch_from_c(classes, max_degree), start=1):
        if series[j]:
            result = result + s * series[j]
    return result


def multiplicative_class(series: Series, classes: ClassVector,
                         max_degree: int) -> GradedPoly:
    """exp(additive class of log Q) for a series Q with Q(0) = 1; equals the
    product of Q over the Chern roots.

    exp runs by its degree recursion, from E' = F' E: with F_j the degree-j
    component of the additive class, the degree-k component of the result
    is E_k = (1/k) sum_{j=1..k} j F_j E_{k-j}, one sum of products per
    degree up to max_degree."""
    if series[0] != ONE:
        raise ValueError("multiplicative class needs constant term 1")
    gens = classes.gens
    exponent = additive_class(series_log(series), classes, max_degree)
    weighted = {j: f * j for j, f in exponent.degree_components().items()}
    parts = [GradedPoly.constant(gens, 1)]
    for k in range(1, max_degree + 1):
        e_k = sum_of_products(gens, [(f, parts[k - j]) for j, f in weighted.items()
                                     if j <= k], None)
        parts.append(e_k * Fraction(1, k))
    return sum(parts[1:], parts[0])


def cauchy_single_class(series: Series) -> Series:
    """For an even series Q with Q(0) = 1, the series whose z^k coefficient is
    the coefficient of the single class p_k in the associated multiplicative
    class: Q(sqrt(-z)) * d/dz [ z / Q(sqrt(-z)) ], known to the order of
    Q(sqrt(-z))."""
    if series[0] != ONE:
        raise ValueError("single-class extraction needs constant term 1")
    qm = compose_even(series)
    # z / qm is known one order further than 1 / qm: shift in a zero.
    return series_mul(qm, series_derivative([ZERO] + series_inverse(qm)))


def single_class_slots(series: Series, up_to: int) -> GradedPoly:
    """Reference route for the single-class coefficients: compute the full
    multiplicative class on formal classes p_1..p_N (one slot per Pontrjagin
    class, z^2 -> slot weight 1) and keep only its constant and linear terms,
    the part that survives when all slot products vanish.

    Returns a polynomial in the slot generators whose p_k coefficient should
    match cauchy_single_class(series) at z^k.
    """
    gens = GeneratorSet([(f"p{k}", k) for k in range(1, up_to + 1)])
    # Q(x) = S(x^2) with S = compose_even twisted back to +: the slot classes
    # play the elementary symmetric functions of the squared Chern roots.
    s_pos = [c * (-1) ** k for k, c in enumerate(compose_even(series))]
    full = multiplicative_class(s_pos, ClassVector.standard(gens, gens.names), up_to)
    return GradedPoly(gens, {m: c for m, c in full.items() if sum(m) <= 1})


# ---------------------------------------------------------------------------
# Even Chern character
# ---------------------------------------------------------------------------


class ChEvenReport(NamedTuple):
    d: int
    degrees: list[int]
    matches: list[bool]
    intermediate_matches: list[bool]

    @property
    def ok(self) -> bool:
        return all(self.matches) and all(self.intermediate_matches)


def ch_even_check(d: int, ring: AbelianTautRing | None = None) -> ChEvenReport:
    """Compare, in every even ring degree, the reduced even Chern character
    of the lifted classes with the rank minus the additive defect class of
    the form classes, and with the single-Pontrjagin shortcut.  The form
    side is computed modulo the form relations, from the power sums of the
    form classes reduced step by step."""
    ring = _ring_for(d, ring, AbelianTautRing)
    cap = ring.cap
    zc = ClassVector.standard(ring.zgens, list(ring.zgens.names))
    z_sums = ch_from_c(zc, cap)
    defect = ch_even_defect_series(max(cap - 1, 1))
    a_classes = ClassVector.standard(ring.agens, list(ring.agens.names))
    a_sums = ch_from_c(a_classes, cap - 1, ring.aq.normal_form)

    pontrjagin = pontrjagin_from_c(zc, cap // 2)

    degrees, matches, inter = [], [], []
    for m in range(2, cap + 1, 2):
        k = m // 2
        route1 = ring.reduce(ring.from_z(z_sums[m - 1] * Fraction(1, factorial(m))))
        # s_{m-1} is homogeneous of degree m - 1, so it alone meets the
        # defect class there.
        expected = -(a_sums[m - 2] * defect[m - 1])
        ok = (route1.z.is_zero() and route1.g.is_zero()
              and route1.a == expected)
        # Shortcut through the k-th Pontrjagin relation.
        route3 = ring.reduce(ring.from_z(
            pontrjagin[k - 1] * Fraction((-1) ** (k + 1), 2 * factorial(2 * k - 1))))
        degrees.append(m)
        matches.append(ok)
        inter.append(route1 == route3)
    return ChEvenReport(d, degrees, matches, inter)
