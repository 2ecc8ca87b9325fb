"""Characteristic-class calculus on graded polynomials: Newton's identities
between Chern classes and power sums, Pontrjagin classes, additive and
multiplicative classes of a power series, and the single-class extraction
of an even series."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .scalars import (ONE, ZERO, Series, compose_even, series_derivative,
                      series_inverse, series_log, series_mul)
from .graded import GeneratorSet, GradedPoly, sum_of_products


class ClassVector:
    """Chern classes c_1..c_d of a rank-d bundle as graded ring elements;
    c_0 = 1 is implicit and deg c_j = j is enforced."""

    def __init__(self, gens: GeneratorSet, classes: Sequence[GradedPoly]):
        self.gens = gens
        self.classes = list(classes)
        for j, c in enumerate(self.classes, start=1):
            if c.gens != gens:
                raise ValueError("class over wrong generator set")
            if not c.is_zero() and (not c.is_homogeneous() or c.max_degree() != j):
                raise ValueError(f"c_{j} must be homogeneous of degree {j}")

    @classmethod
    def standard(cls, gens: GeneratorSet, names: Sequence[str]) -> "ClassVector":
        return cls(gens, [GradedPoly.generator(gens, n) for n in names])

    @property
    def rank(self) -> int:
        return len(self.classes)

    def chern(self, j: int) -> GradedPoly:
        if j == 0:
            return GradedPoly.constant(self.gens, 1)
        if 1 <= j <= self.rank:
            return self.classes[j - 1]
        return GradedPoly.zero(self.gens)

    def total(self) -> GradedPoly:
        acc = GradedPoly.constant(self.gens, 1)
        for c in self.classes:
            acc = acc + c
        return acc

    def dual(self) -> "ClassVector":
        return ClassVector(self.gens,
                           [c * Fraction((-1) ** j)
                            for j, c in enumerate(self.classes, start=1)])


def ch_from_c(classes: ClassVector, up_to: int,
              reduce: Callable[[GradedPoly], GradedPoly] | None = None) -> list[GradedPoly]:
    """Power sums s_k = k! ch^[k] for k = 1..up_to, by Newton's identities:
    s_k = sum_{i<k} (-1)^(i-1) c_i s_{k-i} + (-1)^(k-1) k c_k, each step one
    sum of products.

    With ``reduce`` (a normal form of a quotient ring) each s_k is reduced
    as soon as it is built, so the recursion runs on normal forms."""
    signed = [c * (-1) ** (i - 1) for i, c in enumerate(classes.classes[:up_to], 1)]
    sums: list[GradedPoly] = []
    for k in range(1, up_to + 1):
        pairs = [(c, sums[k - i - 1]) for i, c in enumerate(signed[:k - 1], 1) if c]
        start = signed[k - 1] * k if k <= len(signed) else None
        acc = sum_of_products(classes.gens, pairs, None, start)
        sums.append(reduce(acc) if reduce else acc)
    return sums


def c_from_ch(power_sums: Sequence[GradedPoly], rank: int,
              gens: GeneratorSet) -> ClassVector:
    """Invert Newton's identities: recover c_1..c_rank from s_1..s_rank,
    c_k = (-1)^(k-1)/k (s_k + sum_{i<k} (-1)^i c_i s_{k-i}), each step one
    sum of products."""
    classes: list[GradedPoly] = []
    signed: list[GradedPoly] = []
    for k in range(1, rank + 1):
        pairs = [(c, power_sums[k - i - 1]) for i, c in enumerate(signed, 1)]
        acc = sum_of_products(gens, pairs, None, power_sums[k - 1])
        classes.append(acc * Fraction((-1) ** (k - 1), k))
        signed.append(classes[-1] * (-1) ** k)
    return ClassVector(gens, classes)


def pontrjagin_from_c(classes: ClassVector, up_to: int | None = None) -> list[GradedPoly]:
    """Pontrjagin classes p_k defined by sum (-z^2)^k p_k = c(z) c(-z):
    p_k = (-1)^k [degree 2k of total(c) * total(c-dual)]."""
    d = classes.rank
    if up_to is None:
        up_to = d
    product = classes.total() * classes.dual().total()
    out = []
    for k in range(1, up_to + 1):
        out.append(product.graded_component(2 * k) * Fraction((-1) ** k))
    return out


def pontrjagin_direct(classes: ClassVector, k: int) -> GradedPoly:
    """Cross-check form p_k = c_k^2 + 2 sum_{l<k} (-1)^(k+l) c_l c_{2k-l}."""
    acc = classes.chern(k) * classes.chern(k)
    for l in range(0, k):
        term = classes.chern(l) * classes.chern(2 * k - l)
        acc = acc + term * Fraction(2 * (-1) ** (k + l))
    return acc


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
    product of Q over the Chern roots."""
    if series[0] != ONE:
        raise ValueError("multiplicative class needs constant term 1")
    exponent = additive_class(series_log(series), classes, max_degree)
    result = GradedPoly.constant(classes.gens, 1)
    term = GradedPoly.constant(classes.gens, 1)
    n = 1
    while True:
        term = term.mul_truncated(exponent, max_degree) * Fraction(1, n)
        if term.is_zero():
            break
        result = result + term
        n += 1
    return result


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
