"""Characteristic-class calculus on graded polynomials: Newton's identities
between Chern classes and power sums, and Pontrjagin classes.  The classes
of a power series live in ``series``, which loads on first use."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

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
