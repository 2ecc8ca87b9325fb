"""Characteristic-class calculus on graded polynomials: the power sums of
Chern classes by Newton's identities, and Pontrjagin classes.  The inverse
route and the classes of a power series live in ``series``, which loads on
first use."""

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


def pontrjagin_from_c(classes: ClassVector, up_to: int | None = None) -> list[GradedPoly]:
    """Pontrjagin classes p_k defined by sum (-z^2)^k p_k = c(z) c(-z):
    p_k = (-1)^k [degree 2k of total(c) * total(c-dual)]."""
    if up_to is None:
        up_to = classes.rank
    parts = (classes.total() * classes.dual().total()).degree_components()
    zero = GradedPoly.zero(classes.gens)
    return [parts.get(2 * k, zero) * Fraction((-1) ** k) for k in range(1, up_to + 1)]
