"""The classical tautological ring R_d and the reports of ``ring-info``: its
presentation, its dimensions and socle, the audit dump of its bases and
reduction rows, and the degree of the Lagrangian Grassmannian.

No other ring command runs this module, so it loads on first use:
``ring-info``, ``degree`` and ``verify`` import it, and so does the
package's lazy table.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .graded import GeneratorSet, GradedPoly, monomials_of_degree
from .quotient import QuotientRing, RingPresentation
from .charclasses import ClassVector, pontrjagin_from_c
from .arakelov import arithmetic_dimension


def tautological_presentation(d: int) -> RingPresentation:
    """Presentation of the rank-d tautological ring: generators u1..ud with
    the classical relations p_k(u) = 0 for k = 1..d (up to sign, the
    homogeneous components of the dual square c(t)c(-t) = 1), in degree
    order, and u_d = 0, up to the arithmetic dimension."""
    top_degree = arithmetic_dimension(d)
    gens = GeneratorSet([(f"u{j}", j) for j in range(1, d + 1)])
    relations = [*pontrjagin_from_c(ClassVector.standard(gens, gens.names)),
                 GradedPoly.generator(gens, f"u{d}")]
    return RingPresentation(gens, relations, top_degree)


def tautological_ring(d: int) -> QuotientRing:
    return QuotientRing(tautological_presentation(d), track_witnesses=False)


def _legendre(n: int, p: int) -> int:
    """The exponent of the prime p in n!."""
    return n // p + _legendre(n // p, p) if n >= p else 0


def lagrangian_degree(d: int) -> int:
    """Projective degree of the rank-(d-1) Lagrangian Grassmannian:
    N! / prod_{k<d} (2k-1)!! with N = d(d-1)/2, built with no factorial and
    no division as a balanced product of prime powers p^e: e is the
    exponent of p in N! less its exponent in the denominator, which for an
    odd p is its exponent in (2k)! less that in k!, summed over k < d.
    d has no upper limit; ValueError unless it is an int of at least 2."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"d must be an int of at least 2, not {d!r}")
    n = d * (d - 1) // 2
    composite = bytearray(n + 1)
    factors = [1]
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p::p] = b"\1" * len(range(p * p, n + 1, p))
        e = _legendre(n, p)
        if 2 < p < 2 * d:
            e -= sum(_legendre(2 * k, p) - _legendre(k, p) for k in range(1, d))
        if e < 0:
            raise ArithmeticError("degree formula did not divide evenly")
        factors.append(p ** e)
    while len(factors) > 1:
        factors = [prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


class DimensionReport(NamedTuple):
    dims: list[int]
    total: int
    socle_degree: int
    socle_dim: int


def dimension_report(ring: QuotientRing) -> DimensionReport:
    dims = [len(ring.monomial_basis(k)) for k in range(ring.top_degree + 1)]
    socle = max((k for k, d in enumerate(dims) if d), default=0)
    return DimensionReport(dims, sum(dims), socle, dims[socle])


def audit_dump(ring: QuotientRing) -> dict:
    """Per-degree bases and reduction rows m - nf(m), JSON-ready.  Each
    degree's monomials are divided in one pass; its basis is the
    monomials that are their own normal form."""
    degrees = []
    for k in range(ring.top_degree + 1):
        listed = monomials_of_degree(ring.gens, k)
        monos = list(map(ring.gens.pack, listed))
        kept = ring.normal_forms(monos)
        names = {m: GradedPoly.monomial(ring.gens, mono).render()
                 for m, mono in zip(monos, listed)}
        position = {m: i for i, m in enumerate(monos)}
        basis, rows = [], {}
        for m in monos:
            nf = kept[m]
            if nf == ((m, 1),):
                basis.append(names[m])
                continue
            entries = {b: -v for b, v in nf}
            entries[m] = 1
            rows[names[m]] = {names[b]: str(entries[b])
                              for b in sorted(entries, key=position.__getitem__)}
        degrees.append({
            "degree": k,
            "monomials": list(names.values()),
            "basis": basis,
            "reduction_rows": rows,
        })
    return {"generators": [{"name": n, "degree": d}
                           for n, d in zip(ring.gens.names, ring.gens.degrees)],
            "top_degree": ring.top_degree,
            "degrees": degrees}
