"""Finite graded quotient rings by division by a coprime-lead Groebner basis.

Relations are homogeneous, ordered by weighted graded reverse-lex: degree
first, then the monomial with the smaller exponent of the last differing
generator is the larger.  Each relation must lead on a power x_i^e of one
generator, and two relations leading on the same generator must both be
monomials.  By Buchberger's first criterion (Cox-Little-O'Shea, *Ideals,
Varieties, and Algorithms*, ch. 2 sec. 9) they are then a Groebner basis, so
multivariate division gives normal forms on the standard monomials together
with cofactors (membership witnesses).  Other witnesses differ from these by
Koszul syzygies; ``verify``, the one module that compares them, builds them.

This module holds the presentation, the division with its kept tables, and
the membership witness.  The reports of a ring, its dimensions and its
audit dump, live in ``classical``, which loads on first use.

The division runs on packed monomials (``graded``): the heap holds bare ints,
whose order within one degree is the term order, a rule's test is one
mask-and-compare, and a rewrite is one subtraction plus one addition per
tail term.  The working degree is below EXPONENT_LIMIT, so no monomial of it
has an exponent at the limit and these sums need no guard check.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from .graded import (EXPONENT_LIMIT, GeneratorSet, GradedPoly, Monomial, Slices,
                     linear_image, monomials_of_degree, sum_of_products)


class ReductionError(ValueError):
    pass


class RingPresentation:
    """Generators, homogeneous relations and a mandatory working-degree cap.

    Each relation is one division rule; a mixed-degree relation of the graded
    ring is passed as its homogeneous components.  Relation coefficients must
    be integers, and the working degree must be in 0 .. EXPONENT_LIMIT - 1.
    """

    __slots__ = ("gens", "relations", "top_degree")

    def __init__(self, gens: GeneratorSet, relations: Iterable[GradedPoly],
                 top_degree: int):
        rels = tuple(relations)
        for r in rels:
            if r.is_zero():
                raise ValueError("zero relation")
            if r.gens != gens:
                raise ValueError("relation over wrong generator set")
            if any(k or den != 1 for k, (den, _) in r._slices.items()):
                raise ValueError("relation coefficients must be integers")
            if not r.is_homogeneous():
                raise ValueError("relation is not homogeneous; "
                                 "pass its degree components")
        if not isinstance(top_degree, int):
            raise ValueError("top degree must be an int")
        if top_degree < 0:
            raise ValueError("top degree must be non-negative")
        if top_degree >= EXPONENT_LIMIT:
            raise ValueError(f"top degree must be below {EXPONENT_LIMIT}")
        if rels and top_degree < max(gens.degrees, default=0):
            raise ValueError("top degree below maximal generator degree")
        self.gens = gens
        self.relations = rels
        self.top_degree = top_degree


class Witness:
    """Certificate target = sum_i cofactors[i] * relation i."""

    def __init__(self, target: GradedPoly, cofactors: dict[int, GradedPoly],
                 ring: "QuotientRing"):
        self.target = target
        self.cofactors = cofactors
        self._ring = ring

    def expand(self) -> GradedPoly:
        """Re-expand the certificate in the free ring."""
        relations = self._ring.presentation.relations
        return sum_of_products(self.target.gens, [
            (cof, relations[ri]) for ri, cof in self.cofactors.items()], None)

    def verify(self) -> bool:
        return self.expand() == self.target


class QuotientRing:
    """Graded quotient reduced by division by its relations, whose leading
    coefficients lc(s) must be +-1, so division stays in the integers.

    A monomial m = t * lead(s) is rewritten to t * (lead(s) - lc(s) * s) by
    the first relation s whose lead divides it.  The integer normal form of
    each monomial is computed on first use and kept in ``_nf``, and, when
    witnesses are tracked, its cofactors in ``_cof``; both are keyed by
    packed monomial, and each kept value is a tuple of (packed monomial, int)
    pairs with no zero.  ``division_steps`` counts the rewrites.
    """

    def __init__(self, presentation: RingPresentation, track_witnesses: bool = True):
        self.presentation = presentation
        self.gens = presentation.gens
        self.top_degree = presentation.top_degree
        self.track_witnesses = track_witnesses
        # Per relation, over packed monomials: the field mask of the lead
        # x_i^e's generator, lead & mask, the lead, lc (which is 1/lc) and
        # the rewrite tail [(monomial, -c*lc)].  A relation is homogeneous,
        # so its lead is its smallest packed monomial.
        self._rules: list[tuple[int, int, int, int, list]] = []
        for ri, rel in enumerate(presentation.relations):
            (_, terms), = rel._slices.values()
            lead = min(terms)
            support = [i for i, e in enumerate(self.gens.unpack(lead)) if e]
            if len(support) != 1:
                raise ValueError(f"lead {self.gens.unpack(lead)} of relation "
                                 f"{ri} is not a power of one generator")
            if (lc := terms[lead]) not in (1, -1):
                raise ValueError(f"leading coefficient {lc} of relation {ri} "
                                 "is not +-1")
            tail = [(m, -c * lc) for m, c in terms.items() if m != lead]
            mask = GeneratorSet.field_mask(support[0])
            self._rules.append((mask, lead & mask, lead, lc, tail))
        for j, (mask_j, _, _, _, tail_j) in enumerate(self._rules):
            for k, (mask_k, _, _, _, tail_k) in enumerate(self._rules[:j]):
                # The S-polynomial of two monomials is 0.
                if mask_j == mask_k and (tail_j or tail_k):
                    raise ValueError(f"leading monomials of relations {k} and "
                                     f"{j} are not coprime")
        self._nf: dict[int, tuple[tuple[int, int], ...]] = {}
        self._cof: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
        self.division_steps = 0

    # -- division ------------------------------------------------------------

    def _reduce_monomial(self, mono: int):
        """Keep the normal form of mono, (standard monomial, coefficient)
        pairs, in _nf and, when tracked, its cofactors {relation:
        (multiplier, coefficient) pairs} in _cof.

        Terms are rewritten largest first, so each coefficient is final when
        its term is rewritten, and the result is linear in the per-monomial
        rewrites: a term reduced before takes its kept result, and no result
        depends on the order of queries.  A term is rewritten by the first
        relation whose lead divides it, found by one mask-and-compare per
        relation; the rewrite subtracts the whole lead, degree included.
        """
        rules = self._rules
        kept_nf, kept_cof = self._nf, self._cof
        coeffs: dict[int, int] = {mono: 1}
        heap = [mono]
        nf: dict[int, int] = {}
        cof: dict[int, dict] | None = {} if self.track_witnesses else None
        while heap:
            m = heappop(heap)
            c = coeffs.pop(m)
            if not c:
                continue
            hit = kept_nf.get(m)
            if hit is not None:
                for t, v in hit:
                    nf[t] = nf.get(t, 0) + c * v
                if cof is not None:
                    for ri, terms in kept_cof[m].items():
                        acc = cof.setdefault(ri, {})
                        for t, v in terms:
                            acc[t] = acc.get(t, 0) + c * v
                continue
            for ri, (mask, field, lead, lc, tail) in enumerate(rules):
                if m & mask >= field:
                    break
            else:
                nf[m] = nf.get(m, 0) + c
                continue
            self.division_steps += 1
            t = m - lead
            if cof is not None:
                acc = cof.setdefault(ri, {})
                acc[t] = acc.get(t, 0) + c * lc
            for tm, tc in tail:
                n = t + tm
                old = coeffs.get(n)
                if old is None:
                    coeffs[n] = c * tc
                    heappush(heap, n)
                else:
                    coeffs[n] = old + c * tc
        # The sums may hold zeros, which are dropped here.  The cofactors
        # are kept first: a thread that shares the ring and finds mono's
        # normal form kept then finds its cofactors kept too.
        if cof is not None:
            kept_cof[mono] = {ri: tuple((t, v) for t, v in terms.items() if v)
                              for ri, terms in cof.items()}
        kept_nf[mono] = tuple((t, v) for t, v in nf.items() if v)

    # -- reduction -----------------------------------------------------------

    def monomial_basis(self, degree: int) -> list[Monomial]:
        """The standard monomials of the given degree, a fresh list."""
        self._check_degree(degree)
        return monomials_of_degree(self.gens, degree,
                                   [self.gens.unpack(rule[2]) for rule in self._rules])

    def _check_degree(self, degree: int):
        if degree > self.top_degree:
            raise ReductionError(
                f"degree {degree} exceeds working degree {self.top_degree}")

    def normal_forms(self, monos: Iterable[int]
                     ) -> dict[int, tuple[tuple[int, int], ...]]:
        """The kept table {monomial: normal form} itself, once it holds each
        of the packed monomials monos; the caller must not change it.  The
        monomials it lacks are divided in one pass, smallest first (largest
        int first), so the larger ones' divisions reuse them."""
        kept = self._nf
        missing = [m for m in monos if m not in kept]
        if missing:
            self._check_degree(max(missing) >> self.gens.shift)
            missing.sort(reverse=True)
            for m in missing:
                if m not in kept:   # monos may repeat a monomial
                    self._reduce_monomial(m)
        return kept

    def kept_cofactors(self, monos: Iterable[int]
                       ) -> dict[int, dict[int, tuple[tuple[int, int], ...]]]:
        """The kept table {monomial: {relation: cofactor terms}} itself,
        once it holds each of the packed monomials monos, divided as
        normal_forms divides them; the caller must not change it.  With no
        monos it divides nothing, so it tells which monomials are kept."""
        if not self.track_witnesses:
            raise ReductionError("ring built without witness tracking")
        self.normal_forms(monos)
        return self._cof

    def normal_form(self, poly: GradedPoly) -> GradedPoly:
        """poly's normal form, one linear_image of the kept normal forms."""
        return self._normal_form(poly)

    def _normal_form(self, poly: GradedPoly) -> GradedPoly:
        # reduce_with_cofactors calls this, so a wrapper of the public
        # normal_form sees only the callers' own normal forms.
        if poly.gens != self.gens:
            raise ReductionError("polynomial over wrong generator set")
        slices = poly._slices
        image = self.normal_forms(m for _, terms in slices.values() for m in terms)
        return GradedPoly.from_slices(self.gens, linear_image(
            slices, (self.top_degree + 1) << self.gens.shift, image))

    def reduce_with_cofactors(self, poly: GradedPoly) -> tuple[GradedPoly, dict[int, GradedPoly]]:
        """normal_form(poly) and, per relation, its monomials' kept
        cofactors summed."""
        if not self.track_witnesses:
            raise ReductionError("ring built without witness tracking")
        nf = self._normal_form(poly)
        kept = self._cof
        cof: dict[int, Slices] = {}
        for k, (den, terms) in poly._slices.items():
            # Each slice's integer cofactors, summed before they meet its
            # denominator.
            sums: dict[int, dict[int, int]] = {}
            for mono, n in terms.items():
                for ri, source in kept[mono].items():
                    acc = sums.setdefault(ri, {})
                    for t, v in source:
                        acc[t] = acc.get(t, 0) + n * v
            for ri, acc in sums.items():
                cof.setdefault(ri, {})[k] = den, acc
        return nf, {ri: p for ri, cof_slices in sorted(cof.items())
                    if (p := GradedPoly.from_slices(self.gens, cof_slices))}

    # -- witnesses -----------------------------------------------------------

    def membership_witness(self, poly: GradedPoly) -> Witness:
        """Express poly in the relation ideal by the cofactors of its
        division.  Raises if poly is not in the ideal."""
        nf, cof = self.reduce_with_cofactors(poly)
        if not nf.is_zero():
            raise ReductionError("not in ideal: nonzero residue "
                                 f"{nf.render()}")
        return self._checked_witness(poly, cof)

    def _checked_witness(self, poly: GradedPoly,
                         cofactors: dict[int, GradedPoly]) -> Witness:
        """The witness of poly by cofactors, machine-checked by re-expansion,
        as every produced certificate is."""
        witness = Witness(poly, cofactors, self)
        if not witness.verify():
            raise ReductionError("witness failed to re-expand to its target")
        return witness

