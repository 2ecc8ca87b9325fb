"""Exponent tuples for the kept tables: QuotientRing and ArithRing key and
fill their tables with packed monomials (tautcalc.graded), and the tests
read them through these two functions."""


def unpack_terms(gens, terms) -> tuple:
    """(packed monomial, int) pairs as (exponent tuple, int) pairs."""
    return tuple((gens.unpack(m), v) for m, v in terms)


def normal_forms(q, monos=None) -> dict:
    """{exponent tuple: normal form as unpack_terms pairs} for monos, or for
    every kept monomial when monos is None.  Each of monos is packed, and so
    validated, before q is asked for anything."""
    gens = q.gens
    keys = [gens.pack(m) for m in monos or ()]
    table = q.normal_forms(keys)
    return {gens.unpack(m): unpack_terms(gens, table[m])
            for m in (table if monos is None else keys)}
