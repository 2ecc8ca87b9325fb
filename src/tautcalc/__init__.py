"""tautcalc: exact symbolic calculator for the tautological ring of Hodge
bundles and its two-component arithmetic extensions.

All arithmetic is exact: rationals plus the formal constants log 2,
zeta'(1-2k) and odd harmonic placeholders.
"""

from .scalars import (Rational, Scalar, bernoulli, harmonic, harmonic_symbol,
                      zeta_negative_odd, zeta_prime_symbol, LOG2)
from .graded import GeneratorSet, GradedPoly, monomials_of_degree
from .quotient import (DimensionReport, QuotientRing, ReductionError,
                       RingPresentation, Witness)
from .charclasses import ClassVector, c_from_ch, ch_from_c, pontrjagin_from_c
from .arakelov import (AbelianTautRing, ArithClass, LagrangianArithRing,
                       c1_critical_power, harmonic_substitution,
                       height_polynomial, lagrangian_degree,
                       tautological_presentation, tautological_ring)

__version__ = "0.1.0"

__all__ = [
    "AbelianTautRing", "ArithClass", "CHECKS", "CheckResult", "ClassVector",
    "DimensionReport", "GeneratorSet", "GradedPoly",
    "LOG2", "LagrangianArithRing", "MapCertificate", "QuotientRing",
    "Rational", "ReductionError", "RingPresentation", "Scalar", "Witness",
    "additive_class", "bernoulli", "c1_critical_power", "c_from_ch",
    "cauchy_single_class", "ch_even_check", "ch_from_c", "harmonic",
    "harmonic_substitution", "harmonic_symbol", "height_polynomial",
    "lagrangian_degree", "monomials_of_degree", "multiplicative_class",
    "pontrjagin_from_c", "proportionality_map_check", "run_checks",
    "tautological_presentation", "tautological_ring",
    "verify_map_certificate", "zeta_negative_odd", "zeta_prime_symbol",
]


# Names whose modules load on first use (PEP 562), so importing the CLI for
# one command loads neither the verification suite, nor the proportionality
# map, nor the series code: name -> module.
_LAZY = {
    "CHECKS": "verify", "CheckResult": "verify", "run_checks": "verify",
    "MapCertificate": "propmap", "proportionality_map_check": "propmap",
    "verify_map_certificate": "propmap",
    "additive_class": "series", "cauchy_single_class": "series",
    "ch_even_check": "series", "multiplicative_class": "series",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
