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
from .charclasses import (ClassVector, additive_class, c_from_ch,
                          cauchy_single_class, ch_from_c, multiplicative_class,
                          pontrjagin_from_c)
from .arakelov import (AbelianTautRing, ArithClass, LagrangianArithRing,
                       MapCertificate, c1_critical_power, ch_even_check,
                       harmonic_substitution, height_polynomial,
                       lagrangian_degree, proportionality_map_check,
                       tautological_presentation, tautological_ring,
                       verify_map_certificate)

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


def __getattr__(name: str):
    # The verification suite loads on first use (PEP 562), so importing the
    # CLI for one command does not load every check.
    if name in ("CHECKS", "CheckResult", "run_checks"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
