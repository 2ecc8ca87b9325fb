"""Per-layer spans around tautcalc's public API, installed from outside.

Nothing in ``src/`` is edited: ``Tracer.install`` replaces public functions
and methods with timing wrappers, in every module namespace that holds them,
and ``uninstall`` puts the originals back.  Spans are aggregated in memory
per name (calls, total time, time in child spans); a layer's self time is its
total minus its children.  A call nested directly inside a span of the same
name (``Scalar.__sub__`` calling ``__add__``, ``reduce`` calling
``reduce_detailed``) folds into the outer span, so each operation counts once.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

# Each per-layer metric and the workloads on which it must read nonzero
# (``run.py --self-test`` checks this, so a missed import site cannot pass as
# a layer that did no work).  ``quotient.errors`` counts failures and is
# expected to stay 0, so it has no workload here.
ASSIGNED = {
    "quotient.build_witness.calls": "cli-critical lib-reduce",
    "quotient.build_witness.self_s": "cli-critical lib-reduce",
    "quotient.build_plain.calls": "cli-verify",
    "quotient.build_plain.self_s": "cli-verify",
    "quotient.normal_form.calls": "lib-reduce",
    "quotient.normal_form.self_s": "lib-reduce",
    "quotient.reduce_cof.calls": "lib-reduce",
    "quotient.reduce_cof.self_s": "lib-reduce",
    "quotient.cofactor_terms": "lib-reduce",
    "quotient.witness.calls": "cli-verify",
    "quotient.witness.self_s": "cli-verify",
    "quotient.errors": "",
    "quotient.basis_dim": "cli-verify",
    "scalars.ops": "lib-reduce",
    "scalars.self_s": "lib-reduce",
    "scalars.coeff_bits.max": "lib-reduce",
    "graded.monomials.calls": "cli-critical",
    "graded.monomials.count": "cli-critical",
    "graded.monomials.self_s": "cli-critical",
    "graded.mul.calls": "lib-reduce",
    "graded.mul.self_s": "lib-reduce",
    "charclasses.calls": "cli-verify",
    "charclasses.self_s": "cli-verify",
    "arakelov.ring_init.self_s": "cli-critical",
    "arakelov.critical.self_s": "cli-critical",
    "arakelov.reduce.calls": "lib-reduce",
    "arakelov.reduce.self_s": "lib-reduce",
    "arakelov.form_contrib.self_s": "lib-reduce",
    "arakelov.class_mul.calls": "lib-reduce",
    "arakelov.class_mul.self_s": "lib-reduce",
    "arakelov.map_solve.self_s": "cli-verify",
    "arakelov.ch_even.self_s": "cli-verify",
    "cli.render.self_s": "cli-critical",
    "cli.output_bytes": "cli-critical",
}

VERIFY_CHECKS = ("examples", "witness-form", "dimensions", "two-route", "hmap",
                 "ch-even", "newton", "cauchy", "witness-independence",
                 "bernoulli-zeta")
for _name in VERIFY_CHECKS:
    ASSIGNED[f"verify.{_name}.self_s"] = "cli-verify"

# Spans whose calls and self time are reported; the rest of ASSIGNED are
# counters filled by result hooks.
_SPANS = ("quotient.build_witness", "quotient.build_plain",
          "quotient.normal_form", "quotient.reduce_cof", "quotient.witness",
          "scalars", "graded.monomials", "graded.mul", "charclasses",
          "arakelov.ring_init", "arakelov.critical", "arakelov.reduce",
          "arakelov.form_contrib", "arakelov.class_mul", "arakelov.map_solve",
          "arakelov.ch_even", "cli.render") + tuple(
              f"verify.{n}" for n in VERIFY_CHECKS)

UNITS = {"calls": "count", "self_s": "s", "count": "count", "max": "bits",
         "cofactor_terms": "count", "errors": "count", "basis_dim": "count",
         "ops": "count", "output_bytes": "bytes", "overhead_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


class Tracer:
    """Span and counter aggregation for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}      # name -> [calls, total_s, child_s]
        self.counters: dict[str, int] = {}
        self.coeff_bits = 0
        self._bases: dict[tuple, int] = {}    # distinct monomial bases asked for
        self._stack: list[list] = []          # [name, child_s] per open span
        self._last_error = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name, on_result=None, errors: str | None = None):
        """Timing wrapper for fn.  ``name`` is a span name or a function of
        the call's arguments returning one; ``on_result(result, args)`` runs
        after the call; exceptions escaping it count under ``errors``."""
        tracer = self
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if errors and exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer._count(errors)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                entry = spans.get(span)
                if entry is None:
                    spans[span] = [1, dt, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(result, args)
            return result

        return functools.wraps(fn)(traced)

    # -- result hooks ------------------------------------------------------

    def _poly_bits(self, poly):
        """Coefficient size is sampled on the polynomials the quotient layer
        returns: checking every Scalar operation would double the run."""
        for _, scalar in poly.items():
            for _, coeff in scalar.items():
                bits = max(coeff.numerator.bit_length(),
                           coeff.denominator.bit_length())
                if bits > self.coeff_bits:
                    self.coeff_bits = bits

    def _normal_form(self, result, args):
        self._poly_bits(result)

    def _cofactors(self, result, args):
        nf, cofactors = result
        self._poly_bits(nf)
        terms = 0
        for poly in cofactors.values():
            terms += len(poly.items())
            self._poly_bits(poly)
        self._count("quotient.cofactor_terms", terms)

    def _basis(self, result, args):
        ring, degree = args[0], args[1]
        key = (ring.gens.names, ring.gens.degrees, ring.top_degree, degree)
        self._bases[key] = len(result)

    def _monomials(self, result, args):
        self._count("graded.monomials.count", len(result))

    def _rendered(self, result, args):
        self._count("cli.output_bytes", len(result.encode()))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        """Replace an attribute of a module or class, or a dict entry."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        """Replace a function in every tautcalc namespace that imported it."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "tautcalc" or modname.startswith("tautcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)
            checks = vars(module).get("CHECKS")
            if isinstance(checks, dict):
                for key, value in list(checks.items()):
                    if value is original:
                        self._patch(checks, key, replacement)

    def _patch_method(self, cls, attrs, name, on_result=None, errors=None):
        """Wrap each listed method of cls that exists (aliases such as
        ``__radd__ = __add__`` are listed separately)."""
        for attr in attrs:
            fn = cls.__dict__.get(attr)
            if fn is not None:
                self._patch(cls, attr, self.wrap(fn, name, on_result, errors))

    def install(self):
        from tautcalc import (arakelov, charclasses, cli, graded, quotient,
                              scalars, verify)

        self._patch_method(scalars.Scalar,
                           ("__add__", "__radd__", "__sub__", "__rsub__",
                            "__neg__", "__mul__", "__rmul__", "__truediv__"),
                           "scalars")

        fn = graded.monomials_of_degree
        self._patch_everywhere(fn, self.wrap(fn, "graded.monomials",
                                             self._monomials))
        self._patch_method(graded.GradedPoly,
                           ("__mul__", "__rmul__", "__pow__", "mul_truncated"),
                           "graded.mul")

        qr = quotient.QuotientRing

        def build_name(args, kwargs):
            witnesses = kwargs.get("track_witnesses",
                                   args[2] if len(args) > 2 else True)
            return ("quotient.build_witness" if witnesses
                    else "quotient.build_plain")

        errors = "quotient.errors"
        self._patch_method(qr, ("__init__",), build_name, errors=errors)
        self._patch_method(qr, ("normal_form",), "quotient.normal_form",
                           self._normal_form, errors)
        self._patch_method(qr, ("reduce_with_cofactors",),
                           "quotient.reduce_cof", self._cofactors, errors)
        self._patch_method(qr, ("membership_witness",), "quotient.witness",
                           errors=errors)
        # Counted without a span, so its time stays with the caller.
        basis = qr.__dict__["monomial_basis"]

        def monomial_basis(ring, degree):
            result = basis(ring, degree)
            self._basis(result, (ring, degree))
            return result

        self._patch(qr, "monomial_basis", functools.wraps(basis)(monomial_basis))

        for attr, fn in list(vars(charclasses).items()):
            if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                    and fn.__module__ == charclasses.__name__):
                self._patch_everywhere(fn, self.wrap(fn, "charclasses"))

        self._patch_method(arakelov.AbelianTautRing, ("__init__",),
                           "arakelov.ring_init")
        self._patch_method(arakelov.LagrangianArithRing, ("__init__",),
                           "arakelov.ring_init")
        self._patch_method(arakelov.ArithRing,
                           ("reduce", "reduce_detailed", "reduce_variants"),
                           "arakelov.reduce")
        # The one private method wrapped: the form-contribution layer
        # has no public entry point.  If it is renamed the span reads zero
        # and the self-test reports it.
        self._patch_method(arakelov.ArithRing, ("_form_contributions",),
                           "arakelov.form_contrib")
        self._patch_method(arakelov.ArithClass, ("__mul__", "__rmul__", "__pow__"),
                           "arakelov.class_mul")
        for fn, span in ((arakelov.c1_critical_power, "arakelov.critical"),
                         (arakelov.height_polynomial, "arakelov.critical"),
                         (arakelov.proportionality_map_check,
                          "arakelov.map_solve"),
                         (arakelov.ch_even_check, "arakelov.ch_even")):
            self._patch_everywhere(fn, self.wrap(fn, span))

        self._patch_method(cli.Report, ("render",), "cli.render",
                           self._rendered)
        for cls in (arakelov.ArithClass, graded.GradedPoly, scalars.Scalar):
            self._patch_method(cls, ("render", "to_json"), "cli.render")

        for check, fn in list(verify.CHECKS.items()):
            self._patch_everywhere(fn, self.wrap(fn, f"verify.{check}"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        out: dict[str, float] = {}
        for span in _SPANS:
            calls, total, child = self.spans.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = max(total - child, 0.0)
        out["scalars.ops"] = out["scalars.calls"]
        out["scalars.coeff_bits.max"] = self.coeff_bits
        out["quotient.basis_dim"] = sum(self._bases.values())
        for name in ("quotient.cofactor_terms", "quotient.errors",
                     "graded.monomials.count", "cli.output_bytes"):
            out[name] = self.counters.get(name, 0)
        return {name: out[name] for name in ASSIGNED}
