"""Command-line front end: exact formula reports in text, LaTeX or JSON.

Every number in a report is an exact rational string; reports are
byte-identical across runs (timing goes to stderr).  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .scalars import Scalar
from .graded import GradedPoly
from .charclasses import ClassVector, pontrjagin_from_c
from .arakelov import (AbelianTautRing, ArithClass, c1_critical_power,
                       harmonic_substitution, height_polynomial,
                       lagrangian_degree, tautological_ring)


class Report:
    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        # (label, text rendering, latex rendering, JSON payload)
        self.lines: list[tuple[str, str, str, object]] = []
        self.checks: list[dict] = []

    def add(self, label: str, text: str, latex: str, payload):
        self.lines.append((label, text, latex, payload))

    def to_text(self) -> str:
        out = [f"# {self.command} " + " ".join(
            f"{k}={v}" for k, v in self.params.items())]
        for label, text, _, _ in self.lines:
            out.append(f"{label}: {text}")
        for check in self.checks:
            status = "PASS" if check["ok"] else "FAIL"
            out.append(f"[{status}] {check['name']} ({check['source']}): "
                       f"{check['detail']}")
        return "\n".join(out) + "\n"

    def to_latex(self) -> str:
        out = ["% " + self.command]
        for label, _, latex, _ in self.lines:
            out.append(f"% {label}")
            out.append(f"\\[ {latex} \\]")
        for check in self.checks:
            status = "PASS" if check["ok"] else "FAIL"
            out.append(f"% [{status}] {check['name']}: {check['detail']}")
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        import json

        doc = {"command": self.command, "params": self.params,
               "results": {label: payload
                           for label, _, _, payload in self.lines},
               "checks": self.checks}
        return json.dumps(doc, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "latex":
            return self.to_latex()
        return self.to_text()


def _strip_log2(value):
    if isinstance(value, Scalar):
        return value.substitute({"L": Scalar.coerce(0)})
    if isinstance(value, GradedPoly):
        return value.map_coefficients(
            lambda c: c.substitute({"L": Scalar.coerce(0)}))
    return value


def _class_renderings(x: ArithClass, invert2: bool) -> tuple[str, str, dict]:
    if invert2:
        x = ArithClass(x.ring, _strip_log2(x.z), _strip_log2(x.a),
                       _strip_log2(x.g))
    return x.render(False), x.render(True), x.to_json()


def cmd_pontrjagin(args: argparse.Namespace) -> Report:
    ring = AbelianTautRing(args.d)
    k = args.k
    report = Report("pontrjagin", {"d": args.d, "k": k, "invert2": args.invert2})
    classes = ClassVector.standard(ring.zgens, list(ring.zgens.names))
    poly = pontrjagin_from_c(classes, k)[k - 1]
    value = ring.reduce(ring.from_z(poly))
    text, latex, payload = _class_renderings(value, args.invert2)
    report.add(f"p^_{k}(E)", text, f"\\hat p_{{{k}}}(\\bar E) = {latex}", payload)
    return report


def cmd_c1_power(args: argparse.Namespace) -> Report:
    result = c1_critical_power(args.d)
    report = Report("c1-power", {"d": args.d, "invert2": args.invert2})
    text, latex, payload = _class_renderings(result.reduced, args.invert2)
    exp = result.exponent
    report.add(f"c^1^{exp}(E)", text,
               f"\\hat c_1^{{{exp}}}(\\bar E) = {latex}", payload)
    r = _strip_log2(result.r) if args.invert2 else result.r
    report.add("r_d", r.render(), r.render(True), r.to_json())
    anames = result.reduced.ring.display_anames(False)
    report.add("phi", result.phi.render(names=anames),
               result.phi.render(True, result.reduced.ring.display_anames(True)),
               result.phi.to_json())
    report.add("phi (witness basis)", result.phi_raw.render(names=anames),
               result.phi_raw.render(True,
                                     result.reduced.ring.display_anames(True)),
               result.phi_raw.to_json())
    return report


def cmd_ring_info(args: argparse.Namespace) -> Report:
    ring = tautological_ring(args.d)
    rep = ring.dimension_report()
    report = Report("ring-info", {"d": args.d})
    report.add("dimensions", str(rep.dims), str(rep.dims), rep.dims)
    report.add("total", str(rep.total), str(rep.total), rep.total)
    report.add("socle degree", str(rep.socle_degree), str(rep.socle_degree),
               rep.socle_degree)
    report.add("socle dimension", str(rep.socle_dim), str(rep.socle_dim),
               rep.socle_dim)
    if args.audit:
        report.add("audit", "(json only)", "(json only)", ring.audit_dump())
    return report


def cmd_height_poly(args: argparse.Namespace) -> Report:
    result = height_polynomial(args.d)
    report = Report("height-poly", {"d": args.d, "invert2": args.invert2})
    report.add("height polynomial", result.height.render(),
               result.height.render(True), result.height.to_json())
    sub = _strip_log2(result.substituted) if args.invert2 else result.substituted
    report.add("after substitution (= r_d)", sub.render(), sub.render(True),
               sub.to_json())
    bindings = harmonic_substitution(args.d)
    report.add("substitution",
               "; ".join(f"{k} -> {v.render()}" for k, v in sorted(
                   bindings.items(), key=lambda kv: int(kv[0][1:]))
                   if k in result.height.symbols()),
               "", {k: v.to_json() for k, v in bindings.items()})
    return report


def cmd_hmap_check(args: argparse.Namespace) -> Report:
    from .propmap import proportionality_map_check

    ring = AbelianTautRing(args.d)
    rep = proportionality_map_check(args.d, ring)
    report = Report("hmap-check", {"d": args.d})
    if rep.form_unit is not None:
        report.add("constant form scale", rep.form_unit.render(),
                   rep.form_unit.render(True), rep.form_unit.to_json())
    for k, image in sorted(rep.generator_images.items()):
        text, latex, payload = _class_renderings(image, False)
        report.add(f"h(C{k})", text, latex, payload)
    cert = rep.certificate
    if cert is not None:
        def row(mono, latex):
            return GradedPoly.monomial(ring.agens, mono).render(
                latex, ring.display_anames(latex))
        report.add(
            "certificate y",
            ", ".join(f"y[{deg}, {row(m, False)}] = {w}"
                      for (deg, m), w in cert.y.items()),
            ",\\; ".join(f"y_{{{deg},\\, {row(m, True)}}} = {w}"
                          for (deg, m), w in cert.y.items()),
            [{"degree": deg, "monomial": row(m, False), "weight": str(w)}
             for (deg, m), w in cert.y.items()])
        report.add("certificate y^T b", cert.value.render(),
                   "y^{T} b = " + cert.value.render(True), cert.value.to_json())
    for name, residue in rep.relation_residues:
        report.checks.append({"name": f"residue of {name}",
                              "source": "derived",
                              "ok": residue.is_zero(),
                              "detail": "0" if residue.is_zero()
                              else residue.render()})
    if not rep.constructed:
        report.checks.append({"name": "construction", "source": "derived",
                              "ok": False, "detail": rep.diagnosis})
    return report


def cmd_degree(args: argparse.Namespace) -> Report:
    value = lagrangian_degree(args.d)
    report = Report("degree", {"d": args.d})
    report.add(f"deg B_{args.d - 1}", str(value), str(value), value)
    return report


def cmd_verify(args: argparse.Namespace) -> Report:
    from .verify import run_checks

    selection = None if args.only is None else args.only.split(",")
    if selection is not None and not all(selection):
        raise ValueError("--only needs check names, separated by commas")
    results = run_checks(selection)
    report = Report("verify", {"only": selection or "all"})
    for res in results:
        report.checks.append({"name": res.name, "source": res.source,
                              "ok": res.ok, "detail": res.detail})
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautcalc",
        description="Exact calculator for tautological rings of Hodge "
                    "bundles and their arithmetic extensions.")
    parser.add_argument("--format", choices=("text", "latex", "json"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_k=False):
        p.add_argument("--d", type=int, required=True)
        if need_k:
            p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("pontrjagin", help="lifted Pontrjagin class value")
    common(p, need_k=True)
    p.add_argument("--invert2", action="store_true",
                   help="drop every log 2 term (base change inverting 2)")

    p = sub.add_parser("c1-power", help="critical power of the first class")
    common(p)
    p.add_argument("--invert2", action="store_true")

    p = sub.add_parser("ring-info", help="classical ring dimensions")
    common(p)
    p.add_argument("--audit", action="store_true",
                   help="include per-degree bases and reduction rows (json)")

    p = sub.add_parser("height-poly", help="harmonic height polynomial")
    common(p)
    p.add_argument("--invert2", action="store_true")

    p = sub.add_parser("hmap-check", help="proportionality map residues")
    common(p)

    p = sub.add_parser("degree", help="degree of the Lagrangian Grassmannian")
    common(p)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", type=str, default=None,
                   help="comma-separated check names")
    return parser


COMMANDS = {
    "pontrjagin": cmd_pontrjagin,
    "c1-power": cmd_c1_power,
    "ring-info": cmd_ring_info,
    "height-poly": cmd_height_poly,
    "hmap-check": cmd_hmap_check,
    "degree": cmd_degree,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command != "verify":
        if args.d < 1:
            parser.error("--d must be positive")
        if args.command in ("height-poly", "hmap-check", "degree") and args.d < 2:
            parser.error(f"{args.command} needs --d >= 2")
        if args.command == "pontrjagin" and not 1 <= args.k <= args.d:
            parser.error("--k must satisfy 1 <= k <= d")

    start = time.monotonic()
    try:
        report = COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    if report.checks and not all(c["ok"] for c in report.checks):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
