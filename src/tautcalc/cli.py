"""Command-line front end: exact formula reports in text, LaTeX or JSON.

Every number in a report is an exact rational string; reports are
byte-identical across runs (timing goes to stderr).  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace

from .scalars import Scalar
from .graded import GradedPoly
from .charclasses import ClassVector, pontrjagin_from_c
from .arakelov import (AbelianTautRing, ArithClass, c1_critical_power,
                       harmonic_substitution, height_polynomial)


class Report:
    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        # (label, text rendering, latex rendering, JSON payload); a
        # rendering that is no str is converted by str() when its format is
        # rendered.
        self.lines: list[tuple[str, object, object, object]] = []
        self.checks: list[dict] = []

    def add(self, label: str, text: object, latex: object, payload):
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


def cmd_pontrjagin(args: SimpleNamespace) -> Report:
    ring = AbelianTautRing(args.d)
    k = args.k
    if k > args.d:
        raise ValueError(f"k must be at most d = {args.d}")
    report = Report("pontrjagin", {"d": args.d, "k": k, "invert2": args.invert2})
    classes = ClassVector.standard(ring.zgens, list(ring.zgens.names))
    poly = pontrjagin_from_c(classes, k)[k - 1]
    value = ring.reduce(ring.from_z(poly))
    text, latex, payload = _class_renderings(value, args.invert2)
    report.add(f"p^_{k}(E)", text, f"\\hat p_{{{k}}}(\\bar E) = {latex}", payload)
    return report


def cmd_c1_power(args: SimpleNamespace) -> Report:
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


def cmd_ring_info(args: SimpleNamespace) -> Report:
    from .classical import audit_dump, dimension_report, tautological_ring

    ring = tautological_ring(args.d)
    rep = dimension_report(ring)
    report = Report("ring-info", {"d": args.d})
    report.add("dimensions", str(rep.dims), str(rep.dims), rep.dims)
    report.add("total", str(rep.total), str(rep.total), rep.total)
    report.add("socle degree", str(rep.socle_degree), str(rep.socle_degree),
               rep.socle_degree)
    report.add("socle dimension", str(rep.socle_dim), str(rep.socle_dim),
               rep.socle_dim)
    if args.audit:
        # Only the JSON report carries the dump; text and latex say so.
        dump = audit_dump(ring) if args.format == "json" else None
        report.add("audit", "(json only)", "(json only)", dump)
    return report


def cmd_height_poly(args: SimpleNamespace) -> Report:
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


def cmd_hmap_check(args: SimpleNamespace) -> Report:
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


def cmd_degree(args: SimpleNamespace) -> Report:
    from .classical import lagrangian_degree

    value = lagrangian_degree(args.d)
    report = Report("degree", {"d": args.d})
    # The decimal string is made only for the format rendered: at d = 600
    # one str() of the degree takes seconds, and JSON makes its own.
    report.add(f"deg B_{args.d - 1}", value, value, value)
    return report


def cmd_verify(args: SimpleNamespace) -> Report:
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


FORMATS = ("text", "latex", "json")
# Each command's function, help and options, read by build_parser and by
# parse_plain.  An option maps to its type and help: an int is required, a
# bool is a bare flag (default False), a str takes a value (default None).
COMMANDS = {
    "pontrjagin": (cmd_pontrjagin, "lifted Pontrjagin class value", {
        "d": (int, None), "k": (int, None),
        "invert2": (bool, "drop every log 2 term (base change inverting 2)")}),
    "c1-power": (cmd_c1_power, "critical power of the first class",
                 {"d": (int, None), "invert2": (bool, None)}),
    "ring-info": (cmd_ring_info, "classical ring dimensions", {
        "d": (int, None),
        "audit": (bool, "include per-degree bases and reduction rows (json)")}),
    "height-poly": (cmd_height_poly, "harmonic height polynomial",
                    {"d": (int, None), "invert2": (bool, None)}),
    "hmap-check": (cmd_hmap_check, "proportionality map residues",
                   {"d": (int, None)}),
    "degree": (cmd_degree, "degree of the Lagrangian Grassmannian",
               {"d": (int, None)}),
    "verify": (cmd_verify, "run the verification suite",
               {"only": (str, "comma-separated check names")}),
}


def build_parser():
    """The argparse parser of the command line.  It loads only when
    parse_plain declines, and prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tautcalc",
        description="Exact calculator for tautological rings of Hodge "
                    "bundles and their arithmetic extensions.")
    parser.add_argument("--format", choices=FORMATS, default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, (kind, text) in options.items():
            if kind is bool:
                p.add_argument(f"--{name}", action="store_true", help=text)
            else:
                p.add_argument(f"--{name}", type=kind, required=kind is int,
                               help=text)
    return parser


def parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line as argparse gives them: an
    optional leading --format, a command, then its options in any order,
    each at most once, an int as ASCII digits, a str not led by "-".  None
    for any other argv (help, abbreviations, --opt=value, ...)."""
    fmt = "text"
    if argv[:1] == ["--format"] and len(argv) > 1:
        fmt, argv = argv[1], argv[2:]
    if fmt not in FORMATS or not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][2]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name = token[2:]
        if token[:2] != "--" or name not in options or name in given:
            return None
        kind = options[name][0]
        value = True if kind is bool else next(tokens, "-")
        if kind is not bool and (value.startswith("-") or kind is int and not (
                value.isascii() and value.isdigit())):
            return None
        given[name] = kind(value)
    if {n for n, (kind, _) in options.items() if kind is int} - given.keys():
        return None
    return SimpleNamespace(format=fmt, command=argv[0], **{
        name: given.get(name, False if kind is bool else None)
        for name, (kind, _) in options.items()})


def main(argv: list[str] | None = None) -> int:
    # argparse runs only for what parse_plain declines: help and usage
    # errors, whose output it prints.
    args = parse_plain(sys.argv[1:] if argv is None else list(argv))
    if args is None:
        args = build_parser().parse_args(argv)

    # The library checks d; k indexes pontrjagin_from_c, so it is checked
    # here from below and in cmd_pontrjagin, once d is valid, from above.
    if args.command == "pontrjagin" and args.k < 1:
        build_parser().error("--k must be at least 1")

    # An exact value may have more digits than the interpreter converts to
    # a string by default (Python 3.10.7 on): the command and its rendering
    # run without that limit, and the caller's limit is restored.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    start = time.monotonic()
    try:
        report = COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    else:
        sys.stdout.write(report.render(args.format))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    if argv is None:
        # This process ends with the command: frozen, its heap is skipped by
        # the collections that interpreter shutdown runs.
        gc.freeze()
    if report.checks and not all(c["ok"] for c in report.checks):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
