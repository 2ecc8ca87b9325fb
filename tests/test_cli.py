import gc
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tautcalc import cli
from tautcalc.cli import main
from tautcalc.graded import GradedPoly
from tautcalc import classical, verify
from tautcalc.arakelov import AbelianTautRing, c1_critical_power
from tautcalc.classical import lagrangian_degree
from tautcalc.propmap import proportionality_map_check, verify_map_certificate
from tautcalc.quotient import ReductionError
from tautcalc.verify import run_checks


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "tautcalc.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_degree_command():
    code, out, _ = run_cli(["degree", "--d", "3"])
    assert code == 0
    assert "deg B_2: 2" in out
    code, out, _ = run_cli(["degree", "--d", "5"])
    assert "deg B_4: 768" in out
    code, out, _ = run_cli(["degree", "--d", "2"])
    assert "deg B_1: 1" in out


def test_pontrjagin_command(capsys):
    assert main(["pontrjagin", "--d", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "a((-1 + 8/3*log2 + 24*zeta'(-1))*c1)" in out


def test_pontrjagin_invert2(capsys):
    assert main(["pontrjagin", "--d", "2", "--k", "1", "--invert2"]) == 0
    out = capsys.readouterr().out
    assert "log2" not in out
    assert "24*zeta'(-1)" in out


def test_pontrjagin_d3_k2(capsys):
    # on the squarefree basis the zeta'(-3) coefficient shows up halved
    # relative to the c1^3 presentation (c1^3 = 2 c1 c2)
    assert main(["pontrjagin", "--d", "3", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "- 240*zeta'(-3)" in out and "*c1*c2" in out


def test_c1_power_known_values(capsys):
    assert main(["c1-power", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert "-1063/60 + 1520/63*log2 + 96*zeta'(-1) - 600*zeta'(-3) + 2016*zeta'(-5)" in out
    assert "112*c1*c2 - 64*c3" in out


def test_c1_power_latex(capsys):
    assert main(["--format", "latex", "c1-power", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "\\hat c_1^{2}(\\bar E)" in out
    assert "\\gamma" in out


def test_json_round_trips_through_parsers(capsys):
    assert main(["--format", "json", "c1-power", "--d", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # JSON reports are output only: the payloads are the library values'
    # to_json(), with nothing to parse them back
    ring = AbelianTautRing(3)
    reduced = ring.reduce(ring.from_z(GradedPoly.monomial(
        ring.zgens, ring.zgens.single("C1", 4))))
    assert doc["results"]["c^1^4(E)"] == reduced.to_json()
    r = c1_critical_power(3, ring).r
    assert doc["results"]["r_d"] == r.to_json()
    assert r.symbol_degree() == 1


def test_ring_info_and_audit(capsys):
    assert main(["ring-info", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert "total: 8" in out
    assert "socle degree: 6" in out
    assert main(["--format", "json", "ring-info", "--d", "3", "--audit"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["audit"]["degrees"][2]["basis"] == ["u2"]


def test_ring_info_audit_builds_the_dump_for_json_only(capsys, monkeypatch):
    # Text and latex print only "(json only)" for the audit, so they must
    # not build the dump, which costs seconds from d = 8 on.
    def refuse(ring):
        raise AssertionError("audit_dump built for a report without it")

    monkeypatch.setattr(classical, "audit_dump", refuse)
    assert main(["ring-info", "--d", "4", "--audit"]) == 0
    assert "audit: (json only)" in capsys.readouterr().out
    assert main(["--format", "latex", "ring-info", "--d", "4", "--audit"]) == 0
    assert "% audit\n\\[ (json only) \\]" in capsys.readouterr().out


def test_height_poly_command(capsys):
    assert main(["height-poly", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "height polynomial: h1" in out
    assert "-1 + 8/3*log2 + 24*zeta'(-1)" in out


def test_hmap_check_exit_codes():
    code, out, _ = run_cli(["hmap-check", "--d", "3"])
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    code, out, _ = run_cli(["hmap-check", "--d", "5"])
    assert code == 1
    assert "[FAIL]" in out


def test_hmap_check_reports_certificate(capsys):
    assert main(["--format", "json", "hmap-check", "--d", "5"]) == 1
    doc = json.loads(capsys.readouterr().out)
    weights = doc["results"]["certificate y"]
    assert [w["weight"] for w in weights] == ["-1", "-102/161", "-16/161", "1"]
    assert weights[0]["degree"] == 6 and weights[0]["monomial"] == "c1*c4"
    cert = proportionality_map_check(5, AbelianTautRing(5)).certificate
    assert cert.value
    assert doc["results"]["certificate y^T b"] == cert.value.to_json()
    assert main(["hmap-check", "--d", "4"]) == 0
    assert "certificate" not in capsys.readouterr().out
    assert main(["verify", "--only", "hmap"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] hmap (derived): d=5 (inconsistent, certificate verified)" in out


def test_hmap_check_reports_match_recorded(capsys):
    # The recorded text reports pin the generator images, the constant form
    # scale and the certificate weights of hmap-check --d 2..8.
    recorded = Path(__file__).parent / "data" / "hmap_check_d2_d8.txt"
    out = []
    for d in range(2, 9):
        assert main(["hmap-check", "--d", str(d)]) == (0 if d <= 4 else 1)
        out.append(capsys.readouterr().out)
    assert "".join(out) == recorded.read_text()


def test_ring_info_audit_matches_recorded(capsys):
    # The recorded JSON reports of ring-info --audit for d = 2..5, one after
    # the other, pin the basis and every reduction row of the classical ring
    # in each degree.
    recorded = Path(__file__).parent / "data" / "ring_info_audit_d2_d5.json"
    out = []
    for d in range(2, 6):
        assert main(["--format", "json", "ring-info", "--d", str(d), "--audit"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == recorded.read_text()


def test_critical_reports_match_recorded(capsys):
    # The recorded text reports pin r_d, phi and phi (witness basis) of
    # c1-power and the height polynomial of height-poly, each with and
    # without --invert2, for d = 2..7.
    recorded = Path(__file__).parent / "data" / "critical_d2_d7.txt"
    out = []
    for d in range(2, 8):
        for command in ("c1-power", "height-poly"):
            for flags in ([], ["--invert2"]):
                assert main([command, "--d", str(d), *flags]) == 0
                out.append(capsys.readouterr().out)
    assert "".join(out) == recorded.read_text()


def test_frontier_reports_match_recorded(capsys, monkeypatch):
    # The recorded text reports of c1-power and height-poly for d = 8..13
    # were kept only where two independent routes agree: height-poly's
    # substitution equals c1-power's r_d, and both socle coordinates equal
    # lagrangian_degree(d).  Here d = 8..11 run in one process and both
    # routes are checked on the results behind each report; CI's installed
    # console script compares d = 12 and 13 in fresh processes.
    recorded = (Path(__file__).parent / "data" / "critical_d8_d13.txt").read_text()
    for d in range(8, 14):
        report = recorded.split(f"# c1-power d={d} ")[1]
        r_d = report.split("\nr_d: ")[1].split("\n")[0]
        assert f"\nafter substitution (= r_d): {r_d}\n" in report
    results = []
    for name in ("c1_critical_power", "height_polynomial"):
        def keep(d, fn=getattr(cli, name)):
            results.append(fn(d))
            return results[-1]
        monkeypatch.setattr(cli, name, keep)
    out = []
    for d in range(8, 12):
        for command in ("c1-power", "height-poly"):
            assert main([command, "--d", str(d)]) == 0
            out.append(capsys.readouterr().out)
        critical, height = results[-2:]
        assert height.substituted == critical.r
        assert (critical.socle_coordinate == height.socle_coordinate
                == lagrangian_degree(d))
    assert "".join(out) == recorded[:recorded.index("# c1-power d=12 ")]


def test_pontrjagin_reports_match_recorded(capsys):
    # The recorded reports pin pontrjagin --d 1..7 --k 1..d in text, each
    # with and without --invert2, and --d 6 --k 1..6 in JSON.
    recorded = Path(__file__).parent / "data" / "pontrjagin_d1_d7.txt"
    out = []
    for d in range(1, 8):
        for k in range(1, d + 1):
            for flags in ([], ["--invert2"]):
                assert main(["pontrjagin", "--d", str(d), "--k", str(k), *flags]) == 0
                out.append(capsys.readouterr().out)
    for k in range(1, 7):
        assert main(["--format", "json", "pontrjagin", "--d", "6", "--k", str(k)]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == recorded.read_text()


def test_verify_reports_match_recorded(capsys):
    # The recorded text and JSON reports of verify pin every check's name,
    # source, verdict and detail, and the exit code 1 from hmap alone.
    recorded = Path(__file__).parent / "data" / "verify_text_json.txt"
    out = []
    for fmt in ("text", "json"):
        assert main(["--format", fmt, "verify"]) == 1
        out.append(capsys.readouterr().out)
    assert "".join(out) == recorded.read_text()


def test_verify_subset(capsys):
    assert main(["verify", "--only", "bernoulli-zeta,cauchy"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


def test_verify_builds_one_abelian_ring_per_d(monkeypatch):
    built = []
    init = AbelianTautRing.__init__

    def counting_init(self, d):
        built.append(d)
        init(self, d)

    monkeypatch.setattr(AbelianTautRing, "__init__", counting_init)
    results = run_checks(["examples", "witness-form", "two-route"])
    assert all(res.ok for res in results)
    assert sorted(built) == [1, 2, 3, 4, 5]


def test_witness_independence_builds_each_witness_set_once(monkeypatch):
    calls = []
    alternatives = verify.alternative_witnesses

    def counting(ring, poly):
        calls.append(poly)
        return alternatives(ring, poly)

    monkeypatch.setattr(verify, "alternative_witnesses", counting)
    (result,) = run_checks(["witness-independence"])
    assert result.ok, result.detail
    assert result.detail == "d=2..5: all solutions reduce identically"
    assert len(calls) == 4


def test_witness_independence_reports_a_failed_expansion(monkeypatch):
    variants = verify.reduce_variants

    def failing_at_d3(ring, x):
        if ring.d == 3:
            raise ReductionError("witness failed to re-expand to its target")
        return variants(ring, x)

    monkeypatch.setattr(verify, "reduce_variants", failing_at_d3)
    (result,) = run_checks(["witness-independence"])
    assert not result.ok
    assert result.detail == "d=3 expansion"


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "nope"]) == 2


def test_verify_empty_selection(capsys):
    # An empty --only selects no check: a usage error, not the whole suite.
    for only in ("", ",", "cauchy,"):
        assert main(["verify", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --only needs check names" in err


def test_verify_repeated_check(capsys):
    # A check named twice would run, and print its line, twice.
    for only, named in (("newton,newton", "newton"),
                        ("cauchy,newton,cauchy,newton", "cauchy, newton")):
        assert main(["verify", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: checks named more than once: {named}\n" in err


def test_in_process_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["c1-power", "--d", "3"]) == 0
    assert main(["verify", "--only", "newton"]) == 0
    assert gc.get_freeze_count() == before


def test_fresh_import_freezes_nothing():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gc, tautcalc.cli; print(gc.get_freeze_count())"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_console_script_freezes_after_its_report(capsys, fmt):
    # The console script calls main() with no arguments: the process ends
    # with the command, so main freezes the heap once the report is out.
    # Its stdout is the report main([...]) writes in process, byte for byte.
    args = ["--format", fmt, "c1-power", "--d", "4"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gc, sys\n"
         "from tautcalc.cli import main\n"
         f"sys.argv = ['tautcalc', *{args!r}]\n"
         "code = main()\n"
         "print('frozen:', gc.get_freeze_count(), file=sys.stderr)\n"
         "sys.exit(code)\n"],
        capture_output=True)
    assert proc.returncode == 0, proc.stderr
    elapsed, frozen = proc.stderr.decode().splitlines()
    assert elapsed.startswith("elapsed: ")
    assert int(frozen.removeprefix("frozen: ")) > 0
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_usage_errors(capsys):
    code, out, err = run_cli(["pontrjagin", "--d", "2", "--k", "3"])
    assert (code, out, err) == (2, "", "error: k must be at most d = 2\n")
    err = usage_error(capsys, ["pontrjagin", "--d", "2", "--k", "0"])
    assert "--k must be at least 1" in err
    code, _, _ = run_cli(["c1-power"])
    assert code == 2
    # d is checked by the library alone: its ValueError is the one line
    # on stderr, and nothing reaches stdout.
    for argv in (["degree", "--d", "1"], ["c1-power", "--d", "0"],
                 ["height-poly", "--d", "1"], ["hmap-check", "--d", "1"],
                 ["ring-info", "--d", "0"], ["pontrjagin", "--d", "0", "--k", "1"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: d must be ") and err.count("\n") == 1, (argv, err)
    # every command works at the arithmetic dimension; none takes a cap
    err = usage_error(capsys, ["c1-power", "--d", "9", "--max-degree", "37"])
    assert "unrecognized arguments: --max-degree 37" in err


# A value for each option that takes one.
OPTION_VALUES = {"d": "3", "k": "2", "only": "cauchy,newton"}


def plain_command_lines(monkeypatch):
    """Well-formed command lines: every command with no --format and in
    each format, with and without each optional option, its options in both
    orders, plus every request the benchmark's CLI workloads can send."""
    out = [["degree", "--d", "007"], ["pontrjagin", "--k", "0", "--d", "2"],
           ["verify", "--only", ""], ["verify", "--only", "a b"]]
    for command, (_, _, options) in cli.COMMANDS.items():
        needed = [[f"--{name}", OPTION_VALUES[name]]
                  for name, (kind, _) in options.items() if kind is int]
        optional = [[f"--{name}"] if kind is bool
                    else [f"--{name}", OPTION_VALUES[name]]
                    for name, (kind, _) in options.items() if kind is not int]
        for chosen in itertools.product((False, True), repeat=len(optional)):
            groups = needed + list(itertools.compress(optional, chosen))
            for order in (groups, groups[::-1]):
                for fmt in ([], *(["--format", f] for f in cli.FORMATS)):
                    out.append([*fmt, command, *itertools.chain(*order)])
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    from cli_workloads import all_requests
    return out + [req.args() for req in all_requests()]


def test_plain_parser_agrees_with_argparse(monkeypatch):
    parser = cli.build_parser()
    lines = plain_command_lines(monkeypatch)
    assert len(lines) > 200
    for argv in lines:
        plain = cli.parse_plain(argv)
        assert plain is not None, argv
        typed = {k: (type(v), v) for k, v in vars(plain).items()}
        assert typed == {k: (type(v), v)
                         for k, v in vars(parser.parse_args(argv)).items()}, argv


@pytest.mark.parametrize("line", [
    "", "-h", "--help", "c1-power --help", "--form json c1-power --d 2",
    "c1-power --inv --d 2", "c1-power --d=6", "c1-power --d -3",
    "c1-power --d \u0666", "c1-power --d 1_0", "c1-power --d 2 --d 3",
    "c1-power -- --d 2", "c1-power --d 2 --format json", "--format",
    "--format xml c1-power --d 2", "c1-power", "c1-power --d",
    "pontrjagin --d 2", "verify --only", "verify --only -x",
    "c1-power --d 2 extra", "ring-info --d 2 --audit --audit", "nope --d 2"])
def test_plain_parser_leaves_the_rest_to_argparse(line):
    assert cli.parse_plain(line.split()) is None


def test_argparse_answers_what_the_plain_parser_declines(capsys):
    # An abbreviation and --opt=value reach argparse, which accepts them.
    assert main(["--format", "json", "c1-power", "--d", "2"]) == 0
    expected = capsys.readouterr().out
    for argv in (["--form", "json", "c1-power", "--d", "2"],
                 ["--format=json", "c1-power", "--d=2"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in cli.COMMANDS)


def decimal(n):
    """The decimal digits of n >= 0, converted in chunks of nine, each far
    below the interpreter's int-to-string digit limit."""
    chunks = []
    while n >= 10 ** 9:
        n, r = divmod(n, 10 ** 9)
        chunks.append(f"{r:09d}")
    return str(n) + "".join(reversed(chunks))


def test_degree_prints_every_digit(capsys):
    # From d = 77 on the degree has more than 4,300 digits, the default
    # limit of int-to-string conversion (Python 3.10.7 on): the command
    # exited 2 with "Exceeds the limit ...".  main lifts the limit for the
    # command and its rendering only, and gives the caller's back.
    digits = decimal(lagrangian_degree(80))
    assert len(digits) == 4779
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    for fmt, line in (("text", f"deg B_79: {digits}\n"),
                      ("latex", f"\\[ {digits} \\]\n"),
                      ("json", f'"deg B_79": {digits}\n')):
        assert main(["--format", fmt, "degree", "--d", "80"]) == 0
        assert line in capsys.readouterr().out
        assert limit() == before


def test_degree_converts_to_decimal_once_per_report(monkeypatch, capsys):
    # At d = 600 one str() of the degree takes seconds.  Text and LaTeX
    # convert it once, and JSON leaves it to json.dumps, which makes no
    # str() call of an int.
    calls = []

    class Counted(int):
        def __str__(self):
            calls.append(self)
            return int.__str__(self)

    plain = {}
    for fmt in cli.FORMATS:
        assert main(["--format", fmt, "degree", "--d", "7"]) == 0
        plain[fmt] = capsys.readouterr().out
    monkeypatch.setattr(classical, "lagrangian_degree",
                        lambda d: Counted(lagrangian_degree(d)))
    for fmt, expected in (("text", 1), ("latex", 1), ("json", 0)):
        calls.clear()
        assert main(["--format", fmt, "degree", "--d", "7"]) == 0
        assert capsys.readouterr().out == plain[fmt]
        assert len(calls) == expected, fmt


@pytest.mark.parametrize("argv", [
    ["c1-power"], ["height-poly"], ["pontrjagin", "--k", "1"], ["ring-info"],
    ["hmap-check"]], ids=lambda argv: argv[0])
def test_ring_commands_reject_d_above_256(capsys, argv):
    # At d = 257 the working degree d(d-1)/2 + 1 reaches the exponent
    # limit 32768: c1-power built relations over 257 generators for about
    # a second before it said "top degree must be below 32768".
    assert main([*argv, "--d", "257"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: d must be an int from 1 to 256, not 257\n"


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_pontrjagin_cap_below_class_degree(capsys):
    # p_3 has degree 6, within the dimension 7: a cap of 5 would print
    # "p^_3(E): 0"
    assert main(["pontrjagin", "--d", "4", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "a((-137/60 + 128/63*log2 + 504*zeta'(-5))*c2*c3)" in out


def test_pontrjagin_above_dimension_is_zero(capsys):
    # p_3 at d = 3 has degree 6, above the dimension 4: reduction truncates
    # it to zero
    assert main(["pontrjagin", "--d", "3", "--k", "3"]) == 0
    assert "p^_3(E): 0" in capsys.readouterr().out


def test_hmap_check_has_no_max_degree(capsys):
    err = usage_error(capsys, ["hmap-check", "--d", "3", "--max-degree", "9"])
    assert "unrecognized arguments: --max-degree 9" in err


def test_hmap_check_d8_certificate(capsys):
    # d = 8 runs like any other d: no map exists, and the exit code comes
    # from the failing residues next to a certificate that verifies
    assert main(["hmap-check", "--d", "8"]) == 1
    captured = capsys.readouterr()
    assert "\ncertificate y: y[" in captured.out
    assert "[FAIL] construction" in captured.out
    assert "usage" not in captured.err
    ring = AbelianTautRing(8)
    cert = proportionality_map_check(8, ring).certificate
    assert verify_map_certificate(cert, ring)
    assert f"certificate y^T b: {cert.value.render()}\n" in captured.out


def test_c1_power_d8_matches_library(capsys):
    assert main(["c1-power", "--d", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"r_d: {c1_critical_power(8).r.render()}" in lines


def test_reports_are_deterministic():
    first = run_cli(["--format", "json", "c1-power", "--d", "3"])
    second = run_cli(["--format", "json", "c1-power", "--d", "3"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    # timing goes to stderr only
    assert "elapsed" in first[2] and "elapsed" not in first[1]
