import json
import subprocess
import sys
from pathlib import Path

import pytest

from tautcalc.cli import main
from tautcalc.graded import GradedPoly
from tautcalc.arakelov import AbelianTautRing, c1_critical_power
from tautcalc.propmap import proportionality_map_check, verify_map_certificate
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


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "nope"]) == 2


def test_verify_empty_selection(capsys):
    # An empty --only selects no check: a usage error, not the whole suite.
    for only in ("", ",", "cauchy,"):
        assert main(["verify", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --only needs check names" in err


def test_usage_errors(capsys):
    code, _, err = run_cli(["pontrjagin", "--d", "2", "--k", "3"])
    assert code == 2
    code, _, _ = run_cli(["c1-power"])
    assert code == 2
    code, _, _ = run_cli(["height-poly", "--d", "1"])
    assert code == 2
    # every command works at the arithmetic dimension; none takes a cap
    err = usage_error(capsys, ["c1-power", "--d", "9", "--max-degree", "37"])
    assert "unrecognized arguments: --max-degree 37" in err


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
