import os
import subprocess
import sys
from pathlib import Path

import tautcalc


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this tautcalc."""
    env = dict(os.environ, PYTHONPATH=str(Path(tautcalc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exported_names_resolve():
    assert len(set(tautcalc.__all__)) == len(tautcalc.__all__)
    for name in tautcalc.__all__:
        assert getattr(tautcalc, name) is not None, name
    # the series registry, the generic series substitution and the series
    # class (series are coefficient lists) are gone
    for name in ("builtin_series", "rodd_series", "harmonic_symbol_series",
                 "apply_series_as_polynomial", "FormalSeries"):
        assert name not in tautcalc.__all__
        assert not hasattr(tautcalc, name)
    # the verification suite loads on first use, and a star import binds it
    assert tautcalc.run_checks is tautcalc.verify.run_checks
    out = run_fresh("from tautcalc import *; "
                    "print(sorted(CHECKS)[0], CheckResult.__name__, "
                    "run_checks.__module__)")
    assert out.split() == ["bernoulli-zeta", "CheckResult", "tautcalc.verify"]


def test_cli_import_leaves_unused_modules_unloaded():
    # A CLI request loads only what its command runs: no dataclasses (and
    # the inspect it pulls in), no json before JSON output, no verification
    # suite before `verify`.
    out = run_fresh("import sys, tautcalc.cli; print(*sorted({'dataclasses', "
                    "'inspect', 'json', 'tautcalc.verify'} & set(sys.modules)))")
    assert out.split() == []
