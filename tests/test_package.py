import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_dir_lists_every_exported_name():
    # the lazily exported names too, before any of them is loaded
    out = run_fresh("import tautcalc; "
                    "print(*sorted(set(tautcalc.__all__) - set(dir(tautcalc))))")
    assert out.split() == []


def test_arakelov_forwards_the_moved_checks():
    from tautcalc import arakelov, propmap, series
    assert arakelov.proportionality_map_check is propmap.proportionality_map_check
    assert arakelov.ch_even_check is series.ch_even_check
    for name in ("_MapSolver", "MapCertificate", "series_exp", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(arakelov, name)


# Names of the code that only hmap-check and verify run.
MAP_NAMES = ("_MapSolver", "proportionality_map_check")
SERIES_NAMES = ("ch_even_check", "series_exp", "multiplicative_class")


def names_loaded_by(argv: list[str]) -> list[str]:
    """Run the CLI command argv in a fresh interpreter; return which of the
    map and series names some loaded tautcalc module then holds.  vars() is
    read, not hasattr, which would load a module through a forwarder."""
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from tautcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print(*sorted({name for key, module in list(sys.modules.items())\n"
        "               if key.split('.')[0] == 'tautcalc'\n"
        f"               for name in {MAP_NAMES + SERIES_NAMES!r}\n"
        "               if name in vars(module)}))")
    return out.split()


def test_cli_import_leaves_unused_modules_unloaded():
    # A CLI request loads only what its command runs: no dataclasses (and
    # the inspect it pulls in), no json before JSON output, no verification
    # suite before `verify`.
    out = run_fresh("import sys, tautcalc.cli; print(*sorted({'dataclasses', "
                    "'inspect', 'json', 'tautcalc.verify'} & set(sys.modules)))")
    assert out.split() == []
    # The ring commands compile neither the proportionality map nor the
    # series code; hmap-check loads the map and no series code.
    for argv in (["c1-power", "--d", "3"], ["height-poly", "--d", "3"],
                 ["pontrjagin", "--d", "3", "--k", "1"]):
        assert names_loaded_by(argv) == [], argv
    assert names_loaded_by(["hmap-check", "--d", "3"]) == sorted(MAP_NAMES)
