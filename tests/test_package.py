import tautcalc


def test_exported_names_resolve():
    assert len(set(tautcalc.__all__)) == len(tautcalc.__all__)
    for name in tautcalc.__all__:
        assert getattr(tautcalc, name) is not None, name
    # the series registry and the generic series substitution are gone
    for name in ("builtin_series", "rodd_series", "harmonic_symbol_series",
                 "apply_series_as_polynomial"):
        assert name not in tautcalc.__all__
        assert not hasattr(tautcalc, name)
