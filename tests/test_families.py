import numpy as np
import pytest

from loccdist.bounds import embedding_dim, pure_state_report
from loccdist.families import (
    BUILTIN_FAMILIES,
    FamilySpec,
    _parse_term,
    get_family,
    parse_family,
    sweep,
)
from loccdist.separable import beta_sep_pure
from loccdist.states import SchmidtSpectrum, spectrum


def test_report_two_qubit_values():
    report = pure_state_report(spectrum([0.875, 0.125]))
    assert abs(report.beta_g - 0.25) <= 1e-12
    assert abs(report.beta_one_way - 0.5) <= 1e-12
    assert abs(report.beta_sep - beta_sep_pure(spectrum([0.875, 0.125]))) <= 1e-12
    assert abs(report.beta_two_way_upper - 0.428571) <= 1e-6
    assert report.flags == ""
    assert report.ordering_ok()
    first_delta = float(report.delta_star.split(",")[0])
    assert abs(first_delta - 0.5714286) <= 1e-5


def test_report_maximally_entangled_collapse():
    report = pure_state_report(spectrum([0.5, 0.5]))
    assert abs(report.beta_g - 0.25) <= 1e-12
    for value in (report.beta_sep, report.beta_two_way_upper, report.beta_one_way):
        assert abs(value - 0.5) <= 1e-9


def test_report_product_state_with_dims():
    report = pure_state_report(spectrum([1.0]), dims=(2, 2))
    for value in (
        report.beta_g,
        report.beta_sep,
        report.beta_two_way_upper,
        report.beta_one_way,
    ):
        assert abs(value - 0.25) <= 1e-12


def test_report_rejects_too_small_dims():
    with pytest.raises(ValueError):
        pure_state_report(spectrum([0.5, 0.5]), dims=(1, 2))


def test_embedding_dim_needs_each_side_to_hold_the_rank():
    s = spectrum([0.5, 0.3, 0.2, 0.0])
    assert embedding_dim(s) == 16
    assert embedding_dim(s, (3, 3)) == 9  # the rank, not the stored length, counts
    assert embedding_dim(s, (3, 7)) == 21
    for dims in ((2, 5), (1, 9), (2, 100)):
        with pytest.raises(ValueError, match="cannot hold a Schmidt-rank-3 state"):
            pure_state_report(s, dims=dims)
    with pytest.raises(ValueError, match="too large for a float"):
        embedding_dim(s, (10**200, 10**200))


def test_builtin_families_are_feasible():
    for fam in BUILTIN_FAMILIES.values():
        fam.validate()
        lam_end = fam.coefficients(fam.t_range[1])
        assert np.min(lam_end) >= -1e-12
        assert np.all(np.diff(lam_end) <= 1e-12)  # ordered at the far end


def test_builtin_closed_forms_match_direct_value():
    for fam in BUILTIN_FAMILIES.values():
        ts = np.linspace(fam.t_range[0], fam.t_range[1], 20)
        for t, lam in zip(ts.tolist(), fam.spectra_array(ts)):
            assert abs(beta_sep_pure(SchmidtSpectrum(lam)) - fam.beta_sep_closed(t)) <= 1e-9


def test_family_grid_and_range_checks():
    fam = BUILTIN_FAMILIES["fig2"]
    grid = fam.grid(7)
    assert grid[0] == 0.0 and abs(grid[-1] - 1.0 / 3.0) <= 1e-15
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        fam.spectra_array([0.5])
    with pytest.raises(ValueError):
        fam.grid(1)


@pytest.mark.parametrize("family", [*BUILTIN_FAMILIES.values(), parse_family("1-t,0.5t,0.5t,0", (0, 2 / 3))])
def test_stacked_spectra_are_spectrum_at_bit_for_bit(family):
    """A chunk's spectra, as one array or one point at a time, are each
    point's SchmidtSpectrum of base + slope * t, clipped at 0, to the bit."""
    ts = family.grid(23)
    for row, t in zip(family.spectra_array(ts), ts):
        alone = np.clip(np.array(family.base) + np.array(family.slope) * float(t), 0.0, None)
        s = SchmidtSpectrum(alone)
        for lam in (family.spectra_array([float(t)])[0], row):
            assert s.lambdas.view(np.uint64).tolist() == lam.view(np.uint64).tolist()
    lo, hi = family.t_range
    for bad in (hi + 1e-11, lo - 1e-11, float("nan")):
        with pytest.raises(ValueError, match=f"^t={bad} outside range"):
            family.spectra_array(np.append(ts, bad))
        with pytest.raises(ValueError, match="outside range"):
            family.spectra_array([bad])


def test_parse_family_round_trip():
    fam = parse_family("1-2t,t,t", (0.0, 1.0 / 3.0))
    assert fam.base == (1.0, 0.0, 0.0)
    assert fam.slope == (-2.0, 1.0, 1.0)
    built_in = BUILTIN_FAMILIES["fig2"]
    for t in (0.0, 0.1, 0.3):
        assert np.allclose(fam.coefficients(t), built_in.coefficients(t))


def test_parse_family_fractions_and_coefficients():
    fam = parse_family("1-9/2t,2t,3/2t,t", (0.0, 2.0 / 13.0))
    assert np.allclose(fam.slope, (-4.5, 2.0, 1.5, 1.0))
    assert np.allclose(fam.base, (1.0, 0.0, 0.0, 0.0))


def test_parse_family_rejects_garbage():
    with pytest.raises(ValueError):
        parse_family("1-2t,q,t", (0.0, 0.3))


def test_parse_family_rejects_infeasible_range():
    with pytest.raises(ValueError):
        parse_family("1-3t,2t,t", (0.0, 0.4))  # first coefficient negative at 0.4


def test_parse_family_accepts_rounding_level_negative_endpoint():
    fam = parse_family("1-t,t", (0.0, 1.0 + 1e-13))
    assert -1e-12 <= np.min(fam.coefficients(fam.t_range[1])) < 0.0


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1", (1.0, 0.0)),
        ("t", (0.0, 1.0)),
        ("-t", (0.0, -1.0)),
        ("+2t", (0.0, 2.0)),
        ("2*t", (0.0, 2.0)),
        ("1-2t", (1.0, -2.0)),
        ("1+t", (1.0, 1.0)),
        ("1-9/2t", (1.0, -4.5)),
        ("3/2t", (0.0, 1.5)),
        (" 1 - 2 t ", (1.0, -2.0)),
        ("0.5 + 0.5 t", (0.5, 0.5)),
        ("2 * t", (0.0, 2.0)),
        ("", "cannot parse"),
        ("  ", "cannot parse"),
        ("1-2", "cannot parse"),
        ("1+", "cannot parse"),
        ("1+-t", "cannot parse"),
        ("t1", "cannot parse"),
        ("1e-3t", "cannot parse"),
        ("2t+1", "cannot parse"),
        ("1/0-t", "zero denominator"),
        ("1-2t\n", "cannot parse"),  # "$" would match before the newline
        ("\u0661-t", "cannot parse"),  # an Arabic-Indic 1, a digit to "\d" and float()
    ],
)
def test_parse_term_grammar(token, expected):
    """A term is a constant, a multiple of t, or a constant and then a
    signed multiple of t; spaces do not count.  Each expected value is what
    the earlier three-pattern parser returned or raised, but for the last
    two: only ASCII digits count, and nothing may follow the term."""
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            _parse_term(token)
    else:
        assert _parse_term(token) == expected


@pytest.mark.parametrize(
    "base,slope,t_range,message",
    [
        ((1.0, 0.0), (-3.0, 3.0), (0.0, 0.5), "negative coefficient"),
        ((1.0, 0.0), (-2.0, 1.0), (0.0, 0.3), "sum to"),
        ((0.5, 0.5), (0.5, -0.5), (0.5, 0.5), "lo < hi"),
        ((0.5, 0.5), (0.5, -0.5), (0.5, 0.0), "lo < hi"),
        ((0.5, 0.5), (0.5, -0.5), (float("nan"), 0.5), "lo < hi"),
    ],
)
def test_family_spec_checks_itself(base, slope, t_range, message):
    with pytest.raises(ValueError, match=message):
        FamilySpec("direct", base, slope, t_range)


def test_get_family():
    assert get_family("fig1") is BUILTIN_FAMILIES["fig1"]
    with pytest.raises(ValueError):
        get_family("1-2t,t,t")  # needs a range
    with pytest.raises(ValueError, match="fixed t range"):
        get_family("fig1", (0.0, 0.1))
    # The terms are parsed before the family checks its range.
    with pytest.raises(ValueError, match="cannot parse"):
        get_family("1-q,t", (0.5, 0.0))


def test_sweep_rows_ordered_and_chained():
    rows = sweep(BUILTIN_FAMILIES["fig1"], 6)
    ts = [t for t, _ in rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for _, report in rows:
        assert report.ordering_ok()
    # end point: every local bound collapses to 1/2
    last = rows[-1][1]
    assert abs(last.beta_sep - 0.5) <= 1e-9
    assert abs(last.beta_two_way_upper - 0.5) <= 1e-9
    assert abs(last.beta_one_way - 0.5) <= 1e-12


def test_sweep_fig2_endpoint_equalities():
    rows = sweep(BUILTIN_FAMILIES["fig2"], 5)
    first, last = rows[0][1], rows[-1][1]
    for value in (first.beta_g, first.beta_sep, first.beta_two_way_upper, first.beta_one_way):
        assert abs(value - 1.0 / 9.0) <= 1e-6
    for value in (last.beta_sep, last.beta_two_way_upper, last.beta_one_way):
        assert abs(value - 1.0 / 3.0) <= 1e-6


def test_sweep_fig5_spot_value():
    fam = BUILTIN_FAMILIES["fig5"]
    s = SchmidtSpectrum(fam.spectra_array([0.25])[0])
    assert abs(beta_sep_pure(s) - 0.25) <= 1e-12


def test_ordering_check_catches_violations():
    from loccdist.bounds import BoundsReport

    bad = BoundsReport(
        spectrum=(0.5, 0.5),
        D=4,
        beta_g=0.25,
        beta_one_way=0.3,
        beta_sep=0.5,
        beta_two_way_upper=0.4,
        delta_star="",
    )
    assert not bad.ordering_ok()


def test_report_dict_is_flat_and_serialisable():
    import json

    report = pure_state_report(spectrum([0.75, 0.25]))
    payload = report.to_dict()
    assert set(payload) == {
        "spectrum",
        "D",
        "beta_g",
        "beta_one_way",
        "beta_sep",
        "beta_two_way_upper",
        "delta_star",
        "flags",
    }
    json.dumps(payload)


def test_family_validate_catches_bad_sum():
    with pytest.raises(ValueError):
        parse_family("1-2t,t", (0.0, 0.3))  # sums to 1 - t
