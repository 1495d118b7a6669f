import numpy as np
import pytest

from loccdist.bounds import mixed_state_report, pure_state_report
from loccdist.families import (
    BUILTIN_FAMILIES,
    get_family,
    parse_family,
    sweep,
)
from loccdist.separable import beta_sep_pure
from loccdist.states import BipartiteState, spectrum


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


def test_mixed_report_flags():
    st = BipartiteState.from_density(np.eye(4) / 4, (2, 2))
    report = mixed_state_report(st)
    assert report.flags == "lower-bound"
    assert report.beta_two_way_upper is None
    assert abs(report.beta_g - 1.0) <= 1e-12  # full-rank state
    assert abs(report.beta_sep - 0.5) <= 1e-12
    assert abs(report.beta_one_way - 0.5) <= 1e-12


def test_builtin_families_are_feasible():
    for fam in BUILTIN_FAMILIES.values():
        fam.validate()
        lam_end = fam.coefficients(fam.t_range[1])
        assert np.min(lam_end) >= -1e-12
        assert np.all(np.diff(lam_end) <= 1e-12)  # ordered at the far end


def test_builtin_closed_forms_match_direct_value():
    for fam in BUILTIN_FAMILIES.values():
        for t in np.linspace(fam.t_range[0], fam.t_range[1], 20):
            s = fam.spectrum_at(float(t))
            assert abs(beta_sep_pure(s) - fam.beta_sep_closed(float(t))) <= 1e-9


def test_family_grid_and_range_checks():
    fam = BUILTIN_FAMILIES["fig2"]
    grid = fam.grid(7)
    assert grid[0] == 0.0 and abs(grid[-1] - 1.0 / 3.0) <= 1e-15
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        fam.spectrum_at(0.5)
    with pytest.raises(ValueError):
        fam.grid(1)


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


def test_get_family():
    assert get_family("fig1") is BUILTIN_FAMILIES["fig1"]
    with pytest.raises(ValueError):
        get_family("1-2t,t,t")  # needs a range


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
    s = fam.spectrum_at(0.25)
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
    mixed = mixed_state_report(
        BipartiteState.from_density(np.eye(4) / 4, (2, 2))
    )
    text = json.dumps(mixed.to_dict())
    assert "null" in text  # no two-way value for general mixed input


def test_family_validate_catches_bad_sum():
    with pytest.raises(ValueError):
        parse_family("1-2t,t", (0.0, 0.3))  # sums to 1 - t
