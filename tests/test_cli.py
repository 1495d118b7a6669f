import json

import numpy as np
import pytest

import loccdist.cli
from loccdist.cli import main

VERIFY_CHECKS = [
    "appendix-identity",
    "povm-element-range",
    "perfect-detection-sep",
    "trace-formula-sep",
    "separable-form-assembly",
    "separable-form-psd",
    "perfect-detection-one-way",
    "two-way-trace-oracle",
    "two-way-perfect-detection",
    "monte-carlo-type-1",
    "monte-carlo-type-2",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_two_qubit(capsys):
    code, out, _ = run(capsys, "bounds", "--schmidt", "0.875,0.125")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["beta_two_way_upper"] - 0.428571) <= 1e-5
    assert abs(payload["beta_one_way"] - 0.5) <= 1e-12
    assert payload["flags"] == ""


def test_bounds_maximally_entangled(capsys):
    code, out, _ = run(capsys, "bounds", "--schmidt", "0.5,0.5")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["beta_g"] - 0.25) <= 1e-12
    for key in ("beta_sep", "beta_two_way_upper", "beta_one_way"):
        assert abs(payload[key] - 0.5) <= 1e-9


def test_bounds_product_with_dims(capsys):
    code, out, _ = run(capsys, "bounds", "--schmidt", "1.0", "--dims", "2,2")
    assert code == 0
    payload = json.loads(out)
    for key in ("beta_g", "beta_sep", "beta_two_way_upper", "beta_one_way"):
        assert abs(payload[key] - 0.25) <= 1e-12


def test_bounds_rejects_bad_sum(capsys):
    code, _, err = run(capsys, "bounds", "--schmidt", "0.9,0.2")
    assert code == 2
    assert "sum" in err
    assert "np.float64" not in err


def test_bounds_rejects_bad_dims(capsys):
    code, _, _ = run(capsys, "bounds", "--schmidt", "0.5,0.5", "--dims", "1,2")
    assert code == 2


def test_sweep_fig1(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "sweep", "--family", "fig1", "--points", "6", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,beta_g,beta_one_way,beta_sep,beta_two_way_upper"
    assert len(lines) == 7
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    last = [float(x) for x in lines[-1].split(",")]
    assert abs(last[0] - 0.5) <= 1e-12
    assert abs(last[1] - 0.25) <= 1e-9
    assert abs(last[2] - 0.5) <= 1e-9
    assert abs(last[3] - 0.5) <= 1e-9
    assert abs(last[4] - 0.5) <= 1e-9


def test_sweep_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "sweep", "--family", "fig1", "--points", "5", "--out", str(a), "--seed", "3")
    run(capsys, "sweep", "--family", "fig1", "--points", "5", "--out", str(b), "--seed", "3")
    assert a.read_bytes() == b.read_bytes()


def test_sweep_custom_family(tmp_path, capsys):
    out_path = tmp_path / "custom.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--family",
        "1-2t,t,t",
        "--points",
        "4",
        "--out",
        str(out_path),
        "--range",
        "0,0.3333333333333333",
    )
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 5


def test_sweep_rejects_unknown_family(capsys, tmp_path):
    code, _, _ = run(
        capsys, "sweep", "--family", "nope", "--points", "4", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2


def test_sweep_rejects_infeasible_custom_family(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "sweep",
        "--family",
        "1-3t,2t,t",
        "--points",
        "4",
        "--out",
        str(tmp_path / "x.csv"),
        "--range",
        "0,0.4",
    )
    assert code == 2


@pytest.mark.parametrize(
    "family,t_range",
    [
        ("0.5+0.5t,0.5-0.5t", "0.5,0"),
        ("0.5+0.5t,0.5-0.5t", "nan,0"),
        ("fig1", "nan,0.5"),
        ("fig1", "0,0.1"),
    ],
)
def test_sweep_rejects_bad_range(capsys, tmp_path, family, t_range):
    out_path = tmp_path / "x.csv"
    code, out, err = run(
        capsys, "sweep", "--family", family, "--points", "3", "--out", str(out_path),
        "--range", t_range,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not out_path.exists()


def test_optimize_with_grid(capsys):
    code, out, _ = run(
        capsys, "optimize", "--schmidt", "0.875,0.125", "--grid-step", "0.001"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["beta_two_way_upper"] - 0.4285714285714286) <= 1e-6
    assert payload["grid_gap"] <= 1e-6
    assert payload["method"] == "log-barrier-newton"
    assert payload["converged"] and 0.0 <= payload["certified_gap"] <= 1e-9


def test_verify_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--schmidt", "0.75,0.25", "--mc-samples", "20000"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "appendix-identity" in out
    assert "monte-carlo-type-2" in out


def test_verify_bell(capsys):
    code, out, _ = run(capsys, "verify", "--schmidt", "0.5,0.5", "--mc-samples", "5000")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith("PASS")


def test_verify_rejects_malformed(capsys):
    code, _, err = run(capsys, "verify", "--schmidt", "0.9,0.2")
    assert code == 2
    assert "sum" in err


@pytest.mark.parametrize("schmidt", [",".join(["0.25"] * 4), ",".join([repr(1 / 7)] * 7)])
def test_verify_exactly_uniform_spectrum(capsys, schmidt):
    code, out, _ = run(capsys, "verify", "--schmidt", schmidt, "--mc-samples", "5000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    for line in lines:
        assert line.endswith("PASS")


@pytest.mark.parametrize("schmidt", ["nan,1", "inf,0"])
def test_bounds_rejects_non_finite(capsys, schmidt):
    code, out, err = run(capsys, "bounds", "--schmidt", schmidt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_bad_mc_samples(capsys, samples):
    code, out, err = run(capsys, "verify", "--schmidt", "0.5,0.5", "--mc-samples", samples)
    assert code == 2
    assert out == ""
    assert "--mc-samples" in err


def test_optimize_rejects_oversize_grid(capsys):
    code, out, err = run(
        capsys, "optimize", "--schmidt", "0.5,0.3,0.2", "--grid-step", "1e-9"
    )
    assert code == 2
    assert out == ""
    assert "too large" in err


def test_cli_entry_point_runs():
    with pytest.raises(SystemExit):
        main(["--help"])


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--family", "fig1", "--points", "100000000000000000000", "--out", "{tmp}/x.csv"],
        ["sweep", "--family", "fig1", "--points", "1", "--out", "{tmp}/x.csv"],
        ["sweep", "--family", "1/0-t,t", "--range", "0,0.4", "--points", "3", "--out", "{tmp}/x.csv"],
        ["verify", "--schmidt", "0.5,0.5", "--mc-samples", "100000000000000000000"],
        ["verify", "--schmidt", "0.5,0.5", "--seed", "-1"],
        ["optimize", "--schmidt", "0.5,0.5", "--grid-step", "inf"],
        ["optimize", "--schmidt", "0.5,0.5", "--grid-step", "nan"],
        ["optimize", "--schmidt", "0.5,0.5", "--grid-step", "1.5"],
        # The coefficient sum overflows: rejected before numpy warns.
        ["bounds", "--schmidt", "1e308,1e308"],
        ["optimize", "--schmidt", "1e308,1e308"],
        ["verify", "--schmidt", "1e308,1e308"],
        # A family's coefficient sum, or a slope times t, overflows.
        ["sweep", "--family", "9" * 308 + "+0t," + "9" * 308, "--range", "0,0.1", "--points", "3",
         "--out", "{tmp}/x.csv"],
        ["sweep", "--family", "1-" + "9" * 308 + "t," + "9" * 308 + "t", "--range", "0,10",
         "--points", "3", "--out", "{tmp}/x.csv"],
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("out_path", ["{tmp}/missing/x.csv", "{tmp}"])
def test_sweep_unwritable_out_fails_before_any_row(capsys, tmp_path, monkeypatch, out_path):
    def no_rows(*args, **kwargs):
        raise AssertionError("sweep ran before --out was checked")

    monkeypatch.setattr(loccdist.cli, "sweep", no_rows)
    out_path = out_path.format(tmp=tmp_path)
    code, out, err = run(capsys, "sweep", "--family", "fig1", "--points", "3", "--out", out_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def fuzz_spectra():
    """Seeded spectra at d = 2..9: random, tied, zero-padded, exactly
    uniform, plus a 1e-300 coefficient."""
    rng = np.random.default_rng(2007)
    out = [[1e-300, 1.0], [0.5, 0.5, 1e-300]]
    for d in range(2, 10):
        out.append(np.sort(rng.dirichlet(np.ones(d)))[::-1])
        tied = np.repeat(rng.dirichlet(np.ones(2)), [d - d // 2, d // 2])
        out.append(np.sort(tied / tied.sum())[::-1])
        rank = int(rng.integers(1, d))
        padded = np.zeros(d)
        padded[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
        out.append(padded)
        out.append([1.0 / d] * d)
    return [",".join(repr(float(x)) for x in lam) for lam in out]


@pytest.mark.parametrize("schmidt", fuzz_spectra())
def test_verify_fuzz(capsys, schmidt):
    code, out, _ = run(
        capsys, "verify", "--schmidt", schmidt, "--mc-samples", "2000", "--seed", "5"
    )
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines] == VERIFY_CHECKS
    assert all(line.endswith("PASS") for line in lines)
    assert code == 0
    # The ordering chain: `bounds` exits 3 when it is violated.
    code, _, _ = run(capsys, "bounds", "--schmidt", schmidt)
    assert code == 0
