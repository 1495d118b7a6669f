import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import loccdist.cli
import loccdist.families
import loccdist.one_way
import loccdist.operators
import loccdist.separable
import loccdist.two_way
from loccdist.bounds import pure_state_report
from loccdist.cli import MAX_LEVELS, main
from loccdist.optimize import OptimizationResult, stack_size
from loccdist.separable import SeparableForm
from loccdist.states import SchmidtSpectrum, parse_spectrum
from loccdist.two_way import DeltaMatrix
from reference import dense_verify_checks, per_table_verify_checks
from test_reach import clear_caches

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

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
    "two-way-optimal-trace",
    "two-way-optimal-detection",
    "two-way-optimal-validity",
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


BIG = "1" + "0" * 200  # 10**200: D = 10**400 is beyond the float range


@pytest.mark.parametrize(
    "schmidt, dims",
    [
        ("0.5,0.3,0.2", "2,5"),  # D = 10 >= rank**2, but one side is below rank 3
        ("0.5,0.3,0.2", "1,9"),
        ("0.5,0.5", f"{BIG},{BIG}"),
    ],
    ids=["2,5", "1,9", "1e200,1e200"],
)
def test_bounds_rejects_dims_that_cannot_hold_the_state(capsys, schmidt, dims):
    code, out, err = run(capsys, "bounds", "--schmidt", schmidt, "--dims", dims)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("schmidt, dims", [("0.875,0.125", "2,2"), ("0.5,0.3,0.2", "3,3")])
def test_bounds_dims_of_the_default_embedding_keep_its_output(capsys, schmidt, dims):
    code, out, _ = run(capsys, "bounds", "--schmidt", schmidt, "--dims", dims)
    assert code == 0
    assert (code, out) == run(capsys, "bounds", "--schmidt", schmidt)[:2]


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


@pytest.mark.parametrize("schmidt", ["0.25,0.25,0.25,0.25", "0.4,0.3,0.2,0.1"])
def test_optimize_gap_never_reads_below_zero(capsys, schmidt):
    """At --tol 1e-300 the final gap's rounding can dip below 0 (-1.8e-15
    for 4 x 0.25 before gaps were clipped); the certificate reports 0."""
    code, out, _ = run(capsys, "optimize", "--schmidt", schmidt, "--tol", "1e-300")
    assert code == 0
    assert json.loads(out)["certified_gap"] >= 0.0


def test_verify_builds_the_optimal_protocol_without_its_operator(capsys, monkeypatch):
    """verify assembles no T: the four oracle tables and the optimal one
    are built in one protocol_stack call and each checked through its
    vectors."""
    calls = {"T": 0, "stacks": []}
    build_T, build_stack = loccdist.two_way.build_two_way_T, loccdist.cli.protocol_stack

    def count_T(*args):
        calls["T"] += 1
        return build_T(*args)

    def count_stack(lam, tables):
        calls["stacks"].append(len(tables))
        return build_stack(lam, tables)

    monkeypatch.setattr(loccdist.two_way, "build_two_way_T", count_T)
    monkeypatch.setattr(loccdist.cli, "protocol_stack", count_stack)
    code, _, _ = run(capsys, "verify", "--schmidt", "0.5,0.3,0.2", "--mc-samples", "1000")
    assert code == 0 and calls == {"T": 0, "stacks": [5]}


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


def test_verify_at_the_largest_sample_count(capsys):
    """rate * n as a float rounds above n; the Wilson count stays in 0..n."""
    code, out, _ = run(capsys, "verify", "--schmidt", "1", "--mc-samples", str(2**63 - 1))
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines] == VERIFY_CHECKS
    assert all(line.endswith("PASS") for line in lines)
    assert code == 0


def test_verify_rejects_malformed(capsys):
    code, _, err = run(capsys, "verify", "--schmidt", "0.9,0.2")
    assert code == 2
    assert "sum" in err


@pytest.mark.parametrize("schmidt", [",".join(["0.25"] * 4), ",".join([repr(1 / 7)] * 7)])
def test_verify_exactly_uniform_spectrum(capsys, schmidt):
    code, out, _ = run(capsys, "verify", "--schmidt", schmidt, "--mc-samples", "5000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
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
        # A term followed by a newline, and one in non-ASCII digits.
        ["sweep", "--family", "1-2t\n,t,t", "--range", "0,0.3", "--points", "3", "--out", "{tmp}/x.csv"],
        ["sweep", "--family", "\u0661-t,t", "--range", "0,0.5", "--points", "3", "--out", "{tmp}/x.csv"],
        # optimize.check_tol: 0 < tol < inf.
        ["optimize", "--schmidt", "0.5,0.5", "--tol", "nan"],
        ["optimize", "--schmidt", "0.5,0.5", "--tol", "inf"],
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


LONG_SPECTRUM = ",".join(["0.005"] * 200)
LONG_FAMILY = "1-199t," + ",".join(["t"] * 199)


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--schmidt", LONG_SPECTRUM],
        ["optimize", "--schmidt", LONG_SPECTRUM],
        ["verify", "--schmidt", LONG_SPECTRUM],
        ["sweep", "--family", LONG_FAMILY, "--range", "0,0.005", "--points", "3",
         "--out", "{tmp}/x.csv"],
    ],
)
def test_spectrum_over_the_cap_exits_2_at_once(capsys, tmp_path, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert f"at most {MAX_LEVELS}" in err
    assert not (tmp_path / "x.csv").exists()


def test_spectrum_at_the_cap_is_accepted(capsys):
    """Every uniform spectrum up to the cap, and 0.5,0.5 zero-padded, keeps
    beta_sep <= beta_two_way_upper == beta_one_way exactly: (sum sqrt l)**2
    rounds above the rank at d = 2, 5-8, 10-13, 19, 20, 23, 25, 26, 30 and
    32 (2 + 4.4e-16 at 0.5,0.5), and separable.sep_traces clamps it there.
    Where it rounds below (d = 3: 3 - 4.4e-16), beta_sep stays a few ulps
    under."""
    uniform = [",".join([repr(1 / d)] * d) for d in range(1, MAX_LEVELS + 1)]
    for schmidt in ["0.5,0.5,0", "0.5,0.5,0,0", "0.5,0.5,1e-300"] + uniform:
        code, out, _ = run(capsys, "bounds", "--schmidt", schmidt)
        assert code == 0
        report = json.loads(out)
        assert report["beta_sep"] <= report["beta_two_way_upper"] == report["beta_one_way"], schmidt
        assert report["beta_one_way"] - report["beta_sep"] <= 1e-15, schmidt
        if schmidt.startswith("0.5,0.5"):
            assert report["beta_sep"] == report["beta_one_way"], schmidt
    assert report["beta_two_way_upper"] == 1 / MAX_LEVELS  # the last uniform one, at the cap


def test_non_uniform_spectrum_at_the_cap_is_solved(capsys):
    """The uniform spectrum at the cap is certified without a Newton step,
    so a seeded Dirichlet one keeps a real solve at d = MAX_LEVELS."""
    lam = np.sort(np.random.default_rng(32).dirichlet(np.ones(MAX_LEVELS)))[::-1]
    code, out, _ = run(capsys, "bounds", "--schmidt", ",".join(repr(float(x)) for x in lam))
    assert code == 0
    report = json.loads(out)
    assert report["beta_sep"] <= report["beta_two_way_upper"] <= report["beta_one_way"]
    assert report["beta_two_way_upper"] < report["beta_one_way"]


def test_optimize_at_a_tiny_tol_still_solves_the_uniform_qutrit(capsys):
    """(sum sqrt l)**2 rounds to 3 - 4.4e-16 at 1/3 x 3: above --tol 1e-300,
    so the corner is not certified and the barrier solve runs."""
    code, out, _ = run(capsys, "optimize", "--schmidt", ",".join([repr(1 / 3)] * 3), "--tol", "1e-300")
    assert code == 0
    payload = json.loads(out)
    assert payload["iterations"] > 1 and payload["t_value"] <= 3.0


@pytest.mark.parametrize("schmidt, tol", [("0.99,0.01", "0.5"), ("0.6,0.4", "0.1")])
def test_optimize_two_outcomes_at_a_loose_tol_converge(capsys, schmidt, tol):
    """At d = 2 a loose --tol converges after one pass without a
    RuntimeWarning, whether the row is solved in closed form (0.99,0.01:
    its slack 0.80 exceeds 0.5, and it gets the exact table with gap 0) or
    the corner is certified (0.6,0.4: its slack 0.020 is within 0.1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "optimize", "--schmidt", schmidt, "--tol", tol)
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] and payload["certified_gap"] <= float(tol)
    assert payload["iterations"] == 1


def test_sweep_builds_no_object_per_point(capsys, tmp_path, monkeypatch):
    """A sweep chunk is computed as arrays: fig5 at 50 points in chunks of
    10 builds at most one SchmidtSpectrum, DeltaMatrix and
    OptimizationResult per chunk, not one per point, and still writes the
    pinned CSV."""
    counts = dict.fromkeys(("spectrum", "table", "result"), 0)

    def counting(name, method):
        def counted(self, *args, **kwargs):
            counts[name] += 1
            method(self, *args, **kwargs)

        return counted

    for cls, attr, name in ((SchmidtSpectrum, "__post_init__", "spectrum"),
                            (DeltaMatrix, "__post_init__", "table"),
                            (OptimizationResult, "__init__", "result")):
        monkeypatch.setattr(cls, attr, counting(name, getattr(cls, attr)))
    monkeypatch.setattr(loccdist.families, "stack_size", lambda d: 10)
    out_path = tmp_path / "x.csv"
    code, _, _ = run(capsys, "sweep", "--family", "fig5", "--points", "50", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (DATA / "fig5_sweep50.csv").read_bytes()
    assert all(count <= 5 for count in counts.values()), counts


def test_commands_load_no_numpy_module_that_import_did_not(tmp_path):
    """A command's first call may not pull in a numpy submodule that numpy
    loads lazily (np.unique, for one, imports numpy.ma: about 12 ms): in a
    fresh interpreter, sweep, bounds and optimize calls load no numpy module
    that importing the CLI did not.  Such an import would land in the set-up
    time of every process that runs one command."""
    script = f"""
import sys
import loccdist.cli

def numpy_modules():
    return {{name for name in sys.modules if name == "numpy" or name.startswith("numpy.")}}

before = numpy_modules()
for argv in (
    ["sweep", "--family", "fig2", "--points", "3", "--out", {str(tmp_path / "a.csv")!r}],
    ["sweep", "--family", "fig1", "--points", "3", "--out", {str(tmp_path / "b.csv")!r}],
    ["bounds", "--schmidt", "0.4,0.3,0.2,0.1"],
    ["bounds", "--schmidt", "0.25,0.25,0.25,0.25"],
    ["optimize", "--schmidt", "0.6,0.3,0.1"],
):
    assert loccdist.cli.main(argv) == 0, argv
print(sorted(numpy_modules() - before))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "family,t_range,name",
    [(f"fig{k}", None, f"fig{k}") for k in range(1, 7)] + [("1-2t,t,t", "0,0.3333333", "custom")],
)
def test_sweep_csv_is_pinned(capsys, tmp_path, family, t_range, name):
    """The 50-point sweep CSVs stay byte for byte what they were before the
    two-way solve was batched over a sweep's points."""
    out_path = tmp_path / "x.csv"
    argv = ["sweep", "--family", family, "--points", "50", "--out", str(out_path)]
    code, _, _ = run(capsys, *argv, *(["--range", t_range] if t_range else []))
    assert code == 0
    assert out_path.read_bytes() == (DATA / f"{name}_sweep50.csv").read_bytes()


def test_sweep_writes_rows_in_bounded_memory(capsys, tmp_path):
    """cmd_sweep writes each chunk of solved points as it arrives, so ten
    times the points raise the peak memory by at most a quarter (measured
    after a warm-up run, so one-time caches do not count)."""
    family = "1-7t,t,t,t,t,t,t,t"
    points = stack_size(8) + 1  # two chunks
    argv = ["sweep", "--family", family, "--range", "0,0.125", "--out", str(tmp_path / "x.csv")]
    run(capsys, *argv, "--points", str(points))
    peaks = []
    for n in (points, 10 * points):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv, "--points", str(n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0 and err == f"wrote {n} rows to {tmp_path / 'x.csv'}\n"
        assert len((tmp_path / "x.csv").read_text().splitlines()) == n + 1
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("out_path", ["{tmp}/missing/x.csv", "{tmp}"])
def test_sweep_unwritable_out_fails_before_any_row(capsys, tmp_path, monkeypatch, out_path):
    def no_rows(*args, **kwargs):
        raise AssertionError("sweep ran before --out was checked")

    monkeypatch.setattr(loccdist.cli, "sweep_rows", no_rows)
    out_path = out_path.format(tmp=tmp_path)
    code, out, err = run(capsys, "sweep", "--family", "fig1", "--points", "3", "--out", out_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_sweep_write_failure_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    """A write that fails once the sweep runs (a full disk: --out /dev/full
    passes the check-time open) ends in one `error:` line and exit 2, not a
    traceback and the exit code of a failed verification."""
    out_path = tmp_path / "x.csv"

    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(loccdist.cli, "open", lambda *args: FullFile(), raising=False)
    code, out, err = run(capsys, "sweep", "--family", "fig1", "--points", "3", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("t_range", ["0", "0,0.5,1"])
def test_sweep_range_takes_two_values(capsys, tmp_path, t_range):
    argv = ["sweep", "--family", "1-t,t", "--range", t_range, "--points", "3", "--out", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: range must be 'lo,hi', got {t_range!r}\n"


def test_optimize_oversize_grid_error_is_one_short_line(capsys):
    """grid_size stops multiplying once the count passes the cap, so a tiny
    step does not print a thousand-digit point count."""
    code, out, err = run(capsys, "optimize", "--schmidt", "0.5,0.3,0.2", "--grid-step", "1e-308")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "more than 50000000 points" in err and len(err) < 200


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


@pytest.mark.parametrize(
    "schmidt", fuzz_spectra() + ["1", "1,0", "1,0,0", "0.5,0.5,0", "1,1e-13", "0.5,0.5,1e-13"]
)
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


def seeded_spectra(dims=(8, 9), ranks=(None, 2, 3, 4), seed=2016):
    """Dirichlet spectra at each d, full rank and zero-padded to each rank."""
    rng = np.random.default_rng(seed)
    out = []
    for d in dims:
        for rank in ranks:
            lam = np.zeros(d)
            lam[: rank or d] = np.sort(rng.dirichlet(np.ones(rank or d)))[::-1]
            out.append(",".join(repr(float(x)) for x in lam))
    return out


def test_report_dict_is_the_asdict_dict():
    """BoundsReport.to_dict is the dict dataclasses.asdict builds, with the
    spectrum as one string: the same keys in the same order, the same
    values and the same JSON."""
    for schmidt in fuzz_spectra() + seeded_spectra() + ["1", "0.5,0.5,0"]:
        report = pure_state_report(parse_spectrum(schmidt))
        spectrum = ",".join(format(x, ".12g") for x in report.spectrum)
        expected = {**dataclasses.asdict(report), "spectrum": spectrum}
        payload = report.to_dict()
        assert list(payload.items()) == list(expected.items())
        assert json.dumps(payload) == json.dumps(expected)


@pytest.mark.parametrize("schmidt", fuzz_spectra() + seeded_spectra())
def test_verify_matches_its_dense_reference(schmidt):
    """Every check computed on d x d blocks and vectors is within 1e-12 of
    the same check on assembled D x D operators."""
    s = parse_spectrum(schmidt)
    checks = {name: dev for name, dev, _ in loccdist.cli._verify_checks(s, 2000, 5)}
    dense = dense_verify_checks(s, 5)
    assert list(checks) == VERIFY_CHECKS
    assert set(dense) == set(VERIFY_CHECKS) - {"monte-carlo-type-1", "monte-carlo-type-2"}
    for name, dev in dense.items():
        assert abs(checks[name] - dev) <= 1e-12, name


@pytest.mark.parametrize("schmidt", fuzz_spectra() + seeded_spectra())
def test_verify_is_its_per_table_reference_bit_for_bit(schmidt):
    """One stacked protocol build and one stacked closed form give every
    deviation and tolerance of a build and a closed form per table."""
    s = parse_spectrum(schmidt)
    for seed in (5, 11):
        checks = list(loccdist.cli._verify_checks(s, 2000, seed))
        reference = list(per_table_verify_checks(s, 2000, seed))
        assert [name for name, _, _ in checks] == VERIFY_CHECKS
        assert [(name, float(dev).hex(), float(tol).hex()) for name, dev, tol in checks] == [
            (name, float(dev).hex(), float(tol).hex()) for name, dev, tol in reference
        ]


def test_verify_at_the_level_cap(capsys):
    (schmidt,) = seeded_spectra(dims=(MAX_LEVELS,), ranks=(None,), seed=32)
    code, out, _ = run(capsys, "verify", "--schmidt", schmidt, "--mc-samples", "2000")
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines] == VERIFY_CHECKS
    assert all(line.endswith("PASS") for line in lines)
    assert code == 0


def test_verify_does_no_dense_work(capsys, monkeypatch):
    """At d = 8 verify assembles no form, builds no two-way or one-way
    operator from products, and eigensolves nothing larger than d x d."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense work on the verify path")

    monkeypatch.setattr(SeparableForm, "assemble", refuse)
    monkeypatch.setattr(loccdist.separable, "optimal_test_operator", refuse)
    monkeypatch.setattr(loccdist.two_way, "build_two_way_T", refuse)
    monkeypatch.setattr(loccdist.one_way, "tensor", refuse)
    monkeypatch.setattr(loccdist.operators, "tensor", refuse)
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    (schmidt,) = seeded_spectra(dims=(8,), ranks=(None,), seed=8)
    code, out, _ = run(capsys, "verify", "--schmidt", schmidt, "--mc-samples", "2000")
    assert code == 0 and "FAIL" not in out
    assert shapes and all(shape[-1] <= 8 for shape in shapes)


def test_verify_builds_one_spectrum(capsys, monkeypatch):
    """The parsed input is the only SchmidtSpectrum a verify call builds:
    every check and protocol reads its lambdas or effective levels."""
    built = []
    post_init = SchmidtSpectrum.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SchmidtSpectrum, "__post_init__", counted)
    code, out, _ = run(capsys, "verify", "--schmidt", "0.5,0.3,0.2,0", "--mc-samples", "2000")
    assert code == 0 and "FAIL" not in out
    assert len(built) == 1


def test_verify_builds_one_complement_certificate(capsys, monkeypatch):
    """The appendix identity reads the complement certificate of the pair
    the other separable checks read: a verify call builds it once."""
    built = []
    build = loccdist.separable._complement_form

    def counted(s):
        built.append(s)
        return build(s)

    monkeypatch.setattr(loccdist.separable, "_complement_form", counted)
    code, out, _ = run(capsys, "verify", "--schmidt", "0.5,0.3,0.2,0", "--mc-samples", "2000")
    assert code == 0 and "FAIL" not in out
    assert len(built) == 1


def test_verify_at_the_level_cap_holds_no_dense_matrix():
    """Below one complex D x D matrix (D = 32**2, 16 MiB) at its peak, on
    a call that fills the package's emptied caches and on a warm call
    after it: the stacked protocol reads make no (5, d, d, d) complex
    temporary beyond the one of the accept vectors (copying the leaves
    into a stacked form's layout read 17.7 MiB cold, 15.2 MiB warm)."""
    (schmidt,) = seeded_spectra(dims=(MAX_LEVELS,), ranks=(None,), seed=32)
    s = parse_spectrum(schmidt)
    clear_caches()
    for _ in range(2):
        tracemalloc.start()
        try:
            checks = list(loccdist.cli._verify_checks(s, 2000, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(dev <= tol for _, dev, tol in checks)
        assert peak < 16 * MAX_LEVELS**4


def _fails(capsys, name, schmidt="0.5,0.3,0.2"):
    """Run verify; assert it exits 1 with the named check failing."""
    code, out, _ = run(capsys, "verify", "--schmidt", schmidt, "--mc-samples", "2000")
    lines = {line.split()[0]: line for line in out.strip().splitlines()}
    assert lines[name].endswith("FAIL"), out
    assert code == 1


def _patched_pair(monkeypatch, change):
    build = loccdist.cli.build_optimal_separable_povm

    def patched(s):
        return change(build(s))

    monkeypatch.setattr(loccdist.cli, "build_optimal_separable_povm", patched)


def test_verify_fails_on_a_scaled_test_certificate(capsys, monkeypatch):
    """Every T_form weight times 1.01 puts T's top eigenvalue at 1.01."""
    def change(pair):
        form = pair.T_form
        scaled = SeparableForm(form.dims, 1.01 * form.weights, form.a, form.b)
        return dataclasses.replace(pair, T_form=scaled)

    _patched_pair(monkeypatch, change)
    _fails(capsys, "povm-element-range")


def test_verify_fails_on_a_certificate_phase_off_the_grid(capsys, monkeypatch):
    """Phases on a and their conjugates on b leave every invariant entry as
    it was; only the orbit structure shows the move."""
    def change(pair):
        form = pair.T_form
        phase = np.exp(1j * np.array([0.0, 0.3, -0.2]))
        a, b = form.a.copy(), form.b.copy()
        a[3] *= phase
        b[3] *= phase.conj()
        return dataclasses.replace(pair, T_form=SeparableForm(form.dims, form.weights, a, b))

    _patched_pair(monkeypatch, change)
    _fails(capsys, "separable-form-assembly")


def test_verify_fails_on_a_phase_set_that_is_not_sidon(capsys, monkeypatch):
    sidon_set = loccdist.separable.sidon_set
    monkeypatch.setattr(
        loccdist.separable, "sidon_set", lambda n: (0, 1, 2) if n == 3 else sidon_set(n)
    )
    _fails(capsys, "separable-form-assembly")


def test_verify_fails_on_a_scaled_complement_diagonal_weight(capsys, monkeypatch):
    """The first pair's diagonal term times 1.01 keeps the term structure
    and moves one entry of I - T; only its invariant entries show it, which
    the appendix identity reads off the same certificate."""
    def change(pair):
        form = pair.complement_form
        w = form.weights.copy()
        w[len(loccdist.separable.sidon_phase_grid(2))] *= 1.01  # after the pair's grid terms
        changed = dataclasses.replace(
            pair, complement_form=SeparableForm(form.dims, w, form.a, form.b)
        )
        assert loccdist.separable._structure_deviation(changed) == 0.0
        return changed

    _patched_pair(monkeypatch, change)
    _fails(capsys, "separable-form-assembly")
    _fails(capsys, "appendix-identity")


def _off_level_grid_entry(a, b, w):
    a[0, 2] = 1e-5  # pair (0, 1)'s first grid term, on level 2


def _grid_term_off_its_row(a, b, w):
    # A phase on a and its conjugate on b keep every invariant entry.
    a[1, 0] *= np.exp(0.3j)  # pair (0, 1)'s second grid term, level 0
    b[1, 0] *= np.exp(-0.3j)


def _unequal_orbit_weights(a, b, w):
    # Every grid term of a pair has the same invariant entries, so moving
    # weight between two of them keeps those of the sum.
    w[1] += 0.01
    w[2] -= 0.01


def _diagonal_a_off_its_level(a, b, w):
    a[3, 1] = 1e-5  # pair (0, 1)'s diagonal term: a is e_0, here also on level 1


def _diagonal_b_off_its_level(a, b, w):
    b[3, 0] = 1e-5  # its b is f_1, here also on level 0


def _one_term_too_many(a, b, w):
    # A zero term: the operator is as it was, the term count is not.
    return np.append(a, 0 * a[:1], axis=0), np.append(b, 0 * b[:1], axis=0), np.append(w, 0.0)


# Changes to a complement certificate at d >= 3 (pair (0, 1) holds terms
# 0..3: three grid terms, then its diagonal term).  Each keeps the invariant
# entries within 1e-9 of I - T and moves only the term structure.
COMPLEMENT_TAMPERS = {
    "off-level-grid-entry": _off_level_grid_entry,
    "grid-term-off-its-row": _grid_term_off_its_row,
    "unequal-orbit-weights": _unequal_orbit_weights,
    "diagonal-a-off-its-level": _diagonal_a_off_its_level,
    "diagonal-b-off-its-level": _diagonal_b_off_its_level,
    "one-term-too-many": _one_term_too_many,
}


def tampered_pair(pair, tamper):
    """pair with COMPLEMENT_TAMPERS[tamper] applied to copies of its
    complement certificate's (a, b, weights)."""
    form = pair.complement_form
    a, b, w = form.a.copy(), form.b.copy(), form.weights.copy()
    a, b, w = COMPLEMENT_TAMPERS[tamper](a, b, w) or (a, b, w)
    return dataclasses.replace(pair, complement_form=SeparableForm(form.dims, w, a, b))


@pytest.mark.parametrize("tamper", COMPLEMENT_TAMPERS)
def test_verify_fails_on_a_complement_off_its_pair_structure(capsys, monkeypatch, tamper):
    """Only the term structure shows each tamper: separable-form-assembly
    is the one check that fails, and a wrong term count reads inf."""
    _patched_pair(monkeypatch, lambda pair: tampered_pair(pair, tamper))
    code, out, _ = run(capsys, "verify", "--schmidt", "0.5,0.3,0.2", "--mc-samples", "2000")
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines if line.endswith("FAIL")] == [
        "separable-form-assembly"
    ], out
    assert code == 1
    if tamper == "one-term-too-many":
        assert "separable-form-assembly      deviation=inf  FAIL" in lines


def test_verify_fails_on_a_negative_complement_weight(capsys, monkeypatch):
    def change(pair):
        form = pair.complement_form
        w = form.weights.copy()
        w[0] = -w[0]
        return dataclasses.replace(
            pair, complement_form=SeparableForm(form.dims, w, form.a, form.b)
        )

    _patched_pair(monkeypatch, change)
    _fails(capsys, "separable-form-psd")


def test_verify_fails_on_a_scaled_bob_vector(capsys, monkeypatch):
    build = loccdist.cli.protocol_stack

    def scaled(lam, tables):
        outcomes, bob, alice = build(lam, tables)
        bob = bob.copy()
        bob[np.arange(len(tables)), np.argmax(outcomes, axis=1), :, 0] *= 1.001
        return outcomes, bob, alice

    monkeypatch.setattr(loccdist.cli, "protocol_stack", scaled)
    _fails(capsys, "two-way-optimal-validity")


def test_verify_fails_on_an_optimal_trace_off_by_1e_6(capsys, monkeypatch):
    solve = loccdist.cli.beta_two_way_upper

    def shifted(s):
        result = solve(s)
        return dataclasses.replace(result, t_value=result.t_value + 1e-6)

    monkeypatch.setattr(loccdist.cli, "beta_two_way_upper", shifted)
    _fails(capsys, "two-way-optimal-trace")
