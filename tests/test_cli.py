import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from betaflow import EXACT_MODEL, Region, integrate, scan_degeneracy
from betaflow.cli import (CSV_COLUMNS, emit_svg, main, read_trajectory_csv,
                          write_trajectory_csv)

INFO_FIELDS = {
    "model", "point", "phi", "eta", "metric", "metric_inverse",
    "detG", "eigenvalues", "hamiltonian", "domain_class",
}


def test_info_json_report(capsys):
    assert main(["info", "--model", "stirling", "--point", "2,2,2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == INFO_FIELDS
    assert report["detG"] == 0.025
    assert report["model"] == "stirling"
    assert len(report["metric"]) == 9
    assert len(report["metric_inverse"]) == 9
    assert set(report["domain_class"]) == {"label", "distance"}
    assert report["domain_class"]["label"] == "Regular"


def test_main_reads_sys_argv_without_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["betaflow", "info", "--model", "exact", "--point", "2,3,4",
                                     "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["point"] == [2.0, 3.0, 4.0]


def test_info_text_report(capsys):
    assert main(["info", "--model", "exact", "--point", "2,3,4"]) == 0
    out = capsys.readouterr().out
    for key in ("phi", "eta", "metric", "detG", "eigenvalues", "H", "domain class"):
        assert key in out


def test_info_negative_point_is_domain_error(capsys):
    assert main(["info", "--model", "exact", "--point", "-1,2,2"]) == 3
    assert "error:" in capsys.readouterr().err


def test_info_overflowing_point_is_domain_error(capsys):
    # trigamma(1e-200) overflows; that is a domain error, not a crash
    assert main(["info", "--model", "exact", "--point", "1e-200,1,1"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_info_huge_entry_is_singular_not_overflow(capsys):
    # trigamma(1e200) = 1e-200, so every product of two of the small parts
    # underflows, and det G with it: metric_inverse_closed finds det G = 0,
    # and the report has no inverse
    assert main(["info", "--model", "exact", "--point", "1e-100,1e200,1e200", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["metric_inverse"] is None
    assert "Traceback" not in captured.err


def test_info_singular_point(capsys):
    # (3, 3, 3) lies on the Stirling V: G has no inverse, the rest is reported
    assert main(["info", "--model", "stirling", "--point", "3,3,3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["detG"] == 0.0
    assert report["domain_class"]["label"] == "OnV"
    assert report["metric_inverse"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, point, label", [
    ("stirling", "3,3,3", "OnV"),
    ("stirling", "1.5,7.77,1.5", "OnV"),
    ("stirling", "7.77,1.5,1.5", "OnD"),
    ("exact", "1e-100,1e200,1e200", "Regular"),
])
def test_info_reports_points_where_det_g_is_zero(model, point, label, capsys):
    assert main(["info", "--model", model, "--point", point, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == INFO_FIELDS
    assert (report["detG"], report["domain_class"]["label"]) == (0.0, label)
    assert report["metric_inverse"] is None
    assert main(["info", "--model", model, "--point", point]) == 0
    text = capsys.readouterr().out.splitlines()
    assert "metric_inverse: none (det G = 0)" in text
    assert "detG = 0.0" in text


USAGE_ERRORS = [
    (["info", "--model", "exact", "--point", "1,2"], "expected a,b,c - got '1,2'"),
    (["info", "--model", "nope", "--point", "2,2,2"], "invalid choice: 'nope'"),
    (["info", "--model", "exact", "--point", "2,2,2", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["check", "--suite", "definitely-not-a-suite"],
     "invalid choice: 'definitely-not-a-suite'"),
    (["scan", "--region", "2:3,2:3"], "expected a0:a1,b0:b1,c0:c1 - got '2:3,2:3'"),
    ([], "the following arguments are required: command"),
    (["info", "--model", "exact", "--point", "2,x,4"], "could not convert string to float: 'x'"),
    (["scan", "--region", "1.2:5:6,1.2:5,1.2:5"], "expected lo:hi - got '1.2:5:6'"),
    (["scan", "--region", "1.2:y,1.2:5,1.2:5"], "could not convert string to float: 'y'"),
    (["flow", "--model", "exact", "--start", "1,2,3,4", "--t-end", "1", "--out", "t.csv"],
     "expected a,b,c - got '1,2,3,4'"),
    (["flow", "--model", "exact", "--start", "2,3,z", "--t-end", "1", "--out", "t.csv"],
     "could not convert string to float: 'z'"),
]


# the ids keep each case's name from before it named its message
@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("eta, ham, ticks", [
    (math.nan, math.nan, ("-1.1", "1.1")),
    (3.0, 3.0, ("2.5", "3.5")),
], ids=["no-finite-value", "one-flat-value"])
def test_svg_value_axis_without_a_spread(eta, ham, ticks, tmp_path):
    # no finite value plots on [-1, 1] padded by a twentieth; one flat
    # value is padded by 1/2 on each side
    traj = SimpleNamespace(n_samples=2, t=np.array([0.0, 1.0]), eta=np.full((2, 3), eta),
                           hamiltonian=np.full(2, ham))
    emit_svg(traj, tmp_path / "flat.svg")
    svg = (tmp_path / "flat.svg").read_text(encoding="utf-8")
    for tick in ticks:
        assert f'text-anchor="end">{tick}</text>' in svg


def test_flow_t_end_zero_writes_single_row(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["flow", "--model", "exact", "--start", "2,3,4",
                 "--t-end", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert "status=completed samples=1" in capsys.readouterr().out


def test_flow_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    assert main(["flow", "--model", "exact", "--start", "2,3,4",
                 "--t-end", "0.05", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    parsed = read_trajectory_csv(out)
    traj = integrate(EXACT_MODEL, (2.0, 3.0, 4.0), 0.05)
    # the work count ends the line, after the status=... samples=N prefix
    assert summary.startswith(f"status=completed samples={traj.n_samples} ")
    assert summary.endswith(f" rhs={traj.n_rhs}\n")
    columns = {
        "t": traj.t,
        "a": traj.theta[:, 0], "b": traj.theta[:, 1], "c": traj.theta[:, 2],
        "eta1": traj.eta[:, 0], "eta2": traj.eta[:, 1], "eta3": traj.eta[:, 2],
        "H": traj.hamiltonian, "det_G": traj.det_g, "lax_dev": traj.lax_dev,
    }
    for name in CSV_COLUMNS:
        assert np.array_equal(parsed[name], columns[name], equal_nan=True), name
    # the file is the row-by-row %.17g join it was written as before np.savetxt
    rows = [",".join("%.17g" % columns[name][i] for name in CSV_COLUMNS)
            for i in range(traj.n_samples)]
    assert out.read_bytes() == ("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n").encode()


def test_csv_cells_that_are_not_finite_round_trip(tmp_path):
    # one sample holds nan, inf, -inf, -0.0 and the least subnormal
    cells = [0.0, -0.0, 5e-324, 1.5, math.nan, math.inf, -math.inf, -0.0, math.nan, 5e-324]
    row = np.array([cells])
    traj = SimpleNamespace(n_samples=1, t=row[:, 0], theta=row[:, 1:4], eta=row[:, 4:7],
                           hamiltonian=row[:, 7], det_g=row[:, 8], lax_dev=row[:, 9])
    out = tmp_path / "cells.csv"
    write_trajectory_csv(traj, out)
    assert out.read_bytes() == (
        b"t,a,b,c,eta1,eta2,eta3,H,det_G,lax_dev\n"
        b"0,-0,4.9406564584124654e-324,1.5,nan,inf,-inf,-0,nan,4.9406564584124654e-324\n"
    )
    parsed = read_trajectory_csv(out)
    for name, want in zip(CSV_COLUMNS, cells):
        (got,) = parsed[name]
        if math.isnan(want):
            assert math.isnan(got), name
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), name


def test_flow_csv_header_is_validated(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,a,b\n0,1,2\n")
    from betaflow import BetaflowError

    with pytest.raises(BetaflowError):
        read_trajectory_csv(bad)


def test_flow_svg_deterministic_with_four_polylines(tmp_path, capsys):
    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    base = ["flow", "--model", "stirling", "--start", "2.5,3,2",
            "--t-end", "0.2", "--out"]
    assert main(base + [str(tmp_path / "a.csv"), "--svg", str(svg1)]) == 0
    assert main(base + [str(tmp_path / "b.csv"), "--svg", str(svg2)]) == 0
    capsys.readouterr()
    body = svg1.read_bytes()
    assert body == svg2.read_bytes()
    assert body.count(b"<polyline") == 4
    assert body.startswith(b"<?xml")


def test_flow_svg_needs_two_samples(tmp_path, capsys):
    code = main(["flow", "--model", "exact", "--start", "2,3,4",
                 "--t-end", "0", "--out", str(tmp_path / "t.csv"),
                 "--svg", str(tmp_path / "t.svg")])
    assert code == 3
    capsys.readouterr()


def test_flow_singular_start_exits_3(tmp_path, capsys):
    code = main(["flow", "--model", "stirling", "--start", "3,3,3",
                 "--t-end", "1", "--out", str(tmp_path / "t.csv")])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--rtol", "--atol"])
@pytest.mark.parametrize("value", ["-1e-3", "nan", "inf", "-inf"])
def test_flow_tolerance_that_is_not_finite_and_nonnegative_exits_3(flag, value, tmp_path,
                                                                   capsys):
    out = tmp_path / "t.csv"
    code = main(["flow", "--model", "exact", "--start", "2,3,4", "--t-end", "2",
                 f"{flag}={value}", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:]} must be finite and >= 0, got {float(value)!r}\n"
    assert not out.exists()


def test_flow_zero_tolerances_exit_3_naming_both(tmp_path, capsys):
    # every error test fails, so the step size underflows at the start
    out = tmp_path / "t.csv"
    code = main(["flow", "--model", "exact", "--start", "2,3,4", "--t-end", "2",
                 "--rtol", "0", "--atol", "0", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: step size underflow at t=0.0 (h=")
    assert err.endswith(", rtol=0.0, atol=0.0)\n")
    assert not out.exists()


def test_flow_unwritable_output_exits_3(tmp_path, capsys):
    code = main(["flow", "--model", "exact", "--start", "2,3,4",
                 "--t-end", "0", "--out", str(tmp_path / "no" / "dir" / "t.csv")])
    assert code == 3
    capsys.readouterr()


def test_check_suite_text(capsys):
    assert main(["check", "--suite", "lax", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite lax (seed 1): PASS" in out
    assert "FAIL" not in out


def test_check_negative_seed_exits_3(capsys):
    assert main(["check", "--suite", "lax", "--seed", "-1"]) == 3
    assert "seed must be >= 0" in capsys.readouterr().err


def test_check_suite_json(capsys):
    assert main(["check", "--suite", "legendre", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "legendre"
    assert report["seed"] == 0
    assert report["passed"] is True


def test_scan_stdout_json(capsys):
    assert main(["scan", "--region", "2.9:3.1,2.9:3.1,2.9:3.1",
                 "--resolution", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"region", "resolution", "tol", "n_cells",
                           "n_flagged", "flagged"}
    assert report["n_cells"] == 343
    assert report["n_flagged"] == len(report["flagged"]) > 0
    for cell in report["flagged"]:
        assert set(cell) == {"index", "lo", "hi", "label", "distance",
                             "min_abs_det", "sign_change"}


def test_scan_json_is_the_hand_built_report(capsys):
    assert main(["scan", "--region", "1.2:5,1.2:5,1.2:5", "--resolution", "16"]) == 0
    out = capsys.readouterr().out
    box = (1.2, 5.0)
    cells = scan_degeneracy(Region(box, box, box, 16, 16, 16))
    want = json.dumps(
        {
            "region": {"a": list(box), "b": list(box), "c": list(box)},
            "resolution": 16,
            "tol": 1e-9,
            "n_cells": 15 ** 3,
            "n_flagged": len(cells),
            "flagged": [
                {
                    "index": list(cell.index),
                    "lo": list(cell.lo),
                    "hi": list(cell.hi),
                    "label": cell.label.value,
                    "distance": cell.distance,
                    "min_abs_det": cell.min_abs_det,
                    "sign_change": cell.sign_change,
                }
                for cell in cells
            ],
        },
        indent=2,
    )
    assert len(cells) == 500
    assert out == want + "\n"


def test_scan_out_file(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert main(["scan", "--region", "2:4,1.9:2.1,2.9:3.1",
                 "--resolution", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["n_flagged"] == 0
    assert report["flagged"] == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_scan_tol_that_is_not_finite_and_nonnegative_exits_3(value, capsys):
    assert main(["scan", "--region", "1.2:5,1.2:5,1.2:5", "--resolution", "3",
                 f"--tol={value}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be finite and >= 0, got {float(value)!r}\n"


@pytest.mark.parametrize("value", ["0", "-0.0"])
def test_scan_zero_tol_is_valid(value, capsys):
    assert main(["scan", "--region", "1.2:5,1.2:5,1.2:5", "--resolution", "3",
                 f"--tol={value}"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 0.0


@pytest.mark.parametrize("resolution", ["3000000", "100000"])
def test_scan_grid_numpy_cannot_build_exits_3(resolution, capsys):
    # numpy refuses both grids before it allocates them
    assert main(["scan", "--region", "1.2:5,1.2:5,1.2:5", "--resolution", resolution]) == 3
    n = resolution
    assert capsys.readouterr().err.startswith(
        f"error: cannot build the scan grid of {n} x {n} x {n} nodes: ")


def test_scan_region_outside_domain_exits_3(capsys):
    assert main(["scan", "--region", "0.5:2,2:3,2:3"]) == 3
    capsys.readouterr()


def test_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "singular" and out[-1] == "True", out
