import json

import numpy as np
import pytest

from betaflow import EXACT_MODEL, Region, integrate, scan_degeneracy
from betaflow.cli import CSV_COLUMNS, main, read_trajectory_csv

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
    # trigamma(1e-100) = 1e200, whose cube overflows the float range
    assert main(["info", "--model", "exact", "--point", "1e-100,1e200,1e200"]) == 3
    err = capsys.readouterr().err
    assert "error: matrix is singular" in err and "Traceback" not in err


def test_info_singular_point(capsys):
    # the inverse metric is part of the report, so V points cannot be shown
    assert main(["info", "--model", "stirling", "--point", "3,3,3"]) == 3


@pytest.mark.parametrize("argv", [
    ["info", "--model", "exact", "--point", "1,2"],
    ["info", "--model", "nope", "--point", "2,2,2"],
    ["info", "--model", "exact", "--point", "2,2,2", "--bogus"],
    ["check", "--suite", "definitely-not-a-suite"],
    ["scan", "--region", "2:3,2:3"],
    [],
])
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


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


def test_scan_region_outside_domain_exits_3(capsys):
    assert main(["scan", "--region", "0.5:2,2:3,2:3"]) == 3
    capsys.readouterr()
