"""Tests of the benchmark itself: every workload runs at minimal length,
the output keeps its contract, and every oracle can fail."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import betaflow as bf  # noqa: E402
from perfbench import hostspeed, run  # noqa: E402
from perfbench.workloads import WORKLOADS, Cli, Flows, Invert, Op, Scan, lattice  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_one_round(workload, tmp_path):
    record = run.run(workload, seed=3, seconds=0, traced=False, out_dir=tmp_path)
    assert record["rounds"] == 1
    assert record["attempted"] == len(WORKLOADS[workload](3).ops(1))
    assert record["correct"] and not record["defects"]
    assert sorted(record["metrics"]) == sorted(END_TO_END)
    assert all(v > 0 and math.isfinite(v) for v in record["metrics"].values())
    assert record["environment"]["nproc"] >= 1


def test_traced_run_reports_every_layer(tmp_path):
    record = run.run("invert", seed=3, seconds=0, traced=True, out_dir=tmp_path)
    assert record["correct"]
    assert sorted(record["metrics"]) == sorted(PER_LAYER)
    assert all(math.isfinite(v) for v in record["metrics"].values())
    spans = json.loads((tmp_path / "spans-invert-seed3.json").read_text())
    names = {span["name"] for span in spans}
    assert {"flow.invert_eta", "flow.integrate", "scan.scan_degeneracy", "cli"} <= names
    assert any(span.get("calls") for span in spans)


def test_command_prints_contract_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invert", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["attempted"] >= 1 and last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


def test_lattice_puts_one_point_per_bin():
    rng = np.random.Generator(np.random.Philox(7))
    pts = lattice(rng, 12, 1.0, 6.0)
    assert pts.shape == (12, 3) and np.all((pts > 1.0) & (pts <= 6.0))
    for axis in range(3):
        bins = np.floor((6.0 - pts[:, axis]) / 5.0 * 12).astype(int)
        assert sorted(bins) == list(range(12))


def test_host_speed_scales_by_the_samples_around_an_operation():
    speed = hostspeed.HostSpeed()
    first = speed.mark()
    # A mark right after a sample reuses it.
    assert speed.mark() == first == 0
    speed._samples = [4e-3, 2e-3, 1e-3]
    assert speed.scale(0) == pytest.approx(hostspeed.REFERENCE_S / 3e-3)
    assert speed.scale(2) == pytest.approx(hostspeed.REFERENCE_S / 1e-3)


def test_no_operation_repeats_an_input():
    for workload in WORKLOADS.values():
        ops = workload(3).ops(4)
        assert len({tuple(op.args[0]) for op in ops}) == len(ops)


def test_flows_gate_catches_one_scaled_eta_row():
    op = Op("exact", (np.array([2.0, 3.0, 4.0]),))
    traj = bf.integrate(bf.EXACT_MODEL, op.args[0], 2.0, rtol=1e-10, atol=1e-12)
    assert Flows(0).check(op, traj) is None
    traj.eta[1] = traj.eta[1] * (1.0 + 1e-6)
    assert "linearisation" in Flows(0).check(op, traj)


def test_scan_gate_catches_one_removed_cell():
    box = (1.2, 5.0)
    op = Op("res8", ((box, box, box), 8))
    scan = Scan(0)
    cells = bf.scan_degeneracy(Scan.region(op))
    assert scan.check(op, cells) is None
    dropped = next(i for i, cell in enumerate(cells) if cell.sign_change)
    assert "1 missing" in scan.check(op, cells[:dropped] + cells[dropped + 1:])


def test_invert_gate_catches_a_perturbed_preimage():
    theta = np.array([2.0, 3.0, 4.0])
    op = Invert._op("exact", theta)
    theta_hat = bf.invert_eta(bf.EXACT_MODEL, op.args[1])
    assert Invert(0).check(op, theta_hat) is None
    assert Invert(0).check(op, theta_hat * (1.0 + 1e-8)) is not None


def test_cli_gate_catches_a_failed_check_record(tmp_path):
    cli = Cli(1, ROOT, tmp_path)
    op = Op("check", ("check",))
    report = {"suite": "all", "seed": 1, "passed": True,
              "checks": [{"name": "lax", "passed": True}]}
    done = subprocess.CompletedProcess([], 0, stdout=json.dumps(report), stderr="")
    assert cli.check(op, done) is None
    report["checks"][0]["passed"] = False
    done.stdout = json.dumps(report)
    assert "lax" in cli.check(op, done)


class _Scripted:
    """A workload whose calls raise what the test asks for."""

    name = "scripted"
    call_name = "scripted"

    def call(self, op, wrap):
        if op.kind == "betaflow":
            raise bf.DomainError("outside")
        if op.kind == "defect":
            raise ZeroDivisionError("bug")
        return op.args[0]

    def check(self, op, out):
        return None if out else "wrong"

    def observe(self, op, out, seconds):
        return {}


def test_failures_are_counted_and_never_crash_the_run():
    counts = run.Counts()
    workload = _Scripted()
    for kind, args in (("ok", (True,)), ("miss", (False,)),
                       ("betaflow", ()), ("defect", ())):
        op = Op(kind, args)
        counts.add(workload, op, run.attempt(workload, op))
    assert counts.attempted == 4 and counts.passed == 1
    assert len(counts.misses) == 1 and len(counts.errors) == 1
    assert len(counts.defects) == 1 and "ZeroDivisionError" in counts.defects[0]


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    assert list(layers) == PER_LAYER
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in layers.values():
        assert entry["owner"] in workloads | {"scan", "cli", "layer_costs", "each"}
        assert entry["kind"] in ("measured", "computed")
        for move in entry["moves"]:
            workload, metric = move.split(":")
            assert workload in workloads and metric in END_TO_END
