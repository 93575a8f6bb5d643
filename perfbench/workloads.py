"""The workloads and probes: seeded inputs, one timed call per operation,
and the closed-form oracle that gates each result.

Every workload builds a run from rounds whose composition is fixed (one
flow per model, or one inversion on the exact side to four on the
Stirling side) and draws the points of a whole run as one shifted
lattice, so the seed moves the inputs but never the mix, and the median
and tail latencies sit at the same ranks in every run.  The scan and CLI
probes only run in traced runs, one round each.

A workload or probe exposes:

- ``ops(rounds)``: the operations of a run of that many rounds;
- ``call(op, wrap)``: the timed call into the package; ``wrap`` maps a
  model to the object handed to the package (the model itself, or a
  counting proxy when traced);
- ``check(op, out)``: ``None`` when the oracle holds, else why it missed;
- ``observe(op, out, seconds)``: counters summed over the passed
  operations of a traced run;
- ``layer_metrics(totals, tally, costs)``: the per-layer metrics it owns,
  from those counters, the proxied model calls (``tally``, see
  ``tracing.ModelProxy``) and the micro-timed per-call costs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import betaflow as bf

MODELS = {"exact": bf.EXACT_MODEL, "stirling": bf.STIRLING_MODEL}

# Full box of the degeneracy scans, as in the scan suite.
BOX = (1.2, 5.0)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def lattice(rng, n: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """n points of [lo, hi]^3 (of log-scale when ``log``): a rank-1 lattice
    with generator (1, a, a^2 mod n), a chosen for the widest spacing,
    shifted by a seeded random vector modulo 1 and put in seeded order.

    Each point is uniform on the box, each coordinate has one point in each
    of n equal bins, and the set covers the box evenly, so a region such as
    the inputs that fail holds nearly the same share of points in every
    run."""
    i = np.arange(n)
    z, widest = np.ones(3, dtype=int), -1.0
    for a in range(1, n):
        if math.gcd(a, n) == 1:
            cand = np.array([1, a, a * a % n])
            frac = (np.outer(i[1:], cand) % n) / n
            width = float(np.min(np.sum(np.minimum(frac, 1.0 - frac) ** 2, axis=1)))
            if width > widest:
                z, widest = cand, width
    u = ((np.outer(i, z) / n + rng.random(3)) % 1.0)[rng.permutation(n)]
    if log:
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    # Drawn down from hi, so the open edge of the domain is never hit.
    return hi - u * (hi - lo)


def _rng(seed: int):
    return np.random.Generator(np.random.Philox(seed))


def _per(totals, key, base_key):
    base = totals.get(base_key, 0)
    return totals.get(key, 0) / base if base else 0.0


def _calls(tally, model, methods):
    return sum(tally[f"{model}.{m}"][0] for m in methods if f"{model}.{m}" in tally)


class Flows:
    """One adaptive flow per operation at the acceptance setting."""

    name = "flows"
    call_name = "flow.integrate"
    nominal_round_s = 0.47

    def __init__(self, seed: int):
        self._rng = _rng(seed)

    def ops(self, rounds: int) -> list[Op]:
        exact = lattice(self._rng, rounds, 0.3, 8.0, log=True)
        stirling = lattice(self._rng, rounds, 1.2, 6.0, log=True)
        return [op for p, q in zip(exact, stirling)
                for op in (Op("exact", (p,)), Op("stirling", (q,)))]

    def call(self, op: Op, wrap):
        return bf.integrate(wrap(MODELS[op.kind]), op.args[0], 2.0,
                            rtol=1e-10, atol=1e-12)

    def check(self, op: Op, traj) -> str | None:
        if traj.status not in ("completed", "singular", "left_domain"):
            return f"status {traj.status!r}"
        eta0 = traj.eta[0]
        closed = eta0[None, :] * np.exp(-traj.t)[:, None]
        lin = float(np.max(np.abs(traj.eta - closed))) / float(np.max(np.abs(eta0)))
        if not lin <= 1e-7:
            return f"linearisation residual {lin:.3g} > 1e-7"
        h = np.asarray(traj.hamiltonian)
        drift = float(np.max(np.abs(h - h[0]))) / abs(float(h[0]))
        if not drift <= 1e-7:
            return f"H drift {drift:.3g} > 1e-7"
        model = MODELS[op.kind]
        for i in sorted({0, traj.n_samples // 2, traj.n_samples - 1}):
            eta = model.eta(traj.theta[i])
            gap = float(np.max(np.abs(eta - traj.eta[i]))) / float(np.max(np.abs(eta)))
            if not gap <= 1e-12:
                return f"eta column disagrees with eta(theta) at row {i}"
        return None

    def observe(self, op: Op, traj, seconds: float) -> dict:
        return {f"{op.kind}.ops": 1, "accepted": traj.n_accepted,
                "rejected": traj.n_rejected, "samples": traj.n_samples,
                "ok_s": seconds}

    def layer_metrics(self, totals: dict, tally: dict, costs: dict) -> dict:
        ops = totals["ops"]
        steps = totals.get("accepted", 0) + totals.get("rejected", 0)
        model_s = sum(seconds for _, seconds in tally.values())
        diag_us = (costs["integrability.hamiltonian_us"]
                   + costs["integrability.lax_pair_us"] + costs["manifold.det3_us"])
        methods = ("eta", "metric", "in_domain", "check_domain")
        return {
            "exact.calls_per_op": _calls(tally, "exact", methods)
            / max(totals.get("exact.ops", 0), 1),
            "stirling.calls_per_op": _calls(tally, "stirling", methods)
            / max(totals.get("stirling.ops", 0), 1),
            # integrate calls in_domain once per right-hand side and nowhere else.
            "flow.rhs_calls_per_op": (_calls(tally, "exact", ("in_domain",))
                                      + _calls(tally, "stirling", ("in_domain",))) / ops,
            "flow.accepted_per_op": totals.get("accepted", 0) / ops,
            "flow.rejected_per_op": totals.get("rejected", 0) / ops,
            "flow.accept_ratio": totals.get("accepted", 0) / max(steps, 1),
            "flow.step_us": 1e6 * totals.get("ok_s", 0.0) / max(steps, 1),
            "flow.model_share": model_s / totals["call_s"],
            # computed: one H, one Lax pair and one det3 per recorded sample.
            "flow.diagnostics_share": 1e-6 * totals.get("samples", 0) * diag_us
            / max(totals.get("ok_s", 0.0), 1e-12),
        }


class Scan:
    """One degeneracy scan per operation: seeded sub-boxes at 8 to 20 per
    axis, and the full box at 32 once per run."""

    name = "scan"
    call_name = "scan.scan_degeneracy"
    resolutions = (8, 11, 14, 17, 20)
    full_resolution = 32

    def __init__(self, seed: int):
        self._rng = _rng(seed)

    def ops(self, rounds: int) -> list[Op]:
        lo, hi = BOX
        ops = [Op(f"full{self.full_resolution}", (((lo, hi),) * 3, self.full_resolution))]
        for _ in range(rounds):
            for res in self._rng.permutation(self.resolutions):
                # Sub-boxes at least a quarter of the full width on each axis.
                width = self._rng.uniform(0.25, 1.0, 3) * (hi - lo)
                start = lo + self._rng.random(3) * (hi - lo - width)
                box = tuple((float(s), float(s + w)) for s, w in zip(start, width))
                ops.append(Op(f"res{int(res)}", (box, int(res))))
        return ops

    @staticmethod
    def region(op: Op) -> bf.Region:
        (a, b, c), res = op.args
        return bf.Region(a=a, b=b, c=c, na=res, nb=res, nc=res)

    def call(self, op: Op, wrap):
        return bf.scan_degeneracy(self.region(op))

    @staticmethod
    def sign_change_cells(region: bf.Region) -> list[tuple[int, int, int]]:
        """Cells whose corners straddle den = 0, recomputed from the cubic.

        det G = -den / (8 (a-1)^2 (b-1)^2 (c-1)^2 (s-1)) and the divisor is
        positive on the box, so det and den change sign together."""
        a, b, c = np.meshgrid(*region.axes(), indexing="ij")
        den = 4.0 * a * b * c - 8.0 * (a * b + b * c + c * a) + 15.0 * (a + b + c) - 27.0
        lo = np.full(tuple(n - 1 for n in den.shape), np.inf)
        hi = -lo
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    view = den[di:di + lo.shape[0], dj:dj + lo.shape[1],
                               dk:dk + lo.shape[2]]
                    lo = np.minimum(lo, view)
                    hi = np.maximum(hi, view)
        return [tuple(int(v) for v in idx)
                for idx in np.argwhere((lo < 0.0) & (hi > 0.0))]

    def check(self, op: Op, cells) -> str | None:
        want = self.sign_change_cells(self.region(op))
        got = sorted(tuple(cell.index) for cell in cells if cell.sign_change)
        if got != want:
            missing = len(set(want) - set(got))
            extra = len(set(got) - set(want))
            return (f"sign-change cells differ from den: {missing} missing,"
                    f" {extra} extra, {len(got)} returned")
        return None

    def observe(self, op: Op, cells, seconds: float) -> dict:
        res = op.args[1]
        # Midpoints are evaluated only when neither test on the corners flags.
        short_circuit = sum(1 for c in cells if c.sign_change or c.min_abs_det <= 1e-9)
        return {"cells": (res - 1) ** 3, "flagged": len(cells),
                "det_calls": res ** 3 + (res - 1) ** 3 - short_circuit,
                "ok_s": seconds}

    def layer_metrics(self, totals: dict, tally: dict, costs: dict) -> dict:
        ops = totals["ops"]
        ok_s = max(totals.get("ok_s", 0.0), 1e-12)
        return {
            "scan.cells_per_s": totals.get("cells", 0) / ok_s,
            "scan.flagged_per_op": totals.get("flagged", 0) / ops,
            "scan.flag_ratio": totals.get("flagged", 0) / max(totals.get("cells", 0), 1),
            "scan.det_closed_calls_per_op": totals.get("det_calls", 0) / ops,
            "scan.det_closed_share": 1e-6 * totals.get("det_calls", 0)
            * costs["stirling.det_closed_us"] / ok_s,
        }


class Invert:
    """Round trips theta -> eta -> invert_eta, one exact to four Stirling.

    Four Stirling targets per exact one put the median operation well
    inside the Stirling latencies (nested bisection in
    ``inversion_start``), away from the gap to the exact ones."""

    name = "invert"
    call_name = "flow.invert_eta"
    nominal_round_s = 0.44

    def __init__(self, seed: int):
        self._rng = _rng(seed)

    def ops(self, rounds: int) -> list[Op]:
        exact = lattice(self._rng, rounds, 0.0, 6.0)
        stirling = lattice(self._rng, 4 * rounds, 1.0, 6.0).reshape(rounds, 4, 3)
        return [self._op(kind, theta)
                for p, qs in zip(exact, stirling)
                for kind, theta in (("exact", p), *(("stirling", q) for q in qs))]

    @staticmethod
    def _op(kind: str, theta) -> Op:
        return Op(kind, (theta, MODELS[kind].eta(theta)))

    def call(self, op: Op, wrap):
        return bf.invert_eta(wrap(MODELS[op.kind]), op.args[1])

    def check(self, op: Op, theta_hat) -> str | None:
        target = op.args[1]
        gap = float(np.max(np.abs(MODELS[op.kind].eta(theta_hat) - target)))
        if not gap <= 1e-10:
            return f"max|eta(theta_hat) - eta| = {gap:.3g} > 1e-10"
        return None

    def observe(self, op: Op, theta_hat, seconds: float) -> dict:
        if op.kind != "stirling":
            return {}
        theta = op.args[0]
        same = bool(np.max(np.abs(theta_hat - theta)) <= 1e-6 * np.max(np.abs(theta)))
        return {"stirling.returned": 1, "stirling.same_sheet": int(same)}

    def layer_metrics(self, totals: dict, tally: dict, costs: dict) -> dict:
        ops = totals["ops"]
        starts, start_s = tally.get("stirling.inversion_start", (0, 0.0))
        return {
            "flow.invert_eta_ms": 1e3 * totals["call_s"] / ops,
            # One Jacobian (metric) per Newton step.
            "flow.newton_iters_per_op": (_calls(tally, "exact", ("metric",))
                                         + _calls(tally, "stirling", ("metric",))) / ops,
            "stirling.inversion_start_ms": 1e3 * start_s / max(starts, 1),
            "stirling.sheet_match_frac": _per(totals, "stirling.same_sheet",
                                              "stirling.returned"),
        }


SUMMARY = re.compile(r"status=(\S+) samples=(\d+)")
CSV_HEADER = ["t", "a", "b", "c", "eta1", "eta2", "eta3", "H", "det_G", "lax_dev"]
REFERENCE = {"exact": "2,3,4", "stirling": "2.5,3,2"}


class CliExit(bf.BetaflowError):
    """The CLI exited 3: the library raised a BetaflowError in the child."""


class Cli:
    """A fixed script of fresh ``python -m betaflow.cli`` processes, one at
    a time: the only operations that pay interpreter start-up and run the
    check suites cold, as no trajectory is cached in a fresh process."""

    name = "cli"
    call_name = "cli"

    def __init__(self, seed: int, root: Path, workdir: Path):
        self._rng = _rng(seed)
        self._env = child_env(root)
        self._dir = workdir
        self._dir.mkdir(parents=True, exist_ok=True)
        box = f"{BOX[0]}:{BOX[1]}"
        self._scan_region = ",".join([box] * 3)
        self._scan_flagged = len(bf.scan_degeneracy(bf.Region(BOX, BOX, BOX, 16, 16, 16)))

    def ops(self, rounds: int) -> list[Op]:
        return [op for _ in range(rounds) for op in self._round()]

    def _round(self) -> list[Op]:
        seed = int(self._rng.integers(2 ** 31))
        ops = []
        for model, point in REFERENCE.items():
            ops.append(Op("info", ("info", "--model", model, "--point", point, "--json")))
        for model, point in REFERENCE.items():
            ops.append(Op("flow", (
                "flow", "--model", model, "--start", point, "--t-end", "2",
                "--rtol", "1e-10", "--atol", "1e-12",
                "--out", str(self._dir / f"{model}.csv"),
                "--svg", str(self._dir / f"{model}.svg"))))
        ops.append(Op("scan", ("scan", "--region", self._scan_region,
                               "--resolution", "16")))
        ops.append(Op("check", ("check", "--suite", "all", "--seed", str(seed), "--json")))
        return ops

    def call(self, op: Op, wrap):
        done = subprocess.run([sys.executable, "-m", "betaflow.cli", *op.args],
                              env=self._env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode == 3:
            raise CliExit(done.stderr.strip())
        if "Traceback" in done.stderr:
            raise RuntimeError(f"{op.kind} crashed:\n{done.stderr}")
        return done

    def check(self, op: Op, done) -> str | None:
        if done.returncode != 0:
            return f"exit {done.returncode}: {done.stderr.strip()[-200:]}"
        if op.kind == "info":
            report = json.loads(done.stdout)
            model = MODELS[op.args[2]]
            eta = model.eta([float(x) for x in op.args[4].split(",")])
            if report["eta"] != [float(x) for x in eta]:
                return "info eta differs from the in-process model"
        elif op.kind == "flow":
            match = SUMMARY.search(done.stdout)
            if match is None:
                return f"no summary line in {done.stdout!r}"
            with open(op.args[op.args.index("--out") + 1], newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != CSV_HEADER:
                return f"CSV header {rows[0]!r}"
            if len(rows) - 1 != int(match.group(2)):
                return f"CSV has {len(rows) - 1} rows, summary says {match.group(2)}"
            with open(op.args[op.args.index("--svg") + 1]) as fh:
                if fh.read(5) != "<?xml":
                    return "SVG not written"
        elif op.kind == "scan":
            n = json.loads(done.stdout)["n_flagged"]
            if n != self._scan_flagged:
                return f"n_flagged {n} != {self._scan_flagged} in-process"
        elif op.kind == "check":
            report = json.loads(done.stdout)
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            if failed or not report["passed"]:
                return f"checks failed: {failed}"
        return None

    def observe(self, op: Op, done, seconds: float) -> dict:
        return {f"{op.kind}.ops": 1, f"{op.kind}.seconds": seconds}

    def layer_metrics(self, totals: dict, tally: dict, costs: dict) -> dict:
        out = {f"cli.{kind}_ms": 1e3 * _per(totals, f"{kind}.seconds", f"{kind}.ops")
               for kind in ("info", "flow", "scan", "check")}
        out["cli.import_numpy_s"] = statistics.median(import_times("numpy", self._env, 5))
        out["cli.import_betaflow_s"] = statistics.median(
            import_times("betaflow", self._env, 5))
        for suite in bf.SUITE_NAMES:
            out[f"scan.suite_{suite}_s"] = cold_suite_seconds(suite, self._env)
        return out


def child_env(root: Path) -> dict:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(module: str, env: dict, repeats: int) -> list[float]:
    """Wall times for a fresh interpreter to start and import module.

    No timeout: with one, ``subprocess`` polls for the child's exit every
    50 ms instead of blocking on it, which rounds every time up to that
    grain."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
        times.append(perf_counter() - start)
    return times


def cold_suite_seconds(suite: str, env: dict) -> float:
    """run_suite time in a fresh interpreter, so no trajectory is cached."""
    code = ("import sys, time; from betaflow import run_suite;"
            " t = time.perf_counter(); r = run_suite(sys.argv[1]);"
            " print(time.perf_counter() - t, r.passed)")
    done = subprocess.run([sys.executable, "-c", code, suite], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    seconds, passed = done.stdout.split()
    if passed != "True":
        raise RuntimeError(f"suite {suite} failed in its cold run")
    return float(seconds)


WORKLOADS = {"flows": Flows, "invert": Invert}
# Run for their per-layer metrics in every traced run, but not workloads:
# over ten seeds their median latency spread by 0.17-0.41 of itself, as
# the host's speed shifts by up to a half for minutes at a time.
PROBES = {"scan": Scan, "cli": Cli}
