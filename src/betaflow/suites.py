"""The numerical check suites: each closed form the paper implies, measured
as residuals against tolerances.  Each suite calls the library function that
does its job (``eta_closed``, ``Model.eta``, ``Metric3.as_array``), so a fault
there shows here.  Only the ``inverse`` grid runs the raw float hook: its 8000
nodes all lie in the domain, and the checked per-point ``metric`` and
``metric_inverse_closed`` would take about ten times as long over them."""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .errors import DomainError, UnknownSuiteError
from .exact import EXACT_MODEL
from .flow import eta_closed, integrate
from .integrability import hamiltonian, lax_pair, lax_residual
from .manifold import Metric3, _rank_one
from .stirling import STIRLING_MODEL


@dataclass(frozen=True)
class CheckRecord:
    """One measured residual against its tolerance."""

    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple[CheckRecord, ...]
    passed: bool
    wall_time_s: float

    def to_json(self) -> str:
        """Canonical serialization; wall time is excluded so identical
        (suite, seed) runs serialize byte-identically."""
        return json.dumps(
            {
                "suite": self.suite,
                "seed": self.seed,
                "passed": self.passed,
                "checks": [asdict(c) for c in self.checks],
            },
            indent=2,
        )


_ACCEPTANCE_STARTS = {
    "exact": (EXACT_MODEL, (2.0, 3.0, 4.0)),
    "stirling": (STIRLING_MODEL, (2.5, 3.0, 2.0)),
}


@functools.cache
def _acceptance_trajectory(tag: str):
    model, start = _ACCEPTANCE_STARTS[tag]
    return integrate(model, start, 2.0, rtol=1e-10, atol=1e-12)


def _record(name: str, residual: float, tolerance: float) -> CheckRecord:
    return CheckRecord(name, bool(residual <= tolerance), float(residual), tolerance)


def _suite_linearization(seed: int) -> list[CheckRecord]:
    out = []
    for tag in ("exact", "stirling"):
        traj = _acceptance_trajectory(tag)
        eta0 = traj.eta[0]
        closed = np.array([eta_closed(eta0, t) for t in traj.t.tolist()])
        residual = float(np.max(np.abs(traj.eta - closed))) / float(np.max(np.abs(eta0)))
        out.append(_record(f"{tag}-linearization", residual, 1e-7))
    return out


def _suite_hamiltonian(seed: int) -> list[CheckRecord]:
    out = []
    for tag in ("exact", "stirling"):
        traj = _acceptance_trajectory(tag)
        h0 = traj.hamiltonian[0]
        residual = float(np.max(np.abs(traj.hamiltonian - h0))) / abs(h0)
        out.append(_record(f"{tag}-conservation", residual, 1e-7))
    for tag, model, points in (
        ("exact", EXACT_MODEL, ((2.0, 2.0, 2.0), (7.0, 7.0, 7.0))),
        ("stirling", STIRLING_MODEL, ((2.0, 2.0, 2.0), (4.0, 4.0, 4.0))),
    ):
        residual = max(abs(hamiltonian(model.eta(p)) - 2.0) for p in points)
        out.append(_record(f"{tag}-symmetric", residual, 1e-12))
    return out


def _suite_lax(seed: int) -> list[CheckRecord]:
    out = []
    for tag in ("exact", "stirling"):
        diag = lax_residual(_acceptance_trajectory(tag))
        out.append(_record(f"{tag}-drift", diag.frobenius_drift, 1e-7))
        out.append(_record(f"{tag}-trace", diag.trace_deviation, 1e-14))
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(100):
        sign = 1.0 if rng.integers(2) else -1.0
        eta = sign * rng.uniform(0.2, 3.0, size=3)
        ell = rng.uniform(-2.0, 2.0)
        comm = float(np.linalg.norm(lax_pair(eta, ell).commutator()))
        worst = max(worst, comm)
    out.append(_record("commutator-random", worst, 0.0))
    return out


def _suite_inverse(seed: int) -> list[CheckRecord]:
    axis = np.linspace(1.2, 5.0, 20).tolist()
    hook = STIRLING_MODEL.eta_metric_kernel
    parts = np.array([hook(*p)[3:] for p in itertools.product(axis, repeat=3)]).T
    det, *adjugate = _rank_one(*parts)
    keep = np.abs(det) >= 1e-6
    d1, d2, d3, o = parts[:, keep]
    inverse = Metric3(*(x[keep] / det[keep] for x in adjugate)).as_array()
    residual = Metric3(d1 + o, d2 + o, d3 + o, o, o, o).as_array() @ inverse - np.eye(3)
    worst = float(np.max(np.abs(residual)))
    spot = astuple(STIRLING_MODEL.metric_inverse_closed((2.0, 2.0, 2.0)))
    spot_dev = max(abs(x - want) for x, want in zip(spot, (2.0,) * 3 + (4.0,) * 3))
    return [
        _record("grid-identity", worst, 1e-8),
        _record("spot-2-2-2", spot_dev, 1e-12),
    ]


def _suite_legendre(seed: int) -> list[CheckRecord]:
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for tag, model, lo, hi in (
        ("exact", EXACT_MODEL, 0.5, 5.0),
        ("stirling", STIRLING_MODEL, 1.2, 5.0),
    ):
        gaps = [abs(model.dual_potential(p) + model.potential(p)
                    - float(np.dot(p, model.eta(p))))
                for p in rng.uniform(lo, hi, size=(100, 3)).tolist()]
        out.append(_record(f"{tag}-legendre", max(gaps), 1e-9))
    point = (2.0, 2.0, 2.0)
    closed = STIRLING_MODEL.dual_potential(point)
    legendre = (
        float(np.dot(point, STIRLING_MODEL.eta(point)))
        - STIRLING_MODEL.potential(point)
    )
    out.append(_record("stirling-spot-routes", abs(closed - legendre), 1e-9))
    out.append(_record("stirling-spot-value",
                       abs(closed - 1.6425960226263955), 1e-9))
    return out


def _suite_fisher(seed: int) -> list[CheckRecord]:
    point = (2.0, 3.0, 4.0)
    est, se = EXACT_MODEL.fisher_mc_with_stderr(point, 200000, seed)
    g = EXACT_MODEL.metric(point)
    worst = max(abs(e - x) / (5.0 * s) for e, x, s in zip(astuple(est), astuple(g), astuple(se)))
    return [_record("fisher-5se", worst, 1.0)]


def _suite_stirling_vs_exact(seed: int) -> list[CheckRecord]:
    out = []
    for point, tolerance in (((10.0,) * 3, 0.05), ((50.0,) * 3, 0.01)):
        gap = abs(STIRLING_MODEL.potential(point) + EXACT_MODEL.potential(point))
        out.append(_record(f"opposition-{int(point[0])}", gap, tolerance))
    return out


_SUITE_FUNCS = {
    "linearization": _suite_linearization,
    "hamiltonian": _suite_hamiltonian,
    "lax": _suite_lax,
    "inverse": _suite_inverse,
    "legendre": _suite_legendre,
    "fisher-mc": _suite_fisher,
    "stirling-vs-exact": _suite_stirling_vs_exact,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one named check suite (or "all") deterministically for a seed.

    In the "all" report each record summarizes one sub-suite; its residual
    is the sub-suite's worst residual-to-tolerance ratio."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    start = time.perf_counter()
    if name == "all":
        checks = []
        for sub in SUITE_NAMES:
            report = run_suite(sub, seed)
            worst = max((_ratio(c) for c in report.checks), default=0.0)
            checks.append(CheckRecord(sub, report.passed, worst, 1.0))
    elif name in _SUITE_FUNCS:
        checks = _SUITE_FUNCS[name](seed)
    else:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; expected one of {('all',) + SUITE_NAMES}"
        )
    return SuiteReport(
        suite=name,
        seed=seed,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        wall_time_s=time.perf_counter() - start,
    )


def _ratio(check: CheckRecord) -> float:
    if check.tolerance > 0.0:
        return check.residual / check.tolerance
    return 0.0 if check.residual == 0.0 else math.inf
