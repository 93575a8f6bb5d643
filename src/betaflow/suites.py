"""The numerical check suites: each closed form the paper implies, measured
as residuals against tolerances.  Points known to lie in the domain go
straight to the models' float and array kernels, which round as the checked
per-point calls do."""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, UnknownSuiteError
from .exact import EXACT_MODEL
from .flow import integrate
from .integrability import hamiltonian, lax_pair, lax_residual
from .stirling import STIRLING_MODEL, det_kernel, inverse_kernel


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
        # eta_closed(eta0, t) at every sample, with its math.exp
        closed = np.array([math.exp(-t) for t in traj.t.tolist()])[:, None] * eta0
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
        residual = max(abs(hamiltonian(model.eta_metric_kernel(*p)[:3]) - 2.0) for p in points)
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
    axis = np.linspace(1.2, 5.0, 20)
    # det_closed's skip on the unchecked kernel: every node is in the domain
    # and det is finite there.
    index = np.nonzero(np.abs(det_kernel(*np.meshgrid(axis, axis, axis, indexing="ij"))) >= 1e-6)
    a, b, c = (axis[i] for i in index)
    hook = STIRLING_MODEL.eta_metric_kernel
    d1, d2, d3, o = np.array([hook(*p)[3:] for p in zip(a.tolist(), b.tolist(), c.tolist())]).T
    inverse = inverse_kernel(a, b, c)
    residual = _stack(d1, d2, d3, o, o, o) @ _stack(*inverse) - np.eye(3)
    worst = float(np.max(np.abs(residual)))
    spot = STIRLING_MODEL.metric_inverse_closed((2.0, 2.0, 2.0))
    spot_dev = max(
        abs(spot.d1 - 2.0), abs(spot.d2 - 2.0), abs(spot.d3 - 2.0),
        abs(spot.o12 - 4.0), abs(spot.o13 - 4.0), abs(spot.o23 - 4.0),
    )
    return [
        _record("grid-identity", worst, 1e-8),
        _record("spot-2-2-2", spot_dev, 1e-12),
    ]


def _stack(d1, d2, d3, o12, o13, o23) -> np.ndarray:
    """Symmetric 3x3 matrices, one per entry of the same-shape arrays, laid
    out as ``Metric3.as_array``."""
    return np.stack([d1, o12, o13, o12, d2, o23, o13, o23, d3], axis=-1).reshape(-1, 3, 3)


def _suite_legendre(seed: int) -> list[CheckRecord]:
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    for tag, model, lo, hi in (
        ("exact", EXACT_MODEL, 0.5, 5.0),
        ("stirling", STIRLING_MODEL, 1.2, 5.0),
    ):
        gaps = [abs(model.dual_potential(p) + model.potential(p)
                    - float(np.dot(p, model.eta_metric_kernel(*p)[:3])))
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
    worst = max(
        abs(getattr(est, f) - getattr(g, f)) / (5.0 * getattr(se, f))
        for f in ("d1", "d2", "d3", "o12", "o13", "o23")
    )
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
