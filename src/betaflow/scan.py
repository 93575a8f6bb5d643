"""Grid sweeps: locating the degeneracy set of the approximated metric and
batch-running the numerical check suites.

The closed-form determinant is a rational function whose numerator is
affine in each parameter separately, so on any axis-aligned cell its sign
pattern at the eight corners is decisive: a sign change brackets the zero
surface.  Node and midpoint threshold tests catch cells that merely touch
the surface.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnknownSuiteError
from .exact import EXACT_MODEL
from .flow import eta_closed, integrate
from .integrability import hamiltonian, lax_pair, lax_residual
from .manifold import DomainLabel
from .stirling import STIRLING_MODEL, det_kernel


@dataclass(frozen=True)
class Region:
    """Axis-aligned box with per-axis node counts."""

    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    na: int
    nb: int
    nc: int

    def __post_init__(self):
        for lo, hi in (self.a, self.b, self.c):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"invalid region interval [{lo!r}, {hi!r}]")
            if lo <= STIRLING_MODEL.lower:
                raise DomainError(
                    f"region lower bound {lo!r} must exceed"
                    f" {STIRLING_MODEL.lower:g} (stirling domain)"
                )
        for n in (self.na, self.nb, self.nc):
            if n < 2:
                raise DomainError(f"region resolution must be >= 2, got {n}")

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.linspace(self.a[0], self.a[1], self.na),
            np.linspace(self.b[0], self.b[1], self.nb),
            np.linspace(self.c[0], self.c[1], self.nc),
        )


@dataclass(frozen=True)
class FlaggedCell:
    """One grid cell suspected of meeting det G = 0."""

    index: tuple[int, int, int]
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    label: DomainLabel
    distance: float
    min_abs_det: float
    sign_change: bool


def scan_degeneracy(region: Region, tol: float = 1e-9) -> list[FlaggedCell]:
    """Flag cells where the closed-form determinant changes sign across the
    corners or falls below tol at a corner or the midpoint.  The result is
    ordered lexicographically by cell index."""
    ax, bx, cx = region.axes()
    # Halves first, so the sum cannot overflow; on coordinates above 1 this
    # rounds as 0.5 * (x[:-1] + x[1:]).
    mid_axes = [0.5 * x[:-1] + 0.5 * x[1:] for x in (ax, bx, cx)]
    # Where det_kernel's products overflow (coordinates past about 1e100)
    # det is inf or NaN; such a cell compares false everywhere below and
    # is not flagged.
    with np.errstate(over="ignore", invalid="ignore"):
        det = det_kernel(*np.meshgrid(ax, bx, cx, indexing="ij"))
        det_mid = det_kernel(*np.meshgrid(*mid_axes, indexing="ij"))

    ni, nj, nk = det_mid.shape
    corners = [det[di:di + ni, dj:dj + nj, dk:dk + nk]
               for di in (0, 1) for dj in (0, 1) for dk in (0, 1)]
    sign_change = (np.minimum.reduce(corners) < 0.0) & (0.0 < np.maximum.reduce(corners))
    min_abs = np.minimum.reduce([np.abs(view) for view in corners])
    flagged = sign_change | (min_abs <= tol) | (np.abs(det_mid) <= tol)

    half_diag = 0.5 * math.hypot(ax[1] - ax[0], bx[1] - bx[0], cx[1] - cx[0])
    found = []
    for i, j, k in np.argwhere(flagged).tolist():
        mid = (mid_axes[0][i], mid_axes[1][j], mid_axes[2][k])
        cls = STIRLING_MODEL.classify_domain(mid, tol=half_diag)
        found.append(FlaggedCell(
            index=(i, j, k),
            lo=(float(ax[i]), float(bx[j]), float(cx[k])),
            hi=(float(ax[i + 1]), float(bx[j + 1]), float(cx[k + 1])),
            label=cls.label,
            distance=cls.distance,
            min_abs_det=float(min_abs[i, j, k]),
            sign_change=bool(sign_change[i, j, k]),
        ))
    return found


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
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "residual": c.residual,
                        "tolerance": c.tolerance,
                    }
                    for c in self.checks
                ],
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
        scale = float(np.max(np.abs(eta0)))
        residual = max(
            float(np.max(np.abs(traj.eta[i] - eta_closed(eta0, t)))) / scale
            for i, t in enumerate(traj.t)
        )
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
    axis = np.linspace(1.2, 5.0, 20)
    eye = np.eye(3)
    worst = 0.0
    for a in axis:
        for b in axis:
            for c in axis:
                p = (a, b, c)
                if abs(STIRLING_MODEL.det_closed(p)) < 1e-6:
                    continue
                g = STIRLING_MODEL.metric(p).as_array()
                inv = STIRLING_MODEL.metric_inverse_closed(p).as_array()
                worst = max(worst, float(np.max(np.abs(g @ inv - eye))))
    spot = STIRLING_MODEL.metric_inverse_closed((2.0, 2.0, 2.0))
    spot_dev = max(
        abs(spot.d1 - 2.0), abs(spot.d2 - 2.0), abs(spot.d3 - 2.0),
        abs(spot.o12 - 4.0), abs(spot.o13 - 4.0), abs(spot.o23 - 4.0),
    )
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
        residual = 0.0
        for _ in range(100):
            p = rng.uniform(lo, hi, size=3)
            gap = abs(
                model.dual_potential(p) + model.potential(p)
                - float(np.dot(p, model.eta(p)))
            )
            residual = max(residual, gap)
        out.append(_record(f"{tag}-legendre", residual, 1e-9))
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
