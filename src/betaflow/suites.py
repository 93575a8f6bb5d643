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

from .errors import BetaflowError, UnknownSuiteError
from .exact import EXACT_MODEL
from .flow import eta_closed, integrate
from .integrability import hamiltonian, lax_residual
from .manifold import Metric3, _rank_one, check_count
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
    """The acceptance flow ``tag``, or None where it raises a BetaflowError."""
    model, start = _ACCEPTANCE_STARTS[tag]
    try:
        return integrate(model, start, 2.0, rtol=1e-10, atol=1e-12)
    except BetaflowError:
        return None


def _record(name: str, residual: float, tolerance: float) -> CheckRecord:
    return CheckRecord(name, bool(residual <= tolerance), float(residual), tolerance)


def _flow_records(measures) -> list[CheckRecord]:
    """A record f"{tag}-{name}" per acceptance flow ``tag`` and, within it,
    per (name, tolerance, measure) of ``measures``, with residual
    measure(model, trajectory) on that flow.  Where the flow or the measure
    raised a BetaflowError, the record fails with residual inf, so ``check``
    still reports the whole suite."""
    out = []
    for tag, (model, _) in _ACCEPTANCE_STARTS.items():
        traj = _acceptance_trajectory(tag)
        for name, tolerance, measure in measures:
            try:
                residual = math.inf if traj is None else measure(model, traj)
            except BetaflowError:
                residual = math.inf
            out.append(_record(f"{tag}-{name}", residual, tolerance))
    return out


# Central differences of eta at a step of 1e-5 (theta_i - lower) miss G by
# about 4 step^2 of max|G| on the acceptance flows (truncation: 4.3e-10
# Stirling, 1.2e-10 exact; rounding adds about eps/step = 2e-11), so the
# jacobian records allow 100 step^2.
_JACOBIAN_STEP = 1e-5


def _jacobian_residual(model, trajectory) -> float:
    """Largest |d eta/d theta - G| over max|G| at the trajectory's samples,
    with d eta/d theta by central differences of ``Model.eta``."""
    worst = 0.0
    for theta in trajectory.theta:
        g = model.metric(theta).as_array()
        steps = _JACOBIAN_STEP * (theta - model.lower)
        diff = np.column_stack([(model.eta(theta + e) - model.eta(theta - e)) / (2.0 * h)
                                for e, h in zip(np.diag(steps), steps)])
        worst = max(worst, float(np.max(np.abs(diff - g))) / float(np.max(np.abs(g))))
    return worst


def _linearization_residual(model, trajectory) -> float:
    """Largest |eta - eta0 e^-t| over max|eta0| at the trajectory's samples."""
    eta0 = trajectory.eta[0]
    closed = np.array([eta_closed(eta0, t) for t in trajectory.t.tolist()])
    return float(np.max(np.abs(trajectory.eta - closed))) / float(np.max(np.abs(eta0)))


def _suite_linearization(seed: int) -> list[CheckRecord]:
    """eta against eta0 e^-t along each acceptance flow, which fails where
    the corrector's target is off, and G against central differences of eta
    at the same samples, which fails where G is not the Jacobian of eta."""
    return _flow_records((
        ("linearization", 1e-7, _linearization_residual),
        ("jacobian", 100.0 * _JACOBIAN_STEP ** 2, _jacobian_residual),
    ))


def _conservation_residual(model, trajectory) -> float:
    h = trajectory.hamiltonian
    return float(np.max(np.abs(h - h[0]))) / abs(h[0])


def _suite_hamiltonian(seed: int) -> list[CheckRecord]:
    out = _flow_records((("conservation", 1e-7, _conservation_residual),))
    for tag, model, points in (
        ("exact", EXACT_MODEL, ((2.0, 2.0, 2.0), (7.0, 7.0, 7.0))),
        ("stirling", STIRLING_MODEL, ((2.0, 2.0, 2.0), (4.0, 4.0, 4.0))),
    ):
        residual = max(abs(hamiltonian(model.eta(p)) - 2.0) for p in points)
        out.append(_record(f"{tag}-symmetric", residual, 1e-12))
    return out


def _suite_lax(seed: int) -> list[CheckRecord]:
    return _flow_records((("drift", 1e-7, lambda model, traj: lax_residual(traj)),))


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
    """Phi* + Phi = <theta, eta> on Stirling, by its closed ``dual_potential``.
    The exact ``dual_potential`` is <theta, eta> - Phi by definition, so an
    exact record would read 0 whatever eta and Phi are."""
    model = STIRLING_MODEL
    rng = np.random.Generator(np.random.Philox(seed))
    gaps = [abs(model.dual_potential(p) + model.potential(p) - float(np.dot(p, model.eta(p))))
            for p in rng.uniform(1.2, 5.0, size=(100, 3)).tolist()]
    point = (2.0, 2.0, 2.0)
    closed = model.dual_potential(point)
    legendre = float(np.dot(point, model.eta(point))) - model.potential(point)
    return [
        _record("stirling-legendre", max(gaps), 1e-9),
        _record("stirling-spot-routes", abs(closed - legendre), 1e-9),
        _record("stirling-spot-value", abs(closed - 1.6425960226263955), 1e-9),
    ]


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
    seed = check_count(seed, "seed", 0)
    start = time.perf_counter()
    if name == "all":
        checks = []
        for sub in SUITE_NAMES:
            report = run_suite(sub, seed)
            worst = max((c.residual / c.tolerance for c in report.checks), default=0.0)
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
