import json
import math

import numpy as np
import pytest

import betaflow.flow
import betaflow.suites
from betaflow import (
    EXACT_MODEL,
    STIRLING_MODEL,
    DomainError,
    DomainLabel,
    FlaggedCell,
    NegativeRatioError,
    Region,
    SUITE_NAMES,
    UnknownSuiteError,
    run_suite,
    scan_degeneracy,
)
from betaflow.cli import main
from conftest import linearization_residual


def region(a, b, c, n=8):
    return Region(a=a, b=b, c=c, na=n, nb=n, nc=n)


@pytest.mark.parametrize("kwargs", [
    {"a": (3.0, 2.0)},
    {"a": (2.0, 2.0)},
    {"a": (1.0, 2.0)},
    {"a": (0.5, 2.0)},
    {"a": (2.0, math.inf)},
])
def test_region_rejects_bad_intervals(kwargs):
    base = {"a": (2.0, 3.0), "b": (2.0, 3.0), "c": (2.0, 3.0),
            "na": 8, "nb": 8, "nc": 8}
    with pytest.raises(DomainError):
        Region(**{**base, **kwargs})


def test_region_rejects_low_resolution():
    with pytest.raises(DomainError):
        region((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), n=1)


@pytest.mark.parametrize("counts", [(2.5, 3, 3), (3, 3.0, 3), (3, 3, "3"), (3, 3, math.nan)])
def test_region_rejects_a_node_count_that_is_no_integer(counts):
    # Region(..., na=2.5) was built, and scan_degeneracy then raised numpy's TypeError
    with pytest.raises(DomainError, match="region resolution must be >= 2 and an integer"):
        Region((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), *counts)


def test_region_takes_numpy_integer_node_counts():
    box = Region((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), np.int64(4), np.int32(4), 4)
    assert scan_degeneracy(box) == scan_degeneracy(region((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), n=4))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_scan_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(DomainError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
        scan_degeneracy(region((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), n=3), tol=tol)


@pytest.mark.parametrize("tol", [0.0, -0.0])
def test_scan_accepts_a_zero_tol(tol):
    box = region((2.9, 3.1), (2.9, 3.1), (2.9, 3.1), n=3)
    assert scan_degeneracy(box, tol=tol) == scan_degeneracy(box, tol=0.0)


# Only sizes numpy refuses before it allocates: 1000 nodes per axis would be
# an 8 GB grid, which can fit in memory.
@pytest.mark.parametrize("n, reason", [
    (3_000_000, "broadcast dimensions too large"),
    (100_000, "Unable to allocate"),
])
def test_scan_grid_numpy_cannot_build_is_a_domain_error(n, reason):
    with pytest.raises(DomainError, match=f"^cannot build the scan grid of {n} x {n} x {n}"
                                          f" nodes: {reason}"):
        scan_degeneracy(region((2.0, 3.0), (2.0, 3.0), (2.0, 3.0), n=n))


def test_region_axes():
    ax, bx, cx = region((2.0, 3.0), (2.0, 4.0), (2.0, 5.0)).axes()
    assert ax[0] == 2.0 and ax[-1] == 3.0 and ax.shape == (8,)
    assert bx[-1] == 4.0 and cx[-1] == 5.0


def test_scan_flags_v_crossing():
    cells = scan_degeneracy(region((2.9, 3.1), (2.9, 3.1), (2.9, 3.1)))
    assert cells
    hits = [
        cell for cell in cells
        if all(lo < 3.0 < hi for lo, hi in zip(cell.lo, cell.hi))
    ]
    assert hits and all(cell.label is DomainLabel.ON_V for cell in hits)
    assert all(cell.min_abs_det >= 0.0 for cell in cells)
    assert any(cell.sign_change for cell in cells)


def test_scan_far_from_loci_is_empty():
    cells = scan_degeneracy(region((2.0, 4.0), (1.9, 2.1), (2.9, 3.1)))
    assert cells == []


def test_scan_flags_line_d():
    cells = scan_degeneracy(region((2.0, 3.0), (1.4, 1.6), (1.4, 1.6)))
    assert cells
    assert any(cell.label is DomainLabel.ON_D for cell in cells)


def test_scan_ordered_and_deterministic():
    box = region((2.9, 3.1), (2.9, 3.1), (2.9, 3.1))
    first = scan_degeneracy(box)
    assert [c.index for c in first] == sorted(c.index for c in first)
    assert scan_degeneracy(box) == first


def reference_scan(box, tol=1e-9):
    """Per-cell scan: one det_closed call per node, then per cell a corner
    test and, only if that does not flag, a midpoint test."""
    ax, bx, cx = box.axes()
    det = np.empty((box.na, box.nb, box.nc))
    for i, a in enumerate(ax):
        for j, b in enumerate(bx):
            for k, c in enumerate(cx):
                det[i, j, k] = STIRLING_MODEL.det_closed((a, b, c))
    half_diag = 0.5 * math.hypot(ax[1] - ax[0], bx[1] - bx[0], cx[1] - cx[0])
    found = []
    for i in range(box.na - 1):
        for j in range(box.nb - 1):
            for k in range(box.nc - 1):
                corners = det[i:i + 2, j:j + 2, k:k + 2]
                sign_change = bool(corners.min() < 0.0 < corners.max())
                min_abs = float(np.min(np.abs(corners)))
                mid = (0.5 * (ax[i] + ax[i + 1]), 0.5 * (bx[j] + bx[j + 1]),
                       0.5 * (cx[k] + cx[k + 1]))
                if not (sign_change or min_abs <= tol
                        or abs(STIRLING_MODEL.det_closed(mid)) <= tol):
                    continue
                cls = STIRLING_MODEL.classify_domain(mid, tol=half_diag)
                found.append(FlaggedCell(
                    index=(i, j, k),
                    lo=(float(ax[i]), float(bx[j]), float(cx[k])),
                    hi=(float(ax[i + 1]), float(bx[j + 1]), float(cx[k + 1])),
                    label=cls.label,
                    distance=cls.distance,
                    min_abs_det=min_abs,
                    sign_change=sign_change,
                ))
    return found


def box_around(rng, point, n):
    """Box inside [1.2, 5]^3 holding point, 0.1 to 1 wide on each side."""
    lo = np.maximum(1.2, point - rng.uniform(0.1, 1.0, 3))
    hi = np.minimum(5.0, point + rng.uniform(0.1, 1.0, 3))
    return Region(*((float(l), float(h)) for l, h in zip(lo, hi)), n, n, n)


def test_scan_matches_per_cell_reference():
    rng = np.random.Generator(np.random.Philox(41))
    labels = set()
    for n in (8, 11, 14, 17, 20):
        on_d = np.array([rng.uniform(1.5, 4.5), 1.5, 1.5])
        while True:
            b, c = rng.uniform(1.6, 4.5, 2)
            # den = 0 solved for a
            a = ((27.0 - 15.0 * b - 15.0 * c + 8.0 * b * c)
                 / (4.0 * b * c - 8.0 * b - 8.0 * c + 15.0))
            if 1.3 < a < 4.5:
                break
        on_v = np.array([a, b, c])
        for point in (on_d, on_v):
            box = box_around(rng, point, n)
            cells = scan_degeneracy(box)
            assert cells and cells == reference_scan(box)
            labels.update(cell.label for cell in cells)
    assert {DomainLabel.ON_D, DomainLabel.ON_V} <= labels
    full = region((1.2, 5.0), (1.2, 5.0), (1.2, 5.0), n=32)
    assert scan_degeneracy(full) == reference_scan(full)


def test_run_suite_lax():
    report = run_suite("lax", seed=1)
    assert report.suite == "lax" and report.seed == 1
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_run_suite_all_has_seven_records():
    report = run_suite("all", seed=1)
    assert len(report.checks) == 7
    assert tuple(c.name for c in report.checks) == SUITE_NAMES
    assert report.passed == all(c.passed for c in report.checks)


def test_run_suite_unknown_name():
    with pytest.raises(UnknownSuiteError):
        run_suite("definitely-not-a-suite")


@pytest.mark.parametrize("name", ["lax", "linearization", "all"])
def test_run_suite_rejects_a_negative_seed(name):
    with pytest.raises(DomainError, match="seed must be >= 0"):
        run_suite(name, seed=-1)


def test_suite_report_serialization_deterministic():
    for name, seed in (("hamiltonian", 0), ("lax", 5)):
        assert run_suite(name, seed).to_json() == run_suite(name, seed).to_json()


def test_suite_report_json_fields():
    report = json.loads(run_suite("legendre", seed=2).to_json())
    assert set(report) == {"suite", "seed", "passed", "checks"}
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "residual", "tolerance"}


def reference_inverse_residual() -> float:
    """The inverse suite's grid check as it ran per point: the checked
    det_closed skip, metric and metric_inverse_closed, and one 3x3 product."""
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
    return worst


def reference_legendre_residual(seed: int) -> float:
    """The Legendre suite's seeded Stirling gap as it ran, one draw and three
    checked calls per point."""
    rng = np.random.Generator(np.random.Philox(seed))
    residual = 0.0
    for _ in range(100):
        p = rng.uniform(1.2, 5.0, size=3)
        gap = abs(
            STIRLING_MODEL.dual_potential(p) + STIRLING_MODEL.potential(p)
            - float(np.dot(p, STIRLING_MODEL.eta(p)))
        )
        residual = max(residual, gap)
    return residual


@pytest.mark.parametrize("seed", [0, 1])
def test_array_suites_match_their_per_point_loops_bit_for_bit(
        seed, exact_trajectory, stirling_trajectory):
    got = {c.name: c.residual.hex() for suite in ("linearization", "inverse", "legendre")
           for c in run_suite(suite, seed).checks}
    assert got["grid-identity"] == reference_inverse_residual().hex()
    # conftest's loop is the linearization suite's loop, on the same flows
    assert got["exact-linearization"] == linearization_residual(exact_trajectory).hex()
    assert got["stirling-linearization"] == linearization_residual(stirling_trajectory).hex()
    assert got["stirling-legendre"] == reference_legendre_residual(seed).hex()


def _all_records() -> dict:
    return {c.name: c for suite in SUITE_NAMES for c in run_suite(suite).checks}


def _fault_hooks(monkeypatch, change):
    """Both models' float hook, its outputs (e0, e1, e2, d1, d2, d3, o)
    passed through ``change``."""
    for model in (EXACT_MODEL, STIRLING_MODEL):
        def hook(a, b, c, inner=model.eta_metric_kernel):
            return change(*inner(a, b, c))

        monkeypatch.setattr(model, "eta_metric_kernel", hook)


def _fault_corrector_target(monkeypatch):
    inner = betaflow.flow._correct

    def correct(kernel, lower, w, target, tol, positive):
        t0, t1, t2 = target
        return inner(kernel, lower, w, (t0, t1, t2 * (1.0 + 1e-5)), tol, positive)

    monkeypatch.setattr(betaflow.flow, "_correct", correct)


def _fault_potential(monkeypatch):
    for model in (EXACT_MODEL, STIRLING_MODEL):
        monkeypatch.setattr(model, "potential", lambda p, inner=model.potential: inner(p) + 0.1)


def _fault_dual_potential(monkeypatch):
    monkeypatch.setattr(STIRLING_MODEL, "dual_potential",
                        lambda p, inner=STIRLING_MODEL.dual_potential: inner(p) + 1e-6)


def _fault_adjugate(monkeypatch):
    inner = betaflow.suites._rank_one

    def rank_one(*parts):
        det, c11, c22, c33, c12, c13, c23 = inner(*parts)
        return det, c11, c22, c33, c12 * (1.0 + 1e-6), c13, c23

    monkeypatch.setattr(betaflow.suites, "_rank_one", rank_one)


def _fault_draw(monkeypatch):
    inner = EXACT_MODEL._draw

    def draw(*args):
        x = inner(*args) ** 1.01
        return x / x.sum(axis=1, keepdims=True)

    monkeypatch.setattr(EXACT_MODEL, "_draw", draw)


# Each fault with the records it fails at seed 0.  The metric row is a G
# that is not the Jacobian of eta; a larger o fault (1 + 1e-3) from the
# start makes both acceptance flows spend their step budget, seconds each.
_FAULTS = (
    ("corrector target eta_3 x (1 + 1e-5)", _fault_corrector_target,
     {f"{tag}-{name}" for tag in ("exact", "stirling")
      for name in ("linearization", "conservation", "drift")}),
    ("o x (1 + 1e-6) in both hooks",
     lambda m: _fault_hooks(m, lambda *v: (*v[:6], v[6] * (1.0 + 1e-6))),
     {"exact-jacobian", "stirling-jacobian", "spot-2-2-2"}),
    ("eta_3 + 1e-6 in both hooks",
     lambda m: _fault_hooks(m, lambda *v: (*v[:2], v[2] + 1e-6, *v[3:])),
     {"exact-symmetric", "stirling-symmetric", "stirling-legendre", "stirling-spot-routes"}),
    ("potential + 0.1 on both models", _fault_potential,
     {"stirling-legendre", "stirling-spot-routes", "opposition-10", "opposition-50"}),
    ("Stirling dual_potential + 1e-6", _fault_dual_potential,
     {"stirling-legendre", "stirling-spot-routes", "stirling-spot-value"}),
    ("adjugate c12 x (1 + 1e-6) in the inverse suite", _fault_adjugate, {"grid-identity"}),
    ("exact draw x -> x^1.01, renormalised", _fault_draw, {"fisher-5se"}),
)


def test_every_check_record_fails_under_an_injected_fault(monkeypatch):
    # Without a fault every record passes; under each fault exactly its row's
    # records fail, each with a finite residual above its tolerance (inf says
    # only that a flow raised); and every record is failed by some fault, so
    # no record holds by construction.
    clean = _all_records()
    assert [c.name for c in clean.values() if not c.passed] == []
    caught = set()
    for fault, inject, records in _FAULTS:
        betaflow.suites._acceptance_trajectory.cache_clear()
        try:
            with monkeypatch.context() as m:
                inject(m)
                faulty = _all_records()
        finally:
            betaflow.suites._acceptance_trajectory.cache_clear()
        assert faulty.keys() == clean.keys(), fault
        failed = {name for name, c in faulty.items()
                  if math.isfinite(c.residual) and c.residual > c.tolerance}
        assert failed == records, fault
        caught |= failed
    assert set(clean) - caught == set()


def test_a_suite_whose_acceptance_flow_raises_reports_its_records_failed(
        monkeypatch, capsys):
    # With o scaled by 1 + 1e-3 from the start, both acceptance flows spend
    # their step budget and raise StepFailureError (at 100 000 tried steps,
    # a few seconds; 200 here).  Each record made from a flow that raised
    # fails with residual inf, the other records run as before, and check
    # exits 1 with the full report, not 3.
    for model in (EXACT_MODEL, STIRLING_MODEL):
        def scaled(a, b, c, inner=model.eta_metric_kernel):
            *values, o = inner(a, b, c)
            return (*values, o * (1.0 + 1e-3))

        monkeypatch.setattr(model, "eta_metric_kernel", scaled)
    monkeypatch.setattr(betaflow.flow, "_MAX_STEPS", 200)
    flow_records = {f"{tag}-{name}" for tag in ("exact", "stirling") for name in
                    ("linearization", "jacobian", "conservation", "drift")}
    betaflow.suites._acceptance_trajectory.cache_clear()
    try:
        for tag in ("exact", "stirling"):
            assert betaflow.suites._acceptance_trajectory(tag) is None
        checks = [c for s in ("linearization", "hamiltonian", "lax")
                  for c in run_suite(s).checks]
        assert {c.name for c in checks} >= flow_records
        for c in checks:
            if c.name in flow_records:
                assert (c.passed, c.residual) == (False, math.inf), c
        # the other records of these suites read eta alone, which the fault keeps
        assert {c.name: c.passed for c in checks if c.name not in flow_records} == {
            "exact-symmetric": True, "stirling-symmetric": True}
        capsys.readouterr()
        assert main(["check", "--suite", "linearization"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == [f"{tag}-{name}: FAIL residual=inf tolerance={tol:.6g}"
                           for tag in ("exact", "stirling")
                           for name, tol in (("linearization", 1e-7), ("jacobian", 1e-8))]
        assert out[4].startswith("suite linearization (seed 0): FAIL [")
        assert main(["check", "--suite", "all"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[:-1]] == list(SUITE_NAMES)
    finally:
        betaflow.suites._acceptance_trajectory.cache_clear()


def test_a_flow_record_whose_measure_raises_fails_with_residual_inf(monkeypatch, capsys):
    # lax_residual raises NegativeRatioError where L is undefined on a
    # sample; the record then fails with residual inf, and check exits 1
    # with the full report, not 3.
    def undefined(trajectory):
        raise NegativeRatioError("eta3/eta1 = -1.0 < 0: Lax corner entry leaves the reals")

    monkeypatch.setattr(betaflow.suites, "lax_residual", undefined)
    assert main(["check", "--suite", "lax"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"{tag}-drift: FAIL residual=inf tolerance=1e-07"
                       for tag in ("exact", "stirling")]
    assert out[2].startswith("suite lax (seed 0): FAIL [")


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_report_json_is_the_hand_built_dict(seed):
    for name in ("all",) + SUITE_NAMES:
        report = run_suite(name, seed)
        want = json.dumps(
            {
                "suite": report.suite,
                "seed": report.seed,
                "passed": report.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "residual": c.residual,
                        "tolerance": c.tolerance,
                    }
                    for c in report.checks
                ],
            },
            indent=2,
        )
        assert report.to_json() == want, name
