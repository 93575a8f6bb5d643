"""End-to-end gate: one test and one printed verdict line per stated
criterion, each at its stated tolerance."""

import numpy as np

import betaflow as bf
from betaflow.cli import main as cli_main, read_trajectory_csv
from conftest import linearization_residual


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {number} [{name}] failed{detail}"


def test_criterion_01_linearization(exact_trajectory, stirling_trajectory):
    r_exact = linearization_residual(exact_trajectory)
    r_stirling = linearization_residual(stirling_trajectory)
    ok = r_exact <= 1e-7 and r_stirling <= 1e-7
    _verdict(1, "linearization", ok,
             f" (exact {r_exact:.3e}, stirling {r_stirling:.3e}, tol 1e-7)")


def test_criterion_02_hamiltonian(exact_trajectory, stirling_trajectory):
    drifts = []
    for traj in (exact_trajectory, stirling_trajectory):
        h0 = traj.hamiltonian[0]
        drifts.append(float(np.max(np.abs(traj.hamiltonian - h0))) / abs(h0))
    symmetric = max(
        abs(bf.hamiltonian(model.eta(p)) - 2.0)
        for model, points in ((bf.EXACT_MODEL, ((2.0,) * 3, (7.0,) * 3)),
                              (bf.STIRLING_MODEL, ((2.0,) * 3, (4.0,) * 3)))
        for p in points
    )
    ok = max(drifts) <= 1e-7 and symmetric <= 1e-12
    _verdict(2, "hamiltonian conservation", ok,
             f" (drift {max(drifts):.3e} tol 1e-7,"
             f" symmetric dev {symmetric:.3e} tol 1e-12)")


def test_criterion_03_lax_pair(exact_trajectory, stirling_trajectory):
    drift = trace_dev = 0.0
    for traj in (exact_trajectory, stirling_trajectory):
        diag = bf.lax_residual(traj)
        drift = max(drift, diag.frobenius_drift)
        trace_dev = max(trace_dev, diag.trace_deviation)
    rng = np.random.Generator(np.random.Philox(0))
    comm_exact_zero = True
    for _ in range(100):
        eta = rng.uniform(0.2, 3.0, size=3) * (1.0 if rng.integers(2) else -1.0)
        ell = float(rng.uniform(-2.0, 2.0))
        if np.any(bf.lax_pair(eta, ell).commutator() != 0.0):
            comm_exact_zero = False
    ok = drift <= 1e-7 and trace_dev <= 1e-14 and comm_exact_zero
    _verdict(3, "lax pair", ok,
             f" (drift {drift:.3e} tol 1e-7, trace dev {trace_dev:.3e}"
             f" tol 1e-14, commutator exactly zero: {comm_exact_zero})")


def test_criterion_04_closed_inverse():
    axis = np.linspace(1.2, 5.0, 20)
    eye = np.eye(3)
    worst = 0.0
    for a in axis:
        for b in axis:
            for c in axis:
                p = (a, b, c)
                if abs(bf.STIRLING_MODEL.det_closed(p)) < 1e-6:
                    continue
                g = bf.STIRLING_MODEL.metric(p).as_array()
                inv = bf.STIRLING_MODEL.metric_inverse_closed(p).as_array()
                worst = max(worst, float(np.max(np.abs(g @ inv - eye))))
    spot = bf.STIRLING_MODEL.metric_inverse_closed((2.0, 2.0, 2.0)).as_array()
    spot_dev = float(np.max(np.abs(spot - (np.full((3, 3), 4.0) - 2.0 * eye))))
    ok = worst <= 1e-8 and spot_dev <= 1e-12
    _verdict(4, "closed-form inverse", ok,
             f" (grid {worst:.3e} tol 1e-8, spot {spot_dev:.3e} tol 1e-12)")


def test_criterion_05_determinant_degeneracy():
    axis = np.linspace(1.2, 5.0, 20)
    worst_rel = worst_abs = 0.0
    for a in axis:
        for b in axis:
            for c in axis:
                closed = bf.STIRLING_MODEL.det_closed((a, b, c))
                direct = bf.det3(bf.STIRLING_MODEL.metric((a, b, c)))
                if abs(closed) >= 1e-6:
                    worst_rel = max(worst_rel, abs(direct - closed) / abs(closed))
                else:
                    worst_abs = max(worst_abs, abs(direct - closed))
    spots = (
        bf.STIRLING_MODEL.det_closed((3.0, 3.0, 3.0)) == 0.0
        and abs(bf.STIRLING_MODEL.det_closed((2.0, 2.0, 2.0)) - 0.025) <= 1e-14
        and abs(bf.STIRLING_MODEL.det_closed((2.0, 3.0, 4.0)) - 1.0 / 576.0) <= 1e-14
    )
    res = 8
    crossing = bf.scan_degeneracy(
        bf.Region(a=(2.9, 3.1), b=(2.9, 3.1), c=(2.9, 3.1), na=res, nb=res, nc=res)
    )
    v_flagged = any(
        cell.label is bf.DomainLabel.ON_V
        and all(lo < 3.0 < hi for lo, hi in zip(cell.lo, cell.hi))
        for cell in crossing
    )
    clear = bf.scan_degeneracy(
        bf.Region(a=(2.0, 4.0), b=(1.9, 2.1), c=(2.9, 3.1), na=res, nb=res, nc=res)
    )
    ok = (worst_rel <= 1e-10 and worst_abs <= 1e-10 and spots
          and v_flagged and clear == [])
    _verdict(5, "determinant and degeneracy", ok,
             f" (grid rel {worst_rel:.3e} tol 1e-10, spots {spots},"
             f" V crossing flagged {v_flagged}, clear region empty {clear == []})")


def test_criterion_06_metric_as_jacobian():
    rng = np.random.Generator(np.random.Philox(6))
    h = 1e-5
    worst = 0.0
    for model, lo, hi in ((bf.EXACT_MODEL, 0.5, 5.0), (bf.STIRLING_MODEL, 1.2, 5.0)):
        for _ in range(100):
            theta = rng.uniform(lo, hi, size=3)
            g = model.metric(theta).as_array()
            for i in range(3):
                step = np.zeros(3)
                step[i] = h
                fd = (model.eta(theta + step) - model.eta(theta - step)) / (2 * h)
                worst = max(worst, float(np.max(np.abs(fd - g[i]))))
    ok = worst <= 1e-6
    _verdict(6, "metric as Jacobian of eta", ok, f" ({worst:.3e} tol 1e-6)")


def test_criterion_07_fisher_mc():
    point = (2.0, 3.0, 4.0)
    est, se = bf.EXACT_MODEL.fisher_mc_with_stderr(point, 200000, seed=0)
    g = bf.EXACT_MODEL.metric(point)
    worst_se = max(
        abs(getattr(est, f) - getattr(g, f)) / getattr(se, f)
        for f in ("d1", "d2", "d3", "o12", "o13", "o23")
    )
    # the stated targets are the trigamma values to their printed precision
    targets_match = (
        abs(g.d1 - 0.5274220593) <= 1e-6 and abs(g.o12 + 0.1175119640) <= 1e-6
    )
    ok = worst_se <= 5.0 and targets_match
    _verdict(7, "fisher monte carlo", ok,
             f" (worst {worst_se:.2f} standard errors, tol 5;"
             f" targets match {targets_match})")


def test_criterion_08_legendre_duality():
    rng = np.random.Generator(np.random.Philox(8))
    worst = 0.0
    for model, lo, hi in ((bf.EXACT_MODEL, 0.5, 5.0), (bf.STIRLING_MODEL, 1.2, 5.0)):
        for _ in range(100):
            p = rng.uniform(lo, hi, size=3)
            gap = abs(model.dual_potential(p) + model.potential(p)
                      - float(np.dot(p, model.eta(p))))
            worst = max(worst, gap)
    point = np.array([2.0, 2.0, 2.0])
    closed = bf.STIRLING_MODEL.dual_potential(point)
    legendre = (float(np.dot(point, bf.STIRLING_MODEL.eta(point)))
                - bf.STIRLING_MODEL.potential(point))
    routes = abs(closed - legendre)
    spot = abs(closed - 1.6425960226263955)
    ok = worst <= 1e-9 and routes <= 1e-9 and spot <= 1e-9
    _verdict(8, "legendre duality", ok,
             f" (random {worst:.3e}, routes {routes:.3e}, spot {spot:.3e},"
             f" tol 1e-9)")


def test_criterion_09_stirling_relation():
    gap10 = abs(bf.STIRLING_MODEL.potential((10.0,) * 3)
                + bf.EXACT_MODEL.potential((10.0,) * 3))
    gap50 = abs(bf.STIRLING_MODEL.potential((50.0,) * 3)
                + bf.EXACT_MODEL.potential((50.0,) * 3))
    ok = gap10 <= 0.05 and gap50 <= 0.01
    _verdict(9, "stirling sign relation", ok,
             f" (gap {gap10:.4f} tol 0.05 at 10, {gap50:.4f} tol 0.01 at 50)")


def test_criterion_10_canonical_structure():
    at = bf.CanonicalState(0.7, -1.2, 2.3, 0.4)
    bracket_dev = abs(
        bf.poisson_bracket(lambda s: s.P1, lambda s: s.Q1, at) - 1.0
    )

    def f(s):
        return s.P1 * s.Q1p + s.Q1 ** 2

    def g(s):
        return s.P1p * s.P1 - 2.0 * s.Q1p

    antisym_dev = abs(bf.poisson_bracket(f, g, at) + bf.poisson_bracket(g, f, at))

    # samples every 0.002 up to t = 0.08, each the end of a flow from the last
    theta, etas = (2.0, 3.0, 4.0), [bf.EXACT_MODEL.eta((2.0, 3.0, 4.0))]
    for _ in range(40):
        traj = bf.integrate(bf.EXACT_MODEL, theta, 0.002, rtol=1e-10, atol=1e-12)
        theta = traj.theta_end
        etas.append(traj.eta[-1])
    states = np.array([bf.to_canonical(e).as_array() for e in etas])
    t = 0.002 * np.arange(41)
    fd_rel = 0.0
    for i in range(1, len(t) - 1):
        h1 = t[i] - t[i - 1]
        h2 = t[i + 1] - t[i]
        fd = ((states[i + 1] - states[i]) / h2 * (h1 / (h1 + h2))
              + (states[i] - states[i - 1]) / h1 * (h2 / (h1 + h2)))
        v = bf.hamilton_rhs(bf.CanonicalState.from_array(states[i]))
        fd_rel = max(fd_rel, float(np.max(np.abs(fd - v)) / np.max(np.abs(v))))
    ok = bracket_dev <= 1e-10 and antisym_dev <= 1e-10 and fd_rel <= 1e-5
    _verdict(10, "canonical structure", ok,
             f" (bracket {bracket_dev:.3e}, antisymmetry {antisym_dev:.3e},"
             f" tol 1e-10; flow velocities {fd_rel:.3e} tol 1e-5)")


def test_criterion_11_cli_formats(tmp_path, capsys):
    check_code = cli_main(["check", "--suite", "all", "--seed", "0"])
    capsys.readouterr()

    csv_path = tmp_path / "flow.csv"
    flow_code = cli_main(["flow", "--model", "exact", "--start", "2,3,4",
                          "--t-end", "0.05", "--out", str(csv_path)])
    capsys.readouterr()
    parsed = read_trajectory_csv(csv_path)
    traj = bf.integrate(bf.EXACT_MODEL, (2.0, 3.0, 4.0), 0.05)
    columns = {
        "t": traj.t,
        "a": traj.theta[:, 0], "b": traj.theta[:, 1], "c": traj.theta[:, 2],
        "eta1": traj.eta[:, 0], "eta2": traj.eta[:, 1], "eta3": traj.eta[:, 2],
        "H": traj.hamiltonian, "det_G": traj.det_g, "lax_dev": traj.lax_dev,
    }
    lossless = all(
        np.array_equal(parsed[name], columns[name], equal_nan=True)
        for name in parsed
    )

    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    from betaflow.cli import emit_svg

    emit_svg(traj, svg1)
    emit_svg(traj, svg2)
    deterministic = svg1.read_bytes() == svg2.read_bytes()

    ok = check_code == 0 and lossless and deterministic
    _verdict(11, "cli and formats", ok,
             f" (check exit {check_code}, csv lossless {lossless},"
             f" svg deterministic {deterministic})")
