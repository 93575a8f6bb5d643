import functools
import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import betaflow
from betaflow import (
    DET_GUARD,
    EXACT_MODEL,
    STIRLING_MODEL,
    BetaflowError,
    DomainError,
    Metric3,
    NoConvergenceError,
    SingularMatrixError,
    StepFailureError,
    as_point,
    digamma,
    eta_closed,
    integrate,
    invert_eta,
    rhs,
    trigamma,
)
from betaflow.integrability import invariant_columns
from betaflow.manifold import Model, check_finite, inside, solve_det
from betaflow.stirling import det_kernel
from conftest import (linearization_residual, rank_one_adjugate, rank_one_solve,
                      rounding_floor_ratio)
from test_fuzz import MODELS as FUZZ_MODELS, _points as fuzz_points, _targets as fuzz_targets
from test_fuzz import _tiny_guesses


def test_rhs_stirling_spot():
    # inverse metric rows sum to 10 at (2,2,2); eta is uniform ln 5 - 1/2
    r = rhs(STIRLING_MODEL, (2.0, 2.0, 2.0))
    want = -10.0 * (math.log(5.0) - 0.5)
    assert np.max(np.abs(r - want)) <= 1e-9
    assert abs(want + 11.0943791) <= 1e-6


def test_rhs_exact_spot():
    # uniform eta, so the velocity is -eta1 over the metric row sum
    r = rhs(EXACT_MODEL, (2.0, 2.0, 2.0))
    want = (77.0 / 60.0) / (trigamma(2.0) - 3.0 * trigamma(6.0))
    assert np.max(np.abs(r - want)) <= 1e-9 * abs(want)
    assert np.max(np.abs(r - 12.7107)) <= 1e-3


def test_rhs_singular_on_v():
    with pytest.raises(SingularMatrixError):
        rhs(STIRLING_MODEL, (3.0, 3.0, 3.0))


def _mp_velocity_and_det(model, theta):
    """-G^-1 eta and det G at theta in mpmath's working precision."""
    eta, metric = _mp_eta_and_metric(model, theta)
    return -mpmath.lu_solve(metric, mpmath.matrix(eta)), mpmath.det(metric)


def test_rhs_where_a_rank_one_part_is_zero():
    # at alpha_1 = 3/2 the Stirling D_1 = 0: the solve divides by no D_i
    theta = (1.5, 2.0, 3.0)
    assert STIRLING_MODEL.eta_metric_kernel(*theta)[3] == 0.0
    with mpmath.workdps(50):
        velocity, _ = _mp_velocity_and_det(STIRLING_MODEL, theta)
    got = rhs(STIRLING_MODEL, theta)
    assert np.isfinite(got).all()
    assert max(abs(g - v) for g, v in zip(got, velocity)) <= 1e-14 * max(map(abs, velocity))


@pytest.mark.parametrize("model, exponents", [
    (EXACT_MODEL, (-2.0, 2.0)),
    (STIRLING_MODEL, (-3.0, 1.5)),
], ids=["exact", "stirling"])
def test_rhs_and_det_match_mpmath(model, exponents):
    # 400 seeded points lower + 10^U: the velocity, normwise, and the det G
    # that the flow's solve returns and det_closed gives, each within 1e-11
    # of its 50-digit value at the same float point.  Worst measured: the
    # velocity 7.1e-13 exact and 3.9e-14 Stirling, the solve's det 4.3e-13
    # and 3.9e-14, Stirling's den-form det_closed 3.1e-15 (1.8e-13 with the
    # expanded cubic).
    rng = np.random.Generator(np.random.Philox(11))
    with mpmath.workdps(50):
        for theta in model.lower + 10.0 ** rng.uniform(*exponents, (400, 3)):
            velocity, det = _mp_velocity_and_det(model, theta)
            got = rhs(model, theta)
            gap = max(abs(g - v) for g, v in zip(got, velocity))
            assert gap <= 1e-11 * max(map(abs, velocity)), theta
            values = model.eta_metric_kernel(*theta.tolist())
            for got_det in (solve_det(*values[3:], *values[:3])[0], model.det_closed(theta)):
                assert abs(got_det - det) <= 1e-11 * abs(det), theta


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_step_underflow_names_both_tolerances(model):
    # rtol = atol = 0 accepts only a residual of exactly 0, so the step size
    # underflows; the exact flow does so at its first step, while the
    # Stirling hook meets eta0 e^-t to the last bit at a few small steps
    t = r"0\.0" if model is EXACT_MODEL else r"\S+"
    with pytest.raises(StepFailureError,
                       match=rf"^step size underflow at t={t} \(h=.*, rtol=0\.0, atol=0\.0\)$"):
        integrate(model, REFERENCE_STARTS[model], 2.0, rtol=0.0, atol=0.0)


def test_eta_closed():
    assert np.max(np.abs(eta_closed((1.0, 1.0, 1.0), math.log(2.0)) - 0.5)) <= 1e-15
    eta0 = np.array([-0.3, 1.7, 2.9])
    assert np.array_equal(eta_closed(eta0, 0.0), eta0)
    value = eta_closed([-77.0 / 60.0] * 3, 1.0)
    assert np.max(np.abs(value + 0.47211194950335098)) <= 1e-15


def test_eta_closed_returns_finite_or_raises_domain_error():
    # e^800 raised OverflowError, a NaN t gave NaNs, a 2-vector a 2-vector and
    # an inf coordinate an inf
    for eta0, t, message in (
        ((1.0, 2.0, 3.0), -1e6, r"^eta0 e\^-t is not finite at eta0 = \[1\.0, 2\.0, 3\.0\], t = -1000000\.0$"),
        ((1.0, 2.0, 3.0), math.nan, r"t = nan$"),
        ((1.0, 2.0, 3.0), math.inf, r"t = inf$"),
        ((0.0, 2.0, 3.0), -math.inf, r"t = -inf$"),
        ((1e300, 2.0, 3.0), -700.0, r"t = -700\.0$"),
        ((1.0, 2.0), 0.5, r"^eta0 must have exactly 3 components"),
        ((math.inf, 2.0, 3.0), 0.5, r"^eta0 must be finite"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                eta_closed(eta0, t)
    # the last finite scale and an underflow to 0 still return
    assert np.isfinite(eta_closed((1.0, 2.0, 3.0), -700.0)).all()
    assert np.array_equal(eta_closed((1.0, -2.0, 3.0), 1e6), [0.0, -0.0, 0.0])


def test_integrate_t_end_zero():
    traj = integrate(EXACT_MODEL, (2.0, 3.0, 4.0), 0.0)
    assert traj.n_samples == 1
    assert traj.t[0] == 0.0
    assert np.array_equal(traj.theta[0], [2.0, 3.0, 4.0])
    assert traj.status == "completed"


@pytest.mark.parametrize("kwargs", [
    {"t_end": -0.5},
    {"t_end": math.inf},
])
def test_integrate_rejects_bad_arguments(kwargs):
    with pytest.raises(DomainError):
        integrate(EXACT_MODEL, (2.0, 2.0, 2.0), **kwargs)


@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf, -math.inf])
def test_integrate_rejects_tolerances_that_are_not_finite_and_nonnegative(name, value):
    # a negative or infinite tolerance loosened the error test, and a NaN
    # one failed every step
    with pytest.raises(DomainError) as exc:
        integrate(EXACT_MODEL, (2.0, 3.0, 4.0), 2.0, **{name: value})
    assert str(exc.value) == f"{name} must be finite and >= 0, got {value!r}"


def test_integrate_rejects_singular_start():
    with pytest.raises(SingularMatrixError):
        integrate(STIRLING_MODEL, (3.0, 3.0, 3.0), 1.0)


def _assert_singular_start(call):
    # a det that passed the start guard made the step size NaN and the step
    # loop endless, so run it under a timeout
    code = (
        "from betaflow import EXACT_MODEL, SingularMatrixError, integrate\n"
        "try:\n"
        f"    integrate(EXACT_MODEL, {call})\n"
        "except SingularMatrixError:\n"
        "    print('singular')\n"
    )
    src = os.path.dirname(os.path.dirname(betaflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "singular\n", done.stderr


def test_integrate_rejects_a_nan_det_at_the_start():
    # det G overflows to NaN
    _assert_singular_start("(1e-150, 1e-150, 1e-150), 1.0")


def test_integrate_rejects_an_infinite_det_at_the_start():
    # d3 = psi'(c) - psi'(s) rounds to 0, as s == c in floats, so det G is -inf
    _assert_singular_start("(9.149e-98, 2.172e-112, 9.356e-78), 0.05, rtol=1e-6")


def test_trajectory_invariants(exact_trajectory, stirling_trajectory):
    for traj, model in ((exact_trajectory, EXACT_MODEL),
                        (stirling_trajectory, STIRLING_MODEL)):
        assert traj.t[0] == 0.0
        assert np.all(np.diff(traj.t) > 0.0)
        for point in traj.theta:
            assert inside(model.lower, *point)
        assert traj.n_samples == traj.n_accepted + 1
        assert traj.n_rejected >= 0


def test_reference_flows_stop_flagged_at_degeneracy(exact_trajectory,
                                                    stirling_trajectory):
    # both flows reach the edge of the dual image before t = 2
    for traj in (exact_trajectory, stirling_trajectory):
        assert traj.status == "singular"
        assert traj.t[-1] < 2.0
        assert abs(traj.det_g[-1]) < 1e-12
        assert np.all(np.abs(traj.det_g[:-1]) >= 1e-12)


# --- Closed-form oracles: theta(t) = eta^-1(eta0 e^-t) and the exit time ---

def _mp_eta_and_metric(model, theta):
    """eta and G at theta in mpmath's working precision."""
    a = [mpmath.mpf(x) for x in theta]
    s = sum(a)
    if model is EXACT_MODEL:
        eta = [mpmath.digamma(x) - mpmath.digamma(s) for x in a]
        diag, off = [mpmath.psi(1, x) for x in a], -mpmath.psi(1, s)
    else:
        u = [x - 1 for x in a]
        eta = [mpmath.log(s - 1) - mpmath.log(x) - 1 / (2 * x) for x in u]
        diag, off = [-(x - mpmath.mpf(0.5)) / x ** 2 for x in u], 1 / (s - 1)
    metric = mpmath.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            metric[i, j] = off + (diag[i] if i == j else 0)
    return eta, metric


def _escaping_starts(model, lo, hi):
    """Two seeded starts in [lo, hi]^3 whose flows end at the det guard."""
    rng = np.random.Generator(np.random.Philox(53 if model is EXACT_MODEL else 59))
    trajectories = []
    for start in np.exp(rng.uniform(math.log(lo), math.log(hi), (4, 3))):
        traj = integrate(model, start, 2.0, rtol=1e-10, atol=1e-12)
        if traj.status == "singular":
            trajectories.append(traj)
    return trajectories[:2]


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_flow_samples_are_the_closed_form_preimages(model, exact_trajectory,
                                                    stirling_trajectory):
    # From each of seven seeded sample rows and the last one, mpmath solves
    # eta(theta) = eta0 e^-t at 30 digits; the sample is that root to 1e-6
    # relative in theta - lower (worst measured: 2.7e-10 exact and 5.0e-10
    # Stirling with the path follower; 1.2e-9 and 7.5e-8 with DOP853 in w,
    # 7.3e-10 and 5.9e-8 with the 5(4) pair in w, 2.6e-9 and 7.6e-8 in theta,
    # at a last row, where det G is near the guard).  On the Stirling model
    # the root has the sample's branch pattern (u_i above 1/2 or not), and
    # the sign of det G at the start: a flow cannot cross det G = 0.
    reference = exact_trajectory if model is EXACT_MODEL else stirling_trajectory
    box = (0.3, 8.0) if model is EXACT_MODEL else (1.2, 6.0)
    trajectories = [reference] + _escaping_starts(model, *box)
    assert len(trajectories) == 3
    rng = np.random.Generator(np.random.Philox(97))
    with mpmath.workdps(30):
        for traj in trajectories:
            eta0 = _mp_eta_and_metric(model, traj.theta[0])[0]
            rows = set(rng.integers(1, traj.n_samples, 7).tolist()) | {traj.n_samples - 1}
            for i in sorted(rows):
                target = [e * mpmath.exp(-mpmath.mpf(traj.t[i])) for e in eta0]
                root = mpmath.findroot(
                    lambda *x: [e - g for e, g in zip(_mp_eta_and_metric(model, x)[0],
                                                      target)],
                    [mpmath.mpf(x) for x in traj.theta[i]],
                    J=lambda *x: _mp_eta_and_metric(model, x)[1])
                gap = max(abs((x - r) / (r - model.lower))
                          for x, r in zip(traj.theta[i], root))
                assert gap <= 1e-6, (traj.theta[0], i, float(gap))
                if model is STIRLING_MODEL:
                    assert ([x - 1.0 > 0.5 for x in traj.theta[i]]
                            == [r - 1 > 0.5 for r in root]), (traj.theta[0], i)
                    det = mpmath.det(_mp_eta_and_metric(model, root)[1])
                    assert (det > 0) == (traj.det_g[i] > 0) == (traj.det_g[0] > 0), i


@pytest.mark.parametrize("model, start, band", [
    (EXACT_MODEL, (2.0, 3.0, 4.0), 5e-3),
    (STIRLING_MODEL, (2.5, 3.0, 2.0), 1e-4),
    (EXACT_MODEL, (20.0, 30.0, 40.0), 5e-2),
], ids=["exact", "stirling", "exact-x10"])
def test_escaping_flow_stops_just_before_the_exit_time(model, start, band):
    # t* is where eta0 e^-t leaves the dual image: the root of
    # sum exp(eta0_i e^-t) = 1 on the exact model, and of
    # sum exp(-eta0_i e^-t) = 1 over the coordinates on branch 0
    # (u_i >= 1/2) at the escape on the Stirling model.  The det guard stops
    # the flow before t*, by a gap that grows with the scale of the start
    # (measured 2.1e-3, 3.2e-5 and 2.6e-2 of t*).  Starts of scale 200 and
    # up are left out: there the absolute DET_GUARD stops the flow at 0.6 of
    # t* or at the start (ROADMAP item 2).
    traj = integrate(model, start, 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "singular"
    with mpmath.workdps(30):
        if model is EXACT_MODEL:
            coeffs = [mpmath.mpf(e) for e in traj.eta[0]]
        else:
            coeffs = [-mpmath.mpf(e) for e, x in zip(traj.eta[0], traj.theta[-1])
                      if x - 1.0 >= 0.5]
        t_star = mpmath.findroot(
            lambda t: sum(mpmath.exp(c * mpmath.exp(-t)) for c in coeffs) - 1,
            mpmath.mpf(traj.t[-1]))
        gap = float((t_star - traj.t[-1]) / t_star)
    assert 0.0 < gap <= band, (float(t_star), traj.t[-1])


def test_linearization_on_reference_flows(exact_trajectory, stirling_trajectory):
    assert linearization_residual(exact_trajectory) <= 1e-7
    assert linearization_residual(stirling_trajectory) <= 1e-7


def test_linearization_on_random_starts():
    rng = np.random.Generator(np.random.Philox(17))
    for model, lo, hi in ((EXACT_MODEL, 0.5, 5.0), (STIRLING_MODEL, 1.5, 4.0)):
        for _ in range(20):
            start = rng.uniform(lo, hi, size=3)
            traj = integrate(model, start, 2.0, rtol=1e-9)
            assert linearization_residual(traj) <= 1e-6, (model.name, start)


def test_semigroup_property():
    for model, s, t in ((EXACT_MODEL, 0.02, 0.03), (STIRLING_MODEL, 0.1, 0.1)):
        start = {"exact": (2.0, 3.0, 4.0), "stirling": (2.5, 3.0, 2.0)}[model.name]
        full = integrate(model, start, s + t, rtol=1e-10)
        first = integrate(model, start, s, rtol=1e-10)
        second = integrate(model, first.theta_end, t, rtol=1e-10)
        assert full.status == first.status == second.status == "completed"
        assert np.max(np.abs(second.theta_end - full.theta_end)) <= 1e-7


def test_invert_eta_spec_roundtrips():
    theta = invert_eta(STIRLING_MODEL, [math.log(5.0) - 0.5] * 3,
                       guess=(3.0, 3.2, 2.5))
    assert np.max(np.abs(theta - 2.0)) <= 1e-9

    theta = invert_eta(EXACT_MODEL,
                       (-1.7178571429, -1.2178571429, -0.8845238095),
                       guess=(3.0, 3.0, 3.0))
    assert np.max(np.abs(theta - [2.0, 3.0, 4.0])) <= 1e-9


def test_invert_eta_random_roundtrips_exact():
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(50):
        theta = rng.uniform(0.5, 5.0, size=3)
        back = invert_eta(EXACT_MODEL, EXACT_MODEL.eta(theta))
        assert np.max(np.abs(back - theta)) <= 1e-9


def test_invert_eta_random_roundtrips_stirling():
    # box inside the den < 0 sheet, where the default start lands
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(50):
        theta = rng.uniform(1.65, 2.5, size=3)
        back = invert_eta(STIRLING_MODEL, STIRLING_MODEL.eta(theta))
        assert np.max(np.abs(back - theta)) <= 1e-9


def test_invert_eta_rejects_unreachable_target():
    with pytest.raises(DomainError, match="dual image"):
        invert_eta(EXACT_MODEL, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("target", [(-0.1, -0.1, -0.1), (-1.0, -1.0, -1.0)])
def test_invert_eta_rejects_targets_outside_the_exact_dual_image(target):
    # the exact dual image is {sum_i exp(eta_i) < 1}
    with pytest.raises(DomainError, match="dual image"):
        invert_eta(EXACT_MODEL, target)


@pytest.mark.parametrize("target", [(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)])
def test_invert_eta_with_a_guess_skips_the_image_test(target):
    # no start is drawn, so an unreachable target ends in Newton's failure
    with pytest.raises(NoConvergenceError):
        invert_eta(EXACT_MODEL, target, guess=(2.0, 2.0, 2.0))


def test_invert_eta_from_a_guess_where_det_overflows_is_no_convergence():
    # det G is inf there but its cofactors are finite, so the Newton step
    # solves to exactly 0; the unchanged residual must not read as the floor
    with pytest.raises(NoConvergenceError, match="step is zero"):
        invert_eta(EXACT_MODEL, EXACT_MODEL.eta((2.0, 3.0, 4.0)),
                   guess=(1e-145, 1e-6, 1e-5))


def test_invert_eta_near_the_stirling_boundary_stops_at_the_rounding_floor():
    # near a = 1, one ulp of a moves eta_a by more than 1e-12: at a - 1 = 1e-6
    # by 2.2e-10, so no float a meets a target halfway between two of them
    target = STIRLING_MODEL.eta((1.000001, 3.0, 2.0)) + (1.1e-10, 0.0, 0.0)
    back = invert_eta(STIRLING_MODEL, target)
    assert np.max(np.abs(STIRLING_MODEL.eta(back) - target)) > 1e-12
    assert rounding_floor_ratio(STIRLING_MODEL, back, target) <= 1.0


def test_invert_eta_from_a_guess_short_of_the_floor_reaches_it():
    # the guess is short of the floor in eta_2 and eta_3, whose floors are far
    # below eta_1's; the next full step lowers those two but raises eta_1
    # within its own floor, so a stop rule that compares the largest residual
    # components would keep the guess, at 9.87 times the floor
    target = STIRLING_MODEL.eta((1.0012761420282155, 2.234130123822429, 1.326522913613314))
    guess = (1.001271040236109, 9.367968342264263, 7.728650446704136)
    back = invert_eta(STIRLING_MODEL, target, guess=guess)
    assert rounding_floor_ratio(STIRLING_MODEL, back, target) <= 1.0


@pytest.mark.parametrize("model, seed, exponents, n", [
    (EXACT_MODEL, 5, (-6.0, 6.0), 500),
    (STIRLING_MODEL, 11, (-4.0, 3.0), 600),
])
def test_invert_eta_roundtrips_to_the_rounding_floor(model, seed, exponents, n):
    # theta - lower is log-uniform over 10^exponents; an absolute 1e-12
    # failed 25 of these exact and 58 of these Stirling targets
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(n):
        theta = model.lower + 10.0 ** rng.uniform(*exponents, 3)
        target = model.eta(theta)
        back = invert_eta(model, target)
        assert rounding_floor_ratio(model, back, target) <= 1.0, theta.tolist()


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_inversion_start_checks_its_target(model):
    # a list raised AttributeError and a 2-vector ValueError; a NaN target
    # gave Stirling the point (1.5, 1.181, 1.181)
    target = model.eta((2.5, 3.0, 2.0))
    assert np.array_equal(model.inversion_start(target.tolist()), model.inversion_start(target))
    with pytest.raises(DomainError, match=r"^target must have exactly 3 components, got shape \(2,\)$"):
        model.inversion_start(target[:2])
    for bad in ((math.nan, -1.0, -2.0), (-1.0, math.inf, -2.0), (-1.0, -2.0, -math.inf)):
        with pytest.raises(DomainError, match=r"^target must be finite, got "):
            model.inversion_start(np.array(bad))


def test_exact_inversion_start_lands_in_domain():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(200):
        theta = 10.0 ** rng.uniform(-6, 6, 3)
        start = EXACT_MODEL.inversion_start(EXACT_MODEL.eta(theta))
        assert inside(EXACT_MODEL.lower, *start)
        if theta.min() >= 1.0:
            # psi(x) ~ ln(x - 1/2) is off by O(1/x^2), so the start is near
            assert np.max(np.abs(start - theta) / theta) <= 0.15


@pytest.mark.parametrize("theta", [
    (0.07841161329637725, 3.8568287863026125, 3.090419140548928),
    (4.754882201531671, 3.2391817274790826, 0.0021838464312864403),
])
def test_invert_eta_solves_regular_ill_conditioned_jacobians(theta):
    # invert3's relative singularity threshold rejected these Jacobians
    target = EXACT_MODEL.eta(theta)
    back = invert_eta(EXACT_MODEL, target)
    assert np.max(np.abs(EXACT_MODEL.eta(back) - target)) <= 1e-12


def test_invert_eta_rejects_guess_outside_domain():
    with pytest.raises(DomainError):
        invert_eta(EXACT_MODEL, (-1.0, -1.0, -1.0), guess=(0.0, 2.0, 2.0))


def test_invert_eta_iteration_budget(monkeypatch):
    monkeypatch.setattr(betaflow.flow, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError):
        invert_eta(EXACT_MODEL, EXACT_MODEL.eta((4.0, 0.7, 2.0)))


class _HookModel(Model):
    """Test-only model with the domain and hooks of ``model``, which it
    forwards the rest of the model interface to.  Its ``eta`` and ``metric``
    are ``Model``'s, made from whatever hooks a subclass puts in place."""

    def __init__(self, model):
        self._model = model
        self.name, self.lower = model.name, model.lower
        self.domain_description = model.domain_description

    def __getattr__(self, attr):
        return getattr(self._model, attr)


class _PlaneModel(_HookModel):
    """Replaces the eta part or the G part of ``eta_metric_kernel`` past the
    plane a = PLANE, which both reference flows cross before t = 0.2."""

    PLANE = 3.0

    def __init__(self, model, part, past_plane):
        super().__init__(model)
        inner = model.eta_metric_kernel

        def replaced(a, b, c):
            values = inner(a, b, c)
            if a < self.PLANE:
                return values
            if part == "eta":
                return past_plane(model, a, b, c) + values[3:]
            return values[:3] + past_plane(model, a, b, c)

        self.eta_metric_kernel = replaced

    def eta(self, theta):
        # the hook's eta part with no finiteness test, so the flow's stages
        # and the array reference both see a NaN eta part as a NaN eta
        return np.array(self.eta_metric_kernel(*self.check_domain(theta).tolist())[:3])


def _past_the_plane(model, a, b, c):
    raise DomainError(f"{[a, b, c]} lies past the plane")


def _eta_jump(model, a, b, c):
    return tuple(1e6 * e for e in model.eta_metric_kernel(a, b, c)[:3])


REFERENCE_STARTS = {EXACT_MODEL: (2.0, 3.0, 4.0), STIRLING_MODEL: (2.5, 3.0, 2.0)}


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("part, past_plane, status", [
    # the domain ends at the plane
    ("metric", _past_the_plane, "left_domain"),
    # G overflows past the plane, as the exact G does below 1.5e-162: the
    # corrector takes such a point as outside the domain
    ("metric", lambda model, a, b, c: (math.inf,) * 4, "left_domain"),
    # a NaN residual makes the Newton step NaN: no point left the domain,
    # so that is a plain Newton failure and the underflow raises
    ("eta", lambda model, a, b, c: (math.nan,) * 3, None),
    # det G is exactly 0 past the plane, so every iterate there is singular
    ("metric", lambda model, a, b, c: (0.0,) * 4, "singular"),
], ids=["narrow-domain", "overflowing-metric", "nan-eta", "singular-metric"])
def test_step_underflow_status_follows_the_failed_stage(model, part, past_plane, status):
    counting = _CountingModel(model)
    wrapped = _PlaneModel(counting, part, past_plane)
    if status is None:
        with pytest.raises(StepFailureError, match="step size underflow"):
            integrate(wrapped, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)
        return
    traj = integrate(wrapped, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == status
    assert traj.n_rejected > 0
    # stopped by the step underflow just short of the plane, not by the det guard
    assert 0.0 < _PlaneModel.PLANE - traj.theta_end[0] <= 1e-9
    assert abs(traj.det_g[-1]) >= 1e-12
    assert traj.t[-1] < 2.0
    # each corrector iterate calls the hook once, the failed ones included,
    # and the start sample adds one call
    assert counting.calls["eta_metric_kernel"] == traj.n_rhs + 1


def test_the_corrector_stops_where_an_iterate_rounds_onto_the_bound():
    # The first call's step takes w_1 from 1.5 2^52 to 3.525 2^52, where
    # 1 + 1/w_1 rounds to 1: that iterate is on the bound, where the
    # Stirling hook raises a bare ValueError (math domain error).
    calls = []

    def stub(a, b, c):
        calls.append((a, b, c))
        if len(calls) == 1:
            # eta - target = (0.9 (a - 1), 0, 0) with G = I
            return (0.9 * (a - 1.0), 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        return STIRLING_MODEL.eta_metric_kernel(a, b, c)

    got = betaflow.flow._correct(stub, 1.0, [1.5 * 2**52, 1.0, 0.5], (0, 0, 0), 1e-30, True)
    assert got == (1, None, "left_domain")
    assert calls == [(1.0 + 2**-52, 2.0, 3.0)]


@pytest.mark.parametrize("w", [(math.inf, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, -math.inf)])
def test_the_corrector_gives_up_on_a_prediction_that_is_not_finite(w):
    # no hook call, and no status: a step underflow after it raises
    def hook(a, b, c):
        raise AssertionError("the hook was called")

    assert betaflow.flow._correct(hook, 1.0, w, (0.0, 0.0, 0.0), 1e-12, True) == (0, None, None)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_step_underflow_after_error_test_rejections_raises(model):
    # eta jumps by a factor 1e6 past the plane: every step that reaches the
    # plane diverges in Newton, down to the smallest step size
    wrapped = _PlaneModel(model, "eta", _eta_jump)
    with pytest.raises(StepFailureError, match="step size underflow"):
        integrate(wrapped, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("point", [
    (math.nan, 2.0, 2.0), (2.0, math.inf, 2.0), (2.0, 2.0, -math.inf),
    (0.0, 2.0, 2.0), (2.0, -3.0, 2.0),
])
def test_rhs_rejects_points_outside_the_domain(model, point):
    with pytest.raises(DomainError):
        rhs(model, point)


# --- The DOP853 literals against the method ---------------------------------

# DOP853, the Dormand-Prince 8(5,3) pair of ``_reference_integrate``, with the
# coefficients of Hairer's dop853 (Hairer, Norsett and Wanner, Solving ODEs I,
# II.5 and II.10).  Each row lists the nonzero entries of one stage as (column, coefficient): rows
# 2 to 12 of A, then the weights b, whose stage point is the step result and
# whose slope is the next step's first stage.
_ROWS = (
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2)),
)
# The weights (column, e5, e3) of the fifth- and third-order error estimates;
# e3 is b less dop853's bhh, whose weights sit on stages 1, 9 and 12.
_E = (
    (0, 1.312004499419488073250102996e-2, -1.898007540724076157147023288757e-1),
    (5, -1.225156446376204440720569753, 4.45031289275240888144113950566),
    (6, -4.957589496572501915214079952e-1, 1.89151789931450038304281599044),
    (7, 1.664377182454986536961530415, -5.8012039600105847814672114227),
    (8, -3.503288487499736816886487290e-1, -4.22682321323791962932445679177e-1),
    (9, 3.341791187130174790297318841e-1, -1.52160949662516078556178806805e-1),
    (10, 8.192320648511571246570742613e-2, 2.01365400804030348374776537501e-1),
    (11, -2.235530786388629525884427845e-2, 2.26517921983608258118062039631e-2),
)


def _dop853_nodes():
    """c_1..c_12 of DOP853 in closed form, at mpmath's precision; the step
    result, the last row, sits at c = 1."""
    r6 = mpmath.sqrt(6)
    return [mpmath.mpf(0), 2 * (6 - r6) / 135, (6 - r6) / 45, (6 - r6) / 30, (6 + r6) / 30,
            mpmath.mpf(1) / 3, mpmath.mpf(1) / 4, mpmath.mpf(4) / 13, mpmath.mpf(127) / 195,
            mpmath.mpf(3) / 5, mpmath.mpf(6) / 7, mpmath.mpf(1), mpmath.mpf(1)]


def _dop853_step(h):
    """One step of y' = -y^2 from y(0) = 1, at 40 digits with the float
    literals taken exactly: the local error against 1/(1 + h), and the two
    error estimates h sum(e5 k) and h sum(e3 k)."""
    h = mpmath.mpf(h)
    k = [mpmath.mpf(-1)]
    for row in _ROWS:
        point = 1 + h * mpmath.fsum(a * k[j] for j, a in row)
        k.append(-point * point)
    return (point - 1 / (1 + h), h * mpmath.fsum(e5 * k[j] for j, e5, _ in _E),
            h * mpmath.fsum(e3 * k[j] for j, _, e3 in _E))


def test_dop853_literals_satisfy_the_method():
    # each literal is its 30-digit value rounded to the nearest float, so a
    # sum of literals taken exactly is off by at most half an ulp of each
    def half_ulps(terms, weights=None):
        weights = [1] * len(terms) if weights is None else weights
        return sum(math.ulp(x) * w for x, w in zip(terms, weights)) / 2

    with mpmath.workdps(40):
        c = _dop853_nodes()
        assert len(_ROWS) == 12
        for i, row in enumerate(_ROWS, start=1):
            columns, a = zip(*row)
            assert list(columns) == sorted(set(columns)) and columns[-1] < i
            assert abs(mpmath.fsum(a) - c[i]) <= half_ulps(a), i
        columns, b = zip(*_ROWS[-1])
        for q in range(1, 9):
            powers = [c[j] ** (q - 1) for j in columns]
            got = mpmath.fsum(bj * p for bj, p in zip(b, powers))
            assert abs(got - mpmath.mpf(1) / q) <= half_ulps(b, powers), q
        for weights in ([e5 for _, e5, _ in _E], [e3 for _, _, e3 in _E]):
            assert abs(mpmath.fsum(weights)) <= half_ulps(weights)
        # halving h shrinks the local error by about 2^9, e5 by 2^6 and e3
        # by 2^4; at h = 0.1 the next order still pulls each a little low
        (err, e5, e3), (err2, e52, e32) = _dop853_step(0.1), _dop853_step(0.05)
        assert 8.4 <= mpmath.log(abs(err / err2), 2) <= 9.2
        assert 5.6 <= mpmath.log(abs(e5 / e52), 2) <= 6.2
        assert 3.6 <= mpmath.log(abs(e3 / e32), 2) <= 4.2


# --- Agreement oracle: the follower against a numpy DOP853 -----------------

def _reference_parts(model, theta):
    """The hook's seven values at theta, once the checked ``metric`` has
    tested G for finiteness."""
    model.metric(theta)
    return model.eta_metric_kernel(*np.asarray(theta, dtype=float).tolist())


def _reference_rhs(model, theta):
    # eta as the hook gives it: a NaN eta part gives a NaN velocity, as in rhs
    model.check_domain(theta)
    values = _reference_parts(model, theta)
    return -rank_one_solve(values[3:], values[:3])[1]


def _reference_stage(model, w):
    """The w-velocity w^2 G^{-1} eta at theta = lower + 1/w, through
    ``_reference_rhs``, and theta; a w that is not > 0, or whose theta is
    outside the domain, raises DomainError."""
    if (w > 0.0).all():
        theta = model.lower + 1.0 / w
        if inside(model.lower, *theta):
            return -(w * w) * _reference_rhs(model, theta), theta
    raise DomainError(f"w = {w.tolist()!r} maps outside the {model.name} domain")


def _reference_integrate(model, theta0, t_end, rtol, atol, stops=()):
    """An independent solution of the flow: the DOP853 loop in
    w = 1/(theta - lower) on numpy arrays, every stage recomputed through
    the model, with Gustafsson's predictive step control and its error
    ratio over atol + rtol max(|w|, |w_new|).  Each step is cut to land on
    the next of ``stops`` below t_end, and then on t_end, so the samples
    hold each of those times the flow reaches.  Returns the t and theta
    columns and the status, which follows the rules ``integrate`` had as a
    DOP853 (a step underflow after a failed error test raises
    StepFailureError)."""
    y = model.check_domain(theta0)
    samples = [(0.0, y)]
    if not DET_GUARD <= abs(rank_one_adjugate(_reference_parts(model, y)[3:])[0]) < math.inf:
        raise SingularMatrixError(
            f"metric is numerically singular at the start point {y.tolist()}"
        )
    pending = sorted({s for s in stops if 0.0 < s < t_end}) + [t_end]
    status = "completed"
    y = 1.0 / (y - model.lower)
    k1 = _reference_stage(model, y)[0]
    h = 1e-2 / (1.0 + float(np.max(np.abs(k1))))
    t = 0.0
    err_prev = h_prev = None
    rejected = False
    underflow_status = None
    while t < t_end:
        # the floor tests the controller's step, not its cut to a stop
        if not h >= 1e-13 * max(1.0, t):
            if underflow_status is None:
                raise StepFailureError(f"step size underflow at t={t!r} (h={h!r},"
                                       f" rtol={rtol!r}, atol={atol!r})")
            status = underflow_status
            break
        # dop853's LAST flag: a step cut to a stop ends on it once accepted;
        # after a stop the controller goes on from the step it had proposed
        proposed = h
        last_step = h >= pending[0] - t
        if last_step:
            h = pending[0] - t
        failed, shrink = None, 0.5
        try:
            k = [k1]
            # the nonzero entries of each row, left to right
            for row in _ROWS:
                point = y + h * sum(a * k[j] for j, a in row)
                ki, theta = _reference_stage(model, point)
                k.append(ki)
        except DomainError:
            failed = "left_domain" if np.isfinite(point).all() else None
        except SingularMatrixError:
            failed = "singular"
        else:
            y_new = point
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            n5 = float(np.sum((sum(e5 * k[j] for j, e5, _ in _E) / scale) ** 2))
            n3 = float(np.sum((sum(e3 * k[j] for j, _, e3 in _E) / scale) ** 2))
            den = (n5 + 0.01 * n3) * 3
            if 0.0 < den < math.inf:
                err = h * n5 / math.sqrt(den)
                shrink = max(1 / 3, 0.9 * err ** -0.125) if err > 1.0 else None
            elif den == 0.0:
                err, shrink = 0.0, None
        if shrink is not None:
            underflow_status = failed
            rejected = True
            h *= shrink
            continue
        t = pending[0] if last_step else t + h
        # a step can also end on a stop without a cut
        while pending and pending[0] <= t:
            pending.pop(0)
        y = y_new
        k1 = k[-1]
        samples.append((t, theta))
        if abs(rank_one_adjugate(_reference_parts(model, theta)[3:])[0]) < DET_GUARD:
            status = "singular"
            break
        if err == 0.0:
            fac = 6.0
        else:
            fac = 0.9 * err ** -0.125
            if err_prev:
                fac *= h / h_prev * (err_prev / err) ** 0.125
            fac = min(6.0, max(1 / 3, fac))
        if rejected:
            fac = min(1.0, fac)
        err_prev, h_prev, rejected = err, h, False
        h = max(h * fac, proposed) if last_step else h * fac
    return [np.array([s[i] for s in samples]) for i in range(2)], status


# Bounds on the theta gap to the reference, relative in theta - lower.  The
# worst measured over the tests below are 2.4e-8 at rtol 1e-10, 1.3e-8 at
# 1e-9 and 4.1e-4 at 1e-6.  The worst gaps sit at last samples, where det G
# is near the guard and the reference's own error is largest.  At 1e-6 the
# worst is an exact start near the edge: there the follower's samples lie
# within 6e-10 of the mpmath roots, the reference's last one 4.1e-4 off.
_AGREEMENT = {1e-10: 1e-7, 1e-9: 1e-6, 1e-6: 1e-3}


def _assert_agrees_with_reference(model, start, rtol, atol=1e-12, t_end=2.0):
    """``integrate`` against ``_reference_integrate`` run to each of its
    sample times: the same status, or the same error type, and theta - lower
    within ``_AGREEMENT[rtol]`` relative at every sample time both reach.
    Returns the worst gap, or None where both raised."""
    try:
        traj = integrate(model, start, t_end, rtol=rtol, atol=atol)
    except BetaflowError as exc:
        with pytest.raises(type(exc)):
            _reference_integrate(model, start, t_end, rtol, atol)
        return None
    (times, thetas), status = _reference_integrate(
        model, start, t_end, rtol, atol, stops=traj.t.tolist())
    assert traj.status == status
    reference = dict(zip(times.tolist(), thetas))
    # the reference lands on each sample time up to where it stops, which
    # may be a sample short of the follower's stop
    common = [(theta, reference[t]) for t, theta in zip(traj.t.tolist(), traj.theta)
              if t <= times[-1]]
    assert len(common) >= min(traj.n_samples - 1, 2)
    gap = max(float(np.max(np.abs(got - want) / (want - model.lower))) for got, want in common)
    assert gap <= _AGREEMENT[rtol], (start, gap)
    return gap


def _seeded_starts(seed, model, n, spread):
    """Starts at log-uniform offsets in ``spread`` above the model's lower
    bound."""
    rng = np.random.Generator(np.random.Philox(seed))
    lo, hi = spread
    offsets = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, 3)))
    return [model.lower + o for o in offsets]


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_integrate_matches_array_reference_on_seeded_starts(model):
    for start in _seeded_starts(41, model, 4, (0.2, 6.0)):
        _assert_agrees_with_reference(model, start, 1e-10)


def test_integrate_matches_array_reference_where_lax_pair_fails_at_the_start():
    # eta1 < 0 < eta3 at (1.1, 3, 3), so every lax_dev is NaN
    traj = integrate(STIRLING_MODEL, (1.1, 3.0, 3.0), 2.0, rtol=1e-10)
    assert np.isnan(traj.lax_dev).all() and np.isfinite(traj.hamiltonian).all()
    _assert_agrees_with_reference(STIRLING_MODEL, (1.1, 3.0, 3.0), 1e-10)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_integrate_matches_array_reference_near_the_edge(model):
    for start in _seeded_starts(43, model, 6, (1e-4, 3.0)):
        _assert_agrees_with_reference(model, start, 1e-6)


# Stirling starts whose flows run into V (den = 0), a fold of the curve
# eta(theta) = eta0 e^-t: the two of seed 59 to four digits and in full, one
# of seed 22, one of seed 407, and perfbench `flows` seed 959 op 1 and seed 41
# (32 rounds) op 61.
V_STARTS = [
    (2.20550570361822, 2.156186956067869, 2.1522011809246444),
    (2.6073420654507053, 2.5819107642040646, 2.608277530409578),
    (1.7436347280273594, 1.7266277918757336, 1.744260311149253),
    (2.6073, 2.5819, 2.6083),
    (1.7436, 1.7266, 1.7443),
    (1.5136648497875413, 1.5059945198571656, 1.6018070769299622),
    (1.50939106567602, 1.5460280989384385, 1.5553219044421938),
    (1.6581726240897792, 1.6092496703583663, 1.626574124848112),
]


@functools.cache
def _v_time(start):
    """The time at which the reference DOP853 raises at V, at rtol 1e-10:
    every step near V fails its error test, down to the smallest step."""
    with pytest.raises(StepFailureError) as exc:
        _reference_integrate(STIRLING_MODEL, start, 2.0, 1e-10, 1e-12)
    return float(re.match(r"step size underflow at t=(\S+) ", str(exc.value))[1])


@pytest.mark.parametrize("start", V_STARTS)
def test_integrate_matches_array_reference_into_the_degeneracy_surface(start):
    # the follower ends "singular" where the reference raises: each step past
    # the fold is rejected, down to the smallest step, as its Newton iterate
    # crosses det G = 0 or cannot converge.  It stops within 1e-6 of the
    # reference's time (worst measured 1.8e-10), with det G near 1e-8, and
    # agrees with the reference up to 1e-8 of that time (worst 6.7e-8 in
    # theta - 1; closer to the fold theta moves as sqrt(t_V - t), and the
    # gap with it)
    t_v = _v_time(start)
    traj = integrate(STIRLING_MODEL, start, 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "singular"
    assert abs(traj.t[-1] / t_v - 1.0) <= 1e-6
    assert 1e-10 < traj.det_g[-1] < 1e-6
    times = [t for t in traj.t.tolist() if t <= (1.0 - 1e-8) * t_v]
    (got_times, thetas), _ = _reference_integrate(
        STIRLING_MODEL, start, times[-1], 1e-10, 1e-12, stops=times)
    reference = dict(zip(got_times.tolist(), thetas))
    for t, theta in zip(times, traj.theta):
        gap = np.max(np.abs(theta - reference[t]) / (reference[t] - 1.0))
        assert gap <= 1e-6, (t, gap)


@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
def test_v_starts_end_singular_at_looser_tolerances(rtol):
    # a sample needs Newton to converge, not only the residual bound, so a
    # loose rtol does not carry the flow past the fold (worst measured
    # 1.8e-10 of the reference's time at rtol 1e-6 and 1e-9)
    for start in V_STARTS:
        traj = integrate(STIRLING_MODEL, start, 2.0, rtol=rtol, atol=1e-12)
        assert traj.status == "singular", start
        assert abs(traj.t[-1] / _v_time(start) - 1.0) <= 1e-6, start


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("part, past_plane", [
    ("metric", _past_the_plane),
    ("metric", lambda model, a, b, c: (math.inf,) * 4),
    ("eta", lambda model, a, b, c: (math.nan,) * 3),
    ("metric", lambda model, a, b, c: (0.0,) * 4),
    ("eta", _eta_jump),
], ids=["narrow-domain", "overflowing-metric", "nan-eta", "singular-metric", "eta-jump"])
def test_integrate_matches_array_reference_on_plane_models(model, part, past_plane):
    _assert_agrees_with_reference(_PlaneModel(model, part, past_plane),
                                  REFERENCE_STARTS[model], 1e-10)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_integrate_matches_array_reference_at_zero_tolerance(model):
    # rtol = atol = 0: the follower accepts only a residual of exactly 0 and
    # the reference's error ratios are inf; both step sizes underflow
    with np.errstate(all="ignore"):
        assert _assert_agrees_with_reference(model, REFERENCE_STARTS[model], 0.0,
                                             atol=0.0) is None


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_every_sample_meets_its_residual_bound_with_the_hooks_own_values(model):
    # eta(theta_i) against eta0 e^-t_i within atol + rtol max|eta0 e^-t_i|, the
    # eta column the hook's eta at theta_i, det_g its rank-one det, and the
    # invariant columns those of the eta column, all bit for bit
    for start in [REFERENCE_STARTS[model]] + _seeded_starts(41, model, 4, (0.2, 6.0)):
        for rtol, atol in ((1e-10, 1e-12), (1e-6, 1e-12), (1e-3, 1e-9)):
            traj = integrate(model, start, 2.0, rtol=rtol, atol=atol)
            for t, theta, eta in zip(traj.t, traj.theta, traj.eta):
                target = eta_closed(traj.eta[0], t)
                assert np.max(np.abs(eta - target)) <= atol + rtol * np.max(np.abs(target))
                values = model.eta_metric_kernel(*theta.tolist())
                assert eta.tobytes() == np.array(values[:3]).tobytes()
            dets = [rank_one_adjugate(model.eta_metric_kernel(*p.tolist())[3:])[0]
                    for p in traj.theta]
            assert np.array(dets).tobytes() == traj.det_g.tobytes()
            ham, dev = invariant_columns(traj.eta)
            assert ham.tobytes() == traj.hamiltonian.tobytes()
            assert dev.tobytes() == traj.lax_dev.tobytes()


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_a_flow_that_spends_its_step_budget_raises(model, monkeypatch):
    # the budget counts tried steps, accepted or rejected: a flow that tries
    # n steps completes with a budget of n and raises with n - 1
    start = REFERENCE_STARTS[model]
    traj = integrate(model, start, 0.05, rtol=1e-10)
    tried = traj.n_accepted + traj.n_rejected
    monkeypatch.setattr(betaflow.flow, "_MAX_STEPS", tried)
    assert integrate(model, start, 0.05, rtol=1e-10).t.tobytes() == traj.t.tobytes()
    monkeypatch.setattr(betaflow.flow, "_MAX_STEPS", tried - 1)
    with pytest.raises(StepFailureError, match=rf"^step budget of {tried - 1} tried steps"
                                               r" spent at t=\S+ \(rtol=1e-10, atol=1e-12\)$"):
        integrate(model, start, 0.05, rtol=1e-10)


# eta vanishes at the Stirling point (THETA_REST,) * 3, up to 9e-16, so flows
# next to it are nearly at rest and each step is 6 times the one before
THETA_REST = 1.192809551794941


@pytest.mark.parametrize("start, t_end, short", [
    # the last step starts where t + (t_end - t) rounds one ulp short of t_end
    ((1.192955683481544, 1.1928779727308505, 1.1926646998922221), 0.9673635624701832, True),
    # ... or one ulp past it
    ((1.1915245765333946, 1.191761168141692, 1.1932742800673932), 0.31963507197667024, False),
], ids=["short-of-t_end", "past-t_end"])
def test_the_last_step_lands_on_t_end(start, t_end, short):
    traj = integrate(STIRLING_MODEL, start, t_end)
    assert (traj.status, traj.t[-1]) == ("completed", t_end)
    t = float(traj.t[-2])
    assert t + (t_end - t) != t_end and (t + (t_end - t) < t_end) == short
    _assert_agrees_with_reference(STIRLING_MODEL, start, 1e-9, t_end=t_end)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("t_end", [1e-14, 1e-300, 5e-324])
def test_a_t_end_below_the_step_floor_is_reached(model, t_end):
    # the underflow floor, 1e-13 max(1, t), judges the controller's step, not
    # its cut to t_end: one step cut below the floor lands on t_end
    traj = integrate(model, REFERENCE_STARTS[model], t_end, rtol=1e-10)
    assert (traj.status, traj.n_samples, traj.t[-1]) == ("completed", 2, t_end)
    _assert_agrees_with_reference(model, REFERENCE_STARTS[model], 1e-10, t_end=t_end)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_a_t_end_just_past_a_sample_is_reached(model):
    # t_end is t[k] + delta with delta below the floor.  Most often the flow
    # repeats the reference flow to t[k] and then takes one step cut to delta;
    # where an earlier rejected try reached past t_end, its cut lands there
    # sooner
    start = REFERENCE_STARTS[model]
    ref = integrate(model, start, 2.0, rtol=1e-10)
    for k in (1, ref.n_samples // 2, ref.n_samples - 2):
        for delta in (5e-14, 1e-15):
            t_end = float(ref.t[k]) + delta
            traj = integrate(model, start, t_end, rtol=1e-10)
            assert (traj.status, traj.t[-1]) == ("completed", t_end)
            assert traj.n_samples <= k + 2
            _assert_agrees_with_reference(model, start, 1e-10, t_end=t_end)


def test_the_stirling_flow_reaches_a_t_end_5e_14_past_its_fourth_sample():
    traj = integrate(STIRLING_MODEL, (2.5, 3.0, 2.0), 0.005566754252134288)
    assert (traj.status, traj.n_samples, traj.n_rejected, traj.n_rhs) == ("completed", 5, 0, 8)
    assert traj.t[-1] == 0.005566754252134288
    _assert_agrees_with_reference(STIRLING_MODEL, (2.5, 3.0, 2.0), 1e-9,
                                  t_end=0.005566754252134288)


def test_flows_next_to_the_stirling_rest_point_end_on_t_end():
    # on about one of these flows in thirty, t + (t_end - t) rounds one ulp
    # off t_end, so the last step must set t = t_end itself
    rng = np.random.Generator(np.random.Philox(4))
    starts = THETA_REST + rng.normal(0.0, 1e-4, (4000, 3))
    for start, t_end in zip(starts, 10.0 ** rng.uniform(-1.5, 1.5, 4000)):
        traj = integrate(STIRLING_MODEL, start, t_end)
        assert (traj.status, traj.t[-1]) == ("completed", t_end), (start.tolist(), t_end)


class _RestModel(_HookModel):
    """``model`` with eta = 0 everywhere, so every slope of the flow is 0."""

    def __init__(self, model):
        super().__init__(model)
        inner = model.eta_metric_kernel
        self.eta_metric_kernel = lambda a, b, c: (0.0, 0.0, 0.0) + inner(a, b, c)[3:]


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_a_flow_at_rest_grows_each_step_sixfold(model):
    # every residual is exactly 0 and every prediction right to rounding:
    # each step is accepted at its first hook call and the next one 6 times
    # longer, until the last is cut to land on t_end
    rest = _RestModel(model)
    traj = integrate(rest, REFERENCE_STARTS[model], 2.0, rtol=1e-10)
    assert (traj.status, traj.n_rejected, traj.t[-1]) == ("completed", 0, 2.0)
    assert traj.n_rhs == traj.n_accepted
    steps = np.diff(traj.t)
    assert len(steps) >= 3 and steps[-1] <= 6.0 * steps[-2]
    assert np.allclose(steps[1:-1] / steps[:-2], 6.0, rtol=1e-12, atol=0.0)
    # w = 1/(theta - lower) is constant, so theta stays at the start, to
    # the rounding of lower + 1/w
    assert (np.abs(traj.theta - traj.theta[0]) <= 2.0 * np.spacing(traj.theta[0])).all()
    _assert_agrees_with_reference(rest, REFERENCE_STARTS[model], 1e-10)


@pytest.mark.parametrize("name", FUZZ_MODELS)
def test_rhs_matches_array_reference_on_fuzz_points(name):
    # the reference raises DomainError where its velocity is not finite, as
    # rhs does; every other outcome is compared bit for bit
    model = FUZZ_MODELS[name]

    def reference(model, theta):
        return check_finite(_reference_rhs(model, theta), "flow velocity", theta)

    with np.errstate(all="ignore"):
        for theta in fuzz_points(name):
            assert _outcome(rhs, model, theta) == _outcome(reference, model, theta), theta


@pytest.mark.parametrize("name", FUZZ_MODELS)
def test_eta_and_metric_are_the_checked_kernels_on_fuzz_points(name):
    # eta passes its part of eta_metric_kernel on as it is and metric adds
    # o to each D_i, or each raises DomainError where a float of its part is
    # not finite
    model = FUZZ_MODELS[name]
    for theta in fuzz_points(name):
        if not inside(model.lower, *theta):
            continue
        values = model.eta_metric_kernel(*theta)
        eta = np.array(values[:3])
        eta = eta.tobytes() if np.isfinite(eta).all() else DomainError
        assert _outcome(lambda m, p: m.eta(p), model, theta) == eta, theta
        d1, d2, d3, o = values[3:]
        metric = np.array([d1 + o, d2 + o, d3 + o, o, o, o])
        metric = metric.tobytes() if np.isfinite(metric).all() else DomainError
        assert _outcome(lambda m, p: m.metric(p), model, theta) == metric, theta


# --- Equality oracle: the Newton inversion on floats against numpy arrays ---

def _reference_invert_eta(model, target, guess=None):
    """The Newton loop on numpy arrays, every residual and Jacobian taken
    through the checked ``eta`` and ``metric``; ``invert_eta`` must match it
    bit for bit, and raise the same error with the same message."""
    target = as_point(target, "target")
    if guess is not None:
        theta = model.check_domain(guess)
    else:
        theta = model.inversion_start(target)
    for _ in range(betaflow.flow._NEWTON_MAX_ITER):
        residual = model.eta(theta) - target
        if float(np.max(np.abs(residual))) <= 1e-12:
            return theta
        try:
            step = rank_one_solve(_reference_parts(model, theta)[3:], -residual)[1]
        except SingularMatrixError as exc:
            raise NoConvergenceError(
                f"Newton Jacobian is singular at {theta.tolist()}"
            ) from exc
        if not step.any():
            raise NoConvergenceError(f"Newton step is zero at {theta.tolist()}")
        lam = 1.0
        while not inside(model.lower, *(theta + lam * step)):
            lam *= 0.5
            if lam < 2.0 ** -60:
                raise NoConvergenceError(f"backtracking stalled at {theta.tolist()}")
        small = lam == 1.0 and (np.abs(step) <= 2.0 ** -26 * (theta - model.lower)).all()
        theta = theta + lam * step
        if small:
            # a full step below 2^-26 (theta - lower) reaches the rounding floor
            return theta
    raise NoConvergenceError(
        f"eta inversion did not converge in {betaflow.flow._NEWTON_MAX_ITER} steps"
    )


def _inversion_outcome(invert, model, target, guess):
    """The result's bytes, or the type and message of the error raised."""
    try:
        return np.asarray(invert(model, target, guess)).tobytes()
    except BetaflowError as exc:
        return type(exc), str(exc)


def _assert_same_inversions(model, targets, guesses):
    for target, guess in zip(targets, guesses):
        want = _inversion_outcome(_reference_invert_eta, model, target, guess)
        assert _inversion_outcome(invert_eta, model, target, guess) == want, (target, guess)


def test_invert_eta_matches_array_reference_on_seeded_targets():
    # theta -> eta -> invert_eta, one exact point of (0, 6]^3 to four
    # Stirling points of (1, 6]^3
    rng = np.random.Generator(np.random.Philox(79))
    for model, n in ((EXACT_MODEL, 150), (STIRLING_MODEL, 600)):
        targets = [model.eta(p) for p in rng.uniform(model.lower, 6.0, (n, 3))]
        _assert_same_inversions(model, targets, [None] * n)


@pytest.mark.parametrize("name", FUZZ_MODELS)
def test_invert_eta_matches_array_reference_on_fuzz_targets(name):
    targets = fuzz_targets(name)
    _assert_same_inversions(FUZZ_MODELS[name], targets, [None] * len(targets))


def test_invert_eta_matches_array_reference_from_tiny_guesses():
    _assert_same_inversions(EXACT_MODEL, *_tiny_guesses())


@pytest.mark.parametrize("guess", [
    (1e-170, 2.0, 3.0), (1e-300, 1e-300, 1e-300), (1e-200, 0.5, 0.5),
])
def test_invert_eta_returns_a_solved_guess_where_the_metric_overflows(guess):
    # G overflows where a coordinate is below 1.5e-162, but eta is finite
    # there and already on target
    target = EXACT_MODEL.eta(guess)
    assert invert_eta(EXACT_MODEL, target, guess).tolist() == list(guess)
    _assert_same_inversions(EXACT_MODEL, [target], [guess])


@pytest.mark.parametrize("guess, message", [
    ((1e308, 1e308, 1e308), "eta is not finite at [1e+308, 1e+308, 1e+308]"),
    ((5e-324, 1.0, 1.0), "eta is not finite at [5e-324, 1.0, 1.0]"),
    ((1e-170, 2.0, 3.0), "metric is not finite at [1e-170, 2.0, 3.0]"),
])
def test_invert_eta_raises_the_eta_error_before_the_metric_error(guess, message):
    # where s or 1/a overflows, eta's error comes before G's; where only G
    # overflows and eta is off target, G's error is raised
    with pytest.raises(DomainError) as err:
        invert_eta(EXACT_MODEL, (-1.0, -2.0, -3.0), guess)
    assert str(err.value) == message
    _assert_same_inversions(EXACT_MODEL, [(-1.0, -2.0, -3.0)], [guess])


# --- Model calls per flow ---------------------------------------------------

class _CountingModel(_HookModel):
    """Counts the calls into the domain check and the hook."""

    def __init__(self, model):
        super().__init__(model)
        self.calls = dict.fromkeys(("check_domain", "eta_metric_kernel"), 0)

    def check_domain(self, theta):
        self.calls["check_domain"] += 1
        return super().check_domain(theta)

    def eta_metric_kernel(self, a, b, c):
        self.calls["eta_metric_kernel"] += 1
        return self._model.eta_metric_kernel(a, b, c)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_flow_model_calls_are_one_per_rhs_plus_the_start_sample(model):
    # a short flow that completes: each corrector iterate is one
    # eta_metric_kernel call, and so is the start sample; the domain is
    # checked once, for the start, never per iterate
    counting = _CountingModel(model)
    traj = integrate(counting, REFERENCE_STARTS[model], 0.05, rtol=1e-10, atol=1e-12)
    assert traj.status == "completed"
    assert traj.n_rhs > 1
    assert counting.calls == {"check_domain": 1, "eta_metric_kernel": traj.n_rhs + 1}


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_each_hook_call_of_a_flow_factors_the_metric_once(model, monkeypatch):
    # _rank_one is G's factorization: the corrector's Newton step and the
    # accepted sample's slope G^{-1} eta share one, and so do the start's
    # det guard and first slope.  Counted where flow.py looks it up, and
    # where solve_det does, so a second solve at acceptance would show.
    clean, counting, factored = _reference_flow(model), _CountingModel(model), []

    def rank_one(*parts):
        factored.append(parts)
        return inner(*parts)

    inner = betaflow.flow._rank_one
    monkeypatch.setattr(betaflow.flow, "_rank_one", rank_one)
    monkeypatch.setattr(betaflow.manifold, "_rank_one", rank_one)
    traj = integrate(counting, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "singular" and traj.n_rhs > traj.n_accepted > 0
    assert len(factored) == counting.calls["eta_metric_kernel"] == traj.n_rhs + 1
    # and the flow is the clean one
    assert traj.theta.tobytes() == clean.theta.tobytes()


def test_reference_flows_keep_their_step_budget(exact_trajectory, stirling_trajectory):
    # a step-budget regression test: at most five hook calls per tried step,
    # at least one per accepted step (a prediction past the escape, w <= 0,
    # is rejected without a call)
    for traj, n_rhs in ((exact_trajectory, 13), (stirling_trajectory, 78)):
        assert traj.n_rhs == n_rhs
        assert traj.n_accepted <= traj.n_rhs <= 5 * (traj.n_accepted + traj.n_rejected)


def test_seeded_flows_keep_their_statuses_and_hook_call_budget():
    # 60 log-uniform starts per model at the acceptance tolerances, each
    # status pinned ("s"ingular, "c"ompleted).  The summed hook calls
    # measured 1338 (exact) and 3709 (Stirling); the budget is that plus 5%,
    # so a corrector that needs more calls per sample fails it.
    rng = np.random.Generator(np.random.Philox(29))
    for model, lo, hi, statuses, calls in (
        (EXACT_MODEL, 0.3, 8.0, "s" * 60, 1338),
        (STIRLING_MODEL, 1.2, 6.0, "s" * 15 + "c" + "s" * 32 + "cc" + "s" * 8 + "cs", 3709),
    ):
        starts = np.exp(rng.uniform(np.log(lo), np.log(hi), (60, 3)))
        flows = [integrate(model, s, 2.0, rtol=1e-10, atol=1e-12) for s in starts]
        assert "".join(traj.status[0] for traj in flows) == statuses
        assert sum(traj.n_rhs for traj in flows) <= 1.05 * calls


def test_flows_from_next_to_the_stirling_lower_bound_keep_their_outcomes():
    # (1 + 10^-k, 2, 3) at rtol 1e-6.  Up to k = 10 each flow ends singular
    # near t* = 0.2254.  From k = 10 on, one ulp of theta_1 can move eta_1
    # by more than the residual bound, so no iterate meets it: at k = 11 the
    # step size underflows at t = 1e-6 (and at k = 10 from other starts).
    outcomes, calls = [], 0
    for k in range(3, 12):
        try:
            traj = integrate(STIRLING_MODEL, (1.0 + 10.0 ** -k, 2.0, 3.0), 2.0, rtol=1e-6)
        except StepFailureError:
            outcomes.append("StepFailureError")
            continue
        outcomes.append(traj.status)
        if k <= 9:
            calls += traj.n_rhs
    assert outcomes == ["singular"] * 8 + ["StepFailureError"]
    # Newton in theta made 1095 hook calls over k = 3..9; Newton in w makes
    # fewer on most starts, but not on every one of these
    assert calls <= 1095


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_flow_diagnostics_reuse_the_last_stage(model):
    # the reference flows stop at the det guard; each corrector iterate calls
    # eta_metric_kernel once, each sample's eta and det G come from the call
    # that accepted it, and the diagnostics add only the start sample
    counting = _CountingModel(model)
    traj = integrate(counting, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "singular"
    n_rhs = counting.calls["eta_metric_kernel"] - 1
    assert n_rhs == traj.n_rhs
    assert traj.n_accepted <= n_rhs <= 5 * (traj.n_accepted + traj.n_rejected)


class _FaultModel(_CountingModel):
    """Gives ``fault(values)`` in place of the hook's values from the
    ``fail_at``-th call after the start sample's on."""

    def __init__(self, model, fail_at, fault):
        super().__init__(model)
        self.fail_at, self.fault = fail_at, fault

    def eta_metric_kernel(self, a, b, c):
        values = super().eta_metric_kernel(a, b, c)
        if self.calls["eta_metric_kernel"] - 1 < self.fail_at:
            return values
        return self.fault(values)


def _injected_fault(kind, finite):
    """A domain fault raises DomainError (finite) or gives an infinite G;
    a singular fault gives a G whose det is exactly 0, with the hook's eta
    (finite) or an infinite one."""
    def fault(values):
        if kind == "domain":
            if finite:
                raise DomainError("injected")
            return values[:3] + (math.inf,) * 4
        return (values[:3] if finite else (math.inf,) * 3) + (0.0,) * 4
    return fault


@functools.cache
def _reference_flow(model):
    return integrate(model, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("kind, status", [("domain", "left_domain"), ("singular", "singular")],
                         ids=["domain", "singular"])
@pytest.mark.parametrize("finite", [True, False], ids=["finite", "non-finite"])
@pytest.mark.parametrize("fail_at", range(1, 13))
def test_compiled_step_reports_the_failed_stage(fail_at, finite, kind, status):
    # Every hook call of the flow fails from the fail_at-th on (both
    # reference flows make more than 12).  The step that meets the fault,
    # and each retry of it, is rejected with the fault's status, down to
    # the step underflow, which ends the flow with that status.
    for model in (EXACT_MODEL, STIRLING_MODEL):
        clean = _reference_flow(model)
        faulty = _FaultModel(model, fail_at, _injected_fault(kind, finite))
        traj = integrate(faulty, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)
        assert traj.status == status
        assert traj.n_rejected > 0
        # the samples accepted before the fault are the clean flow's
        n = traj.n_samples
        assert n < clean.n_samples
        assert traj.t.tobytes() == clean.t[:n].tobytes()
        assert traj.theta.tobytes() == clean.theta[:n].tobytes()
        # each step counts its hook calls up to the failed one, which the
        # start sample's call makes one more
        assert faulty.calls["eta_metric_kernel"] == traj.n_rhs + 1
        assert faulty.calls["eta_metric_kernel"] > fail_at


# --- The model formulas against plain numpy ---------------------------------

def _numpy_point(model, theta):
    p = as_point(theta, "theta")
    if not (p > model.lower).all():
        raise DomainError("outside")
    return p


def _numpy_eta(model, theta):
    p = _numpy_point(model, theta)
    if model is EXACT_MODEL:
        ps = digamma(p.sum())
        return np.array([digamma(p[0]) - ps, digamma(p[1]) - ps, digamma(p[2]) - ps])
    ls = math.log(p.sum() - 1.0)
    return np.array([ls - math.log(x - 1.0) - 0.5 / (x - 1.0) for x in p])


def _numpy_metric(model, theta):
    p = _numpy_point(model, theta)
    if model is EXACT_MODEL:
        o = -trigamma(p.sum())
        return Metric3(trigamma(p[0]) + o, trigamma(p[1]) + o, trigamma(p[2]) + o, o, o, o)
    o = 1.0 / (p.sum() - 1.0)
    d = [o - (x - 1.5) / ((x - 1.0) * (x - 1.0)) for x in p]
    return Metric3(d[0], d[1], d[2], o, o, o)


def _numpy_parts(model, theta):
    """(D1, D2, D3, o) of G = diag(D) + o 11^T: D_i = psi'(alpha_i) and
    o = -psi'(s) exact, D_i = (3/2 - alpha_i)/(alpha_i - 1)^2 and
    o = 1/(s - 1) Stirling."""
    p = _numpy_point(model, theta)
    if model is EXACT_MODEL:
        return trigamma(p[0]), trigamma(p[1]), trigamma(p[2]), -trigamma(p.sum())
    return (*(-(x - 1.5) / ((x - 1.0) * (x - 1.0)) for x in p), 1.0 / (p.sum() - 1.0))


def _numpy_rhs(model, theta):
    velocity = -rank_one_solve(_numpy_parts(model, theta), _numpy_eta(model, theta))[1]
    if not np.isfinite(velocity).all():
        raise DomainError("velocity is not finite")
    return velocity


def _numpy_det(model, theta):
    if model is EXACT_MODEL:
        value = rank_one_adjugate(_numpy_parts(model, theta))[0]
    else:
        value = det_kernel(*_numpy_point(model, theta).tolist())
    return check_finite(value, "det G", theta)


def _outcome(func, model, theta):
    """The result's bytes, or the type of the BetaflowError raised."""
    try:
        value = func(model, theta)
    except BetaflowError as exc:
        return type(exc)
    if isinstance(value, Metric3):
        value = [value.d1, value.d2, value.d3, value.o12, value.o13, value.o23]
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("model, exponents", [
    (EXACT_MODEL, (-300.0, 300.0)),
    (STIRLING_MODEL, (-20.0, 200.0)),
], ids=["exact", "stirling"])
def test_model_formulas_match_numpy_bit_for_bit(model, exponents):
    # log-uniform offsets above lower: each call gives the numpy result or
    # raises the same error (DomainError where digamma or trigamma
    # overflows, an offset below 1e-16 rounds onto lower or the velocity is
    # not finite, SingularMatrixError where det G rounds to 0)
    rng = np.random.Generator(np.random.Philox(47))
    points = model.lower + 10.0 ** rng.uniform(*exponents, size=(2000, 3))
    with np.errstate(all="ignore"):
        for theta in points:
            for func, want in ((lambda m, p: m.eta(p), _numpy_eta),
                               (lambda m, p: m.metric(p), _numpy_metric),
                               (rhs, _numpy_rhs)):
                assert _outcome(func, model, theta) == _outcome(want, model, theta), theta


@pytest.mark.parametrize("name", FUZZ_MODELS)
def test_checked_calls_keep_the_formulas_outcomes_on_fuzz_points(name):
    # eta_metric_kernel returns seven floats and raises nothing; eta, metric,
    # det_closed and rhs give the numpy formulas' bits, or the same error
    # type where digamma or trigamma raises or a value is not finite
    model = FUZZ_MODELS[name]
    calls = ((lambda m, p: m.eta(p), lambda m, p: check_finite(_numpy_eta(m, p), "eta", p)),
             (lambda m, p: m.metric(p), _numpy_metric),
             (lambda m, p: m.det_closed(p), _numpy_det),
             (rhs, _numpy_rhs))
    raised = 0
    with np.errstate(all="ignore"):
        for theta in fuzz_points(name):
            if inside(model.lower, *theta):
                values = model.eta_metric_kernel(*theta)
                assert len(values) == 7 and all(type(v) is float for v in values), theta
            for func, want in calls:
                got = _outcome(func, model, theta)
                assert got == _outcome(want, model, theta), theta
                raised += got is DomainError
    # the draw reaches overflows of G, of eta and of coordinate sums
    assert raised > len(fuzz_points(name)) // 10
