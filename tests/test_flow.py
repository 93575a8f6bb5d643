import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import betaflow
from betaflow import (
    DET_GUARD,
    EXACT_MODEL,
    STIRLING_MODEL,
    BetaflowError,
    DegenerateEtaError,
    DomainError,
    Metric3,
    NegativeRatioError,
    NoConvergenceError,
    SingularMatrixError,
    StepFailureError,
    as_point,
    det3,
    digamma,
    eta_closed,
    hamiltonian,
    integrate,
    invert3,
    invert_eta,
    lax_pair,
    rhs,
    trigamma,
)
from betaflow.flow import _E, _ROWS
from betaflow.manifold import Model, check_finite
from betaflow.stirling import det_kernel
from conftest import linearization_residual, rounding_floor_ratio
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


def test_eta_closed():
    assert np.max(np.abs(eta_closed((1.0, 1.0, 1.0), math.log(2.0)) - 0.5)) <= 1e-15
    eta0 = np.array([-0.3, 1.7, 2.9])
    assert np.array_equal(eta_closed(eta0, 0.0), eta0)
    value = eta_closed([-77.0 / 60.0] * 3, 1.0)
    assert np.max(np.abs(value + 0.47211194950335098)) <= 1e-15


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
            assert model.in_domain(point)
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
    # relative in theta - lower (worst measured: 1.2e-9 exact and 7.5e-8
    # Stirling with DOP853 in w, 7.3e-10 and 5.9e-8 with the 5(4) pair in w,
    # 2.6e-9 and 7.6e-8 in theta, at a last row, where det G is near the
    # guard).  On the Stirling model the root has the sample's branch
    # pattern (u_i above 1/2 or not), and the sign of det G at the start: a
    # flow cannot cross det G = 0.
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
    # near a = 1, one ulp of a moves eta_a by more than 1e-12
    target = STIRLING_MODEL.eta((1.0005, 3.0, 2.0))
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


def test_exact_inversion_start_lands_in_domain():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(200):
        theta = 10.0 ** rng.uniform(-6, 6, 3)
        start = EXACT_MODEL.inversion_start(EXACT_MODEL.eta(theta))
        assert EXACT_MODEL.in_domain(start)
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
    # stage takes such a point as outside the domain
    ("metric", lambda model, a, b, c: (math.inf,) * 4, "left_domain"),
    # a NaN velocity makes the next stage point NaN: no point left the
    # domain, so that is a plain step failure and the underflow raises
    ("eta", lambda model, a, b, c: (math.nan,) * 3, None),
    # det G is exactly 0 past the plane, so every stage there is singular
    ("metric", lambda model, a, b, c: (0.0,) * 4, "singular"),
], ids=["narrow-domain", "overflowing-metric", "nan-eta", "singular-metric"])
def test_step_underflow_status_follows_the_failed_stage(model, part, past_plane, status):
    wrapped = _PlaneModel(model, part, past_plane)
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


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_step_underflow_after_error_test_rejections_raises(model):
    # eta jumps by a factor 1e6 past the plane: every step that reaches the
    # plane fails the error test, down to the smallest step size
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


# --- Equality oracle: the flow on three floats against numpy arrays --------

def _reference_rhs(model, theta):
    if not model.in_domain(theta):
        raise DomainError(f"{theta!r} lies outside the {model.name} domain")
    return -invert3(model.metric(theta), tol=0.0).matvec(model.eta(theta))


def _reference_diagnostics(model, theta, ref_lax):
    eta = model.eta(theta)
    det = det3(model.metric(theta))
    ham = dev = math.nan
    try:
        ham = hamiltonian(eta)
        if ref_lax is not None:
            dev = float(np.linalg.norm(lax_pair(eta).L - ref_lax))
    except (DegenerateEtaError, NegativeRatioError):
        pass
    return eta, ham, det, dev


def _reference_stage(model, w):
    """The w-velocity w^2 G^{-1} eta at theta = lower + 1/w, through
    ``_reference_rhs``, and theta; a w that is not > 0, or whose theta is
    outside the domain, raises ``integrate``'s DomainError."""
    if (w > 0.0).all():
        theta = model.lower + 1.0 / w
        if model.in_domain(theta):
            return -(w * w) * _reference_rhs(model, theta), theta
    raise DomainError(f"w = {w.tolist()!r} maps outside the {model.name} domain")


def _reference_integrate(model, theta0, t_end, rtol, atol):
    """The DOP853 loop in w = 1/(theta - lower) on numpy arrays, every stage
    and diagnostic recomputed through the model, with Gustafsson's
    predictive step control; ``integrate`` must match it bit for bit."""
    y = model.check_domain(theta0)
    try:
        ref_lax = lax_pair(model.eta(y)).L
    except (DegenerateEtaError, NegativeRatioError):
        ref_lax = None
    samples = [(0.0, y, *_reference_diagnostics(model, y, ref_lax))]
    if not DET_GUARD <= abs(samples[0][4]) < math.inf:
        raise SingularMatrixError(
            f"metric is numerically singular at the start point {y.tolist()}"
        )
    n_accepted = n_rejected = 0
    status = "completed"
    y = 1.0 / (y - model.lower)
    k1 = _reference_stage(model, y)[0]
    h = 1e-2 / (1.0 + float(np.max(np.abs(k1))))
    t = 0.0
    err_prev = h_prev = None
    rejected = False
    underflow_status = None
    while t < t_end:
        h = min(h, t_end - t)
        if not h >= 1e-13 * max(1.0, t):
            if underflow_status is None:
                raise StepFailureError(f"step size underflow at t={t!r} (h={h!r})")
            status = underflow_status
            break
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
            n_rejected += 1
            underflow_status = failed
            rejected = True
            h *= shrink
            continue
        t += h
        y = y_new
        k1 = k[-1]
        n_accepted += 1
        diag = _reference_diagnostics(model, theta, ref_lax)
        samples.append((t, theta, *diag))
        if abs(diag[2]) < DET_GUARD:
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
        h *= fac
    columns = [np.array([s[i] for s in samples]) for i in range(6)]
    return columns, status, n_accepted, n_rejected


def _columns(traj):
    return [traj.t, traj.theta, traj.eta, traj.hamiltonian, traj.det_g, traj.lax_dev]


def _assert_same_flow(model, start, rtol, atol=1e-12):
    try:
        want = _reference_integrate(model, start, 2.0, rtol, atol)
    except BetaflowError as exc:
        with pytest.raises(type(exc)) as got:
            integrate(model, start, 2.0, rtol=rtol, atol=atol)
        assert str(got.value) == str(exc)
        return
    traj = integrate(model, start, 2.0, rtol=rtol, atol=atol)
    columns, status, n_accepted, n_rejected = want
    for got_col, want_col in zip(_columns(traj), columns):
        assert got_col.shape == want_col.shape
        assert got_col.tobytes() == want_col.tobytes()
    assert (traj.status, traj.n_accepted, traj.n_rejected) == (status, n_accepted, n_rejected)


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
        _assert_same_flow(model, start, 1e-10)


def test_integrate_matches_array_reference_where_lax_pair_fails_at_the_start():
    # eta1 < 0 < eta3 at (1.1, 3, 3), so every lax_dev is NaN
    traj = integrate(STIRLING_MODEL, (1.1, 3.0, 3.0), 2.0, rtol=1e-10)
    assert np.isnan(traj.lax_dev).all() and np.isfinite(traj.hamiltonian).all()
    _assert_same_flow(STIRLING_MODEL, (1.1, 3.0, 3.0), 1e-10)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_integrate_matches_array_reference_near_the_edge(model):
    for start in _seeded_starts(43, model, 6, (1e-4, 3.0)):
        _assert_same_flow(model, start, 1e-6)


@pytest.mark.parametrize("start", [
    (2.20550570361822, 2.156186956067869, 2.1522011809246444),
    (2.6073420654507053, 2.5819107642040646, 2.608277530409578),
    (1.7436347280273594, 1.7266277918757336, 1.744260311149253),
])
def test_integrate_matches_array_reference_into_the_degeneracy_surface(start):
    # Stirling flows that run into V (den = 0): every step near V fails the
    # error test, and after some sixty rejections the step size underflows
    # with StepFailureError, whose t and h must match to the last digit
    _assert_same_flow(STIRLING_MODEL, start, 1e-10)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("part, past_plane", [
    ("metric", _past_the_plane),
    ("metric", lambda model, a, b, c: (math.inf,) * 4),
    ("eta", lambda model, a, b, c: (math.nan,) * 3),
    ("metric", lambda model, a, b, c: (0.0,) * 4),
    ("eta", _eta_jump),
], ids=["narrow-domain", "overflowing-metric", "nan-eta", "singular-metric", "eta-jump"])
def test_integrate_matches_array_reference_on_plane_models(model, part, past_plane):
    _assert_same_flow(_PlaneModel(model, part, past_plane), REFERENCE_STARTS[model], 1e-10)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_integrate_matches_array_reference_at_zero_tolerance(model):
    # rtol = atol = 0 makes every error scale 0: the error ratios are inf
    # (NaN for a zero error), as numpy divides, and the step size underflows
    with pytest.raises(StepFailureError):
        integrate(model, REFERENCE_STARTS[model], 2.0, rtol=0.0, atol=0.0)
    with np.errstate(all="ignore"):
        _assert_same_flow(model, REFERENCE_STARTS[model], 0.0, atol=0.0)


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
    # eta and metric pass their part of eta_metric_kernel on as it is, or
    # raise DomainError where a float of that part is not finite
    model = FUZZ_MODELS[name]
    for theta in fuzz_points(name):
        if not model.in_domain(theta):
            continue
        values = model.eta_metric_kernel(*theta)
        eta = np.array(values[:3])
        eta = eta.tobytes() if np.isfinite(eta).all() else DomainError
        assert _outcome(lambda m, p: m.eta(p), model, theta) == eta, theta
        d1, d2, d3, o = values[3:]
        metric = np.array([d1, d2, d3, o, o, o])
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
            step = invert3(model.metric(theta), tol=0.0).matvec(-residual)
        except SingularMatrixError as exc:
            raise NoConvergenceError(
                f"Newton Jacobian is singular at {theta.tolist()}"
            ) from exc
        if not step.any():
            raise NoConvergenceError(f"Newton step is zero at {theta.tolist()}")
        lam = 1.0
        while not model.in_domain(theta + lam * step):
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
    # a short flow that completes: each stage evaluation is one
    # eta_metric_kernel call, and so are the start sample's eta and metric;
    # the domain is checked once for the start and once in each of those
    # two, never per stage
    counting = _CountingModel(model)
    traj = integrate(counting, REFERENCE_STARTS[model], 0.05, rtol=1e-10, atol=1e-12)
    assert traj.status == "completed"
    assert traj.n_rhs > 1
    assert counting.calls == {"check_domain": 3, "eta_metric_kernel": traj.n_rhs + 2}


def test_reference_flows_keep_their_step_budget(exact_trajectory, stirling_trajectory):
    # a step-budget regression test: the start's slope plus twelve stage
    # evaluations for each accepted or rejected step
    for traj, n_rhs in ((exact_trajectory, 205), (stirling_trajectory, 793)):
        assert traj.n_rhs == n_rhs
        assert traj.n_rhs == 1 + 12 * (traj.n_accepted + traj.n_rejected)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
def test_flow_diagnostics_reuse_the_last_stage(model):
    # the reference flows stop at the det guard; each stage evaluation calls
    # eta_metric_kernel once, and the diagnostics add only the start
    # sample's eta and metric
    counting = _CountingModel(model)
    traj = integrate(counting, REFERENCE_STARTS[model], 2.0, rtol=1e-10, atol=1e-12)
    assert traj.status == "singular"
    n_rhs = counting.calls["eta_metric_kernel"] - 2
    assert n_rhs == traj.n_rhs
    assert n_rhs >= 6 * traj.n_accepted


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


def _numpy_rhs(model, theta):
    velocity = -invert3(_numpy_metric(model, theta), tol=0.0).matvec(_numpy_eta(model, theta))
    if not np.isfinite(velocity).all():
        raise DomainError("velocity is not finite")
    return velocity


def _numpy_det(model, theta):
    if model is EXACT_MODEL:
        value = det3(_numpy_metric(model, theta))
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
            if model.in_domain(theta):
                values = model.eta_metric_kernel(*theta)
                assert len(values) == 7 and all(type(v) is float for v in values), theta
            for func, want in calls:
                got = _outcome(func, model, theta)
                assert got == _outcome(want, model, theta), theta
                raised += got is DomainError
    # the draw reaches overflows of G, of eta and of coordinate sums
    assert raised > len(fuzz_points(name)) // 10
