import math

import numpy as np
import pytest

from betaflow import (
    EXACT_MODEL,
    STIRLING_MODEL,
    BetaflowError,
    DomainError,
    Metric3,
    NoConvergenceError,
    SingularMatrixError,
    StepFailureError,
    eta_closed,
    integrate,
    invert_eta,
    rhs,
    trigamma,
)
from conftest import linearization_residual


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
    {"t_end": 1.0, "max_step": 0.0},
    {"t_end": 1.0, "max_step": -1.0},
])
def test_integrate_rejects_bad_arguments(kwargs):
    with pytest.raises(DomainError):
        integrate(EXACT_MODEL, (2.0, 2.0, 2.0), **kwargs)


def test_integrate_rejects_singular_start():
    with pytest.raises(SingularMatrixError):
        integrate(STIRLING_MODEL, (3.0, 3.0, 3.0), 1.0)


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


def test_max_step_honored():
    traj = integrate(EXACT_MODEL, (2.0, 3.0, 4.0), 0.05, max_step=0.003)
    assert np.all(np.diff(traj.t) <= 0.003 + 1e-12)


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
    with pytest.raises(DomainError):
        invert_eta(EXACT_MODEL, (1.0, 1.0, 1.0))


def test_invert_eta_overflowing_stirling_target_is_betaflow_error():
    # near a = 1 the root on the branch u >= 1/2 exceeds the float range
    target = STIRLING_MODEL.eta((1.0005, 3.0, 2.0))
    with pytest.raises(BetaflowError):
        invert_eta(STIRLING_MODEL, target)


def test_invert_eta_rejects_guess_outside_domain():
    with pytest.raises(DomainError):
        invert_eta(EXACT_MODEL, (-1.0, -1.0, -1.0), guess=(0.0, 2.0, 2.0))


def test_invert_eta_iteration_budget():
    with pytest.raises(NoConvergenceError):
        invert_eta(EXACT_MODEL, EXACT_MODEL.eta((4.0, 0.7, 2.0)), max_iter=1)


class _PlaneModel:
    """Test-only model: forwards the model interface to ``model`` and
    replaces one method past the plane a = PLANE, which both reference
    flows cross before t = 0.2."""

    PLANE = 3.0

    def __init__(self, model, method, past_plane):
        self._model = model
        self.name = model.name
        inner = getattr(model, method)

        def replaced(theta):
            if np.asarray(theta, dtype=float)[0] >= self.PLANE:
                return past_plane(self._model, theta)
            return inner(theta)

        setattr(self, method, replaced)

    def __getattr__(self, attr):
        return getattr(self._model, attr)


REFERENCE_STARTS = {EXACT_MODEL: (2.0, 3.0, 4.0), STIRLING_MODEL: (2.5, 3.0, 2.0)}
ZERO_METRIC = Metric3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("model", [EXACT_MODEL, STIRLING_MODEL], ids=lambda m: m.name)
@pytest.mark.parametrize("method, past_plane, status", [
    # the domain ends at the plane
    ("in_domain", lambda model, theta: False, "left_domain"),
    # a non-finite velocity makes the next stage point non-finite, which
    # rhs rejects as outside the domain
    ("eta", lambda model, theta: np.full(3, math.nan), "left_domain"),
    # det G is exactly 0 past the plane, so every stage there is singular
    ("metric", lambda model, theta: ZERO_METRIC, "singular"),
], ids=["narrow-domain", "nan-eta", "singular-metric"])
def test_step_underflow_status_follows_the_failed_stage(model, method, past_plane, status):
    wrapped = _PlaneModel(model, method, past_plane)
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
    wrapped = _PlaneModel(model, "eta", lambda inner, theta: 1e6 * inner.eta(theta))
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
