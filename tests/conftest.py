import math

import numpy as np
import pytest

import betaflow as bf

# Both reference flows meet the edge of their dual image before t = 2, so
# the integrator is expected to stop early with a flagged status; every
# bound is checked over the recorded samples.
ACCEPTANCE_RTOL = 1e-10
ACCEPTANCE_ATOL = 1e-12


@pytest.fixture(scope="session")
def exact_trajectory() -> bf.Trajectory:
    return bf.integrate(bf.EXACT_MODEL, (2.0, 3.0, 4.0), 2.0,
                        rtol=ACCEPTANCE_RTOL, atol=ACCEPTANCE_ATOL)


@pytest.fixture(scope="session")
def stirling_trajectory() -> bf.Trajectory:
    return bf.integrate(bf.STIRLING_MODEL, (2.5, 3.0, 2.0), 2.0,
                        rtol=ACCEPTANCE_RTOL, atol=ACCEPTANCE_ATOL)


def linearization_residual(trajectory: bf.Trajectory) -> float:
    eta0 = trajectory.eta[0]
    scale = float(np.max(np.abs(eta0)))
    return max(
        float(np.max(np.abs(trajectory.eta[i] - bf.eta_closed(eta0, t)))) / scale
        for i, t in enumerate(trajectory.t)
    )


def largest_eta_term(model, theta) -> float:
    """The largest term eta(theta) is summed from: max(|psi(alpha_i)|,
    |psi(s)|) on the exact model, max(|ln(s-1)|, |ln u_i| + 1/(2 u_i)) with
    u_i = alpha_i - 1 on the Stirling model."""
    s = sum(float(x) for x in theta)
    if model.name == "exact":
        return max(abs(bf.digamma(s)), *(abs(bf.digamma(float(x))) for x in theta))
    return max(abs(math.log(s - 1.0)),
               *(abs(math.log(x - 1.0)) + 0.5 / (x - 1.0) for x in map(float, theta)))


def rounding_floor_ratio(model, theta_hat, target) -> float:
    """0 where max|eta(theta_hat) - target| <= 1e-12; otherwise the largest
    ratio of a residual component to the rounding floor
    2 (|G(theta_hat)| ulp(theta_hat) + ulp(largest term of eta)), which an
    inversion that ended at the floor keeps below 1."""
    residual = np.abs(model.eta(theta_hat) - np.asarray(target))
    if residual.max() <= 1e-12:
        return 0.0
    ulps = np.array([math.ulp(float(x)) for x in theta_hat])
    g = np.abs(model.metric(theta_hat).as_array())
    floor = 2.0 * (g @ ulps + math.ulp(largest_eta_term(model, theta_hat)))
    return float(np.max(residual / floor))
