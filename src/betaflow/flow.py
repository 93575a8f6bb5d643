"""Gradient flow theta' = -G(theta)^{-1} eta(theta) and its dual-space
linearization.

Because eta is the gradient of the potential and G its Jacobian, the chain
rule collapses the flow to eta' = -eta, so eta(theta(t)) = eta(theta(0)) e^{-t}
for both models.  That closed form is the oracle every integration is tested
against.  The flow can reach the edge of a model's dual image in finite time
(the metric degenerates there), so the integrator stops with a flagged
status instead of stepping through the singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NoConvergenceError,
    SingularMatrixError,
    StepFailureError,
)
from .integrability import invariant_columns
from .manifold import as_point, check_finite, det3, inside, solve_det

# Integration stops (flagged, not an error) once |det G| drops below this.
DET_GUARD = 1e-12

# invert_eta's residual goal and Newton step budget.
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 100

# Dormand-Prince 5(4) tableau; the last stage evaluates at the step result,
# so its slope is reused as stage one of the next step.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# The entries as names for the written-out step, whose sums keep the zero
# entries of the last row and of _E.
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76)) = _A[1:]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E


@dataclass
class Trajectory:
    """Time-ordered flow samples with per-sample diagnostics."""

    model: str
    t: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    hamiltonian: np.ndarray
    det_g: np.ndarray
    lax_dev: np.ndarray
    rtol: float
    atol: float
    n_accepted: int
    n_rejected: int
    status: str

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def theta_end(self) -> np.ndarray:
        return self.theta[-1]


def rhs(model, theta) -> np.ndarray:
    """Flow velocity -G^{-1} eta at a point.  Singular only where det G is
    exactly 0; ``integrate`` applies DET_GUARD to accepted samples.  Raises
    DomainError where the velocity is not finite (the metric overflows)."""
    if not model.in_domain(theta):
        raise DomainError(f"{theta!r} lies outside the {model.name} domain")
    a, b, c = np.asarray(theta, dtype=float).tolist()
    e0, e1, e2, d1, d2, d3, o = model.eta_metric_kernel(a, b, c)
    return check_finite(-np.array(solve_det(d1, d2, d3, o, e0, e1, e2)[1:]),
                        "flow velocity", theta)


def _stage(model):
    """The flow in w = 1/(theta - lower), bound to ``model``'s domain and
    its ``eta_metric_kernel``: ``stage(w0, w1, w2)`` maps w to the point
    theta = lower + 1/w and returns the velocity w' = w^2 G^{-1} eta there
    (the chain rule on theta' = -G^{-1} eta), with the eta and det G it
    used and the point, from one hook call.  A w that is not > 0, or that
    maps onto lower or to inf, lies outside the domain."""
    lower, kernel, name, inf = model.lower, model.eta_metric_kernel, model.name, math.inf

    def stage(w0, w1, w2):
        # w > 0 first: 1/w would divide by zero at w = 0.
        if w0 > 0.0 and w1 > 0.0 and w2 > 0.0:
            a, b, c = lower + 1.0 / w0, lower + 1.0 / w1, lower + 1.0 / w2
            if lower < a < inf and lower < b < inf and lower < c < inf:
                e0, e1, e2, d1, d2, d3, o = kernel(a, b, c)
                det, v0, v1, v2 = solve_det(d1, d2, d3, o, e0, e1, e2)
                return ((w0 * w0 * v0, w1 * w1 * v1, w2 * w2 * v2), (e0, e1, e2), det,
                        [a, b, c])
        raise DomainError(f"w = {[w0, w1, w2]!r} maps outside the {name} domain")

    return stage


def eta_closed(eta0, t: float) -> np.ndarray:
    """Dual-space solution eta0 * e^{-t}."""
    return np.asarray(eta0, dtype=float) * math.exp(-t)


def integrate(model, theta0, t_end: float, rtol: float = 1e-9,
              atol: float = 1e-12, max_step: float | None = None) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) solution of the gradient flow.

    The state is w_i = 1/(theta_i - lower), with w' = w^2 G^{-1} eta.  The
    flow leaves the dual image in finite time t*, where theta runs off to
    infinity like C/(t* - t); there w has a regular zero, so the steps need
    not shrink towards a pole.  ``rtol`` and ``atol`` bound the error of w,
    that is, the relative error of theta - lower.  Each step is written out
    on floats: its six new stage points and its error estimate are sums
    over the Dormand-Prince tableau, added left to right in the tableau's
    order, zero entries included.  The first sample is theta0 as given;
    each accepted step records t and the theta = lower + 1/w, eta and det G
    of its last stage.  The ``hamiltonian`` and ``lax_dev`` columns follow
    from the eta column after the loop.

    Stops early with status "singular" when |det G| < 1e-12 at an accepted
    sample.  When the step size underflows, the last rejected step decides:
    "singular" if a stage met a metric whose det is exactly 0, "left_domain"
    if a finite stage point left the domain, and StepFailureError if the
    step failed the error test or a stage point was not finite.  A Stirling
    flow that runs into the degeneracy surface V (den = 0) ends in that
    error: there every step fails the error test.  Raises
    SingularMatrixError when det G at the start is below 1e-12 or not finite.
    """
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise DomainError(f"t_end must be finite and >= 0, got {t_end!r}")
    if max_step is not None and not max_step > 0.0:
        raise DomainError(f"max_step must be > 0, got {max_step!r}")
    y = model.check_domain(theta0)
    samples = [(0.0, y, model.eta(y), det3(model.metric(y)))]
    # A det that overflows in the metric's products (inf or NaN) fails too.
    if not DET_GUARD <= abs(samples[0][3]) < math.inf:
        raise SingularMatrixError(
            f"metric is numerically singular at the start point {y.tolist()}"
        )

    n_accepted = 0
    n_rejected = 0
    status = "completed"

    if t_end > 0.0:
        stage = _stage(model)
        y = [1.0 / (x - model.lower) for x in y.tolist()]
        k1 = stage(*y)[0]
        h = 1e-2 / (1.0 + float(np.max(np.abs(k1))))
        t = 0.0
        err_prev = None
        # Every rejection sets the status a step underflow ends in (None: raise).
        underflow_status = None
        while t < t_end:
            h = min(h, t_end - t)
            if max_step is not None:
                h = min(h, max_step)
            # A non-finite start velocity makes h NaN or 0, and fails here.
            if not h >= 1e-13 * max(1.0, t):
                if underflow_status is None:
                    raise StepFailureError(
                        f"step size underflow at t={t!r} (h={h!r})"
                    )
                status = underflow_status
                break
            failed, shrink = None, 0.5
            y0, y1, y2 = y
            k10, k11, k12 = k1
            # Each sum adds its terms left to right in its row's order, as a
            # loop from 0.0 does; starting at the first term changes only the
            # sign of a zero sum, which y + h * sum (y != 0 in the domain)
            # and the squared error terms do not keep.
            try:
                y_new = [y0 + h * (_A21 * k10), y1 + h * (_A21 * k11), y2 + h * (_A21 * k12)]
                k20, k21, k22 = stage(*y_new)[0]
                y_new = [y0 + h * (_A31 * k10 + _A32 * k20),
                         y1 + h * (_A31 * k11 + _A32 * k21),
                         y2 + h * (_A31 * k12 + _A32 * k22)]
                k30, k31, k32 = stage(*y_new)[0]
                y_new = [y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30),
                         y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
                         y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)]
                k40, k41, k42 = stage(*y_new)[0]
                y_new = [y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40),
                         y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
                         y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)]
                k50, k51, k52 = stage(*y_new)[0]
                y_new = [y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40
                                   + _A65 * k50),
                         y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41
                                   + _A65 * k51),
                         y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42
                                   + _A65 * k52)]
                k60, k61, k62 = stage(*y_new)[0]
                # The last stage point is the step result.
                y_new = [y0 + h * (_A71 * k10 + _A72 * k20 + _A73 * k30 + _A74 * k40
                                   + _A75 * k50 + _A76 * k60),
                         y1 + h * (_A71 * k11 + _A72 * k21 + _A73 * k31 + _A74 * k41
                                   + _A75 * k51 + _A76 * k61),
                         y2 + h * (_A71 * k12 + _A72 * k22 + _A73 * k32 + _A74 * k42
                                   + _A75 * k52 + _A76 * k62)]
                k7, eta, det, theta = stage(*y_new)
            except DomainError:
                # A non-finite stage point is a plain step failure.
                failed = "left_domain" if all(map(math.isfinite, y_new)) else None
            except SingularMatrixError:
                failed = "singular"
            else:
                k70, k71, k72 = k7
                e0 = h * (_E1 * k10 + _E2 * k20 + _E3 * k30 + _E4 * k40 + _E5 * k50
                          + _E6 * k60 + _E7 * k70)
                e1 = h * (_E1 * k11 + _E2 * k21 + _E3 * k31 + _E4 * k41 + _E5 * k51
                          + _E6 * k61 + _E7 * k71)
                e2 = h * (_E1 * k12 + _E2 * k22 + _E3 * k32 + _E4 * k42 + _E5 * k52
                          + _E6 * k62 + _E7 * k72)
                # y_new passed the domain rule, so it is finite.
                if math.isfinite(e0) and math.isfinite(e1) and math.isfinite(e2):
                    # RMS of e over atol + rtol * max(|y|, |y_new|); a zero
                    # scale gives inf, or NaN for a zero error.
                    n0, n1, n2 = y_new
                    s0 = atol + rtol * max(abs(y0), abs(n0))
                    s1 = atol + rtol * max(abs(y1), abs(n1))
                    s2 = atol + rtol * max(abs(y2), abs(n2))
                    q0 = e0 / s0 if s0 else e0 * math.inf
                    q1 = e1 / s1 if s1 else e1 * math.inf
                    q2 = e2 / s2 if s2 else e2 * math.inf
                    err = math.sqrt((q0 * q0 + q1 * q1 + q2 * q2) / 3)
                    shrink = max(0.2, 0.9 * err ** -0.2) if err > 1.0 else None
            if shrink is not None:
                n_rejected += 1
                underflow_status = failed
                h *= shrink
                continue
            t += h
            y = y_new
            k1 = k7
            n_accepted += 1
            # The last stage evaluated theta, eta and det G at y_new.
            samples.append((t, theta, eta, det))
            if abs(det) < DET_GUARD:
                status = "singular"
                break
            if err == 0.0:
                fac = 5.0
            elif err_prev is None:
                fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
            else:
                fac = min(5.0, max(0.2, 0.9 * err ** -0.14 * err_prev ** 0.08))
            err_prev = err
            h *= fac

    eta = np.array([s[2] for s in samples])
    hamiltonian, lax_dev = invariant_columns(eta)
    return Trajectory(
        model=model.name,
        t=np.array([s[0] for s in samples]),
        theta=np.array([s[1] for s in samples]),
        eta=eta,
        hamiltonian=hamiltonian,
        det_g=np.array([s[3] for s in samples]),
        lax_dev=lax_dev,
        rtol=rtol,
        atol=atol,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        status=status,
    )


def invert_eta(model, target, guess=None) -> np.ndarray:
    """Newton inversion of the dual map from ``guess`` or else
    ``model.inversion_start(target)``, with the metric as the exact Jacobian
    and step halving whenever a full step would exit the domain.  Returns
    once max|eta(theta) - target| <= 1e-12, or at the rounding floor: when a
    full step below sqrt(eps)|theta_i| = 2^-26 |theta_i| in every coordinate
    no longer lowers that residual, the better of the two iterates."""
    target = as_point(target, "target")
    t0, t1, t2 = target.tolist()
    start = model.inversion_start(target) if guess is None else guess
    # the one domain check; every backtracked step below stays inside
    theta = model.check_domain(start).tolist()
    floor = None  # (theta, residual) before a full step below 2^-26 |theta|
    kernel = model.eta_metric_kernel
    for _ in range(_NEWTON_MAX_ITER):
        try:
            e0, e1, e2, d1, d2, d3, o = kernel(*theta)
            overflow = None
        except DomainError as exc:
            # The exact G overflows below about 1.5e-162, where eta is still
            # finite: a point on target is returned, and eta's errors come
            # before G's.
            (e0, e1, e2), overflow = model.eta_kernel(*theta), exc
        check_finite((e0, e1, e2), "eta", theta)
        r0, r1, r2 = e0 - t0, e1 - t1, e2 - t2
        size = max(abs(r0), abs(r1), abs(r2))
        if size <= _NEWTON_TOL:
            return np.array(theta)
        if floor is not None and not size < floor[1]:
            return np.array(floor[0])
        if overflow is not None:
            raise overflow
        try:
            s0, s1, s2 = solve_det(d1, d2, d3, o, -r0, -r1, -r2)[1:]
        except SingularMatrixError as exc:
            raise NoConvergenceError(f"Newton Jacobian is singular at {theta}") from exc
        # An infinite det G (its products overflow) solves to a zero step.
        if not (s0 or s1 or s2):
            raise NoConvergenceError(f"Newton step is zero at {theta}")
        a, b, c = theta
        lam = 1.0
        while not inside(model.lower, a + lam * s0, b + lam * s1, c + lam * s2):
            lam *= 0.5
            if lam < 2.0 ** -60:
                raise NoConvergenceError(f"backtracking stalled at {theta}")
        tiny = 2.0 ** -26
        small = (lam == 1.0 and abs(s0) <= tiny * abs(a) and abs(s1) <= tiny * abs(b)
                 and abs(s2) <= tiny * abs(c))
        floor = (theta, size) if small else None
        theta = [a + lam * s0, b + lam * s1, c + lam * s2]
    raise NoConvergenceError(
        f"eta inversion did not converge in {_NEWTON_MAX_ITER} steps"
    )
