"""Gradient flow theta' = -G(theta)^{-1} eta(theta) and its dual-space
linearization.

Because eta is the gradient of the potential and G its Jacobian, the chain
rule collapses the flow to eta' = -eta, so eta(theta(t)) = eta(theta(0)) e^{-t}
for both models.  ``integrate`` follows that closed form: each sample is a
root of eta(theta) = eta0 e^{-t}, found by a predictor and Newton's method,
both in w = 1/(theta - lower).  The flow can reach the edge of a model's
dual image in finite time (the metric degenerates there), or a fold of the
curve (Stirling's V), so the follower stops with a flagged status instead
of stepping through the singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError, StepFailureError
from .integrability import invariant_columns
from .manifold import (_RESIDUAL_GOAL, _SMALL_STEP, _inverse, _newton, _rank_one, _times,
                       as_point, check_finite, inside, solve_det)

# Integration stops (flagged, not an error) once |det G| drops below this.
DET_GUARD = 1e-12

# invert_eta's Newton step budget.
_NEWTON_MAX_ITER = 100

# integrate's step size aims the predictor's error, relative in w, at
# _PREDICTOR_TOL; its corrector makes at most _CORRECTOR_CALLS hook calls per
# step, and a flow tries at most _MAX_STEPS steps.
_PREDICTOR_TOL, _CORRECTOR_CALLS, _MAX_STEPS = 1e-2, 5, 100_000


@dataclass
class Trajectory:
    """Time-ordered flow samples with per-sample diagnostics."""

    t: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    hamiltonian: np.ndarray
    det_g: np.ndarray
    lax_dev: np.ndarray
    n_rejected: int
    n_rhs: int
    status: str

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def n_accepted(self) -> int:
        return len(self.t) - 1

    @property
    def theta_end(self) -> np.ndarray:
        return self.theta[-1]


def rhs(model, theta) -> np.ndarray:
    """Flow velocity -G^{-1} eta at a point.  Singular only where det G is
    exactly 0; ``integrate`` applies DET_GUARD to accepted samples.  Raises
    DomainError where the velocity is not finite (the metric overflows)."""
    a, b, c = model.check_domain(theta).tolist()
    e0, e1, e2, d1, d2, d3, o = model.eta_metric_kernel(a, b, c)
    return check_finite(-np.array(solve_det(d1, d2, d3, o, e0, e1, e2)[1:]),
                        "flow velocity", theta)


def eta_closed(eta0, t: float) -> np.ndarray:
    """Dual-space solution eta0 * e^{-t}.  DomainError where eta0 is not
    three finite floats, t is not finite, or e^{-t} or the product
    overflows."""
    eta0 = as_point(eta0, "eta0")
    try:
        scale = math.exp(-t) if math.isfinite(t) else math.nan
    except OverflowError:
        scale = math.inf
    # a scale of inf or NaN makes the product inf or NaN, 0 * inf included
    with np.errstate(over="ignore", invalid="ignore"):
        eta = eta0 * scale
    if not np.isfinite(eta).all():
        raise DomainError(f"eta0 e^-t is not finite at eta0 = {eta0.tolist()}, t = {t!r}")
    return eta


def _correct(kernel, lower, w, target, tol, positive):
    """Newton's method on eta(theta) = target in w, theta = lower + 1/w, from
    the predicted w: at most _CORRECTOR_CALLS iterates, each one hook call
    and one factorization of G, its det and G^{-1} (``_rank_one`` and
    ``_inverse``, as in ``solve_det``), for the theta-step
    s = G^{-1} (eta - target), taken in w as w_i + w_i^2 s_i.  Returns
    (calls, sample, failed).  ``sample`` is the first iterate where every
    |eta_i - target_i| <= tol and s is below sqrt(eps) (theta_i - lower)
    plus one ulp of theta_i (``invert_eta``'s step test, down to the
    rounding of theta): its theta, the hook's eta and det G there, G^{-1} eta
    from the same factors and its w; ``failed`` is then None.  Otherwise
    ``sample`` is None and ``failed`` is the status a step underflow ends in:
    "left_domain" where the predicted point or an iterate is finite but
    outside the domain, the hook raised DomainError or G is not finite;
    "singular" where det G is 0 or of the other sign than at the start (the
    iterate crossed a fold), or where an iterate met tol but Newton did not
    converge (G is numerically singular along the step: just past a fold,
    or at the rounding floor of eta); None where the prediction is not
    finite, Newton diverged (a step as long as some theta_i - lower, so that
    the next w_i would leave (0, 2 w_i), or NaN) or it ran out of calls."""
    w0, w1, w2 = w
    finite, ulp, met = math.isfinite, math.ulp, False
    if not (finite(w0) and finite(w1) and finite(w2)):
        return 0, None, None
    # w > 0 first: 1/w would divide by zero at w = 0.
    if not (w0 > 0.0 and w1 > 0.0 and w2 > 0.0):
        return 0, None, "left_domain"
    a, b, c = lower + 1.0 / w0, lower + 1.0 / w1, lower + 1.0 / w2
    t0, t1, t2 = target
    for calls in range(1, _CORRECTOR_CALLS + 1):
        # An iterate lower + 1/w can round onto the bound.
        if not inside(lower, a, b, c):
            return calls - 1, None, "left_domain"
        try:
            e0, e1, e2, d1, d2, d3, o = kernel(a, b, c)
        except DomainError:
            return calls, None, "left_domain"
        if not (finite(d1) and finite(d2) and finite(d3) and finite(o)):
            return calls, None, "left_domain"
        r0, r1, r2 = e0 - t0, e1 - t1, e2 - t2
        factors = _rank_one(d1, d2, d3, o)
        det = factors[0]
        # Singular at det 0, as ``_inverse`` is.  A NaN det fails the sign
        # test where the start's det is positive, else it makes the step NaN.
        if det == 0.0 or (det > 0.0) != positive:
            return calls, None, "singular"
        inverse = _inverse(*factors)
        s0, s1, s2 = _times(inverse, r0, r1, r2)
        # A NaN residual fails the test and makes the next iterate NaN.
        if abs(r0) <= tol and abs(r1) <= tol and abs(r2) <= tol:
            if (abs(s0) <= _SMALL_STEP * (a - lower) + ulp(a)
                    and abs(s1) <= _SMALL_STEP * (b - lower) + ulp(b)
                    and abs(s2) <= _SMALL_STEP * (c - lower) + ulp(c)):
                v = _times(inverse, e0, e1, e2)
                return calls, ((a, b, c), (e0, e1, e2), det, v, (w0, w1, w2)), None
            met = True
        # A step as long as theta_i - lower could leave the domain: Newton
        # has diverged.  A NaN step fails this too.
        if not (abs(s0) < a - lower and abs(s1) < b - lower and abs(s2) < c - lower):
            break
        w0, w1, w2 = w0 + w0 * w0 * s0, w1 + w1 * w1 * s1, w2 + w2 * w2 * s2
        a, b, c = lower + 1.0 / w0, lower + 1.0 / w1, lower + 1.0 / w2
    return calls, None, "singular" if met else None


def integrate(model, theta0, t_end: float, rtol: float = 1e-9,
              atol: float = 1e-12) -> Trajectory:
    """The gradient flow, followed as the curve eta(theta(t)) = eta0 e^{-t}
    by a predictor and a Newton corrector (Allgower and Georg, Numerical
    Continuation Methods, 1990).

    The predictor works in w_i = 1/(theta_i - lower), whose slope is
    w' = w^2 G^{-1} eta.  The flow leaves the dual image in finite time t*,
    where theta runs off to infinity like C/(t* - t); there w has a regular
    zero, so the steps need not fall towards a pole.  The first step is
    linear in w; each later one extrapolates the cubic Hermite through the
    last two samples' w and w'.  The corrector, ``_correct``, is Newton's
    method in the same w: near the lower bound eta is nearly linear in w
    (there the Stirling eta_i is ln(s - 1) + ln w_i - w_i/2), so it needs
    fewer hook calls than Newton in theta.  It accepts a sample where
    max|eta(theta) - eta0 e^{-t}| <= atol + rtol max|eta0 e^{-t}| and Newton
    has converged: that residual is what ``rtol`` and ``atol`` bound.  Each
    must be finite and >= 0, as must t_end, or DomainError is raised.  A
    rejected step is halved.  After an accepted step h scales by
    0.9 (1e-2/err)^(1/4), between 1/3 and 6 (at most 1 straight after a
    rejection), where err is the prediction's largest error relative to the
    accepted w.  The last step is clipped to land on t_end, after the step
    underflow test (h >= 1e-13 max(1, t)): a t_end below that floor, or just
    past a sample, is reached.  The first sample is theta0 as given; each
    accepted step records t and its theta, with the hook's eta and det G
    there, so the eta column is eta(theta).  The ``hamiltonian`` and
    ``lax_dev`` columns follow from the eta column after the loop.
    ``n_accepted`` is the sample count less one; ``n_rhs`` counts the hook
    calls after the start sample's, those of rejected steps included.

    Stops early with status "singular" when |det G| < 1e-12 at an accepted
    sample.  When the step size underflows, the last rejected step decides,
    by ``_correct``'s rules: "singular" (at a fold, such as the Stirling
    degeneracy surface V), "left_domain", or StepFailureError.  Raises
    StepFailureError after 100 000 tried steps, and SingularMatrixError
    when det G at the start is below 1e-12 or not finite.
    """
    for name, value in (("t_end", t_end), ("rtol", rtol), ("atol", atol)):
        if not (value >= 0.0 and math.isfinite(value)):
            raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    theta = model.check_domain(theta0).tolist()
    parts = model.eta_metric_kernel(*theta)
    check_finite(parts[:3], "eta", theta)
    factors = _rank_one(*check_finite(parts[3:], "metric", theta))
    det = factors[0]
    # The columns t, theta, eta and det G, theta and eta flattened row by row.
    ts, thetas, etas, dets = [0.0], list(theta), list(parts[:3]), [det]
    # A det that overflows in the metric's products (inf or NaN) fails too.
    if not DET_GUARD <= abs(det) < math.inf:
        raise SingularMatrixError(
            f"metric is numerically singular at the start point {theta}"
        )

    n_rejected = n_rhs = 0
    status = "completed"

    if t_end > 0.0:
        lower, kernel = model.lower, model.eta_metric_kernel
        f0, f1, f2 = parts[:3]
        scale = max(abs(f0), abs(f1), abs(f2))
        positive = det > 0.0
        w0, w1, w2 = (1.0 / (x - lower) for x in theta)
        v0, v1, v2 = _times(_inverse(*factors), f0, f1, f2)
        m0, m1, m2 = w0 * w0 * v0, w1 * w1 * v1, w2 * w2 * v2
        h = 1e-2 / (1.0 + max(abs(m0), abs(m1), abs(m2)))
        t = 0.0
        # The step before the last sample, (H, w, w'), for the cubic predictor.
        before = None
        rejected = False
        # Every rejection sets the status a step underflow ends in (None: raise).
        underflow_status = None
        while t < t_end:
            # The floor judges the controller's step, before the cut to t_end.
            # A non-finite start velocity makes h NaN or 0, and fails here.
            if not h >= 1e-13 * max(1.0, t):
                if underflow_status is None:
                    raise StepFailureError(
                        f"step size underflow at t={t!r} (h={h!r},"
                        f" rtol={rtol!r}, atol={atol!r})"
                    )
                status = underflow_status
                break
            if len(ts) - 1 + n_rejected == _MAX_STEPS:
                raise StepFailureError(
                    f"step budget of {_MAX_STEPS} tried steps spent at t={t!r}"
                    f" (rtol={rtol!r}, atol={atol!r})"
                )
            h = min(h, t_end - t)
            # A step clipped to t_end lands on it: t + (t_end - t) can round off.
            t_new = t_end if h == t_end - t else t + h
            if before is None:
                p0, p1, p2 = w0 + h * m0, w1 + h * m1, w2 + h * m2
            else:
                # w + h (w' + r c2 + r^2 c3), r = h/H: the cubic through the
                # last two samples' w and w' (u and n), from the last one,
                # with the secant slopes q.
                big_h, u0, u1, u2, n0, n1, n2 = before
                r = h / big_h
                rr = r * r
                q0, q1, q2 = (w0 - u0) / big_h, (w1 - u1) / big_h, (w2 - u2) / big_h
                p0 = w0 + h * (m0 + r * (n0 + 2.0 * m0 - 3.0 * q0) + rr * (n0 + m0 - 2.0 * q0))
                p1 = w1 + h * (m1 + r * (n1 + 2.0 * m1 - 3.0 * q1) + rr * (n1 + m1 - 2.0 * q1))
                p2 = w2 + h * (m2 + r * (n2 + 2.0 * m2 - 3.0 * q2) + rr * (n2 + m2 - 2.0 * q2))
            f = math.exp(-t_new)
            calls, sample, failed = _correct(kernel, lower, (p0, p1, p2),
                                             (f0 * f, f1 * f, f2 * f),
                                             atol + rtol * (scale * f), positive)
            n_rhs += calls
            if sample is None:
                n_rejected += 1
                underflow_status = failed
                rejected = True
                h *= 0.5
                continue
            before = (t_new - t, w0, w1, w2, m0, m1, m2)
            point, eta_new, det, (v0, v1, v2), (w0, w1, w2) = sample
            ts.append(t_new)
            thetas += point
            etas += eta_new
            dets.append(det)
            t = t_new
            m0, m1, m2 = w0 * w0 * v0, w1 * w1 * v1, w2 * w2 * v2
            if abs(det) < DET_GUARD:
                status = "singular"
                break
            err = max(abs(w0 - p0) / w0, abs(w1 - p1) / w1, abs(w2 - p2) / w2)
            fac = 6.0 if err == 0.0 else 0.9 * (_PREDICTOR_TOL / err) ** 0.25
            # At most 1 straight after a rejection.
            fac = min(1.0 if rejected else 6.0, max(1 / 3, fac))
            rejected = False
            h *= fac

    eta = np.array(etas).reshape(-1, 3)
    hamiltonian, lax_dev = invariant_columns(eta)
    return Trajectory(
        t=np.array(ts),
        theta=np.array(thetas).reshape(-1, 3),
        eta=eta,
        hamiltonian=hamiltonian,
        det_g=np.array(dets),
        lax_dev=lax_dev,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        status=status,
    )


def invert_eta(model, target, guess=None) -> np.ndarray:
    """Newton inversion of the dual map (``manifold._newton``) from
    ``guess`` or else the model's start (``model._inversion_root``), with
    the metric as the exact Jacobian and the domain as its box: a step that
    would leave it is halved.  Returns once max|eta(theta) - target| <=
    1e-12, or at the rounding floor; NoConvergenceError after 100 steps.
    A start that the model reports as already meeting 1e-12 in every
    component under its own hook, as a Stirling start usually does, is
    returned as it stands: Newton's first hook call would return it."""
    target = as_point(target, "target")
    if guess is None:
        guess, met = model._inversion_root(target)
        if met:
            return np.array(guess)
    theta = model.check_domain(guess).tolist()  # its DomainError names the domain
    # the box: the floats above lower and below inf
    bounds = (math.nextafter(model.lower, math.inf), math.nextafter(math.inf, 0.0))
    return np.array(_newton(model.eta_metric_kernel, model.lower, theta, target.tolist(),
                            _NEWTON_MAX_ITER, (bounds, bounds, bounds, (-math.inf, math.inf)),
                            _RESIDUAL_GOAL))
