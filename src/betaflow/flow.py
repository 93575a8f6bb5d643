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
from .manifold import _SMALL_STEP, _rank_one, as_point, check_finite, inside, solve_det

# Integration stops (flagged, not an error) once |det G| drops below this.
DET_GUARD = 1e-12

# invert_eta's residual goal and Newton step budget.
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 100

# DOP853, the Dormand-Prince 8(5,3) pair, with the coefficients of Hairer's
# dop853 (Hairer, Norsett and Wanner, Solving ODEs I, II.5 and II.10).  Each
# row lists the nonzero entries of one stage as (column, coefficient): rows
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


def _sum(weights, c):
    """Component c of sum(a * k_j) over (j, a) in weights, left to right."""
    return " + ".join(f"{a!r} * k{j}_{c}" for j, a in weights)


def _step_source():
    """Source of ``_step(stage, h, y, k0, rtol, atol)``: one DOP853 step from
    w = y with first slope k0, as straight-line float code with one call of
    ``stage`` (see ``_stage``) per row of _ROWS.  It returns (n, w, last,
    failed, err): the n stages tried, the last stage point w and the error
    ratio, which passes at err <= 1.  If all returned, ``last`` is the
    twelfth's tuple, ``failed`` None and err = h n5 / sqrt(den), den =
    3 (n5 + 0.01 n3), from the squared norms n5 and n3 of e5 and e3 over
    atol + rtol max(|y|, |w|) (a zero scale gives inf, or NaN for a zero
    error); err is 0.0 where den is 0, NaN where it is inf or NaN.  If stage
    n raised, ``last`` is None, err NaN and ``failed`` the status a step
    underflow ends in: "singular", "left_domain" at a finite w, else None."""
    lines = ["def _step(stage, h, y, k0, rtol, atol):",
             "    (y_0, y_1, y_2), (k0_0, k0_1, k0_2) = y, k0",
             "    try:"]
    for n, row in enumerate(_ROWS, start=1):
        lines.append(f"        n = {n}")
        lines += [f"        p_{c} = y_{c} + h * ({_sum(row, c)})" for c in range(3)]
        slope = "last" if n == len(_ROWS) else f"k{n}_0, k{n}_1, k{n}_2" + ", _" * 7
        lines.append(f"        {slope} = stage(p_0, p_1, p_2)")
    lines += ["    except DomainError:",
              "        finite = math.isfinite(p_0) and math.isfinite(p_1) and math.isfinite(p_2)",
              "        failed = 'left_domain' if finite else None",
              "        return n, (p_0, p_1, p_2), None, failed, math.nan",
              "    except SingularMatrixError:",
              "        return n, (p_0, p_1, p_2), None, 'singular', math.nan"]
    for c in range(3):
        lines += [f"    e5_{c} = {_sum([(j, e5) for j, e5, _ in _E], c)}",
                  f"    e3_{c} = {_sum([(j, e3) for j, _, e3 in _E], c)}",
                  f"    s_{c} = atol + rtol * max(abs(y_{c}), abs(p_{c}))",
                  f"    q5_{c}, q3_{c} = (e5_{c} / s_{c}, e3_{c} / s_{c}) if s_{c} else"
                  f" (e5_{c} * math.inf, e3_{c} * math.inf)"]
    lines += ["    n5 = q5_0 * q5_0 + q5_1 * q5_1 + q5_2 * q5_2",
              "    n3 = q3_0 * q3_0 + q3_1 * q3_1 + q3_2 * q3_2",
              "    den = (n5 + 0.01 * n3) * 3",
              "    if 0.0 < den < math.inf:",
              "        return n, (p_0, p_1, p_2), last, None, h * n5 / math.sqrt(den)",
              "    return n, (p_0, p_1, p_2), last, None, 0.0 if den == 0.0 else math.nan", ""]
    return "\n".join(lines)


# Compiled once, into this module's namespace: defines _step.
_STEP_SOURCE = _step_source()
exec(compile(_STEP_SOURCE, "<betaflow.flow._step>", "exec"), globals())


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
    n_rhs: int
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
    a, b, c = model.check_domain(theta).tolist()
    e0, e1, e2, d1, d2, d3, o = model.eta_metric_kernel(a, b, c)
    return check_finite(-np.array(solve_det(d1, d2, d3, o, e0, e1, e2)[1:]),
                        "flow velocity", theta)


def _stage(model):
    """The flow in w = 1/(theta - lower), bound to ``model``'s domain and
    its ``eta_metric_kernel``: ``stage(w0, w1, w2)`` maps w to the point
    theta = lower + 1/w and returns, from one hook call, the flat tuple of
    the velocity w' = w^2 G^{-1} eta there (the chain rule on
    theta' = -G^{-1} eta), the eta and det G it used, and the point.  A w
    that is not > 0, or that maps onto lower or to inf, lies outside the
    domain, as does a point where G is not finite."""
    lower, kernel, name, inf = model.lower, model.eta_metric_kernel, model.name, math.inf
    finite = math.isfinite

    def stage(w0, w1, w2):
        # w > 0 first: 1/w would divide by zero at w = 0.
        if w0 > 0.0 and w1 > 0.0 and w2 > 0.0:
            a, b, c = lower + 1.0 / w0, lower + 1.0 / w1, lower + 1.0 / w2
            if lower < a < inf and lower < b < inf and lower < c < inf:
                e0, e1, e2, d1, d2, d3, o = kernel(a, b, c)
                if finite(d1) and finite(d2) and finite(d3) and finite(o):
                    det, v0, v1, v2 = solve_det(d1, d2, d3, o, e0, e1, e2)
                    return w0 * w0 * v0, w1 * w1 * v1, w2 * w2 * v2, e0, e1, e2, det, a, b, c
        raise DomainError(f"w = {[w0, w1, w2]!r} maps outside the {name} domain")

    return stage


def eta_closed(eta0, t: float) -> np.ndarray:
    """Dual-space solution eta0 * e^{-t}."""
    return np.asarray(eta0, dtype=float) * math.exp(-t)


def integrate(model, theta0, t_end: float, rtol: float = 1e-9,
              atol: float = 1e-12) -> Trajectory:
    """Adaptive Dormand-Prince 8(5,3) (DOP853) solution of the gradient flow.

    The state is w_i = 1/(theta_i - lower), with w' = w^2 G^{-1} eta.  The
    flow leaves the dual image in finite time t*, where theta runs off to
    infinity like C/(t* - t); there w has a regular zero, so the steps need
    not fall towards a pole.  ``rtol`` and ``atol`` bound the error of w,
    that is, the relative error of theta - lower; each must be finite and
    >= 0, as must t_end, or DomainError is raised.  Each step is one call of
    ``_step``, compiled at import from the tableau (``_STEP_SOURCE``), which
    returns Hairer's combined error ratio h |e5|^2 / sqrt(3 (|e5|^2 +
    0.01 |e3|^2)), each component over atol + rtol max(|w|, |w_new|); the
    step is accepted when that ratio is <= 1.  Its twelve stage points are
    sums over the nonzero tableau entries, added left to right in the
    tableau's order.  The step size follows Gustafsson's predictive
    controller, and the last step is clipped to land on t_end, after the
    step underflow test (h >= 1e-13 max(1, t)): a t_end below that floor, or
    just past a sample, is reached.  The first
    sample is theta0 as given; each accepted step records t and the
    theta = lower + 1/w, eta and det G of its last stage, the step result,
    whose slope starts the next step.  The ``hamiltonian`` and ``lax_dev``
    columns follow from the eta column after the loop.  ``n_accepted`` is
    the sample count less one; ``n_rhs`` counts the stage evaluations
    tried, the start's and those of rejected steps included.

    Stops early with status "singular" when |det G| < 1e-12 at an accepted
    sample.  When the step size underflows, the last rejected step decides:
    "singular" if a stage met a metric whose det is exactly 0, "left_domain"
    if a finite stage point left the domain, and StepFailureError if the
    step failed the error test or a stage point was not finite.  A Stirling
    flow that runs into the degeneracy surface V (den = 0) ends in that
    error: there every step fails the error test.  Raises
    SingularMatrixError when det G at the start is below 1e-12 or not finite.
    """
    for name, value in (("t_end", t_end), ("rtol", rtol), ("atol", atol)):
        if not (value >= 0.0 and math.isfinite(value)):
            raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    y = model.check_domain(theta0)
    theta = y.tolist()
    parts = model.eta_metric_kernel(*theta)
    eta = np.array(check_finite(parts[:3], "eta", theta))
    samples = [(0.0, y, eta, _rank_one(*check_finite(parts[3:], "metric", theta))[0])]
    # A det that overflows in the metric's products (inf or NaN) fails too.
    if not DET_GUARD <= abs(samples[0][3]) < math.inf:
        raise SingularMatrixError(
            f"metric is numerically singular at the start point {y.tolist()}"
        )

    n_rejected = n_rhs = 0
    status = "completed"

    if t_end > 0.0:
        stage = _stage(model)
        y = tuple(1.0 / (x - model.lower) for x in y.tolist())
        k1 = stage(*y)[:3]
        n_rhs = 1
        h = 1e-2 / (1.0 + float(np.max(np.abs(k1))))
        t = 0.0
        err_prev = h_prev = None
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
            h = min(h, t_end - t)
            n, y_new, last, failed, err = _step(stage, h, y, k1, rtol, atol)
            n_rhs += n
            # A NaN err (a stage raised, or the estimate is not finite) fails.
            if not err <= 1.0:
                n_rejected += 1
                underflow_status = failed
                rejected = True
                h *= max(1 / 3, 0.9 * err ** -0.125) if err > 1.0 else 0.5
                continue
            # A step clipped to t_end lands on it: t + (t_end - t) can round off.
            t = t_end if h == t_end - t else t + h
            y, k1, det = y_new, last[:3], last[6]
            # The last stage evaluated eta, det G and theta at y_new.
            samples.append((t, last[7:], last[3:6], det))
            if abs(det) < DET_GUARD:
                status = "singular"
                break
            if err == 0.0:
                fac = 6.0
            else:
                fac = 0.9 * err ** -0.125
                # Gustafsson's prediction from the last accepted step.
                if err_prev:
                    fac *= h / h_prev * (err_prev / err) ** 0.125
            # At most 1 straight after a rejection.
            fac = min(1.0 if rejected else 6.0, max(1 / 3, fac))
            err_prev, h_prev, rejected = err, h, False
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
        n_accepted=len(samples) - 1,
        n_rejected=n_rejected,
        n_rhs=n_rhs,
        status=status,
    )


def invert_eta(model, target, guess=None) -> np.ndarray:
    """Newton inversion of the dual map from ``guess`` or else
    ``model.inversion_start(target)``, with the metric as the exact Jacobian
    and step halving whenever a full step would exit the domain.  Returns
    once max|eta(theta) - target| <= 1e-12, or, unevaluated, the point a
    full step below sqrt(eps) (theta_i - lower) in every coordinate reaches:
    eta's curvature scales as 1/(theta_i - lower), so that point is at the
    rounding floor (the step test of Dennis and Schnabel, Numerical Methods
    for Unconstrained Optimization and Nonlinear Equations, ch. 7)."""
    target = as_point(target, "target")
    t0, t1, t2 = target.tolist()
    start = model.inversion_start(target) if guess is None else guess
    # the one domain check; every backtracked step below stays inside
    theta = model.check_domain(start).tolist()
    lower, kernel, tiny = model.lower, model.eta_metric_kernel, _SMALL_STEP
    for _ in range(_NEWTON_MAX_ITER):
        e0, e1, e2, d1, d2, d3, o = kernel(*theta)
        check_finite((e0, e1, e2), "eta", theta)
        r0, r1, r2 = e0 - t0, e1 - t1, e2 - t2
        # A start already on target is returned where G overflows.
        if max(abs(r0), abs(r1), abs(r2)) <= _NEWTON_TOL:
            return np.array(theta)
        check_finite((d1, d2, d3, o), "metric", theta)
        try:
            s0, s1, s2 = solve_det(d1, d2, d3, o, -r0, -r1, -r2)[1:]
        except SingularMatrixError as exc:
            raise NoConvergenceError(f"Newton Jacobian is singular at {theta}") from exc
        # An infinite det G (its products overflow) solves to a zero step.
        if not (s0 or s1 or s2):
            raise NoConvergenceError(f"Newton step is zero at {theta}")
        a, b, c = theta
        lam = 1.0
        while not inside(lower, a + lam * s0, b + lam * s1, c + lam * s2):
            lam *= 0.5
            if lam < 2.0 ** -60:
                raise NoConvergenceError(f"backtracking stalled at {theta}")
        theta = [a + lam * s0, b + lam * s1, c + lam * s2]
        if (lam == 1.0 and abs(s0) <= tiny * (a - lower) and abs(s1) <= tiny * (b - lower)
                and abs(s2) <= tiny * (c - lower)):
            return np.array(theta)
    raise NoConvergenceError(
        f"eta inversion did not converge in {_NEWTON_MAX_ITER} steps"
    )
