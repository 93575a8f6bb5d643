"""Shared geometric primitives: points, symmetric 3x3 metrics, domain labels.

Points on the three-parameter manifold are plain numpy arrays of shape (3,),
ordered (a, b, c); dual coordinates eta use the same convention.  Symmetric
metrics are stored as their six independent entries so symmetry holds by
construction rather than by rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergenceError, SingularMatrixError

# _newton and the flow's corrector stop on a step below this times
# theta_i - lower: sqrt of the float epsilon, where the stop lands at the rounding floor.
_SMALL_STEP = 2.0 ** -26

# The residual goal max|eta(theta) - target| of invert_eta and of the Stirling
# preimage search's choice among preimages.
_RESIDUAL_GOAL = 1e-12


def as_point(x, name: str = "point") -> np.ndarray:
    """Coerce to a finite float array of shape (3,)."""
    p = np.asarray(x, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"{name} must have exactly 3 components, got shape {p.shape}")
    # math.isfinite on three floats takes a third of np.isfinite's time
    if not all(map(math.isfinite, p.tolist())):
        raise DomainError(f"{name} must be finite, got {p.tolist()}")
    return p


def check_count(value, what: str, least: int) -> int:
    """``value`` as an int; DomainError unless it is an integer >= ``least``."""
    if isinstance(value, (int, np.integer)) and value >= least:
        return int(value)
    raise DomainError(f"{what} must be >= {least} and an integer, got {value!r}")


def inside(lower: float, a: float, b: float, c: float) -> bool:
    """The domain rule on three floats: each finite and above ``lower``.
    NaN fails every comparison."""
    return lower < a < math.inf and lower < b < math.inf and lower < c < math.inf


class Model:
    """The domain rule both models share, and their checked ``eta``,
    ``metric``, ``det_closed`` and ``metric_inverse_closed``.  A point is
    three finite coordinates, each above ``lower``.  Subclasses set
    ``lower``, ``name`` and ``domain_description``, which the error message
    quotes, and provide one float hook, ``eta_metric_kernel(a, b, c)``,
    which returns ``(e0, e1, e2, D1, D2, D3, o)`` from one pass over a point
    already in the domain: the dual coordinates, then the rank-one parts of
    the metric, G = diag(D) + o 11^T.  The hook checks nothing and raises
    nothing: a value that overflows comes back as inf or NaN.  Its checked
    callers, the methods here, ``rhs`` and ``invert_eta``, raise
    ``DomainError`` where a value they use is not finite.  The exact G
    overflows at tiny coordinates where eta is still finite, so there
    ``eta`` returns and ``metric`` raises.
    """

    def check_domain(self, theta) -> np.ndarray:
        p = np.asarray(theta, dtype=float)
        if p.shape == (3,) and inside(self.lower, *p.tolist()):
            return p
        # Past the fast path a finite point of shape (3,) has a coordinate
        # at or below the bound.
        p = as_point(theta, "theta")
        raise DomainError(
            f"{self.name} model needs {self.domain_description}, got {p.tolist()}"
        )

    def eta(self, theta) -> np.ndarray:
        """eta at a point of the domain; DomainError where it is not finite
        (a coordinate sum overflowed, or 1/a did)."""
        theta = self.check_domain(theta).tolist()
        return np.array(check_finite(self.eta_metric_kernel(*theta)[:3], "eta", theta))

    def metric(self, theta) -> Metric3:
        """G at a point of the domain; DomainError where it is not finite."""
        d1, d2, d3, o = self._metric_parts(theta)
        return Metric3(d1 + o, d2 + o, d3 + o, o, o, o)

    def det_closed(self, theta) -> float:
        """det G from the rank-one parts; DomainError where G or det G is
        not finite."""
        return check_finite(_rank_one(*self._metric_parts(theta))[0], "det G", theta)

    def metric_inverse_closed(self, theta) -> Metric3:
        """G^-1 as the rank-one adjugate over det G.  SingularMatrixError
        only where det G is exactly 0; DomainError where G or an entry of
        G^-1 is not finite."""
        inverse = _inverse(*_rank_one(*self._metric_parts(theta)))
        return Metric3(*check_finite(inverse, "metric inverse", theta))

    def _metric_parts(self, theta) -> tuple[float, float, float, float]:
        """(D1, D2, D3, o) at a point of the domain; DomainError where one is
        not finite."""
        theta = self.check_domain(theta).tolist()
        return check_finite(self.eta_metric_kernel(*theta)[3:], "metric", theta)


@dataclass(frozen=True)
class Metric3:
    """Symmetric 3x3 matrix held as six entries (diagonal d*, off-diagonal o*),
    or a stack of them held as six same-shape arrays."""

    d1: float
    d2: float
    d3: float
    o12: float
    o13: float
    o23: float

    @classmethod
    def from_array(cls, m) -> "Metric3":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 array, got shape {m.shape}")
        scale = np.max(np.abs(m))
        if np.max(np.abs(m - m.T)) > 1e-12 * max(scale, 1.0):
            raise ValueError("matrix is not symmetric within tolerance")
        (d1, o12, o13), (_, d2, o23), (_, _, d3) = m.tolist()
        return cls(d1, d2, d3, o12, o13, o23)

    def as_array(self) -> np.ndarray:
        """The 3x3 array; on same-shape array entries, shape (..., 3, 3)."""
        m = np.array([[self.d1, self.o12, self.o13],
                      [self.o12, self.d2, self.o23],
                      [self.o13, self.o23, self.d3]])
        return np.moveaxis(m, (0, 1), (-2, -1))


def check_finite(value, what: str, theta):
    """``value``, a float, a tuple of floats or an array, or DomainError where
    any of it is infinite or NaN: a product it is made of overflowed, or a 0/0."""
    # math.isfinite takes a float in a tenth of np.isfinite's time
    if isinstance(value, float):
        finite = math.isfinite(value)
    elif isinstance(value, tuple):
        finite = all(map(math.isfinite, value))
    else:
        finite = np.isfinite(value).all()
    if not finite:
        raise DomainError(f"{what} is not finite at {np.asarray(theta).tolist()}")
    return value


def det3(m: Metric3) -> float:
    """Determinant by cofactor expansion along the first row; DomainError where not finite."""
    entries = (m.d1, m.d2, m.d3, m.o12, m.o13, m.o23)
    return check_finite(_adjugate(*entries)[0], "det", entries)


def invert3(m: Metric3) -> Metric3:
    """Adjugate-over-determinant inverse of a symmetric 3x3 matrix, taken on
    m / 2^e with 2^e just above its largest entry, so no product overflows.

    Singular where |det| is at most 1e-12 times the cube of the largest
    entry, a threshold invariant under m -> s*m.  DomainError where an entry
    of m or of its inverse is not finite.
    """
    entries = (m.d1, m.d2, m.d3, m.o12, m.o13, m.o23)
    mant, e = math.frexp(max(map(abs, check_finite(entries, "a matrix entry", entries))))
    det, *adjugate = _adjugate(*(math.ldexp(x, -e) for x in entries))
    if abs(det) <= 1e-12 * mant ** 3:
        raise SingularMatrixError(f"matrix is singular within tolerance (det/2^{3 * e}={det:.3e})")
    try:
        return Metric3(*(math.ldexp(a / det, -e) for a in adjugate))
    except OverflowError:
        raise DomainError(f"matrix inverse is not finite at {list(entries)}") from None


def solve_det(d1, d2, d3, o, v0, v1, v2) -> tuple[float, ...]:
    """G^{-1} v for G = diag(d1, d2, d3) + o 11^T, both models' metric, on
    three floats of v, with det G first: (det, x0, x1, x2).  The rank-one
    adjugate (``_rank_one``) over det (``_inverse``), and then the products
    (``_times``): singular only where det is exactly 0."""
    factors = _rank_one(d1, d2, d3, o)
    x0, x1, x2 = _times(_inverse(*factors), v0, v1, v2)
    return factors[0], x0, x1, x2


def _inverse(det, c11, c22, c33, c12, c13, c23) -> tuple[float, ...]:
    """The six entries of G^{-1} in Metric3 field order, from ``_rank_one``'s
    det and adjugate: each entry over det.  SingularMatrixError only where
    det is exactly 0."""
    if det == 0.0:
        raise SingularMatrixError(f"matrix is singular (det={det!r})")
    return c11 / det, c22 / det, c33 / det, c12 / det, c13 / det, c23 / det


def _times(inverse, v0, v1, v2) -> tuple[float, float, float]:
    """The symmetric matrix of ``_inverse``'s six entries times (v0, v1, v2)."""
    i11, i22, i33, i12, i13, i23 = inverse
    return (i11 * v0 + i12 * v1 + i13 * v2,
            i12 * v0 + i22 * v1 + i23 * v2,
            i13 * v0 + i23 * v1 + i33 * v2)


def _newton(kernel, lower, theta, target, budget, box, tol) -> list[float]:
    """Newton's method in theta on eta(theta) = target, ``kernel`` giving
    eta and its Jacobian G: the root finder of ``invert_eta`` and of the
    Stirling preimage polish.  ``box`` holds closed bounds (lo, hi) for each
    coordinate and then for sigma = sum(theta) - 1, and must hold the start;
    each step, one ``kernel`` call and one ``solve_det``, is halved until it
    lands in it.  Returns theta once every |eta_i - target_i| <= tol, or,
    unevaluated, the point a full step below sqrt(eps) (theta_i - lower) in
    every coordinate reaches, at the rounding floor since eta's curvature
    scales as 1/(theta_i - lower) (Dennis and Schnabel, Numerical Methods
    for Unconstrained Optimization and Nonlinear Equations, ch. 7).
    DomainError where the start is outside the box, eta is not finite, or G
    is not finite past the residual test; NoConvergenceError where G is
    singular, the step is zero (an infinite det G solves to 0), the halving
    falls below 2^-60, or ``budget`` steps do not converge."""
    t0, t1, t2 = target
    a, b, c = theta
    (l0, h0), (l1, h1), (l2, h2), (ls, hs) = box
    finite = math.isfinite  # a tenth of check_finite's time, on the hot path
    # NaN is in no box; a third of the Stirling polish runs raise here: no message
    if not (l0 <= a <= h0 and l1 <= b <= h1 and l2 <= c <= h2 and ls <= a + b + c - 1.0 <= hs):
        raise DomainError("Newton start is outside its box")
    for _ in range(budget):
        e0, e1, e2, d1, d2, d3, o = kernel(a, b, c)
        if not (finite(e0) and finite(e1) and finite(e2)):
            raise DomainError(f"eta is not finite at {[a, b, c]}")
        r0, r1, r2 = e0 - t0, e1 - t1, e2 - t2
        if abs(r0) <= tol and abs(r1) <= tol and abs(r2) <= tol:
            return [a, b, c]
        if not (finite(d1) and finite(d2) and finite(d3) and finite(o)):
            raise DomainError(f"metric is not finite at {[a, b, c]}")
        try:
            s0, s1, s2 = solve_det(d1, d2, d3, o, -r0, -r1, -r2)[1:]
        except SingularMatrixError as exc:
            raise NoConvergenceError(f"Newton Jacobian is singular at {[a, b, c]}") from exc
        if not (s0 or s1 or s2):
            raise NoConvergenceError(f"Newton step is zero at {[a, b, c]}")
        lam = 1.0
        x, y, z = a + s0, b + s1, c + s2
        while not (l0 <= x <= h0 and l1 <= y <= h1 and l2 <= z <= h2
                   and ls <= x + y + z - 1.0 <= hs):
            lam *= 0.5
            if lam < 2.0 ** -60:
                raise NoConvergenceError(f"backtracking stalled at {[a, b, c]}")
            x, y, z = a + lam * s0, b + lam * s1, c + lam * s2
        small = (lam == 1.0 and abs(s0) <= _SMALL_STEP * (a - lower)
                 and abs(s1) <= _SMALL_STEP * (b - lower) and abs(s2) <= _SMALL_STEP * (c - lower))
        a, b, c = x, y, z
        if small:
            return [a, b, c]
    raise NoConvergenceError(f"eta inversion did not converge in {budget} steps")


def _rank_one(d1, d2, d3, o):
    """det G, then the six entries of its adjugate in Metric3 field order,
    for G = diag(d1, d2, d3) + o 11^T, on floats or same-shape arrays.

    Each off-diagonal cofactor is one product, -o d_k, and det G is the
    expansion along the first row.  The diagonal cofactors are 2x2 minors
    of G itself, g_j g_l - o^2 with g = d + o: where one coordinate
    dominates s, d_i is close to -o, and a minor that holds g_i small
    keeps its digits, as det G, which holds it too.  It divides by
    nothing, so it holds where some d_i = 0 (Stirling alpha_i = 3/2).
    """
    g1, g2, g3, oo = d1 + o, d2 + o, d3 + o, o * o
    c11, c12, c13 = g2 * g3 - oo, -o * d3, -o * d2
    return (g1 * c11 + o * (c12 + c13), c11, g1 * g3 - oo, g1 * g2 - oo, c12, c13, -o * d1)


def _adjugate(d1, d2, d3, o12, o13, o23) -> tuple[float, ...]:
    """det m, then the six entries of its adjugate in Metric3 field order."""
    ca = d2 * d3 - o23 * o23
    cb = o13 * o23 - o12 * d3
    cc = o12 * o23 - d2 * o13
    return (
        d1 * ca + o12 * cb + o13 * cc,
        ca,
        d1 * d3 - o13 * o13,
        d1 * d2 - o12 * o12,
        cb,
        cc,
        o12 * o13 - d1 * o23,
    )


class DomainLabel(str, enum.Enum):
    """Classification of a point relative to the Stirling model's domain."""

    REGULAR = "Regular"
    ON_D = "OnD"
    ON_V = "OnV"
    OUTSIDE = "OutsideDomain"


@dataclass(frozen=True)
class DomainClass:
    """Label plus a distance-to-locus diagnostic.

    For in-domain points the distance is to the nearer degeneracy locus
    (Chebyshev in the (b, c) plane to the line D, along the a axis to the
    surface V); for OutsideDomain it is the depth below the a,b,c > 1 boundary.
    """

    label: DomainLabel
    distance: float

    def __post_init__(self):
        if math.isnan(self.distance):
            raise ValueError("distance diagnostic must not be NaN")
