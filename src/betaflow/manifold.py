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

from .errors import DomainError, SingularMatrixError


def as_point(x, name: str = "point") -> np.ndarray:
    """Coerce to a finite float array of shape (3,)."""
    p = np.asarray(x, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"{name} must have exactly 3 components, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise DomainError(f"{name} must be finite, got {p.tolist()}")
    return p


def inside(lower: float, a: float, b: float, c: float) -> bool:
    """The domain rule on three floats: each finite and above ``lower``.
    NaN fails every comparison."""
    return lower < a < math.inf and lower < b < math.inf and lower < c < math.inf


class Model:
    """The domain rule both models share, and their checked ``eta`` and
    ``metric``.  A point is three finite coordinates, each above ``lower``.
    Subclasses set ``lower``, ``name`` and ``domain_description``, which the
    error message quotes, and provide one float hook,
    ``eta_metric_kernel(a, b, c)``, which returns
    ``(e0, e1, e2, d1, d2, d3, o)`` from one pass over a point already in
    the domain: the dual coordinates, the diagonal of G and its one
    off-diagonal value.  The hook checks nothing and raises nothing: a
    value that overflows comes back as inf or NaN.  Its checked callers,
    ``eta``, ``metric``, ``rhs`` and ``invert_eta``, raise ``DomainError``
    where a value they use is not finite.  The exact G overflows at tiny
    coordinates where eta is still finite, so there ``eta`` returns and
    ``metric`` raises.
    """

    def in_domain(self, theta) -> bool:
        try:
            self.check_domain(theta)
        except DomainError:
            return False
        return True

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
        theta = self.check_domain(theta).tolist()
        d1, d2, d3, o = check_finite(self.eta_metric_kernel(*theta)[3:], "metric", theta)
        return Metric3(d1, d2, d3, o, o, o)


@dataclass(frozen=True)
class Metric3:
    """Symmetric 3x3 matrix held as six entries (diagonal d*, off-diagonal o*)."""

    d1: float
    d2: float
    d3: float
    o12: float
    o13: float
    o23: float

    @classmethod
    def from_array(cls, m, rtol: float = 1e-12) -> "Metric3":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 array, got shape {m.shape}")
        scale = np.max(np.abs(m))
        if np.max(np.abs(m - m.T)) > rtol * max(scale, 1.0):
            raise ValueError("matrix is not symmetric within tolerance")
        return cls(m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2])

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                [self.d1, self.o12, self.o13],
                [self.o12, self.d2, self.o23],
                [self.o13, self.o23, self.d3],
            ]
        )

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.array(
            [
                self.d1 * v[0] + self.o12 * v[1] + self.o13 * v[2],
                self.o12 * v[0] + self.d2 * v[1] + self.o23 * v[2],
                self.o13 * v[0] + self.o23 * v[1] + self.d3 * v[2],
            ]
        )

    def leading_minors(self) -> tuple[float, float, float]:
        """Leading principal minors; all positive iff positive definite."""
        m1 = self.d1
        m2 = self.d1 * self.d2 - self.o12 * self.o12
        return m1, m2, det3(self)


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
    """Determinant by cofactor expansion along the first row."""
    return _adjugate(m.d1, m.d2, m.d3, m.o12, m.o13, m.o23)[0]


def invert3(m: Metric3, tol: float | None = None) -> Metric3:
    """Adjugate-over-determinant inverse of a symmetric 3x3 matrix.

    ``tol`` is the singularity threshold on |det|; the default, 1e-12 times the
    cube of the largest entry, is invariant under m -> s*m and is compared in
    units of a power of two near that cube, so it cannot overflow.
    """
    entries = (m.d1, m.d2, m.d3, m.o12, m.o13, m.o23)
    det, *adjugate = _adjugate(*entries)
    if tol is None:
        mant, e = math.frexp(max(map(abs, entries)))
        singular = abs(math.ldexp(det, -3 * e)) <= 1e-12 * mant ** 3
    else:
        singular = abs(det) <= tol
    if singular:
        raise SingularMatrixError(f"matrix is singular within tolerance (det={det:.3e})")
    return Metric3(*(a / det for a in adjugate))


def solve_det(d1, d2, d3, o, v0, v1, v2) -> tuple[float, ...]:
    """m^{-1} v for the symmetric m with diagonal (d1, d2, d3) and the one
    value o off the diagonal, as both models' metrics have, on three floats
    of v, with det m first: (det, x0, x1, x2).  Rounded exactly as
    ``invert3(m, tol=0.0).matvec(v)``, cofactors over det and then the
    products: singular only where det is exactly 0."""
    oo = o * o
    ca, cb, cc = d2 * d3 - oo, oo - o * d3, oo - d2 * o
    det = d1 * ca + o * cb + o * cc
    if det == 0.0:
        raise SingularMatrixError(f"matrix is singular within tolerance (det={det:.3e})")
    i12, i13, i23 = cb / det, cc / det, (oo - d1 * o) / det
    return (
        det,
        ca / det * v0 + i12 * v1 + i13 * v2,
        i12 * v0 + (d1 * d3 - oo) / det * v1 + i23 * v2,
        i13 * v0 + i23 * v1 + (d1 * d2 - oo) / det * v2,
    )


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
