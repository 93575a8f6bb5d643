"""Elementary closed-form counterpart of the exact model, valid for
a, b, c > 1.

Everything gamma-related is replaced by logarithms and rational terms:

    Phi(a, b, c) = (s - 1/2) ln(s-1) + sum_i (1/2 - alpha_i) ln(alpha_i - 1)
                   - ln(2 pi) - 2,            s = a + b + c,
    eta_i        = ln(s-1) - ln(alpha_i - 1) - 1/(2(alpha_i - 1)).

eta is taken as the defining dual map; the metric below is exactly its
Jacobian.  The metric is pseudo-Riemannian: it degenerates on the line
D = {b = c = 3/2} and on the surface V where the cubic polynomial

    den(a, b, c) = 4abc - 8(ab + bc + ca) + 15(a + b + c) - 27

vanishes, and is indefinite elsewhere.  den is also the shared denominator
of the closed-form inverse and determinant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularMatrixError
from .manifold import DomainClass, DomainLabel, Metric3, Model, as_point

_LN_2PI = math.log(2.0 * math.pi)

# Minimum of ln(u) + 1/(2u) over u > 0, attained at u = 1/2.
_PHI_MIN = 1.0 - math.log(2.0)


def _den(a: float, b: float, c: float) -> float:
    return (
        4.0 * a * b * c
        - 8.0 * (a * b + b * c + c * a)
        + 15.0 * (a + b + c)
        - 27.0
    )


def _square(u: float) -> float:
    """u ** 2 through libm pow, as numpy's scalar power takes it (an ulp off
    u * u at some u), and inf where the square leaves the float range."""
    try:
        return u ** 2
    except OverflowError:
        return math.inf


def det_kernel(a, b, c):
    """Unchecked det G = -den / (8 (a-1)^2 (b-1)^2 (c-1)^2 (s-1)) on floats
    or same-shape arrays.  Squares are products, as a scalar ``** 2`` goes
    to libm pow, which can be an ulp off the exact square taken on arrays."""
    ua, ub, uc = a - 1.0, b - 1.0, c - 1.0
    divisor = ua * ua * (ub * ub) * (uc * uc) * (a + b + c - 1.0)
    return -0.125 * _den(a, b, c) / divisor + 0.0


class StirlingModel(Model):
    """Pure function bundle over points with a, b, c > 1."""

    name = "stirling"
    domain_description = "a, b, c > 1"
    lower = 1.0
    k = -_LN_2PI - 2.0

    def potential(self, theta) -> float:
        p = self.check_domain(theta)
        s = p.sum()
        return (
            (s - 0.5) * math.log(s - 1.0)
            + sum((0.5 - x) * math.log(x - 1.0) for x in p)
            + self.k
        )

    def eta(self, theta) -> np.ndarray:
        p = a, b, c = self.check_domain(theta).tolist()
        ls = math.log(a + b + c - 1.0)
        return np.array([ls - math.log(x - 1.0) - 0.5 / (x - 1.0) for x in p])

    def metric(self, theta) -> Metric3:
        p = a, b, c = self.check_domain(theta).tolist()
        o = 1.0 / (a + b + c - 1.0)
        d = [o - (x - 1.5) / _square(x - 1.0) for x in p]
        return Metric3(d1=d[0], d2=d[1], d3=d[2], o12=o, o13=o, o23=o)

    def det_closed(self, theta) -> float:
        return det_kernel(*self.check_domain(theta))

    def metric_inverse_closed(self, theta, tol: float = 1e-9) -> Metric3:
        a, b, c = self.check_domain(theta)
        den = _den(a, b, c)
        if abs(den) <= tol:
            raise SingularMatrixError(
                f"metric is degenerate at {(a, b, c)}: denominator {den!r}"
            )
        ra, rb, rc = (a - 1.0) ** 2, (b - 1.0) ** 2, (c - 1.0) ** 2
        return Metric3(
            d1=-2.0 * ra * (4 * a * b * c - 6 * a * b - 6 * c * a + 9 * a - b - c + 3) / den,
            d2=-2.0 * rb * (4 * a * b * c - 6 * a * b - 6 * b * c + 9 * b - a - c + 3) / den,
            d3=-2.0 * rc * (4 * a * b * c - 6 * c * a - 6 * b * c + 9 * c - a - b + 3) / den,
            o12=-4.0 * (2.0 * c - 3.0) * ra * rb / den,
            o13=-4.0 * (2.0 * b - 3.0) * ra * rc / den,
            o23=-4.0 * (2.0 * a - 3.0) * rb * rc / den,
        )

    def dual_potential(self, theta) -> float:
        """Closed form of <theta, eta> - Phi; the two agree to rounding."""
        p = self.check_domain(theta)
        return (
            -sum(x / (2.0 * (x - 1.0)) for x in p)
            + 0.5 * math.log(p.sum() - 1.0)
            - 0.5 * sum(math.log(x - 1.0) for x in p)
            - self.k
        )

    def classify_domain(self, theta, tol: float = 1e-9) -> DomainClass:
        a, b, c = (float(x) for x in as_point(theta, "theta"))
        if min(a, b, c) <= self.lower:
            return DomainClass(DomainLabel.OUTSIDE, self.lower - min(a, b, c))
        dist_d = max(abs(b - 1.5), abs(c - 1.5))
        if dist_d <= tol:
            return DomainClass(DomainLabel.ON_D, dist_d)
        den_v = 4.0 * b * c - 8.0 * b - 8.0 * c + 15.0
        if den_v != 0.0:
            dist_v = abs(a - (27.0 - 15.0 * b - 15.0 * c + 8.0 * b * c) / den_v)
        else:
            dist_v = math.inf
        if dist_v <= tol:
            return DomainClass(DomainLabel.ON_V, dist_v)
        return DomainClass(DomainLabel.REGULAR, min(dist_d, dist_v))

    def inversion_start(self, target: np.ndarray) -> np.ndarray:
        """Start point for Newton inversion of eta.

        The dual map folds across the degeneracy surface V, so a generic
        start stalls on the wrong sheet.  Decompose instead: with
        sigma = s - 1 and u_i = alpha_i - 1,

            ln(u_i) + 1/(2 u_i) = ln(sigma) - target_i

        fixes each u_i(sigma) on the branch u >= 1/2, and the consistency
        condition sum_i u_i(sigma) = sigma - 2 becomes a scalar root
        problem.  The smallest root is the sheet where den < 0; Newton
        then converges from the assembled point.
        """
        try:
            sigma_min = max(math.exp(t + _PHI_MIN) for t in target)
        except OverflowError:
            raise DomainError(f"stirling preimage of {target.tolist()} overflows") from None

        def residual(sigma: float) -> float:
            ls = math.log(sigma)
            return sum(_solve_u(ls - t) for t in target) + 2.0 - sigma

        lo = sigma_min * (1.0 + 1e-12)
        f_lo = residual(lo)
        hi = lo
        for _ in range(2000):
            hi = hi * 1.05 + 1e-9
            f_hi = residual(hi)
            if f_lo == 0.0 or f_lo * f_hi < 0.0:
                break
            lo, f_lo = hi, f_hi
        else:
            raise DomainError(f"no stirling preimage found for eta={target.tolist()}")
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            f_mid = residual(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        ls = math.log(mid)
        return np.array([_solve_u(ls - t) + 1.0 for t in target])


def _solve_u(r: float) -> float:
    """Solve ln(u) + 1/(2u) = r for u on the increasing branch u >= 1/2."""
    r = float(r)  # a numpy scalar would slow every comparison below
    if r < _PHI_MIN:
        # No solution; the caller's sigma lower bound should prevent this.
        return 0.5
    try:
        lo, hi = 0.5, max(math.exp(r), 0.5 + 1e-12)
    except OverflowError:
        raise DomainError(f"root of ln(u) + 1/(2u) = {r!r} overflows") from None
    # Halve before adding: lo + hi overflows once hi nears the float range.
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if math.log(mid) + 0.5 / mid <= r:
            lo = mid
        else:
            hi = mid
    return mid


STIRLING_MODEL = StirlingModel()
