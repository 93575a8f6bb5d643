"""Exact geometry of the three-parameter bivariate beta (Dirichlet) family.

Densities on the open 2-simplex:

    p(x1, x2) = x1^(a-1) x2^(b-1) (1 - x1 - x2)^(c-1) / B(a, b, c),

with log-normalizer Phi(a, b, c) = ln Gamma(a) + ln Gamma(b) + ln Gamma(c)
- ln Gamma(a+b+c).  Dual coordinates are eta_i = psi(alpha_i) - psi(s) with
s = a + b + c, and the metric is the Hessian of Phi, which is positive
definite on the whole domain a, b, c > 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .manifold import (DomainClass, DomainLabel, Metric3, Model, as_point, check_count,
                       check_finite)
from .specfun import _psi_pair, log_gamma


class ExactModel(Model):
    """Pure function bundle over points with a, b, c > 0."""

    name = "exact"
    domain_description = "a, b, c > 0"
    lower = 0.0

    def potential(self, theta) -> float:
        return _potential(*self.check_domain(theta).tolist())

    def eta_metric_kernel(self, a, b, c):
        ps, ts = _psi_pair(a + b + c)
        pa, ta = _psi_pair(a)
        pb, tb = _psi_pair(b)
        pc, tc = _psi_pair(c)
        return pa - ps, pb - ps, pc - ps, ta, tb, tc, -ts

    def classify_domain(self, theta) -> DomainClass:
        """The metric is positive definite on the whole domain, so a point is
        Regular at distance min(theta) or OutsideDomain at depth -min(theta)."""
        low = float(min(as_point(theta, "theta"))) - self.lower
        label = DomainLabel.REGULAR if low > 0.0 else DomainLabel.OUTSIDE
        return DomainClass(label, abs(low))

    def dual_potential(self, theta) -> float:
        """Legendre transform <theta, eta> - Phi evaluated at eta(theta)."""
        p = self.check_domain(theta)
        a, b, c = p.tolist()
        eta = check_finite(self.eta_metric_kernel(a, b, c)[:3], "eta", p)
        return float(np.dot(p, eta)) - _potential(a, b, c)

    def log_pdf(self, theta, x) -> float:
        """ln p(x1, x2) at theta, with x3 = 1 - x1 - x2; theta is checked once."""
        a, b, c = self.check_domain(theta).tolist()
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise DomainError(f"x must be (x1, x2), got shape {x.shape}")
        x3 = 1.0 - x[0] - x[1]
        if not (x[0] > 0.0 and x[1] > 0.0 and x3 > 0.0):
            raise DomainError(f"x must lie in the open 2-simplex, got {x.tolist()}")
        return (
            (a - 1.0) * math.log(x[0])
            + (b - 1.0) * math.log(x[1])
            + (c - 1.0) * math.log(x3)
            - _potential(a, b, c)
        )

    def sample(self, theta, n: int, seed: int) -> np.ndarray:
        """Draw n points (x1, x2) via three gamma variates per draw.

        The bit generator is counter-based, so a seed fully determines the
        stream and disjoint seeds give independent streams.
        """
        return self._draw(theta, n, 1, seed)[:, :2]

    def fisher_mc(self, theta, n: int, seed: int) -> Metric3:
        """Monte Carlo Fisher estimate: sample covariance of the sufficient
        statistics (ln x1, ln x2, ln x3)."""
        est, _ = self.fisher_mc_with_stderr(theta, n, seed)
        return est

    def fisher_mc_with_stderr(self, theta, n: int, seed: int) -> tuple[Metric3, Metric3]:
        """Covariance estimate plus entrywise standard errors (from fourth
        sample moments of the centered ln x_i of ``sample``'s draw);
        DomainError where a variate underflowed to 0, as at tiny alpha_i."""
        x = self._draw(theta, n, 1000, seed)
        with np.errstate(divide="ignore"):
            t = check_finite(np.log(x), "ln x of a draw", theta)
        t -= t.mean(axis=0)
        tt = t * t
        cov = t.T @ t / (n - 1)
        se = np.sqrt(np.maximum(tt.T @ tt / n - cov * cov, 0.0) / n)
        return Metric3.from_array(cov), Metric3.from_array(se)

    def _draw(self, theta, n, least: int, seed) -> np.ndarray:
        """The (n, 3) checked simplex points g / sum(g) of ``sample``, n at least ``least``."""
        p = self.check_domain(theta)
        n = check_count(n, "n", least)
        rng = np.random.Generator(np.random.Philox(check_count(seed, "seed", 0)))
        try:
            g = rng.standard_gamma(p, size=(n, 3))
        except (ValueError, MemoryError) as exc:
            raise DomainError(f"cannot draw n = {n} points: {exc}") from exc
        # the variates' sum can overflow, and at tiny theta every variate of
        # a draw can underflow, giving 0/0
        with np.errstate(over="ignore", invalid="ignore"):
            total = check_finite(g.sum(axis=1, keepdims=True), "a gamma sum", p)
            return check_finite(g / total, "a draw", p)

    def _inversion_root(self, target: np.ndarray) -> tuple:
        """alpha_i = 1/2 + e^{eta_i} / (1 - sum_j e^{eta_j}), from psi(x) ~
        ln(x - 1/2), never met: ``invert_eta`` polishes it.  The dual image
        is {sum_i e^{eta_i} < 1} (Amari and Nagaoka, Methods of Information
        Geometry); DomainError where the target is outside it."""
        t = target.tolist()
        lo, mid, hi = sorted(t)
        # 1 - sum_j e^{eta_j}, with no cancellation in 1 - e^{eta_max}
        room = -math.expm1(hi) - math.exp(mid) - math.exp(lo) if hi < 0.0 else 0.0
        if not room > 0.0:
            raise DomainError(f"eta target {t} is outside the exact dual image")
        # a preimage past the float range fails the domain check
        return [0.5 + math.exp(x) / room for x in t], False


def _potential(a, b, c) -> float:
    """Phi on three floats of the domain, unchecked."""
    return log_gamma(a) + log_gamma(b) + log_gamma(c) - log_gamma(a + b + c)


EXACT_MODEL = ExactModel()
