"""Elementary closed-form counterpart of the exact model, valid for
a, b, c > 1.

Everything gamma-related is replaced by logarithms and rational terms:

    Phi(a, b, c) = (s - 1/2) ln(s-1) + sum_i (1/2 - alpha_i) ln(alpha_i - 1)
                   - ln(2 pi) - 2,            s = a + b + c,
    eta_i        = ln(s-1) - ln(alpha_i - 1) - 1/(2(alpha_i - 1)).

eta is taken as the defining dual map; the metric below is exactly its
Jacobian.  The metric is pseudo-Riemannian: it degenerates where the
cubic den vanishes, det G = -den / (8 prod_i u_i^2 (s - 1)) with
u_i = alpha_i - 1.  About (2, 2, 2), with A = a - 2, B = b - 2, C = c - 2,

    den = 4ABC - (A + B + C) - 1 = A (4BC - 1) - (B + C + 1),

the one form ``_den``, ``det_kernel`` and ``classify_domain`` use.  den
vanishes identically on the three lines where two alpha_i = 3/2.  Its
zero set is the surface V, the graph a = 2 + (B + C + 1) / (4BC - 1),
and the line D = {b = c = 3/2}, the one (b, c) over which it is not a
graph, which ``classify_domain`` labels apart; the other two lines lie
in V.

G is diagonal plus rank one, diag(D) + 11^T/(s-1) with
D_i = -(u_i - 1/2)/u_i^2, the parts ``eta_metric_kernel`` returns and the
one adjugate formula of ``manifold`` inverts, so by interlacing it has
#{u_i > 1/2} - [kappa < 0] negative eigenvalues, where
kappa = den / (8 (s-1) prod_i (u_i - 1/2)): it is positive definite on
(1, 3/2)^3, negative definite where every u_i > 1/2 and den > 0, as at
(5, 6, 7), and indefinite at the other regular points.

The dual map folds across V, so an eta can have several preimages.
The inversion start, ``_inversion_root``, takes the first that
``_preimages`` yields, sheet by sheet, and skips that walk where a short
Newton run on the sheet of every u_i > 1/2 ends at a point with det G >
0, which proves it is that first preimage (``_first_sheet_root``).  A
start that meets the residual goal is ``invert_eta``'s answer as it
stands.  Any other start can be a cell end outside the domain, which
``Model.inversion_start`` and ``invert_eta`` reject.
"""

from __future__ import annotations

import math
import sys
from math import expm1, log, sqrt  # bare names: no attribute lookup in _solve_u

import numpy as np

from .errors import BetaflowError, DomainError
from .manifold import (_RESIDUAL_GOAL, DomainClass, DomainLabel, Model, _newton, as_point,
                       check_finite, inside)

_LN_2PI = math.log(2.0 * math.pi)
_LN_2 = math.log(2.0)

# Minimum of ln(u) + 1/(2u) over u > 0, attained at u = 1/2.
_PHI_MIN = 1.0 - _LN_2


def _den(a, b, c):
    # Where two alpha_i = 3/2 both terms round to the same float (for
    # coordinates below 2^52), so den is exactly 0 on those three lines.
    A, B, C = a - 2.0, b - 2.0, c - 2.0
    return A * (4.0 * B * C - 1.0) - (B + C + 1.0)


def det_kernel(a, b, c):
    """Unchecked det G = -den / (8 (a-1)^2 (b-1)^2 (c-1)^2 (s-1)) on floats
    or same-shape arrays."""
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
        # For the largest coordinate a, (s - 1/2) ln(s-1) + (1/2 - a) ln(a-1)
        # is (s - 1/2) ln((s-1)/(a-1)) + (b + c) ln(a-1): neither cancels
        # nor overflows where a dominates s.  On Python floats an overflow
        # gives inf or NaN and no warning.
        a, b, c = sorted(self.check_domain(theta).tolist(), reverse=True)
        s = a + b + c
        value = (
            (s - 0.5) * math.log1p((b + c) / (a - 1.0)) + (b + c) * math.log(a - 1.0)
            + ((0.5 - b) * math.log(b - 1.0) + (0.5 - c) * math.log(c - 1.0))
            + self.k
        )
        return check_finite(value, "potential", theta)

    def eta_metric_kernel(self, a, b, c):
        sigma = a + b + c - 1.0
        ls, o = math.log(sigma), 1.0 / sigma
        ua, ub, uc = a - 1.0, b - 1.0, c - 1.0
        return (ls - math.log(ua) - 0.5 / ua, ls - math.log(ub) - 0.5 / ub,
                ls - math.log(uc) - 0.5 / uc, (1.5 - a) / (ua * ua),
                (1.5 - b) / (ub * ub), (1.5 - c) / (uc * uc), o)

    def det_closed(self, theta) -> float:
        # on Python floats an overflow gives inf or NaN and no warning
        return check_finite(det_kernel(*self.check_domain(theta).tolist()), "det G", theta)

    def dual_potential(self, theta) -> float:
        """Closed form of <theta, eta> - Phi; the two agree to rounding."""
        a, b, c = self.check_domain(theta).tolist()
        # x / (2 (x-1)) rounds as 0.5 x / (x-1), which cannot overflow
        value = (
            -(0.5 * a / (a - 1.0) + 0.5 * b / (b - 1.0) + 0.5 * c / (c - 1.0))
            + 0.5 * math.log(a + b + c - 1.0)
            - 0.5 * (math.log(a - 1.0) + math.log(b - 1.0) + math.log(c - 1.0))
            - self.k
        )
        return check_finite(value, "dual potential", theta)

    def classify_domain(self, theta, tol: float = 1e-9) -> DomainClass:
        """Label theta, testing in order: OutsideDomain, at distance
        ``lower - min(theta)``; OnD, where the Chebyshev distance in (b, c)
        to D = {b = c = 3/2} is <= tol; OnV, where the distance along the
        a axis to V, the graph a = 2 + (B + C + 1) / (4BC - 1), is <= tol;
        else Regular, at the smaller of the two.  Where 4BC overflows the
        graph is taken at its asymptote 2 + 1/(4B) + 1/(4C); where
        4BC = 1 it has no point, and the distance to V is inf.

        Of the three lines where two alpha_i = 3/2, all in V, D is the one
        over which V is not a graph in (b, c): it is OnD, and the other two
        are OnV at distance 0.  tol is >= 0, inf included (the scan's half
        cell diagonal overflows on a huge box); a NaN or negative tol
        raises DomainError."""
        if not tol >= 0.0:
            raise DomainError(f"tol must be >= 0, got {tol!r}")
        a, b, c = (float(x) for x in as_point(theta, "theta"))
        if min(a, b, c) <= self.lower:
            return DomainClass(DomainLabel.OUTSIDE, self.lower - min(a, b, c))
        dist_d = max(abs(b - 1.5), abs(c - 1.5))
        if dist_d <= tol:
            return DomainClass(DomainLabel.ON_D, dist_d)
        B, C = b - 2.0, c - 2.0
        coef = 4.0 * B * C - 1.0
        if coef == math.inf:
            dist_v = abs(a - 2.0 - (0.25 / B + 0.25 / C))
        elif coef:
            dist_v = abs(a - 2.0 - (B + C + 1.0) / coef)
        else:
            dist_v = math.inf
        if dist_v <= tol:
            return DomainClass(DomainLabel.ON_V, dist_v)
        return DomainClass(DomainLabel.REGULAR, min(dist_d, dist_v))

    def _inversion_root(self, target: np.ndarray) -> tuple:
        """The first preimage of ``_preimages`` with max|eta - target| <=
        _RESIDUAL_GOAL, else the one of smallest residual, and whether it
        meets that goal in every component (a NaN can hide in the max).
        Near the boundary the first preimage can lie across the fold, where
        one ulp of a coordinate moves eta by more than 1e-10, while a later
        one meets the goal.

        Most targets skip that walk: ``_first_sheet_root`` returns the
        first preimage itself where a short Newton run on the sheet
        (0, 0, 0) certifies it by det G > 0, and None, for the walk, where
        it does not.  Every hook call, of the shortcut and of the walk, is
        one of ``self.eta_metric_kernel``, so a met point is one that
        ``invert_eta``'s Newton would return unchanged."""
        t0, t1, t2 = t = target.tolist()
        kernel = self.eta_metric_kernel
        theta = _first_sheet_root(kernel, t, _sigma_lo(t))
        if theta is not None:
            return theta, True
        best, least = None, math.inf
        for theta in _preimages(kernel, t):
            a, b, c = theta.tolist()
            # A cell end that stands in for a root can be outside the domain.
            e = kernel(a, b, c) if inside(1.0, a, b, c) else (math.inf,) * 3
            r0, r1, r2 = abs(e[0] - t0), abs(e[1] - t1), abs(e[2] - t2)
            residual = max(r0, r1, r2)
            if residual <= _RESIDUAL_GOAL:
                return theta, r0 <= _RESIDUAL_GOAL and r1 <= _RESIDUAL_GOAL and r2 <= _RESIDUAL_GOAL
            if best is None or residual < least:
                best, least = theta, residual
        if best is None:
            raise DomainError(f"no stirling preimage found for eta={t}")
        return best, False


# Branch patterns of (u_1, u_2, u_3): 0 for u >= 1/2, -1 for u <= 1/2, with
# the patterns of fewer branch -1 coordinates first.
_PATTERNS = (
    (0, 0, 0),
    (0, 0, -1), (0, -1, 0), (-1, 0, 0),
    (0, -1, -1), (-1, 0, -1), (-1, -1, 0),
    (-1, -1, -1),
)

# The floats theta = u + 1 of each branch that lie in the domain 1 < theta < inf.
_BRANCH_THETA = {0: (1.5, sys.float_info.max), -1: (math.nextafter(1.0, 2.0), 1.5)}


def _sigma_lo(t) -> float:
    """``_preimages``' lower bound on sigma: sigma = sum(u) + 2 > 2, and
    each u_i exists from e^{t_i + _PHI_MIN} on.  DomainError where that
    overflows."""
    t0, t1, t2 = t
    try:
        return max(2.0, math.exp(t0 + _PHI_MIN), math.exp(t1 + _PHI_MIN), math.exp(t2 + _PHI_MIN))
    except OverflowError:
        raise DomainError(f"stirling preimage of {t} overflows") from None


def _first_sheet_root(kernel, t, lo):
    """The first preimage of ``_preimages``, where Newton's method in theta
    on the sheet (0, 0, 0), one ``kernel`` call per step, certifies it, else
    None.

    On that pattern every u_i >= 1/2 and F(sigma) = sum_i u_i(sigma) + 2 -
    sigma is concave (``_roots``), so F lies below its tangent at a root
    with F' > 0, and that root is F's smallest.  With g_i = u_i' = -o/D_i,
    F' = sum_i g_i - 1 = -kappa, and det G = D_1 D_2 D_3 kappa with every
    D_i < 0 on (3/2, inf)^3: there F' > 0 if and only if det G > 0 (den <
    0).  (0, 0, 0) is the first of ``_PATTERNS``, whose roots ``_roots``
    yields in increasing sigma, and the walk of ``_inversion_root`` returns
    its first preimage that meets _RESIDUAL_GOAL.  So a point of
    (3/2, inf)^3 with max|eta - t| <= _RESIDUAL_GOAL and det G > 0 is the
    walk's answer, to the rounding floor of eta.

    Newton starts on the branch-0 curve at sigma = 1.05 lo, theta_i =
    1 + u_i(sigma), with lo = ``_sigma_lo(t)``, and takes full steps.
    None, at once, where the pattern has no root past lo (``_sigma_hi``).
    Each iterate then gates in this order: det G, from the hook's rank-one
    parts grouped as ``manifold._rank_one`` groups them, must be > 0, else
    None (NaN, or 0, where ``solve_det`` would call G singular); an iterate
    with max|eta - t| <= _RESIDUAL_GOAL is the answer; only a step taken
    divides, with ``solve_det``'s divisions and products in their order on
    (-r0, -r1, -r2), so it has that solve's bits.  None too at the first
    step that leaves (3/2, inf)^3, or after 12 steps.  A step is never
    halved, so a target with no root on the sheet mostly gives up after
    one hook call, where halving would spend the 12 steps.  Raises
    nothing, so every error stays the walk's.
    """
    if not _sigma_hi(t, (0, 0, 0)) > lo:
        return None
    ls = math.log(1.05 * lo)
    t0, t1, t2 = t
    # Raises nothing: a finite ls - t_i > 709.78 puts _sigma_hi <= lo; exp(inf) is inf.
    a, b, c = _solve_u(ls - t0) + 1.0, _solve_u(ls - t1) + 1.0, _solve_u(ls - t2) + 1.0
    for _ in range(12):
        e0, e1, e2, d1, d2, d3, o = kernel(a, b, c)
        r0, r1, r2 = e0 - t0, e1 - t1, e2 - t2
        # solve_det on (-r0, -r1, -r2), in its operations and order: det G
        # as _rank_one groups it, and the divisions only for a step taken.
        g1, g2, g3, oo = d1 + o, d2 + o, d3 + o, o * o
        c11, c12, c13 = g2 * g3 - oo, -o * d3, -o * d2
        det = g1 * c11 + o * (c12 + c13)
        if not det > 0.0:
            return None
        if abs(r0) <= _RESIDUAL_GOAL and abs(r1) <= _RESIDUAL_GOAL and abs(r2) <= _RESIDUAL_GOAL:
            return [a, b, c]
        i11, i22, i33 = c11 / det, (g1 * g3 - oo) / det, (g1 * g2 - oo) / det
        i12, i13, i23 = c12 / det, c13 / det, -o * d1 / det
        v0, v1, v2 = -r0, -r1, -r2
        a += i11 * v0 + i12 * v1 + i13 * v2
        b += i12 * v0 + i22 * v1 + i23 * v2
        c += i13 * v0 + i23 * v1 + i33 * v2
        if not (1.5 < a < math.inf and 1.5 < b < math.inf and 1.5 < c < math.inf):
            return None
    return None


def _preimages(kernel, target):
    """Preimages of the dual map, each as a start point theta = u + 1, found
    with ``kernel`` as the hook.

    With sigma = s - 1 and u_i = alpha_i - 1, eta_i = t_i is

        ln(u_i) + 1/(2 u_i) = ln(sigma) - t_i,

    which fixes u_i(sigma) on either branch of ``_solve_u``; the point is a
    preimage where F(sigma) = sum_i u_i(sigma) + 2 - sigma vanishes.  The
    dual map folds across the degeneracy surface V, so one target can have
    preimages on several sheets.  Yields one preimage per root of F,
    pattern by pattern (``_PATTERNS``) and each pattern's in increasing
    sigma, each taken by Newton's method in theta inside the cell that
    isolates its root (``_refine``) to where ``invert_eta`` stops.
    """
    t = [float(x) for x in target]
    lo = _sigma_lo(t)
    for pattern in _PATTERNS:
        hi = _sigma_hi(t, pattern)
        if hi > lo:
            for theta in _roots(kernel, t, pattern, lo, hi):
                yield np.array(theta)


def _sigma_hi(t, pattern) -> float:
    """A sigma past which F keeps its sign on ``pattern``; 0 where F has no
    root at all.

    On branch 0, u = sigma e^{-t} - 1/2 - eps with eps in [0, e/2 - 1], and
    eps <= e^{1/(2u)} / (8u); on branch -1, u is in (0, 1/2).  So F is
    sigma (sum_{branch 0} e^{-t_i} - 1) plus a term in [-0.578, 3.5].

    The e^{-t_i} add left to right from 0.0, as ``sum()`` of floats did
    before Python 3.12, whose ``sum()`` compensates: so the bound is the
    same float on every Python version.
    """
    n0 = pattern.count(0)
    slope = 0.0
    try:
        for x, k in zip(t, pattern):
            if k == 0:
                slope += math.exp(-x)
    except OverflowError:
        return 0.0  # a branch-0 root leaves the float range for every sigma
    slope -= 1.0
    if slope < 0.0:
        return (3.5 - n0) / -slope
    if n0 < 3:
        return 0.0  # the term is at least 2 - 2 (e/2 - 1/2) > 0
    # Once every u_i >= 3/2, the eps sum to less than the 1/2 in the term.
    hi = 2.5 * math.exp(max(t))
    return min(hi, 0.578 / slope) if slope > 0.0 else hi


def _roots(kernel, t, pattern, lo, hi):
    """The preimage of each root of F on [lo, hi] for one branch pattern,
    in increasing sigma.

    Each evaluated point is (sigma, F, d0, d1, u, g), with g_i = u_i':
    d0 = sum of u_i' over branch 0 minus 1, nonincreasing in sigma because
    those u_i(sigma) are concave, and d1 = sum of u_i' over branch -1,
    nondecreasing because those are convex (sigma(u) = e^t u e^{1/(2u)} is
    convex).  So on a cell [p, q] F' lies in [q.d0 + p.d1, p.d0 + q.d1].
    A cell where F' keeps its sign holds at most one root, bracketed by a
    sign change of F; a cell with ends of one sign that F cannot cross
    within those slopes holds none; any other cell is split at its
    geometric midpoint.  Near the fold, the roots come in close pairs
    around an extremum of F, which the split on the sign of F' separates.

    A cell that isolates a root is marked isolated and, each time
    ``_refine`` gives None on it, split to the half where F changes sign.
    Once it cannot narrow (within 64 splits), or at once where some
    u_i + 1 rounds to 1 at both ends, its nearer end's u + 1 stands in:
    u_i is monotone in sigma, so then no float point of it is in the domain.
    """
    def at(sigma):
        ls = math.log(sigma)
        f, d0, d1, us, gs = 2.0 - sigma, -1.0, 0.0, [], []
        for x, k in zip(t, pattern):
            u = _solve_u(ls - x, k)
            # u' = 2u^2 / ((2u - 1) sigma), infinite at the branch point.
            w = sigma - 0.5 * sigma / u
            g = u / w if w else (math.inf if k == 0 else -math.inf)
            us.append(u)
            gs.append(g)
            f += u
            if k == 0:
                d0 += g
            else:
                d1 += g
        return sigma, f, d0, d1, us, gs

    stack = [(at(lo), at(hi), False)]
    while stack:
        p, q, isolated = stack.pop()
        low, high = q[2] + p[3], p[2] + q[3]
        crosses = p[1] * q[1] < 0.0 or q[1] == 0.0
        sigma = math.sqrt(p[0]) * math.sqrt(q[0])
        # A NaN slope bound counts as monotone and a NaN reach as root-free,
        # so no cell splits without end.
        if isolated or not low <= 0.0 <= high or q[0] - p[0] <= 1e-13 * q[0]:
            if not (isolated or crosses):
                continue
            theta = None
            if not any(u + 1.0 == 1.0 == v + 1.0 for u, v in zip(p[4], q[4])):
                theta = _refine(kernel, t, pattern, p, q)
                if theta is None and p[0] < sigma < q[0]:
                    m = at(sigma)
                    stack.append((m, q, True) if (m[1] < 0.0) == (p[1] < 0.0) else (p, m, True))
                    continue
            yield theta or [u + 1.0 for u in (p if abs(p[1]) < abs(q[1]) else q)[4]]
        elif crosses or not _root_free(p, q, low, high):
            m = at(sigma)
            stack += [(m, q, False), (p, m, False)]


def _root_free(p, q, low, high) -> bool:
    """Whether F, of one sign at both ends of [p, q] with F' in [low, high],
    cannot reach zero: leaving each end at the steepest slope toward zero,
    it would need more than the cell's width."""
    toward_p = low if p[1] > 0.0 else high
    toward_q = high if q[1] > 0.0 else low
    reach_p = -p[1] / toward_p if toward_p else math.inf
    reach_q = q[1] / toward_q if toward_q else math.inf
    return not reach_p + reach_q <= q[0] - p[0]


def _refine(kernel, t, pattern, p, q):
    """The preimage theta = u + 1 whose sigma is the root of F in the cell
    [p, q], where F is monotone and changes sign, or None.

    ``manifold._newton`` on eta(theta) = t, with ``kernel`` as the hook,
    from the cell end of smaller |F|, its u_i moved along their slopes g_i
    to Newton's estimate of the root in sigma.  The box is ``pattern``'s branches and the cell in sigma, so a
    step that would leave the cell is halved; F has one root in the cell,
    so a point of the box with eta(theta) = t is the cell's preimage.  None
    where Newton raises (its start is outside the box, say) or 32 hook calls
    do not converge: a root costs at most 32 hook calls per split of its
    cell.  Newton stops at an exact root or at the rounding floor, as
    ``invert_eta`` does, which so usually returns the point as it stands,
    met, with no hook call of its own; a residual of 1e-12 would leave
    theta 1e-8 off the root where G is near singular.
    """
    x = p if abs(p[1]) < abs(q[1]) else q
    slope = x[2] + x[3]
    ds = -x[1] / slope if slope else 0.0
    start = [u + g * ds + 1.0 if ds else u + 1.0 for u, g in zip(x[4], x[5])]
    box = (*(_BRANCH_THETA[k] for k in pattern), (p[0], q[0]))
    try:
        return _newton(kernel, 1.0, start, t, 32, box, 0.0)
    except BetaflowError:
        return None


def _solve_u(r: float, branch: int = 0) -> float:
    """Solve ln(u) + 1/(2u) = r for u on branch 0 (u >= 1/2) or branch -1
    (0 < u <= 1/2); both meet at u = 1/2, r = _PHI_MIN, and r below that
    has no root.

    The root is u = -1/(2 W_k(-e^{-r}/2)) with k the branch of Lambert's W
    (Corless et al., 1996).  Halley's method runs in u, not in W, because
    e^{-r}/2 turns subnormal near r = 708.  It starts from the series of W
    at its branch point in p = sqrt(2 (1 - e^{_PHI_MIN - r})), or past
    p = 1 from the asymptotes u = e^r - 1/2 (branch 0) and
    W = -L1 - L2 - L2/L1 with L1 = r + ln 2, L2 = ln(L1) (branch -1).  On
    a dense sweep of r up to the top of each branch it stops after at most
    three steps.  On the calls that Stirling inversions make (perfbench
    ``invert`` at seeds 7-9, 68 rounds each: 5 973 calls, 2 091 for the
    starts of ``_first_sheet_root`` and 3 882 for the cell search and the
    cell splits of ``_roots``), it takes 2.09 steps on average: from the
    series start 0, 1, 2 or 3 steps in 4%, 3%, 32% and 19% of calls, from
    the branch-0 asymptote 2 steps in 35% (and 1 step in 10 calls), and
    from the branch -1 asymptote 1 to 3 steps in 7%.
    """
    r = float(r)  # a numpy scalar would slow every operation below
    p2 = -2.0 * expm1(_PHI_MIN - r)
    p = sqrt(p2) if p2 > 0.0 else 0.0
    if p < 1.0:
        q = p if branch == 0 else -p
        u = 0.5 / (1.0 - q * (1.0 - q * (1.0 / 3.0 - q * (11.0 / 72.0 - q * 43.0 / 540.0))))
    elif branch == 0:
        try:
            u = math.exp(r) - 0.5
        except OverflowError:
            raise DomainError(f"root of ln(u) + 1/(2u) = {r!r} overflows") from None
    else:
        l1 = r + _LN_2
        l2 = log(l1)
        u = 0.5 / (l1 + l2 + l2 / l1)
    for _ in range(6):
        w = u - 0.5
        if w == 0.0:
            break
        # Newton's step f / f' and Halley's correction, with
        # f = ln(u) + 1/(2u) - r, f' = w / u^2, f'' = (1 - u) / u^3.
        newton = (log(u) + 0.5 / u - r) * u / (w / u)
        step = newton / (1.0 - newton * (1.0 - u) / (2.0 * u * w))
        u -= step
        if abs(step) <= 1e-6 * u:
            break  # the next step would be below rounding
    return u


STIRLING_MODEL = StirlingModel()
