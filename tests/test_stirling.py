import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from betaflow import (
    EXACT_MODEL,
    STIRLING_MODEL,
    DomainError,
    DomainLabel,
    SingularMatrixError,
    invert_eta,
    det3,
    invert3,
)
import betaflow.manifold
import betaflow.stirling
from betaflow.manifold import _SMALL_STEP, _rank_one, inside, solve_det
from betaflow.stirling import (_BRANCH_THETA, _PATTERNS, _PHI_MIN, _preimages, _root_free,
                               _solve_u)
from conftest import rounding_floor_ratio

K = -math.log(2.0 * math.pi) - 2.0

GRID_AXIS = np.linspace(1.2, 5.0, 20)


def den(a, b, c):
    return 4 * a * b * c - 8 * (a * b + b * c + c * a) + 15 * (a + b + c) - 27


def test_constant_k():
    assert STIRLING_MODEL.k == K


def test_potential_spots():
    # at (2,2,2) every ln(alpha - 1) term vanishes
    assert abs(STIRLING_MODEL.potential((2.0, 2.0, 2.0)) - (5.5 * math.log(5.0) + K)) <= 1e-13
    want = 8.5 * math.log(8.0) - 2.5 * math.log(2.0) - 3.5 * math.log(3.0) + K
    assert abs(STIRLING_MODEL.potential((2.0, 3.0, 4.0)) - want) <= 1e-13


def test_eta_spots():
    e = STIRLING_MODEL.eta((2.0, 2.0, 2.0))
    assert np.max(np.abs(e - (math.log(5.0) - 0.5))) <= 1e-15
    e = STIRLING_MODEL.eta((2.0, 3.0, 4.0))
    want = [
        math.log(8.0) - 0.5,
        math.log(4.0) - 0.25,
        math.log(8.0 / 3.0) - 1.0 / 6.0,
    ]
    assert np.max(np.abs(e - want)) <= 1e-14


@pytest.mark.parametrize("theta", [
    (1.7e308, 2.0, 2.0), (2.0, 1.7e308, 2.0), (2.0, 2.5, 1.7e308),
    (1e306, 3.0, 1.5), (2.7e305, 2.0, 2.0), (1.7e308, 1.0000001, 1.5),
])
def test_potential_where_its_largest_terms_overflow(theta):
    # (s - 1/2) ln(s-1) and (1/2 - a) ln(a-1) each leave the float range;
    # the sum of all terms, taken with every digit of s, does not
    with mpmath.workdps(700):
        a, b, c = map(mpmath.mpf, theta)
        s = a + b + c
        want = ((s - 0.5) * mpmath.log(s - 1)
                + sum((0.5 - x) * mpmath.log(x - 1) for x in (a, b, c)) + K)
        assert abs(STIRLING_MODEL.potential(theta) - want) <= 1e-15 * abs(want)


def test_potential_is_held_to_mpmath():
    # one form, grouped for the largest coordinate a: within 4 eps of the
    # sum of its terms' magnitudes, |(s - 1/2) ln((s-1)/(a-1))|
    # + |(b + c) ln(a-1)| + sum over b, c of |(1/2 - x) ln(x-1)| + |k|,
    # which is rounding wherever those terms do not cancel
    rng = np.random.Generator(np.random.Philox(109))
    exponents = np.concatenate([rng.uniform(-15.0, 307.0, (200, 3)),
                                rng.uniform(-3.0, 3.0, (200, 3))])
    points = [tuple(p) for p in (1.0 + 10.0 ** exponents).tolist()]
    spots = [(1e305, 2.0, 2.0), (1e10, 2.0, 2.0), (2.0, 1e10, 2.0), (2.0, 3.0, 4.0)]
    with mpmath.workdps(700):
        for theta in points + spots:
            a, b, c = sorted(map(mpmath.mpf, theta), reverse=True)
            s = a + b + c
            terms = [(s - 0.5) * mpmath.log((s - 1) / (a - 1)), (b + c) * mpmath.log(a - 1),
                     (0.5 - b) * mpmath.log(b - 1), (0.5 - c) * mpmath.log(c - 1), K]
            scale = sum(abs(t) for t in terms)
            err = abs(STIRLING_MODEL.potential(theta) - sum(terms))
            assert err <= 4 * 2.0 ** -52 * scale, theta
    # where one coordinate dominates nothing cancels: Phi_S rounds to
    # 2809.3159363863265 at (1e305, 2, 2) and to 92.26552665395248 at (1e10, 2, 2)
    for theta, want in (((1e305, 2.0, 2.0), 2809.3159363863265),
                        ((1e10, 2.0, 2.0), 92.26552665395248)):
        assert STIRLING_MODEL.potential(theta) == pytest.approx(want, rel=1e-15)


def test_metric_spots():
    m = STIRLING_MODEL.metric((2.0, 2.0, 2.0))
    assert m.d1 == m.d2 == m.d3 == -0.3
    assert m.o12 == m.o13 == m.o23 == 0.2

    m = STIRLING_MODEL.metric((2.0, 3.0, 4.0))
    assert abs(m.d1 + 0.375) <= 1e-15
    assert abs(m.d2 + 0.25) <= 1e-15
    assert abs(m.d3 - (0.125 - 2.5 / 9.0)) <= 1e-15
    assert m.o12 == m.o13 == m.o23 == 0.125


def test_metric_indefinite():
    eig = np.linalg.eigvalsh(STIRLING_MODEL.metric((2.0, 2.0, 2.0)).as_array())
    assert eig[0] < 0.0 < eig[-1]


def test_metric_signature_is_the_rank_one_closed_form():
    # G = D + 11^T/(s-1), D_i = -(u_i - 1/2)/u_i^2: a positive rank-one update
    # removes a negative eigenvalue of D exactly where
    # kappa = den / (8 (s-1) prod(u_i - 1/2)) < 0 (Golub 1973).  Points next to
    # the branch point u_i = 1/2 or with a near-zero eigenvalue are skipped.
    rng = np.random.Generator(np.random.Philox(3))
    seen = []
    for theta in 1.0 + 10.0 ** rng.uniform(-3.0, 3.0, size=(5000, 3)):
        u = theta - 1.0
        if np.min(np.abs(u - 0.5)) < 1e-9:
            continue
        eig = np.linalg.eigvalsh(STIRLING_MODEL.metric(theta).as_array())
        if np.min(np.abs(eig)) < 1e-12 * np.max(np.abs(eig)):
            continue
        kappa = den(*theta) / (8.0 * (theta.sum() - 1.0) * np.prod(u - 0.5))
        negative = int(np.sum(u > 0.5)) - int(kappa < 0.0)
        assert int(np.sum(eig < 0.0)) == negative, theta
        seen.append(negative)
    assert len(seen) >= 4900 and seen.count(0) > 100 and seen.count(3) > 100
    assert np.all(np.linalg.eigvalsh(STIRLING_MODEL.metric((5.0, 6.0, 7.0)).as_array()) < 0.0)


def test_eta_jacobian_is_symmetric_and_equals_metric():
    rng = np.random.Generator(np.random.Philox(5))
    h = 1e-5
    for _ in range(100):
        theta = rng.uniform(1.5, 4.0, size=3)
        jac = np.empty((3, 3))
        for i in range(3):
            hi = np.zeros(3)
            hi[i] = h
            jac[i] = (STIRLING_MODEL.eta(theta + hi) - STIRLING_MODEL.eta(theta - hi)) / (2 * h)
        assert np.max(np.abs(jac - jac.T)) <= 1e-8
        g = STIRLING_MODEL.metric(theta).as_array()
        assert np.max(np.abs(jac - g)) <= 1e-6


def test_det_closed_spots():
    assert STIRLING_MODEL.det_closed((2.0, 2.0, 2.0)) == 0.025
    assert STIRLING_MODEL.det_closed((2.0, 3.0, 4.0)) == 0.5 / 288.0
    d = STIRLING_MODEL.det_closed((3.0, 3.0, 3.0))
    assert d == 0.0 and math.copysign(1.0, d) == 1.0


def test_det_closed_matches_det3_on_grid():
    for a in GRID_AXIS:
        for b in GRID_AXIS:
            for c in GRID_AXIS:
                closed = STIRLING_MODEL.det_closed((a, b, c))
                direct = det3(STIRLING_MODEL.metric((a, b, c)))
                if abs(closed) >= 1e-6:
                    assert abs(direct - closed) <= 1e-10 * abs(closed)
                else:
                    assert abs(direct - closed) <= 1e-10


def test_det_vanishes_on_line_d():
    for a in (1.2, 2.0, 3.7, 10.0):
        assert abs(STIRLING_MODEL.det_closed((a, 1.5, 1.5))) <= 1e-10


def test_det_vanishes_on_surface_v():
    for b in np.linspace(2.8, 3.2, 5):
        for c in np.linspace(2.8, 3.2, 5):
            a = (27.0 - 15.0 * b - 15.0 * c + 8.0 * b * c) / (4.0 * b * c - 8.0 * b - 8.0 * c + 15.0)
            assert a > 1.0
            assert abs(STIRLING_MODEL.det_closed((a, b, c))) <= 1e-10
            assert abs(det3(STIRLING_MODEL.metric((a, b, c)))) <= 1e-10


def test_metric_inverse_closed_spot():
    inv = STIRLING_MODEL.metric_inverse_closed((2.0, 2.0, 2.0))
    dev = max(
        abs(inv.d1 - 2.0), abs(inv.d2 - 2.0), abs(inv.d3 - 2.0),
        abs(inv.o12 - 4.0), abs(inv.o13 - 4.0), abs(inv.o23 - 4.0),
    )
    assert dev <= 1e-12


def test_metric_inverse_closed_product():
    g = STIRLING_MODEL.metric((2.0, 3.0, 4.0)).as_array()
    inv = STIRLING_MODEL.metric_inverse_closed((2.0, 3.0, 4.0)).as_array()
    assert np.max(np.abs(g @ inv - np.eye(3))) <= 1e-10


def test_metric_inverse_closed_singular_on_v():
    with pytest.raises(SingularMatrixError):
        STIRLING_MODEL.metric_inverse_closed((3.0, 3.0, 3.0))


@pytest.mark.parametrize("theta", [(1.2, 1.5, 1.5), (2.0, 1.5, 1.5), (10.0, 1.5, 1.5),
                                   (3.0, 3.0, 3.0)])
def test_rank_one_solve_and_inverse_are_singular_on_d_and_v(theta):
    # on the line D, D_2 = D_3 = 0 exactly; at (3, 3, 3) on V the rank-one
    # det G rounds to exactly 0 as well
    values = STIRLING_MODEL.eta_metric_kernel(*theta)
    with pytest.raises(SingularMatrixError):
        solve_det(*values[3:], *values[:3])
    with pytest.raises(SingularMatrixError):
        STIRLING_MODEL.metric_inverse_closed(theta)


def test_metric_inverse_closed_matches_invert3_on_grid():
    for a in GRID_AXIS:
        for b in GRID_AXIS:
            for c in GRID_AXIS:
                p = (a, b, c)
                if abs(STIRLING_MODEL.det_closed(p)) <= 1e-6:
                    continue
                closed = STIRLING_MODEL.metric_inverse_closed(p).as_array()
                direct = invert3(STIRLING_MODEL.metric(p)).as_array()
                # entries blow up like 1/det near the cutoff, so the bound
                # is per-entry absolute-or-relative
                gap = np.abs(closed - direct)
                assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(direct)))


def test_dual_potential_routes_agree():
    for theta in ((2.0, 2.0, 2.0), (2.0, 3.0, 4.0), (1.3, 4.4, 2.2)):
        closed = STIRLING_MODEL.dual_potential(theta)
        p = np.asarray(theta)
        legendre = float(np.dot(p, STIRLING_MODEL.eta(p))) - STIRLING_MODEL.potential(p)
        assert abs(closed - legendre) <= 1e-12


def test_dual_potential_spot():
    # -3 + 0.5 ln 5 - k
    want = -3.0 + 0.5 * math.log(5.0) + math.log(2.0 * math.pi) + 2.0
    value = STIRLING_MODEL.dual_potential((2.0, 2.0, 2.0))
    assert abs(value - want) <= 1e-14
    assert abs(value - 1.6425960226263955) <= 1e-12


def test_dual_potential_where_2_times_a_minus_1_overflows():
    # a / (2 (a-1)) is 1/2 and ln(s-1) - ln(a-1) rounds to 0, so the value
    # is -5/2 - k
    value = STIRLING_MODEL.dual_potential((1.7e308, 2.0, 2.0))
    assert abs(value - (-2.5 - K)) <= 1e-14


def test_classify_domain_examples():
    cls = STIRLING_MODEL.classify_domain((5.0, 1.5, 1.5))
    assert cls.label is DomainLabel.ON_D and cls.distance == 0.0

    cls = STIRLING_MODEL.classify_domain((3.0, 3.0, 3.0))
    assert cls.label is DomainLabel.ON_V and cls.distance <= 1e-12

    cls = STIRLING_MODEL.classify_domain((2.0, 2.0, 2.0))
    assert cls.label is DomainLabel.REGULAR and cls.distance > 0.0

    cls = STIRLING_MODEL.classify_domain((0.5, 2.0, 2.0))
    assert cls.label is DomainLabel.OUTSIDE
    assert abs(cls.distance - 0.5) <= 1e-15

    # V's a-coefficient 4bc - 8b - 8c + 15 is 0 at b = c = 5/2, where
    # den = -2 for every a: the line meets no point of V
    assert {den(a, 2.5, 2.5) for a in (1.5, 3.0, 40.0)} == {-2.0}
    cls = STIRLING_MODEL.classify_domain((3.0, 2.5, 2.5))
    assert cls.label is DomainLabel.REGULAR and cls.distance == 1.0


def test_classify_domain_tolerance():
    near_d = (2.0, 1.5 + 1e-10, 1.5)
    assert STIRLING_MODEL.classify_domain(near_d).label is DomainLabel.ON_D
    cls = STIRLING_MODEL.classify_domain(near_d, tol=1e-12)
    assert cls.label is DomainLabel.REGULAR
    assert abs(cls.distance - 1e-10) <= 1e-14


@pytest.mark.parametrize("tol", [-1.0, -5e-324, -math.inf, math.nan])
def test_classify_domain_rejects_a_negative_or_nan_tol(tol):
    # tol = -1 labelled this point of D Regular at distance 0.0, and
    # tol = nan labelled every point Regular
    with pytest.raises(DomainError, match="tol must be >= 0"):
        STIRLING_MODEL.classify_domain((2.0, 1.5, 1.5), tol=tol)


def test_classify_domain_takes_a_zero_or_infinite_tol():
    # the scan passes half a cell diagonal, which overflows on a huge box
    for tol in (0.0, -0.0):
        assert STIRLING_MODEL.classify_domain((2.0, 1.5, 1.5), tol=tol).label is DomainLabel.ON_D
    cls = STIRLING_MODEL.classify_domain((3.0, 2.5, 2.5), tol=math.inf)
    assert cls.label is DomainLabel.ON_D and cls.distance == 1.0


def test_classify_domain_total_on_mixed_points():
    # classification never raises, even outside the model domain
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(200):
        theta = rng.uniform(0.5, 5.0, size=3)
        cls = STIRLING_MODEL.classify_domain(theta)
        assert cls.label in tuple(DomainLabel)
        assert math.isfinite(cls.distance)


def exact_classification(theta, tol=1e-9):
    """classify_domain's label and distance in exact rational arithmetic,
    for a point of the domain off D."""
    a, b, c = (Fraction(x) for x in theta)
    dist_d = max(abs(b - Fraction(3, 2)), abs(c - Fraction(3, 2)))
    dist_v = abs(a - (27 - 15 * b - 15 * c + 8 * b * c) / (4 * b * c - 8 * b - 8 * c + 15))
    if dist_v <= tol:
        return DomainLabel.ON_V, dist_v
    return DomainLabel.REGULAR, min(dist_d, dist_v)


@pytest.mark.parametrize("theta, slack", [
    # 4bc overflowed, the V root was inf / inf = NaN, and these points of V
    # came back Regular at distance 1e155 and 1e200
    ((2.0, 1e155, 1e155), 0.0),
    ((2.0, 1e200, 1e200), 0.0),
    # where 4bc is finite the V root keeps its rounding, which is about
    # 4e-16 where the root is near 2
    ((2.0, 1e150, 1e150), 4e-16),
    ((3.0, 1e160, 2.0), 4e-16),
])
def test_classify_domain_is_held_to_exact_arithmetic_at_huge_b_and_c(theta, slack):
    cls = STIRLING_MODEL.classify_domain(theta)
    label, distance = exact_classification(theta)
    assert cls.label is label
    assert abs(Fraction(cls.distance) - distance) <= slack + 1e-14 * distance


def test_opposes_exact_potential_at_large_parameters():
    gap10 = abs(STIRLING_MODEL.potential((10.0,) * 3) + EXACT_MODEL.potential((10.0,) * 3))
    gap50 = abs(STIRLING_MODEL.potential((50.0,) * 3) + EXACT_MODEL.potential((50.0,) * 3))
    assert gap10 <= 0.05
    assert gap50 <= 0.01


@pytest.mark.parametrize("theta", [(1.0, 2.0, 2.0), (0.5, 2.0, 2.0), (2.0, 2.0)])
def test_domain_rejection(theta):
    with pytest.raises(DomainError):
        STIRLING_MODEL.check_domain(theta)


def test_inversion_start_lands_in_domain():
    for theta in ((2.0, 2.0, 2.0), (2.5, 3.0, 2.0), (1.8, 4.0, 2.6)):
        target = STIRLING_MODEL.eta(theta)
        start = STIRLING_MODEL.inversion_start(target)
        assert np.array_equal(STIRLING_MODEL.check_domain(start), start)


def test_inversion_start_overflow_is_domain_error():
    # the lower bound exp(800 + 1 - ln 2) of sigma exceeds the float range
    with pytest.raises(DomainError, match="overflows"):
        invert_eta(STIRLING_MODEL, (800.0, 0.0, 0.0))


def walk_start(target):
    """The walk of ``inversion_start`` alone, without its first-sheet
    shortcut: the first preimage of ``_preimages`` with
    max|eta - target| <= 1e-12, else the one of least residual."""
    t = [float(x) for x in target]
    kernel = STIRLING_MODEL.eta_metric_kernel
    best, least = None, math.inf
    for theta in _preimages(kernel, t):
        a, b, c = theta.tolist()
        e = kernel(a, b, c) if inside(1.0, a, b, c) else (math.inf,) * 3
        residual = max(abs(x - y) for x, y in zip(e[:3], t))
        if residual <= 1e-12:
            return theta
        if best is None or residual < least:
            best, least = theta, residual
    if best is None:
        raise DomainError(f"no stirling preimage found for eta={t}")
    return best


def test_refine_stops_at_the_rounding_floor_of_eta(monkeypatch):
    # Each root's Newton runs are counted, and the kernel calls they make:
    # every run but the root's last fails and splits its cell once.  Every
    # root must already be at the floor that invert_eta stops at.
    counts, roots, pending = [], [], [0, 0]
    refine, kernel = betaflow.stirling._refine, STIRLING_MODEL.eta_metric_kernel
    kernel_calls = [0]

    def counting_kernel(*theta):
        kernel_calls[0] += 1
        return kernel(*theta)

    def counted(hook, t, pattern, p, q):
        k = kernel_calls[0]
        root = refine(hook, t, pattern, p, q)
        pending[0] += 1
        pending[1] += kernel_calls[0] - k
        if root is not None:
            # cell evaluations: one split per failed run
            counts.append((pending[0] - 1, pending[1]))
            roots.append((root, t))
            pending[:] = [0, 0]
        return root

    monkeypatch.setattr(betaflow.stirling, "_refine", counted)
    monkeypatch.setattr(STIRLING_MODEL, "eta_metric_kernel", counting_kernel)
    rng = np.random.Generator(np.random.Philox(101))
    points = np.concatenate([1.0 + 10.0 ** rng.uniform(-3.0, 3.0, (400, 3)),
                             rng.uniform(1.0, 6.0, (400, 3))])
    first_sheet = []
    for theta in points:
        start = walk_start(STIRLING_MODEL.eta(theta))
        if theta.min() >= 1.5 and den(*theta) < 0.0:
            # every alpha_i >= 3/2 and den < 0: the sheet the start takes first
            assert np.max(np.abs(start - theta)) <= 1e-9 * np.max(theta), theta
            first_sheet.append(theta)
    # the largest counts this draw takes; most roots take no bisection and
    # three or four Newton steps
    assert len(counts) >= len(points)
    assert max(n for n, _ in counts) <= 15
    assert max(k for _, k in counts) <= 10
    monkeypatch.undo()
    for root, t in roots:
        # residual <= 1e-12, or at the rounding floor
        assert rounding_floor_ratio(STIRLING_MODEL, root, t) <= 1.0, (root, t)
    # and so does inversion_start, which mostly skips the walk there
    assert first_sheet
    for theta in first_sheet:
        start = STIRLING_MODEL.inversion_start(STIRLING_MODEL.eta(theta))
        assert np.max(np.abs(start - theta)) <= 1e-9 * np.max(theta), theta


def test_refine_gives_up_after_32_hook_calls(monkeypatch):
    # With no Newton step counted small, and eta_1 off by 1e-9 in turn up
    # and down inside each run, so that no iterate lands on an exact root,
    # every run spends its 32 hook calls and gives None, so its cell is
    # split until it cannot narrow; then the cell's nearer end stands in for
    # the root.
    calls, runs = [0], []
    refine, kernel = betaflow.stirling._refine, STIRLING_MODEL.eta_metric_kernel

    def shifting_kernel(*theta):
        calls[0] += 1
        e0, *rest = kernel(*theta)
        return (e0 + (1e-9 if calls[0] % 2 else -1e-9), *rest)

    def recording(hook, t, pattern, p, q):
        k = calls[0]
        runs.append((refine(shifting_kernel, t, pattern, p, q), calls[0] - k))
        return runs[-1][0]

    monkeypatch.setattr(betaflow.manifold, "_SMALL_STEP", -1.0)
    monkeypatch.setattr(betaflow.stirling, "_refine", recording)
    theta = np.array([2.5, 3.0, 2.0])
    start = walk_start(STIRLING_MODEL.eta(theta))
    assert all(root is None for root, _ in runs)
    assert max(n for _, n in runs) == 32
    assert np.max(np.abs(start - theta)) <= 1e-13


def test_refine_stops_at_once_where_a_cell_holds_no_float_point_of_the_domain(monkeypatch):
    # The preimage's u_3 is below the float spacing at 1, so theta_3 rounds
    # to 1 at both ends of the root's cell.  Bisecting that cell to its end
    # took 171 _solve_u calls; the cell search alone takes 9.  No preimage
    # of the target is in the domain, so invert_eta, whose start walks every
    # preimage, raises.
    calls = [0]

    def counting(r, branch=0):
        calls[0] += 1
        return _solve_u(r, branch)

    monkeypatch.setattr(betaflow.stirling, "_solve_u", counting)
    target = (0.013525557757431085, 1.7487266173162688e-121, -2.049652008915231e209)
    first = next(_preimages(STIRLING_MODEL.eta_metric_kernel, target))
    assert calls[0] <= 9
    assert first[2] == 1.0
    with pytest.raises(DomainError, match="needs a, b, c > 1"):
        invert_eta(STIRLING_MODEL, target)


def test_refine_bisects_its_cell_past_a_singular_jacobian(monkeypatch):
    # the first Newton solve raises as at a singular Jacobian: _newton raises
    # NoConvergenceError, _refine gives None, _roots bisects the cell and
    # Newton starts again from the nearer end
    solves, searched = [], []
    refine = betaflow.stirling._refine

    def singular_once(*args):
        solves.append(args)
        if len(solves) == 1:
            raise SingularMatrixError("injected")
        return solve_det(*args)

    def recording(kernel, t, pattern, p, q):
        root = refine(kernel, t, pattern, p, q)
        searched.append((pattern, (p[0], q[0]), root))
        return root

    monkeypatch.setattr(betaflow.manifold, "solve_det", singular_once)
    monkeypatch.setattr(betaflow.stirling, "_refine", recording)
    theta = (2.5, 3.0, 2.0)
    target = STIRLING_MODEL.eta(theta)
    start = walk_start(target)
    monkeypatch.undo()
    assert len(solves) > 1
    # every alpha_i >= 3/2 and den < 0: theta is the first pattern's root,
    # found in one half of the first run's cell
    (pattern, (p, q), failed), (again, (p2, q2), root) = searched[:2]
    assert pattern == again == _PATTERNS[0] and failed is None
    assert root == start.tolist()
    mid = math.sqrt(p) * math.sqrt(q)
    assert (p2, q2) in ((p, mid), (mid, q))
    assert np.max(np.abs(start - theta)) <= 1e-9 * 3.0
    assert rounding_floor_ratio(STIRLING_MODEL, start, target) <= 1.0
    assert np.max(np.abs(STIRLING_MODEL.inversion_start(target) - theta)) <= 1e-9 * 3.0


def test_solve_u_is_finite_near_the_top_of_the_float_range():
    # the root, about exp(r) - 1/2, nears the largest float
    for r in np.linspace(709.1, 709.78, 41):
        u = _solve_u(float(r))
        assert math.isfinite(u)
        assert abs(math.log(u) + 0.5 / u - r) <= 4 * math.ulp(r)


@pytest.mark.parametrize("branch, top", [(0, 709.78), (-1, 1e6)])
def test_solve_u_is_a_root_on_both_branches(branch, top):
    # from the branch point r = _PHI_MIN, where u = 1/2 on both branches,
    # to the top of each branch's range
    rs = [_PHI_MIN, *(_PHI_MIN + np.logspace(-20, math.log10(top - _PHI_MIN), 4000))]
    assert _solve_u(_PHI_MIN, branch) == 0.5
    for r in rs:
        u = _solve_u(float(r), branch)
        assert (u >= 0.5) if branch == 0 else (0.0 < u <= 0.5)
        terms = max(abs(math.log(u)), 0.5 / u, r)
        assert abs(math.log(u) + 0.5 / u - r) <= 4 * math.ulp(terms)


def test_solve_u_branch_zero_overflow_is_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        _solve_u(709.79)
    assert 0.0 < _solve_u(709.79, -1) < 0.5


@pytest.mark.parametrize("seed, lo, hi", [(31, 1.01, 1.5), (37, 1.01, 6.0)])
def test_invert_eta_seeded_roundtrips_on_every_sheet(seed, lo, hi):
    # coordinates below 3/2 put u_i on the branch u < 1/2
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(600):
        target = STIRLING_MODEL.eta(rng.uniform(lo, hi, size=3))
        back = invert_eta(STIRLING_MODEL, target)
        assert np.max(np.abs(STIRLING_MODEL.eta(back) - target)) <= 1e-10


@pytest.mark.parametrize("theta", [(1.01, 1.02, 40.0), (5.0, 1.2, 9.0)])
def test_invert_eta_roundtrips_below_three_halves(theta):
    target = STIRLING_MODEL.eta(theta)
    back = invert_eta(STIRLING_MODEL, target)
    assert np.max(np.abs(STIRLING_MODEL.eta(back) - target)) <= 1e-10


def test_preimages_span_the_fold():
    # (100, 100, 100) and a point near (1.92, 1.92, 1.92) share an eta: the
    # dual map folds across V.  The default sheet (den < 0) comes first.
    target = STIRLING_MODEL.eta((100.0, 100.0, 100.0))
    small, large = _preimages(STIRLING_MODEL.eta_metric_kernel, target)
    assert np.max(np.abs(small - 1.92)) <= 0.01
    assert np.max(np.abs(large - 100.0)) <= 1e-9 * 100.0
    for theta in (small, large):
        assert np.max(np.abs(STIRLING_MODEL.eta(theta) - target)) <= 1e-12
    assert np.max(np.abs(invert_eta(STIRLING_MODEL, target) - small)) <= 1e-12


def test_preimages_separate_a_close_pair_near_the_fold():
    # Both preimages of this eta lie within 4% of each other in sigma; a
    # 1.05 geometric scan of sigma stepped over the pair.
    theta = (2.62, 4.89, 2.85)
    target = STIRLING_MODEL.eta(theta)
    found = list(_preimages(STIRLING_MODEL.eta_metric_kernel, target))
    assert len(found) == 2
    assert np.max(np.abs(found[1] - theta)) <= 1e-9 * 4.89
    for start in found:
        assert np.max(np.abs(STIRLING_MODEL.eta(start) - target)) <= 1e-12


def test_preimages_of_a_mixed_sheet():
    # the (0, 0, 0) pattern has no root; (1.01, 1.02, 40) lies on the pattern
    # (-1, -1, 0) and a second preimage on (-1, -1, -1)
    target = STIRLING_MODEL.eta((1.01, 1.02, 40.0))
    found = list(_preimages(STIRLING_MODEL.eta_metric_kernel, target))
    assert len(found) == 2
    assert np.max(np.abs(found[0] - [1.01, 1.02, 40.0])) <= 1e-9 * 40.0
    assert np.max(np.abs(found[1] - [1.0106, 1.0228, 1.2175])) <= 1e-4


def test_each_preimage_lies_on_its_pattern_in_order(monkeypatch):
    # _refine records the branch pattern each root was searched on
    searched = []
    refine = betaflow.stirling._refine

    def recording(kernel, t, pattern, p, q):
        root = refine(kernel, t, pattern, p, q)
        if root is not None:
            searched.append((pattern, root))
        return root

    monkeypatch.setattr(betaflow.stirling, "_refine", recording)
    rng = np.random.Generator(np.random.Philox(103))
    points = np.concatenate([1.0 + 10.0 ** rng.uniform(-3.0, 3.0, (300, 3)),
                             rng.uniform(1.0, 6.0, (300, 3))])
    # the fold, close-pair and mixed-sheet pins above
    pins = np.array([(100.0, 100.0, 100.0), (2.62, 4.89, 2.85), (1.01, 1.02, 40.0)])
    roots = 0
    for theta in np.concatenate([points, pins]):
        target = STIRLING_MODEL.eta(theta)
        searched.clear()
        found = [x.tolist() for x in _preimages(STIRLING_MODEL.eta_metric_kernel, target)]
        assert found == [root for _, root in searched]
        order = []
        for pattern, root in searched:
            # theta_i = u_i + 1 >= 3/2 on branch 0 and <= 3/2 on branch -1
            assert all(x >= 1.5 if k == 0 else x <= 1.5 for x, k in zip(root, pattern)), root
            assert rounding_floor_ratio(STIRLING_MODEL, root, target) <= 1.0, (root, theta)
            order.append((_PATTERNS.index(pattern), sum(root) - 1.0))
        # pattern by pattern, each pattern's in increasing sigma
        assert order == sorted(set(order)), theta
        roots += len(found)
    assert roots > len(points) + len(pins)


def reference_roots(kernel, t, pattern, lo, hi):
    """The cell search with the bisection inside its Newton refinement, as
    it stood before ``_roots`` took over every split of a cell."""
    def at(sigma):
        ls = math.log(sigma)
        f, d0, d1, us, gs = 2.0 - sigma, -1.0, 0.0, [], []
        for x, k in zip(t, pattern):
            u = _solve_u(ls - x, k)
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

    stack = [(at(lo), at(hi))]
    while stack:
        p, q = stack.pop()
        low, high = q[2] + p[3], p[2] + q[3]
        crosses = p[1] * q[1] < 0.0 or q[1] == 0.0
        if not low <= 0.0 <= high or q[0] - p[0] <= 1e-13 * q[0]:
            if crosses:
                yield reference_refine(at, kernel, t, pattern, p, q)
        elif crosses or not _root_free(p, q, low, high):
            m = at(math.sqrt(p[0]) * math.sqrt(q[0]))
            stack += [(m, q), (p, m)]


def reference_refine(at, kernel, t, pattern, p, q):
    """Newton in theta from the nearer end, each step halved until it lands
    in the branches and the cell, bisecting the cell through ``at`` and
    starting again wherever Newton fails, for 100 rounds.  Newton fails
    where its start is outside the cell, eta or G is not finite, G is
    singular, the step is zero, the halving falls below 2^-60 or 32 hook
    calls do not converge; it stops at an exact root, or after a full step
    below 2^-26 (theta_i - 1)."""
    bounds = [_BRANCH_THETA[k] for k in pattern]

    def in_cell(theta):
        return (all(lo <= x <= hi for x, (lo, hi) in zip(theta, bounds))
                and p[0] <= sum(theta) - 1.0 <= q[0])

    tiny = _SMALL_STEP
    theta = None
    for _ in range(100):
        if theta is None:
            x = p if abs(p[1]) < abs(q[1]) else q
            if any(u + 1.0 == 1.0 == v + 1.0 for u, v in zip(p[4], q[4])):
                break
            slope = x[2] + x[3]
            ds = -x[1] / slope if slope else 0.0
            theta = [u + g * ds + 1.0 if ds else u + 1.0 for u, g in zip(x[4], x[5])]
            calls = 0
        step = None
        if calls < 32 and in_cell(theta):
            values = kernel(*theta)
            calls += 1
            residual = [e - x for e, x in zip(values[:3], t)]
            if residual == [0.0, 0.0, 0.0]:
                return theta
            if all(map(math.isfinite, values)):
                try:
                    step = solve_det(*values[3:], *(-r for r in residual))[1:]
                except SingularMatrixError:
                    pass
        lam = 1.0
        while step is not None and any(step) and lam >= 2.0 ** -60:
            moved = [x + lam * s for x, s in zip(theta, step)]
            if in_cell(moved):
                small = lam == 1.0 and all(abs(s) <= tiny * (x - 1.0)
                                           for x, s in zip(theta, step))
                if small:
                    return moved
                theta = moved
                break
            lam *= 0.5
        else:
            sigma = math.sqrt(p[0]) * math.sqrt(q[0])
            if not p[0] < sigma < q[0]:
                break
            m = at(sigma)
            if (m[1] < 0.0) == (p[1] < 0.0):
                p = m
            else:
                q = m
            theta = None
    return [u + 1.0 for u in x[4]]


def test_preimages_match_the_refine_that_bisected_its_own_cell(monkeypatch):
    # Every preimage, to the bit, and every error text match the search
    # whose Newton refinement split its cells itself.  theta_3 = 1 + 10^U,
    # U in [-8, -3], puts roots next to the boundary, where Newton leaves
    # the cell and the cell splits most.
    rng = np.random.Generator(np.random.Philox(107))
    near = np.column_stack([rng.uniform(1.0, 6.0, (400, 2)),
                            1.0 + 10.0 ** rng.uniform(-8.0, -3.0, 400)])
    points = np.concatenate([1.0 + 10.0 ** rng.uniform(-3.0, 3.0, (400, 3)),
                             rng.uniform(1.0, 6.0, (400, 3)), near])
    # the fold, close-pair, mixed-sheet and next-to-the-boundary pins, and
    # a target whose root's cell holds no float point of the domain
    pins = [(100.0, 100.0, 100.0), (2.62, 4.89, 2.85), (1.01, 1.02, 40.0),
            (1.45227617741424, 3.529910622678493, 1.0003936484813494),
            NEAR_BOUNDARY_THETA]
    targets = [STIRLING_MODEL.eta(theta) for theta in (*points, *pins)]
    targets.append((0.013525557757431085, 1.7487266173162688e-121, -2.049652008915231e209))

    def preimages():
        found = []
        for target in targets:
            try:
                found.append([[x.hex() for x in theta.tolist()]
                              for theta in _preimages(STIRLING_MODEL.eta_metric_kernel, target)])
            except DomainError as e:
                found.append(str(e))
        return found

    got = preimages()
    monkeypatch.setattr(betaflow.stirling, "_roots", reference_roots)
    assert got == preimages()
    assert sum(map(len, got)) > len(targets)


def test_invert_eta_of_a_target_with_no_root_on_the_first_pattern():
    # From perfbench `invert` at seed 323: the (0, 0, 0) pattern has no
    # root, so the first preimage is on (0, 0, -1).  There one ulp of c
    # moves eta_3 by 7.2e-10, so it is at its rounding floor, 1.1e-10 off
    # the target.  The start walks on to the source's pattern, (-1, 0, -1),
    # whose preimage meets 1e-12.
    theta = (1.45227617741424, 3.529910622678493, 1.0003936484813494)
    target = STIRLING_MODEL.eta(theta)
    first, *_ = _preimages(STIRLING_MODEL.eta_metric_kernel, target)
    assert np.max(np.abs(first - [2.70009, 5.61962, 1.000393])) <= 1e-5
    assert first[0] >= 1.5 and first[1] >= 1.5 and first[2] <= 1.5
    assert np.max(np.abs(STIRLING_MODEL.eta(first) - target)) > 1e-12
    assert rounding_floor_ratio(STIRLING_MODEL, first, target) <= 1.0
    back = invert_eta(STIRLING_MODEL, target)
    assert np.max(np.abs(back - theta)) <= 1e-14
    assert np.max(np.abs(STIRLING_MODEL.eta(back) - target)) <= 1e-15


# From perfbench `invert` at seed 196 (op 169): c is 1.3e-5 above 1, so one
# ulp of c moves eta_3 by about 7e-7.  The target's first preimage lies on
# the other side of the fold, det G < 0 there against det G > 0 at theta.
NEAR_BOUNDARY_THETA = (3.6912878742227053, 2.560316756765374, 1.0000125959645914)


def test_invert_eta_meets_the_oracle_gate_next_to_the_boundary():
    # the first preimage is at its floor, 3e-7 off; the start walks on to
    # the second, the source
    target = STIRLING_MODEL.eta(NEAR_BOUNDARY_THETA)
    back = invert_eta(STIRLING_MODEL, target)
    assert np.max(np.abs(STIRLING_MODEL.eta(back) - target)) <= 1e-10


# The sources whose targets missed perfbench `invert`'s 1e-10 gate while
# inversion_start took the first preimage, by seed/op at 68 rounds: each
# first preimage lay across the fold, at a rounding floor above 1e-10.
GATE_MISS_SOURCES = {
    "59/112": (4.499116541447718, 1.0001551766728447, 1.92447271354402),
    "124/78": (1.0002720062276476, 1.2125548516945663, 1.1478370313292743),
    "155/52": (1.3313903112175645, 4.568215465418838, 1.0001095084752478),
    "196/169": NEAR_BOUNDARY_THETA,
    "266/43": (1.000361253355492, 2.011651554779718, 3.3215809653397557),
    "298/238": (1.00045570493766, 1.319003049390254, 4.195602906095445),
    "300/33": (3.031812592527289, 1.0001392555631519, 2.243012608723717),
    "323/126": (1.45227617741424, 3.529910622678493, 1.0003936484813494),
}


@pytest.mark.parametrize("theta", GATE_MISS_SOURCES.values(), ids=GATE_MISS_SOURCES.keys())
def test_invert_eta_meets_the_oracle_gate_at_the_past_misses(theta):
    target = STIRLING_MODEL.eta(theta)
    back = invert_eta(STIRLING_MODEL, target)
    assert np.max(np.abs(STIRLING_MODEL.eta(back) - target)) <= 1e-10
    # on the source's sheet
    assert np.max(np.abs(back - theta)) <= 1e-6 * max(theta)


def test_first_preimage_next_to_the_boundary_is_at_its_floor_and_the_second_hits():
    target = STIRLING_MODEL.eta(NEAR_BOUNDARY_THETA)
    first, second = list(_preimages(STIRLING_MODEL.eta_metric_kernel, target))
    assert np.max(np.abs(first - [2.452059, 1.500462, 1.0000126])) <= 1e-6
    assert np.max(np.abs(STIRLING_MODEL.eta(first) - target)) > 1e-10
    assert rounding_floor_ratio(STIRLING_MODEL, first, target) <= 1.0
    assert np.max(np.abs(second - NEAR_BOUNDARY_THETA)) <= 1e-14
    assert np.max(np.abs(STIRLING_MODEL.eta(second) - target)) <= 1e-15
    assert STIRLING_MODEL.det_closed(first) < 0.0 < STIRLING_MODEL.det_closed(second)


@pytest.mark.parametrize("target", [
    (-800.0, -800.0, -800.0),
    tuple(STIRLING_MODEL.eta((1.00025, 1.00029, 1.00014))),
])
def test_invert_eta_far_targets_roundtrip_or_raise(target):
    # the lower bound e^{t + _PHI_MIN} of sigma underflows to 0 here; no
    # such target raises any more, each round trips to the rounding floor
    back = invert_eta(STIRLING_MODEL, target)
    assert rounding_floor_ratio(STIRLING_MODEL, back, target) <= 1.0


@pytest.mark.parametrize("theta", [(2.5, 3.0, 2.0), (1.2, 7.0, 40.0), (300.0, 1.05, 2.5)])
def test_eta_is_the_potential_gradient_less_one_over_two_s_minus_one(theta):
    # d Phi_S / d alpha_i = eta_i + 1/(2(s-1)) in every component, so eta is
    # the gradient of Phi_S - (1/2) ln(s-1), not of Phi_S itself
    p = np.array(theta)
    phi = STIRLING_MODEL.potential
    grad = []
    for e, u in zip(np.eye(3), p - 1.0):
        h = 1e-3 * u * e  # fourth-order central difference
        grad.append((8.0 * (phi(p + h) - phi(p - h)) - phi(p + 2 * h) + phi(p - 2 * h))
                    / (12e-3 * u))
    gap = grad - STIRLING_MODEL.eta(p)
    assert np.max(np.abs(gap - 0.5 / (p.sum() - 1.0))) <= 1e-7


def test_inversion_start_returns_the_walks_start_where_it_skips_the_walk(monkeypatch):
    # The first-sheet shortcut keeps a Newton root on the pattern (0, 0, 0)
    # only where det G > 0 proves it is the walk's first preimage; elsewhere
    # inversion_start walks.  Either way it lands where the walk alone does.
    walked = []

    def spying(kernel, target):
        walked.append(True)
        return _preimages(kernel, target)

    rng = np.random.Generator(np.random.Philox(109))
    points = np.concatenate([rng.uniform(1.0, 6.0, (300, 3)),
                             1.0 + 10.0 ** rng.uniform(-3.0, 3.0, (300, 3))])
    # the fold, close-pair and mixed-sheet pins, and the past gate misses
    pins = [(100.0, 100.0, 100.0), (2.62, 4.89, 2.85), (1.01, 1.02, 40.0),
            *GATE_MISS_SOURCES.values()]
    declined = []
    for theta in (*points, *pins):
        target = STIRLING_MODEL.eta(theta)
        want = walk_start(target)
        walked.clear()
        with monkeypatch.context() as m:
            m.setattr(betaflow.stirling, "_preimages", spying)
            start = STIRLING_MODEL.inversion_start(target)
        assert np.max(np.abs(start - want)) <= 1e-9 * np.max(want), theta
        if walked:
            declined.append(tuple(theta))
        else:
            # a shortcut start is at the first sheet's root: u_i > 1/2, det G > 0
            assert start.min() > 1.5 and STIRLING_MODEL.det_closed(start) > 0.0, theta
            assert np.max(np.abs(STIRLING_MODEL.eta(start) - target)) <= 1e-12, theta
    # both sides of the selection occur; the fold pin's first preimage, near
    # (1.92, 1.92, 1.92), is on the first sheet, and the mixed-sheet pin's is not
    assert 0 < len(declined) < len(points) + len(pins)
    assert (1.01, 1.02, 40.0) in declined
    assert (100.0, 100.0, 100.0) not in declined
    # the shortcut raises nothing: a target the walk answers with a cell end
    # outside the domain, or raises on, gets the walk's answer or error
    target = np.array((0.013525557757431085, 1.7487266173162688e-121, -2.049652008915231e209))
    assert np.array_equal(STIRLING_MODEL.inversion_start(target), walk_start(target))
    errors = []
    for find in (STIRLING_MODEL.inversion_start, walk_start):
        with pytest.raises(DomainError, match="overflows") as exc:
            find(np.array((800.0, 0.0, 0.0)))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_inversion_start_walks_where_det_g_is_not_positive(monkeypatch):
    # With the sign of det G flipped in the shortcut's factorization, no
    # iterate has det G > 0: every target declines at its first hook call
    # and walks.
    walked = []

    def spying(kernel, target):
        walked.append(True)
        return _preimages(kernel, target)

    def flipped(*parts):
        det, *adjugate = _rank_one(*parts)
        return (-det, *adjugate)

    monkeypatch.setattr(betaflow.stirling, "_rank_one", flipped)
    monkeypatch.setattr(betaflow.stirling, "_preimages", spying)
    for theta in ((2.5, 3.0, 2.0), (100.0, 100.0, 100.0), (2.62, 4.89, 2.85)):
        target = STIRLING_MODEL.eta(theta)
        walked.clear()
        start = STIRLING_MODEL.inversion_start(target)
        assert walked
        assert np.array_equal(start, walk_start(target))


@pytest.mark.parametrize("theta", [(2.5, 3.0, 2.0), (1.01, 1.02, 40.0), NEAR_BOUNDARY_THETA],
                         ids=["first-sheet", "mixed-sheet", "near-boundary"])
def test_every_hook_call_of_an_inversion_is_the_models_own(monkeypatch, theta):
    # A subclass counts the calls of its own hook; the class hook, which the
    # subclass's calls pass through too, counts every Stirling hook call.
    # invert_eta on the subclass must make them all on the subclass.
    target = STIRLING_MODEL.eta(theta)
    want = invert_eta(STIRLING_MODEL, target)
    calls = {"own": 0, "all": 0}
    hook = betaflow.stirling.StirlingModel.eta_metric_kernel

    def counting_all(self, a, b, c):
        calls["all"] += 1
        return hook(self, a, b, c)

    class Counting(betaflow.stirling.StirlingModel):
        def eta_metric_kernel(self, a, b, c):
            calls["own"] += 1
            return super().eta_metric_kernel(a, b, c)

    monkeypatch.setattr(betaflow.stirling.StirlingModel, "eta_metric_kernel", counting_all)
    back = invert_eta(Counting(), target)
    assert calls["all"] > 1
    assert calls["own"] == calls["all"], calls
    assert np.array_equal(back, want)
