import math
import warnings

import mpmath
import numpy as np
import pytest

from betaflow import (EXACT_MODEL, BetaflowError, DomainError, DomainLabel, det3, run_suite,
                      trigamma)
from betaflow.manifold import Metric3, check_finite
from conftest import rank_one_adjugate
from test_fuzz import _points as fuzz_points

mpmath.mp.dps = 40

GRID_1D = (0.2, 0.7, 1.0, 2.5, 7.0, 20.0)


def mp_potential(a, b, c):
    return float(
        mpmath.loggamma(a) + mpmath.loggamma(b) + mpmath.loggamma(c)
        - mpmath.loggamma(a + b + c)
    )


def test_potential_spots():
    # Gamma(2) = 1 three times over Gamma(6) = 120
    assert abs(EXACT_MODEL.potential((2.0, 2.0, 2.0)) + math.log(120.0)) <= 1e-14
    assert abs(EXACT_MODEL.potential((1.0, 1.0, 1.0)) + math.log(2.0)) <= 1e-14
    theta = (0.3, 1.7, 4.2)
    assert abs(EXACT_MODEL.potential(theta) - mp_potential(*theta)) <= 1e-13


def test_potential_permutation_symmetric():
    base = EXACT_MODEL.potential((0.4, 2.0, 11.0))
    for perm in ((2.0, 0.4, 11.0), (11.0, 2.0, 0.4), (2.0, 11.0, 0.4)):
        assert abs(EXACT_MODEL.potential(perm) - base) <= 1e-12


def test_eta_harmonic_spots():
    # psi(m) - psi(n) telescopes to a harmonic tail for integer arguments
    e = EXACT_MODEL.eta((2.0, 2.0, 2.0))
    assert np.max(np.abs(e - (-77.0 / 60.0))) <= 1e-14

    e = EXACT_MODEL.eta((2.0, 3.0, 4.0))
    tails = [
        -sum(1.0 / k for k in range(2, 9)),
        -sum(1.0 / k for k in range(3, 9)),
        -sum(1.0 / k for k in range(4, 9)),
    ]
    assert np.max(np.abs(e - tails)) <= 1e-14


def test_eta_componentwise_negative():
    for a in GRID_1D:
        for b in GRID_1D:
            for c in GRID_1D:
                assert np.all(EXACT_MODEL.eta((a, b, c)) < 0.0)


def test_metric_spots():
    m = EXACT_MODEL.metric((2.0, 2.0, 2.0))
    diag = sum(1.0 / k**2 for k in range(2, 6))
    off = -float(mpmath.polygamma(1, 6))
    assert abs(m.d1 - diag) <= 1e-14
    assert m.d1 == m.d2 == m.d3
    assert m.o12 == m.o13 == m.o23
    assert abs(m.o12 - off) <= 1e-15


def test_metric_positive_definite_on_grid():
    for a in GRID_1D:
        for b in GRID_1D:
            for c in GRID_1D:
                m = EXACT_MODEL.metric((a, b, c))
                minors = (m.d1, m.d1 * m.d2 - m.o12 * m.o12, det3(m))
                assert all(v > 0.0 for v in minors)


def test_eta_is_gradient_of_potential():
    h = 1e-5
    for theta in ((0.5, 1.5, 3.0), (2.0, 3.0, 4.0), (8.0, 0.9, 2.2)):
        e = EXACT_MODEL.eta(theta)
        for i in range(3):
            hi = np.zeros(3)
            hi[i] = h
            fd = (
                EXACT_MODEL.potential(np.add(theta, hi))
                - EXACT_MODEL.potential(np.subtract(theta, hi))
            ) / (2 * h)
            assert abs(fd - e[i]) <= 1e-6


def test_metric_is_hessian_of_potential():
    h = 1e-5
    for theta in ((0.5, 1.5, 3.0), (2.0, 3.0, 4.0)):
        g = EXACT_MODEL.metric(theta).as_array()
        for i in range(3):
            hi = np.zeros(3)
            hi[i] = h
            fd = (
                EXACT_MODEL.eta(np.add(theta, hi))
                - EXACT_MODEL.eta(np.subtract(theta, hi))
            ) / (2 * h)
            assert np.max(np.abs(fd - g[i])) <= 1e-6


def test_dual_potential_spots():
    # <theta, eta> - Phi = 6 * (-77/60) + ln 120 at the symmetric point
    want = 6.0 * (-77.0 / 60.0) + math.log(120.0)
    assert abs(EXACT_MODEL.dual_potential((2.0, 2.0, 2.0)) - want) <= 1e-13
    want = -4.5 + math.log(2.0)
    assert abs(EXACT_MODEL.dual_potential((1.0, 1.0, 1.0)) - want) <= 1e-13


def test_legendre_residual_small_on_grid():
    for a in GRID_1D:
        for b in GRID_1D:
            for c in GRID_1D:
                theta = np.array([a, b, c])
                lhs = EXACT_MODEL.dual_potential(theta) + EXACT_MODEL.potential(theta)
                rhs = float(np.dot(theta, EXACT_MODEL.eta(theta)))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_log_pdf_spots():
    assert abs(EXACT_MODEL.log_pdf((1.0, 1.0, 1.0), (0.3, 0.3)) - math.log(2.0)) <= 1e-14
    # 120 * (1/4)(1/4)(1/2) = 3.75
    assert abs(EXACT_MODEL.log_pdf((2.0, 2.0, 2.0), (0.25, 0.25)) - math.log(3.75)) <= 1e-13


def test_log_pdf_checks_theta_once_and_subtracts_the_potential():
    calls = []

    class Counting(type(EXACT_MODEL)):
        def check_domain(self, theta):
            calls.append(theta)
            return super().check_domain(theta)

    for theta, x in (((2.0, 3.0, 4.0), (0.2, 0.3)), ((0.4, 7.5, 1.25), (0.6, 0.1))):
        calls.clear()
        got = Counting().log_pdf(theta, x)
        assert len(calls) == 1
        a, b, c = theta
        want = ((a - 1.0) * math.log(x[0]) + (b - 1.0) * math.log(x[1])
                + (c - 1.0) * math.log(1.0 - x[0] - x[1]) - EXACT_MODEL.potential(theta))
        assert got == want
    with pytest.raises(DomainError, match=r"^exact model needs a, b, c > 0, got \[0.0, 1.0, 1.0\]$"):
        EXACT_MODEL.log_pdf((0.0, 1.0, 1.0), (0.2, 0.3))


def test_dual_potential_checks_theta_once_and_is_the_legendre_transform():
    calls = []

    class Counting(type(EXACT_MODEL)):
        def check_domain(self, theta):
            calls.append(theta)
            return super().check_domain(theta)

    for theta in ((2.0, 3.0, 4.0), (0.4, 7.5, 1.25), (1e-3, 5.0, 1e8)):
        calls.clear()
        got = Counting().dual_potential(theta)
        assert len(calls) == 1
        p = np.array(theta)
        assert got == float(np.dot(p, EXACT_MODEL.eta(p))) - EXACT_MODEL.potential(p)
    with pytest.raises(DomainError, match=r"^exact model needs a, b, c > 0, got \[0.0, 1.0, 1.0\]$"):
        EXACT_MODEL.dual_potential((0.0, 1.0, 1.0))
    with pytest.raises(DomainError, match=r"^eta is not finite at \[1e-320, 1.0, 1.0\]$"):
        EXACT_MODEL.dual_potential((1e-320, 1.0, 1.0))


@pytest.mark.parametrize("x", [(0.7, 0.5), (0.0, 0.5), (0.5, -0.1), (1.0, 0.0),
                               (0.2, 0.3, 0.5)])
def test_log_pdf_rejects_points_off_simplex(x):
    with pytest.raises(DomainError):
        EXACT_MODEL.log_pdf((2.0, 2.0, 2.0), x)


def test_sample_deterministic_and_on_simplex():
    a = EXACT_MODEL.sample((2.0, 3.0, 4.0), 500, seed=42)
    b = EXACT_MODEL.sample((2.0, 3.0, 4.0), 500, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (500, 2)
    assert np.all(a > 0.0)
    assert np.all(a.sum(axis=1) < 1.0)
    c = EXACT_MODEL.sample((2.0, 3.0, 4.0), 500, seed=43)
    assert not np.array_equal(a, c)


def test_sample_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="seed must be >= 0"):
        EXACT_MODEL.sample((2.0, 3.0, 4.0), 10, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        EXACT_MODEL.fisher_mc((2.0, 3.0, 4.0), 2000, seed=-1)


@pytest.mark.parametrize("call, args, argument", [
    (EXACT_MODEL.sample, ((2.0, 3.0, 4.0), 2.5, 0), "n"),
    (EXACT_MODEL.sample, ((2.0, 3.0, 4.0), 0, 0), "n"),
    (EXACT_MODEL.sample, ((2.0, 3.0, 4.0), 3, 1.5), "seed"),
    (EXACT_MODEL.sample, ((2.0, 3.0, 4.0), 3, math.nan), "seed"),
    (EXACT_MODEL.fisher_mc, ((2.0, 3.0, 4.0), 10, 0), "n"),
    (run_suite, ("lax", 1.5), "seed"),
], ids=["sample-n-2.5", "sample-n-0", "sample-seed-1.5", "sample-seed-nan",
        "fisher_mc-n-10", "run_suite-seed-1.5"])
def test_a_count_or_seed_that_is_no_integer_in_range_is_a_domain_error(call, args, argument):
    # each raised numpy's TypeError or a bare ValueError
    with pytest.raises(DomainError, match=f"^{argument} must be >= [0-9]+ and an integer, got "):
        call(*args)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("call, argument", [
    (lambda v: EXACT_MODEL.sample((2.0, 3.0, 4.0), v, 0), "n"),
    (lambda v: EXACT_MODEL.sample((2.0, 3.0, 4.0), 3, v), "seed"),
    (lambda v: EXACT_MODEL.fisher_mc((2.0, 3.0, 4.0), v, 0), "n"),
    (lambda v: EXACT_MODEL.fisher_mc((2.0, 3.0, 4.0), 2000, v), "seed"),
    (lambda v: run_suite("lax", v), "seed"),
], ids=["sample-n", "sample-seed", "fisher_mc-n", "fisher_mc-seed", "run_suite-seed"])
def test_a_bool_is_no_count_or_seed(call, argument, flag):
    # Python's bool is an int: sample(theta, True, 0) drew one point and
    # run_suite("lax", True) ran seed 1, where np.True_ raised
    with pytest.raises(DomainError, match=f"^{argument} must be >= [0-9]+ and an integer, got "):
        call(flag)


def test_sample_takes_numpy_integers():
    theta = (2.0, 3.0, 4.0)
    got = EXACT_MODEL.sample(theta, np.int64(5), np.uint32(7))
    assert np.array_equal(got, EXACT_MODEL.sample(theta, 5, 7))


def test_sample_raises_where_the_variates_sum_overflows():
    # each variate is near 1e308, so their sum is inf and every draw 0
    with pytest.raises(DomainError, match="gamma sum"):
        EXACT_MODEL.sample((1e308, 1e308, 1e308), 4, seed=1)


def test_sample_is_the_normalised_gamma_draw_bit_for_bit():
    theta = np.array([2.0, 3.0, 0.05])
    g = np.random.Generator(np.random.Philox(5)).standard_gamma(theta, size=(1000, 3))
    want = g[:, :2] / g.sum(axis=1, keepdims=True)
    assert EXACT_MODEL.sample(theta, 1000, 5).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [10**20, 2**50])
@pytest.mark.parametrize("call", [EXACT_MODEL.sample, EXACT_MODEL.fisher_mc])
def test_a_count_numpy_cannot_draw_is_a_domain_error(call, n):
    # numpy refuses both before it allocates: 10**20 raised its bare
    # ValueError, and 2**50 its MemoryError
    with pytest.raises(DomainError, match=f"^cannot draw n = {n} points"):
        call((2.0, 3.0, 4.0), n, 0)


def test_sample_mean_matches_moments():
    # E[x1] = a/s, Var[x1] = a(s-a) / (s^2 (s+1)) at (2, 3, 4)
    n = 100_000
    x = EXACT_MODEL.sample((2.0, 3.0, 4.0), n, seed=0)
    mean = 2.0 / 9.0
    se = math.sqrt((14.0 / 810.0) / n)
    assert abs(float(np.mean(x[:, 0])) - mean) <= 3 * se


def test_fisher_mc_matches_metric_within_stderr():
    theta = (2.0, 3.0, 4.0)
    est, se = EXACT_MODEL.fisher_mc_with_stderr(theta, 200_000, seed=0)
    g = EXACT_MODEL.metric(theta)
    for key in ("d1", "d2", "d3", "o12", "o13", "o23"):
        err = abs(getattr(est, key) - getattr(g, key))
        assert err <= 5 * getattr(se, key), key


def test_fisher_mc_takes_ln_x3_from_the_draw():
    # ln(1 - x1 - x2), rebuilt from the normalised x1 and x2, met a
    # rounded x3 <= 0 in 13% of these draws, and d3 came back NaN
    theta = (2.0, 3.0, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = EXACT_MODEL.fisher_mc_with_stderr(theta, 200_000, seed=0)
    g = EXACT_MODEL.metric(theta)
    for key in ("d1", "d2", "d3", "o12", "o13", "o23"):
        err = abs(getattr(est, key) - getattr(g, key))
        assert err <= 5 * getattr(se, key), key


def test_fisher_mc_where_a_variate_underflows_is_a_domain_error():
    # at c = 0.01 some gamma variates of c underflow to 0, and ln 0 = -inf
    with pytest.raises(DomainError, match=r"^ln x of a draw is not finite at \[2.0, 3.0, 0.01\]"):
        EXACT_MODEL.fisher_mc((2.0, 3.0, 0.01), 200_000, seed=0)


def test_fisher_mc_is_symmetric_metric3():
    est = EXACT_MODEL.fisher_mc((2.0, 3.0, 4.0), 2000, seed=1)
    arr = est.as_array()
    assert np.array_equal(arr, arr.T)
    assert det3(est) > 0.0


def test_fisher_mc_error_shrinks_with_n():
    # quadrupling n should roughly halve the error; allow a wide band
    theta = (2.0, 3.0, 4.0)
    g = EXACT_MODEL.metric(theta).as_array()

    def err(n, seed):
        return float(np.max(np.abs(EXACT_MODEL.fisher_mc(theta, n, seed).as_array() - g)))

    ratios = [err(200_000, s + 1000) / err(50_000, s) for s in (0, 2, 4)]
    assert all(0.3 <= r <= 0.8 for r in ratios), ratios


def test_fisher_mc_rejects_small_n():
    with pytest.raises(ValueError):
        EXACT_MODEL.fisher_mc((2.0, 2.0, 2.0), 999, seed=0)


@pytest.mark.parametrize("theta", [(0.0, 1.0, 1.0), (-1.0, 2.0, 2.0), (1.0, 1.0)])
def test_domain_rejection(theta):
    with pytest.raises(DomainError):
        EXACT_MODEL.check_domain(theta)


def test_metric_inverse_closed_is_the_inverse_of_metric():
    # 400 seeded points 10^U, U in [-2, 2]: worst measured 2.7e-13
    rng = np.random.Generator(np.random.Philox(31))
    for theta in 10.0 ** rng.uniform(-2.0, 2.0, (400, 3)):
        product = (EXACT_MODEL.metric(theta).as_array()
                   @ EXACT_MODEL.metric_inverse_closed(theta).as_array())
        assert np.max(np.abs(product - np.eye(3))) <= 1e-12, theta


def test_det_closed_is_det_of_metric():
    # its value is held to mpmath by test_flow's rank-one gate
    for theta in ((2.0, 3.0, 4.0), (0.3, 1.7, 4.2)):
        assert EXACT_MODEL.det_closed(theta) > 0.0


def test_classify_domain_never_raises_on_points():
    cls = EXACT_MODEL.classify_domain((2.0, 3.0, 0.25))
    assert cls.label is DomainLabel.REGULAR and cls.distance == 0.25
    cls = EXACT_MODEL.classify_domain((-0.5, 2.0, 2.0))
    assert cls.label is DomainLabel.OUTSIDE and cls.distance == 0.5
    assert EXACT_MODEL.classify_domain((0.0, 1.0, 1.0)).label is DomainLabel.OUTSIDE


def _trigamma_parts(theta):
    """(psi'(a), psi'(b), psi'(c), -psi'(s)) from four trigamma calls, or
    metric's error where one of them raises."""
    a, b, c = EXACT_MODEL.check_domain(theta).tolist()
    try:
        return trigamma(a), trigamma(b), trigamma(c), -trigamma(a + b + c)
    except DomainError:
        raise DomainError(f"metric is not finite at {[a, b, c]}") from None


def _trigamma_metric(theta):
    """G = diag(psi'(alpha_i)) - psi'(s) 11^T from ``_trigamma_parts``."""
    d1, d2, d3, o = _trigamma_parts(theta)
    return Metric3(d1 + o, d2 + o, d3 + o, o, o, o)


def _bits_or_error(func, theta):
    try:
        value = func(theta)
    except BetaflowError as exc:
        return type(exc), str(exc)
    if isinstance(value, Metric3):
        value = [value.d1, value.d2, value.d3, value.o12, value.o13, value.o23]
    return np.asarray(value, dtype=float).tobytes()


def test_metric_and_det_closed_match_the_trigamma_formulas_on_fuzz_points():
    # metric and det_closed take G from the digamma-and-trigamma pairs of
    # eta_metric_kernel: the same bits as from trigamma alone, or metric's
    # DomainError where trigamma raises
    def det_formula(theta):
        return check_finite(rank_one_adjugate(_trigamma_parts(theta))[0], "det G", theta)

    for theta in fuzz_points("exact"):
        assert (_bits_or_error(EXACT_MODEL.metric, theta)
                == _bits_or_error(_trigamma_metric, theta)), theta
        assert (_bits_or_error(EXACT_MODEL.det_closed, theta)
                == _bits_or_error(det_formula, theta)), theta


@pytest.mark.parametrize("theta", [(1e308, 1e308, 1e308), (1.7e308, 1.7e308, 1.0)])
def test_metric_raises_where_the_coordinate_sum_overflows(theta):
    # s = inf: psi'(inf) is NaN, not the series' 0, which would give a
    # finite G with o = 0
    with pytest.raises(DomainError, match=r"^metric is not finite at "):
        EXACT_MODEL.metric(theta)
    with pytest.raises(DomainError, match=r"^eta is not finite at "):
        EXACT_MODEL.eta(theta)
