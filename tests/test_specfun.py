import math

import mpmath
import numpy as np
import pytest

from betaflow import DomainError, digamma, log_gamma, trigamma
from betaflow.specfun import _psi_pair

mpmath.mp.dps = 40


def assert_abs_or_rel(value: float, oracle: float, abs_tol: float,
                      rel_tol: float = 5e-15) -> None:
    # The stated absolute bounds are tighter than one ulp once the result
    # exceeds ~1e3 in magnitude, so a relative fallback is allowed there.
    err = abs(value - oracle)
    assert err <= abs_tol or err <= rel_tol * abs(oracle), (
        f"value={value!r} oracle={oracle!r} err={err!r}"
    )


def test_log_gamma_spots():
    assert abs(log_gamma(1.0)) <= 1e-13
    assert abs(log_gamma(6.0) - math.log(120.0)) <= 1e-13
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-13


def test_digamma_spots():
    assert abs(digamma(1.0) + float(mpmath.euler)) <= 1e-12
    assert abs(digamma(2.0) - (digamma(1.0) + 1.0)) <= 1e-12
    assert abs(digamma(2.0) - 0.4227843350984671) <= 1e-12
    assert abs(digamma(6.0) - digamma(2.0) - 77.0 / 60.0) <= 1e-12


def test_trigamma_spots():
    assert abs(trigamma(1.0) - math.pi ** 2 / 6.0) <= 1e-12
    assert abs(trigamma(2.0) - (trigamma(1.0) - 1.0)) <= 1e-12
    partial = 1.0 + 1.0 / 4.0 + 1.0 / 9.0 + 1.0 / 16.0 + 1.0 / 25.0
    assert abs(trigamma(6.0) - (math.pi ** 2 / 6.0 - partial)) <= 1e-12


@pytest.mark.parametrize("x", [
    1e-3, 1e-2, 0.1, 0.5, 0.99, 1.0, 1.5, 2.0, 3.75, 7.99, 8.0, 8.01,
    12.5, 100.0, 1e3, 1e4, 1e6,
])
def test_against_slow_series_oracle(x):
    mx = mpmath.mpf(x)
    assert_abs_or_rel(log_gamma(x), float(mpmath.loggamma(mx)), 1e-13)
    assert_abs_or_rel(digamma(x), float(mpmath.digamma(mx)), 1e-12)
    assert_abs_or_rel(trigamma(x), float(mpmath.polygamma(1, mx)), 1e-12)


def test_recurrences_on_random_arguments():
    rng = np.random.Generator(np.random.Philox(7))
    xs = rng.uniform(1e-3, 100.0, size=10_000)
    eps = math.ulp(1.0)
    for x in xs:
        x = float(x)
        assert_abs_or_rel(log_gamma(x + 1.0), log_gamma(x) + math.log(x), 1e-12)
        assert_abs_or_rel(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-12)
        # for small x the right-hand side cancels two terms of size 1/x^2,
        # so the comparison cannot be sharper than rounding at that scale
        assert_abs_or_rel(trigamma(x + 1.0), trigamma(x) - 1.0 / x ** 2,
                          1e-12 + 4.0 * eps / (x * x))


def test_monotonicity():
    xs = np.linspace(0.01, 100.0, 2000)
    psi = [digamma(float(x)) for x in xs]
    psi1 = [trigamma(float(x)) for x in xs]
    assert all(b > a for a, b in zip(psi, psi[1:]))
    assert all(b < a for a, b in zip(psi1, psi1[1:]))


def test_finite_difference_consistency():
    step = 1e-5
    for x in np.linspace(0.5, 50.0, 200):
        x = float(x)
        fd_psi = (log_gamma(x + step) - log_gamma(x - step)) / (2.0 * step)
        assert abs(fd_psi - digamma(x)) <= 1e-6
        fd_psi1 = (digamma(x + step) - digamma(x - step)) / (2.0 * step)
        assert abs(fd_psi1 - trigamma(x)) <= 1e-5


@pytest.mark.parametrize("func", [log_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, math.inf, math.nan])
def test_domain_errors(func, bad):
    with pytest.raises(DomainError):
        func(bad)


@pytest.mark.parametrize("func, x", [
    (trigamma, 1e-300),   # x*x underflows to zero
    (trigamma, 1e-160),   # 1/x^2 overflows to inf
    (digamma, 5e-324),    # 1/x overflows to inf
])
def test_overflow_at_tiny_arguments_is_domain_error(func, x):
    with pytest.raises(DomainError):
        func(x)


_NOT_POSITIVE = "{} requires a finite argument > 0, got {}"
_OVERFLOWS = "{}({}) overflows double precision"


@pytest.mark.parametrize("func", [log_gamma, digamma, trigamma], ids=lambda f: f.__name__)
@pytest.mark.parametrize("x, shown", [
    (0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"),
    (-math.inf, "-inf"), (np.float64(-1.0), "-1.0"), (0, "0.0"),
])
def test_domain_error_messages_quote_the_float_argument(func, x, shown):
    with pytest.raises(DomainError) as err:
        func(x)
    assert str(err.value) == _NOT_POSITIVE.format(func.__name__, shown)


@pytest.mark.parametrize("func, x, message", [
    (log_gamma, 1.7e308, _OVERFLOWS.format("log_gamma", "1.7e+308")),
    (trigamma, 1e-200, _OVERFLOWS.format("trigamma", "1e-200")),
    (trigamma, 5e-324, _OVERFLOWS.format("trigamma", "5e-324")),
    (digamma, 5e-324, _OVERFLOWS.format("digamma", "5e-324")),
    (log_gamma, 1e-200, None), (log_gamma, 5e-324, None), (digamma, 1e-200, None),
])
def test_overflow_messages_quote_the_argument(func, x, message):
    # None: the value is finite and no error is raised
    if message is None:
        assert math.isfinite(func(x))
        return
    with pytest.raises(DomainError) as err:
        func(x)
    assert str(err.value) == message


def test_tiny_arguments_with_finite_results():
    assert digamma(1e-300) == pytest.approx(-1e300, rel=1e-15)
    assert trigamma(1e-150) == pytest.approx(1e300, rel=1e-15)


# The series in loop form, as digamma and trigamma evaluated them before
# their Horner loops were unrolled; the unrolled forms must match it bit
# for bit and raise exactly where it raises.
_DIGAMMA_COEF = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
                 -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0, 43867.0 / 14364.0)
_TRIGAMMA_COEF = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
                  -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0)


def _loop_series(x, trigamma_series):
    x = float(x)
    if not math.isfinite(x) or x <= 0.0 or (trigamma_series and x * x == 0.0):
        raise DomainError(f"bad argument {x!r}")
    shift = 0.0
    while x < 8.0:
        shift += 1.0 / (x * x) if trigamma_series else 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_TRIGAMMA_COEF if trigamma_series else _DIGAMMA_COEF):
        tail = (tail + c) * u
    if trigamma_series:
        value = 1.0 / x + 0.5 * u + tail / x + shift
    else:
        value = math.log(x) - 0.5 / x - tail - shift
    if not math.isfinite(value):
        raise DomainError(f"overflow at {x!r}")
    return value


def _bits(func, x):
    try:
        return func(x).hex()
    except DomainError:
        return "DomainError"


@pytest.mark.parametrize("func, trigamma_series", [(digamma, False), (trigamma, True)],
                         ids=["digamma", "trigamma"])
def test_unrolled_series_match_the_loop_bit_for_bit(func, trigamma_series):
    rng = np.random.Generator(np.random.Philox(97))
    xs = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 20_000),
                         rng.uniform(0.3, 24.0, 20_000)]).tolist()
    xs += [0.0, -1.0, math.inf, math.nan, 5e-324, 1e-300, 1e-160, 7.999999999999999, 8.0]
    for x in xs:
        assert _bits(func, x) == _bits(lambda y: _loop_series(y, trigamma_series), x), x


def _reference(name, x):
    """digamma(x) or trigamma(x) from the loop form as hex, or the type and
    message of the error the named function raises.  The digamma loop is
    the shift loop digamma ran on its own before it took _psi_pair's."""
    try:
        return _loop_series(x, name == "trigamma").hex()
    except DomainError:
        x = float(x)
        if not 0.0 < x < math.inf:
            return DomainError, _NOT_POSITIVE.format(name, repr(x))
        return DomainError, _OVERFLOWS.format(name, repr(x))


def test_psi_pair_is_digamma_and_trigamma_bit_for_bit():
    # one shift loop for both, with no checks, on x > 0 and x = inf: the
    # loop form's bits wherever digamma or trigamma returns, and inf or NaN
    # where it raises; trigamma(inf) is NaN, not the series' 0
    rng = np.random.Generator(np.random.Philox(103))
    xs = (10.0 ** rng.uniform(-320.0, 308.0, 20_000)).tolist()
    xs += [5e-324, 1.5e-162, 7.5e-155, 1.7e308, math.inf]
    raised = 0
    for x in xs:
        for value, name in zip(_psi_pair(x), ("digamma", "trigamma")):
            want = _reference(name, x)
            if isinstance(want, str):
                assert value.hex() == want, (name, x)
            else:
                raised += 1
                assert not math.isfinite(value), (name, x)
    psi, psi1 = _psi_pair(math.inf)
    assert psi == math.inf and math.isnan(psi1)
    # the draw reaches both sides of trigamma's overflow at 1.5e-162
    assert 0 < raised < len(xs) // 2


def test_digamma_is_the_shift_loop_bit_for_bit():
    # digamma takes _psi_pair's series above 2^-56 and -1/x below, where
    # x + 1 rounds to 1; both give the loop's bits and its errors
    rng = np.random.Generator(np.random.Philox(7))
    with np.errstate(over="ignore"):
        xs = (10.0 ** rng.uniform(-324.0, 308.3, 50_000)).tolist()
    xs += (2.0 ** rng.uniform(-60.0, -52.0, 10_000)).tolist()
    for step in range(-64, 65):
        xs.append(2.0 ** -56 + step * 2.0 ** -109)
    xs += [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-320,
           5.56e-309, 5.57e-309, 2.2250738585072014e-308, 7.999999999999999, 8.0]
    raised = 0
    for x in xs:
        try:
            got = digamma(x).hex()
        except DomainError as exc:
            raised += 1
            got = type(exc), str(exc)
        assert got == _reference("digamma", x), x
    # the draw reaches both sides of digamma's overflow near 5.56e-309
    assert 0 < raised < len(xs) // 20
