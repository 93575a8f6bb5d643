"""Scalar log-gamma, digamma, and trigamma for positive real arguments.

Log-gamma is the C library's ``lgamma`` through ``math.lgamma``.  Digamma
and trigamma shift the argument above ``_SHIFT`` with the upward
recurrences

    psi(x)  = psi(x+1)  - 1/x
    psi'(x) = psi'(x+1) + 1/x^2

and evaluate the standard asymptotic series at the shifted argument.  The
series are truncated where the first omitted term is below ~1e-16 at
x = ``_SHIFT``, so the recurrence, not the series, dominates the error.
"""

from __future__ import annotations

import math

from .errors import DomainError

_SHIFT = 8.0


def log_gamma(x: float) -> float:
    """Natural log of the gamma function on x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires a finite argument > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma({x!r}) overflows double precision") from None


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function on x > 0."""
    return _checked(x, "digamma", 0)


def trigamma(x: float) -> float:
    """Derivative of the digamma function on x > 0."""
    return _checked(x, "trigamma", 1)


def _checked(x, name: str, index: int) -> float:
    """``_psi_pair(x)[index]``, or DomainError for an argument outside
    (0, inf) or a value that overflows."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} requires a finite argument > 0, got {x!r}")
    value = _psi_pair(x)[index]
    if not math.isfinite(value):
        raise DomainError(f"{name}({x!r}) overflows double precision")
    return value


def _psi_pair(x: float) -> tuple[float, float]:
    """(digamma(x), trigamma(x)) from one shift loop, on a float x > 0 or
    x = inf, with no checks: a value that overflows comes back as inf, and
    trigamma(inf) as NaN, so that a coordinate sum that overflowed cannot
    give a finite metric."""
    if x * x == 0.0:
        # 1/x^2 would divide by an underflowed zero.  Below 2^-56, x + 1
        # rounds to 1 and the loop's sum rounds to 1/x, so digamma is -1/x:
        # half an ulp of 1/x > 2^56 is 8 > psi(8).
        return -1.0 / x, math.inf
    if x == math.inf:
        return x, math.nan
    shift = shift2 = 0.0
    while x < _SHIFT:
        shift += 1.0 / x
        shift2 += 1.0 / (x * x)
        x += 1.0
    u = 1.0 / (x * x)
    # ln x - 1/(2x) - sum d_k / x^(2k), d_k = B_{2k} / (2k), by Horner in u
    tail = ((((((((43867.0 / 14364.0 * u - 3617.0 / 8160.0) * u + 1.0 / 12.0) * u
                - 691.0 / 32760.0) * u + 1.0 / 132.0) * u - 1.0 / 240.0) * u
             + 1.0 / 252.0) * u - 1.0 / 120.0) * u + 1.0 / 12.0) * u
    # 1/x + 1/(2x^2) + sum B_{2k} / x^(2k+1), by Horner in u
    tail2 = ((((((((43867.0 / 798.0 * u - 3617.0 / 510.0) * u + 7.0 / 6.0) * u
                 - 691.0 / 2730.0) * u + 5.0 / 66.0) * u - 1.0 / 30.0) * u
              + 1.0 / 42.0) * u - 1.0 / 30.0) * u + 1.0 / 6.0) * u
    value = 1.0 / x + 0.5 * u + tail2 / x + shift2
    return math.log(x) - 0.5 / x - tail - shift, value
