"""Conserved quantities and canonical structure of the dual flow.

In dual coordinates the flow is eta' = -eta, so the ratios eta2/eta1 and
eta3/eta2 are first integrals; their sum is the Hamiltonian.  The change of
variables (P1, Q1, P1', Q1') = (1/eta1, eta2, 1/eta2, eta3) makes the
dynamics canonical with H = P1 Q1 + P1' Q1' and the constant block Poisson
tensor.  The same ratios assemble into a Lax pair whose commutator vanishes
identically, so the whole matrix L is constant along the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEtaError, DomainError, EmptyTrajectoryError, NegativeRatioError

# Bracket {f, g} = grad(f)^T . POISSON4 . grad(g) in (P1, Q1, P1', Q1').
POISSON4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class CanonicalState:
    """Canonical variables (P1, Q1, P1', Q1'), each finite: DomainError
    otherwise."""

    P1: float
    Q1: float
    P1p: float
    Q1p: float

    def __post_init__(self):
        values = (self.P1, self.Q1, self.P1p, self.Q1p)
        if not all(map(math.isfinite, values)):
            raise DomainError(f"canonical state must be finite, got {values}")

    def as_array(self) -> np.ndarray:
        return np.array([self.P1, self.Q1, self.P1p, self.Q1p])

    @classmethod
    def from_array(cls, values) -> "CanonicalState":
        v = np.asarray(values, dtype=float)
        if v.shape != (4,):
            raise DomainError(f"expected 4 canonical values, got shape {v.shape}")
        return cls(*(float(x) for x in v))


@dataclass(frozen=True)
class LaxPair:
    """Symmetric L and diagonal N = diag(ell, 0, ell)."""

    L: np.ndarray
    N: np.ndarray
    ell: float

    def commutator(self) -> np.ndarray:
        return self.L @ self.N - self.N @ self.L

    def trace(self) -> float:
        return self.L[0, 0] + self.L[1, 1] + self.L[2, 2]


def _checked_eta(eta) -> list[float]:
    """eta as three Python floats, whose quotients overflow without a warning."""
    e = np.asarray(eta, dtype=float)
    if e.shape != (3,) or not np.isfinite(e).all():
        raise DegenerateEtaError(f"eta must be three finite reals, got {eta!r}")
    if e[0] == 0.0 or e[1] == 0.0:
        raise DegenerateEtaError(f"eta1 and eta2 must be nonzero, got {e.tolist()}")
    return e.tolist()


def _ratio(num: float, den: float) -> float:
    q = num / den
    if not math.isfinite(q):
        raise DegenerateEtaError(f"{num!r} / {den!r} is not a finite real")
    return q


def to_canonical(eta) -> CanonicalState:
    e1, e2, e3 = _checked_eta(eta)
    return CanonicalState(P1=_ratio(1.0, e1), Q1=e2, P1p=_ratio(1.0, e2), Q1p=e3)


def hamiltonian(eta) -> float:
    """H = eta2/eta1 + eta3/eta2, conserved along the flow and invariant
    under uniform rescaling of eta."""
    e1, e2, e3 = _checked_eta(eta)
    return _ratio(e2, e1) + _ratio(e3, e2)


def hamilton_rhs(state: CanonicalState) -> np.ndarray:
    """Canonical velocity POISSON4 . grad(H) for H = P1 Q1 + P1' Q1'."""
    return np.array([state.P1, -state.Q1, state.P1p, -state.Q1p])


def poisson_bracket(f, g, at: CanonicalState) -> float:
    """{f, g} at a state, with gradients by central differences at the step 1e-6."""
    x = at.as_array()
    return float(_gradient(f, x) @ POISSON4 @ _gradient(g, x))


def _gradient(func, x: np.ndarray) -> np.ndarray:
    diffs = [func(CanonicalState.from_array(x + h)) - func(CanonicalState.from_array(x - h))
             for h in np.eye(4) * 1e-6]
    return np.array(diffs) / 2e-6


def lax_pair(eta, ell: float = 1.0) -> LaxPair:
    """L with the invariant ratios on the diagonal and sqrt(eta3/eta1) in
    the corners; trace L equals the Hamiltonian by construction.
    DomainError where ``ell`` is not finite."""
    if not math.isfinite(ell):
        raise DomainError(f"ell must be finite, got {ell!r}")
    e1, e2, e3 = _checked_eta(eta)
    ratio = _ratio(e3, e1)
    if ratio < 0.0:
        raise NegativeRatioError(
            f"eta3/eta1 = {ratio!r} < 0: Lax corner entry leaves the reals"
        )
    corner = math.sqrt(ratio)
    L = np.zeros((3, 3))
    L[0, 0] = _ratio(e2, e1)
    L[2, 2] = _ratio(e3, e2)
    L[0, 2] = L[2, 0] = corner
    N = np.diag([ell, 0.0, ell])
    return LaxPair(L=L, N=N, ell=ell)


def invariant_columns(eta) -> tuple[np.ndarray, np.ndarray]:
    """H and the Frobenius drift of L from row 0 for each row of an (n, 3) eta
    array; NaN where ``hamiltonian`` or ``lax_pair`` raises (on row 0: every drift)."""
    finite, nan, sqrt = math.isfinite, math.nan, math.sqrt
    ham, rows, drift, ref = [], [], [], None
    for i, (e1, e2, e3) in enumerate(eta.tolist()):
        h = nan
        # A zero eta1 or eta2 makes a ratio that is not finite: no division.
        if e1 and e2 and finite(e1) and finite(e2) and finite(e3):
            r21, r32, r31 = e2 / e1, e3 / e2, e3 / e1
            if finite(r21) and finite(r32):
                h = r21 + r32
                # L is defined here; it drifts from row 0's L (ref), if any.
                if finite(r31) and r31 >= 0.0 and (ref or not i):
                    corner = sqrt(r31)
                    if not i:
                        ref = r21, corner, r32
                    q21, q, q32 = ref
                    # L - L0, flattened as ``lax_pair`` builds L
                    drift += (r21 - q21, 0.0, corner - q, 0.0, 0.0, 0.0, corner - q, 0.0,
                              r32 - q32)
                    rows.append(i)
        ham.append(h)
    dev = [nan] * len(ham)
    if rows:
        # Each row's d.d is the ddot np.linalg.norm takes, as in the scalar
        # drift: matmul of a 1 x 9 by a 9 x 1 block calls the dot d.dot(d)
        # does.  A square can overflow to inf.
        d = np.fromiter(drift, float, len(drift)).reshape(-1, 1, 9)
        with np.errstate(over="ignore"):
            squares = np.matmul(d, d.reshape(-1, 9, 1)).ravel().tolist()
        for i, x in zip(rows, squares):
            dev[i] = sqrt(x)
    return np.array(ham), np.array(dev)


def lax_residual(trajectory) -> float:
    """Conservation check along a trajectory: the largest Frobenius drift of
    L from its initial value, the largest entry of the ``lax_dev`` column.
    Where L is undefined on some sample (``lax_dev`` is NaN there), raises
    what ``lax_pair`` raises on the first."""
    if trajectory.n_samples == 0:
        raise EmptyTrajectoryError("trajectory has no samples")
    undefined = np.isnan(trajectory.lax_dev)
    if undefined.any():
        lax_pair(trajectory.eta[int(undefined.argmax())])
    return float(trajectory.lax_dev.max())
