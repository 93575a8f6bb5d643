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

from .errors import DegenerateEtaError, EmptyTrajectoryError, NegativeRatioError

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
    """Canonical variables (P1, Q1, P1', Q1')."""

    P1: float
    Q1: float
    P1p: float
    Q1p: float

    def as_array(self) -> np.ndarray:
        return np.array([self.P1, self.Q1, self.P1p, self.Q1p])

    @classmethod
    def from_array(cls, values) -> "CanonicalState":
        v = np.asarray(values, dtype=float)
        if v.shape != (4,):
            raise ValueError(f"expected 4 canonical values, got shape {v.shape}")
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


def poisson_bracket(f, g, at: CanonicalState, step: float = 1e-6,
                    grad_f=None, grad_g=None) -> float:
    """{f, g} at a state; gradients by central differences unless supplied."""
    x = at.as_array()
    df = _gradient(f, x, step) if grad_f is None else np.asarray(grad_f(at), dtype=float)
    dg = _gradient(g, x, step) if grad_g is None else np.asarray(grad_g(at), dtype=float)
    return float(df @ POISSON4 @ dg)


def _gradient(func, x: np.ndarray, step: float) -> np.ndarray:
    grad = np.empty(4)
    for i in range(4):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (func(CanonicalState.from_array(hi))
                   - func(CanonicalState.from_array(lo))) / (2.0 * step)
    return grad


def lax_pair(eta, ell: float = 1.0) -> LaxPair:
    """L with the invariant ratios on the diagonal and sqrt(eta3/eta1) in
    the corners; trace L equals the Hamiltonian by construction."""
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


@np.errstate(all="ignore")
def invariant_columns(eta) -> tuple[np.ndarray, np.ndarray]:
    """H and the Frobenius drift of L from row 0 for each row of an (n, 3) eta
    array; NaN where ``hamiltonian`` or ``lax_pair`` raises (on row 0: every drift)."""
    e1, e2, e3 = eta.T
    r21, r32, r31 = e2 / e1, e3 / e2, e3 / e1
    ham_ok = np.isfinite(eta).all(axis=1) & np.isfinite(r21) & np.isfinite(r32)
    ham = np.where(ham_ok, r21 + r32, math.nan)
    lax_ok = ham_ok & np.isfinite(r31) & (r31 >= 0.0)
    dev = np.full(ham.shape, math.nan)
    if lax_ok[0]:
        # sqrt of d.d per row is the ddot np.linalg.norm takes, as the
        # scalar drift does
        L = _lax_rows(r21, r32, r31)[lax_ok]
        dev[lax_ok] = [math.sqrt(d.dot(d)) for d in L - L[0]]
    return ham, dev


def _lax_rows(r21, r32, r31) -> np.ndarray:
    """Each row's L flattened, from the ratios eta2/eta1, eta3/eta2 and
    eta3/eta1, as ``lax_pair`` builds it."""
    corner, zero = np.sqrt(r31), np.zeros_like(r31)
    return np.stack([r21, zero, corner, zero, zero, zero, corner, zero, r32], axis=1)


@dataclass(frozen=True)
class LaxDiagnostics:
    """Worst-case deviations over a trajectory."""

    frobenius_drift: float
    trace_deviation: float
    commutator_norm: float


def lax_residual(trajectory, ell: float = 1.0) -> LaxDiagnostics:
    """Conservation check along a trajectory: drift of L from its initial
    value (the largest entry of the ``lax_dev`` column), trace-vs-Hamiltonian
    deviation, and commutator norm (the latter is identically zero because
    L's support lies where N acts as ell*I).  Each is the largest over the
    samples, as ``max`` takes it; where L is undefined on some sample
    (``lax_dev`` is NaN there), raises what ``lax_pair`` raises on the first."""
    n = trajectory.n_samples
    if n == 0:
        raise EmptyTrajectoryError("trajectory has no samples")
    undefined = np.isnan(trajectory.lax_dev)
    if undefined.any():
        lax_pair(trajectory.eta[int(undefined.argmax())], ell)
    e1, e2, e3 = trajectory.eta.T
    r21, r32 = e2 / e1, e3 / e2
    L = _lax_rows(r21, r32, e3 / e1).reshape(n, 3, 3)
    N = np.array([ell, 0.0, ell])
    with np.errstate(all="ignore"):
        trace_dev = np.abs(r21 + r32 - trajectory.hamiltonian)
        # L N - N L for the diagonal N, entry by entry; each entry is 0 or NaN
        comm = L * N - N[:, None] * L
        comm_norm = np.sqrt(np.einsum("nij,nij->n", comm, comm))
    return LaxDiagnostics(
        frobenius_drift=float(trajectory.lax_dev.max()),
        trace_deviation=max(trace_dev.tolist()),
        commutator_norm=max(comm_norm.tolist()),
    )
