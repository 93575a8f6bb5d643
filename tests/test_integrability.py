import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from betaflow import (
    EXACT_MODEL,
    CanonicalState,
    DegenerateEtaError,
    DomainError,
    EmptyTrajectoryError,
    NegativeRatioError,
    POISSON4,
    hamilton_rhs,
    hamiltonian,
    integrate,
    lax_pair,
    lax_residual,
    poisson_bracket,
    to_canonical,
)
from betaflow.integrability import invariant_columns

ETA_234 = (-1.7178571429, -1.2178571429, -0.8845238095)


def H(state: CanonicalState) -> float:
    return state.P1 * state.Q1 + state.P1p * state.Q1p


def test_poisson4_structure():
    assert np.array_equal(POISSON4, -POISSON4.T)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(POISSON4[:2, :2], block)
    assert np.array_equal(POISSON4[2:, 2:], block)
    assert np.array_equal(POISSON4[:2, 2:], np.zeros((2, 2)))


def test_to_canonical_uniform_eta():
    v = math.log(5.0) - 0.5
    s = to_canonical((v, v, v))
    assert s.P1 == s.P1p == 1.0 / v
    assert s.Q1 == s.Q1p == v
    assert abs(s.P1 - 0.90135733491025719) <= 1e-12


def test_to_canonical_mixed_eta():
    s = to_canonical(ETA_234)
    assert s.P1 == 1.0 / ETA_234[0]
    assert s.Q1 == ETA_234[1]
    assert s.P1p == 1.0 / ETA_234[1]
    assert s.Q1p == ETA_234[2]
    assert abs(s.P1 + 0.5821205822) <= 1e-9


@pytest.mark.parametrize("eta", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                 (1.0, math.nan, 1.0), (1.0, 1.0),
                                 (math.inf, 1.0, 1.0)])
def test_to_canonical_rejects_degenerate_eta(eta):
    with pytest.raises(DegenerateEtaError):
        to_canonical(eta)


def test_canonical_state_array_round_trip():
    s = CanonicalState(1.0, -2.0, 3.0, -4.0)
    assert CanonicalState.from_array(s.as_array()) == s
    with pytest.raises(DomainError, match=r"^expected 4 canonical values, got shape \(3,\)$"):
        CanonicalState.from_array([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_state_rejects_non_finite_fields(bad):
    # hamilton_rhs returned [nan, -1, 1, -1] and poisson_bracket nan here
    for at in range(4):
        values = [1.0] * 4
        values[at] = bad
        with pytest.raises(DomainError, match=r"^canonical state must be finite, got "):
            CanonicalState(*values)
        with pytest.raises(DomainError, match=r"^canonical state must be finite, got "):
            CanonicalState.from_array(values)


def test_hamiltonian_symmetric_points():
    for v in (0.7, -77.0 / 60.0, 1e-6):
        assert hamiltonian((v, v, v)) == 2.0
    assert hamiltonian(EXACT_MODEL.eta((2.0, 2.0, 2.0))) == 2.0
    assert hamiltonian(EXACT_MODEL.eta((7.0, 7.0, 7.0))) == 2.0


def test_hamiltonian_spot_exact_234():
    h1 = sum(1.0 / k for k in range(2, 9))
    h2 = sum(1.0 / k for k in range(3, 9))
    h3 = sum(1.0 / k for k in range(4, 9))
    want = h2 / h1 + h3 / h2
    value = hamiltonian(EXACT_MODEL.eta((2.0, 3.0, 4.0)))
    assert abs(value - want) <= 1e-12
    assert abs(value - 1.43523) <= 1e-4


def test_hamiltonian_scale_invariant():
    eta = np.array([-1.3, 0.8, 2.1])
    base = hamiltonian(eta)
    for lam in (0.5, -3.0):
        assert abs(hamiltonian(lam * eta) - base) <= 1e-14


def test_hamiltonian_matches_canonical_form():
    s = to_canonical(ETA_234)
    assert abs(H(s) - hamiltonian(ETA_234)) <= 5e-15


def test_hamilton_rhs_examples():
    out = hamilton_rhs(CanonicalState(1.0, 2.0, 3.0, 4.0))
    assert np.array_equal(out, [1.0, -2.0, 3.0, -4.0])
    out = hamilton_rhs(CanonicalState(0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(out, np.zeros(4))


def test_hamilton_rhs_equals_poisson_gradient():
    state = CanonicalState(0.3, -1.1, 2.0, 0.7)
    grad = np.array([state.Q1, state.P1, state.Q1p, state.P1p])
    assert np.max(np.abs(hamilton_rhs(state) - POISSON4 @ grad)) <= 1e-15


def test_hamiltonian_conserved_along_canonical_field():
    # H is quadratic, so the central difference along the field is its
    # exact derivative up to rounding
    eps = 0.01
    for state in (CanonicalState(1.0, 2.0, 3.0, 4.0),
                  CanonicalState(-0.4, 1.3, 0.9, -2.2)):
        v = hamilton_rhs(state)
        x = state.as_array()
        deriv = (H(CanonicalState.from_array(x + eps * v))
                 - H(CanonicalState.from_array(x - eps * v))) / (2 * eps)
        assert abs(deriv) <= 1e-12


def test_poisson_bracket_canonical_pairs():
    # finite-difference noise scales with ulp(coordinate)/step, about
    # 5e-11 per unit of coordinate magnitude at step 1e-6
    at = CanonicalState(0.7, -1.2, 2.3, 0.4)
    assert abs(poisson_bracket(lambda s: s.P1, lambda s: s.Q1, at) - 1.0) <= 1e-10
    assert poisson_bracket(lambda s: s.P1, lambda s: s.P1p, at) == 0.0
    assert abs(poisson_bracket(lambda s: s.P1p, lambda s: s.Q1p, at) - 1.0) <= 1e-9
    assert abs(poisson_bracket(H, H, at)) <= 1e-10


def test_poisson_bracket_antisymmetric():
    at = CanonicalState(1.1, 0.6, -0.8, 1.9)

    def f(s):
        return s.P1 * s.Q1p + s.Q1 ** 2

    def g(s):
        return s.P1p * s.P1 - 2.0 * s.Q1p

    assert abs(poisson_bracket(f, g, at) + poisson_bracket(g, f, at)) <= 1e-10


def test_poisson_bracket_leibniz():
    at = CanonicalState(0.9, 1.4, -0.5, 0.8)

    def f(s):
        return s.P1 ** 2 + s.Q1p

    def g(s):
        return s.Q1 * s.P1p

    def h(s):
        return s.P1 + 3.0 * s.Q1

    lhs = poisson_bracket(f, lambda s: g(s) * h(s), at)
    rhs = poisson_bracket(f, g, at) * h(at) + g(at) * poisson_bracket(f, h, at)
    assert abs(lhs - rhs) <= 1e-8


def test_lax_pair_uniform_eta():
    pair = lax_pair((0.7, 0.7, 0.7))
    assert pair.L[0, 0] == pair.L[2, 2] == pair.L[0, 2] == pair.L[2, 0] == 1.0
    assert pair.trace() == 2.0
    assert np.array_equal(pair.L[1, :], np.zeros(3))
    assert np.array_equal(pair.L[:, 1], np.zeros(3))
    assert np.array_equal(pair.N, np.diag([1.0, 0.0, 1.0]))


def test_lax_pair_ell_parameter():
    pair = lax_pair((1.0, 2.0, 3.0), ell=-2.5)
    assert pair.ell == -2.5
    assert np.array_equal(pair.N, np.diag([-2.5, 0.0, -2.5]))


@pytest.mark.parametrize("ell", [math.nan, math.inf, -math.inf])
def test_lax_pair_rejects_a_non_finite_ell(ell):
    # a NaN ell gave a NaN N and commutator; an inf one warned in matmul
    with pytest.raises(DomainError, match=rf"^ell must be finite, got {ell!r}$"):
        lax_pair((1.0, 2.0, 3.0), ell=ell)


def test_lax_pair_spot_exact_234():
    eta = EXACT_MODEL.eta((2.0, 3.0, 4.0))
    pair = lax_pair(eta)
    h1 = sum(1.0 / k for k in range(2, 9))
    h2 = sum(1.0 / k for k in range(3, 9))
    h3 = sum(1.0 / k for k in range(4, 9))
    assert abs(pair.L[0, 0] - h2 / h1) <= 1e-12
    assert abs(pair.L[2, 2] - h3 / h2) <= 1e-12
    assert abs(pair.L[0, 2] - math.sqrt(h3 / h1)) <= 1e-12
    assert abs(pair.L[0, 0] - 0.708938) <= 1e-5
    assert abs(pair.L[2, 2] - 0.726295) <= 1e-5
    assert abs(pair.L[0, 2] - 0.717565) <= 1e-5


def test_lax_pair_negative_ratio():
    with pytest.raises(NegativeRatioError):
        lax_pair((1.0, 1.0, -1.0))


def test_lax_pair_degenerate_eta():
    with pytest.raises(DegenerateEtaError):
        lax_pair((0.0, 1.0, 1.0))


@pytest.mark.parametrize("func", [hamiltonian, lax_pair, to_canonical])
def test_non_finite_ratio_is_degenerate_eta(func):
    # eta3/eta2 and 1/eta1 overflow; no inf is returned and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateEtaError):
            func((1e-320, 1e-320, 1.0))


def test_lax_trace_equals_hamiltonian_bitwise():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(50):
        eta = rng.uniform(0.2, 3.0, size=3)
        if rng.integers(2):
            eta = -eta
        if rng.integers(2):
            eta[1] = -eta[1]
        assert lax_pair(eta).trace() == hamiltonian(eta)


def test_lax_commutator_exactly_zero():
    rng = np.random.Generator(np.random.Philox(19))
    zero = np.zeros((3, 3))
    for _ in range(100):
        eta = rng.uniform(0.2, 3.0, size=3)
        if rng.integers(2):
            eta = -eta
        ell = float(rng.uniform(-2.0, 2.0))
        assert np.array_equal(lax_pair(eta, ell).commutator(), zero)


def test_lax_residual_single_sample():
    traj = integrate(EXACT_MODEL, (2.0, 3.0, 4.0), 0.0)
    assert lax_residual(traj) == 0.0


def test_lax_residual_empty_trajectory():
    with pytest.raises(EmptyTrajectoryError):
        lax_residual(SimpleNamespace(n_samples=0))


def _reference_lax_residual(trajectory):
    """lax_residual as one LaxPair per sample: the drift, or the type and
    message of the error raised."""
    try:
        pairs = [lax_pair(row) for row in trajectory.eta]
    except (DegenerateEtaError, NegativeRatioError) as exc:
        return type(exc), str(exc)
    with np.errstate(all="ignore"):
        return max(float(np.linalg.norm(p.L - pairs[0].L)) for p in pairs).hex()


def _lax_outcome(trajectory):
    try:
        return lax_residual(trajectory).hex()
    except (DegenerateEtaError, NegativeRatioError) as exc:
        return type(exc), str(exc)


def test_lax_residual_matches_one_lax_pair_per_sample(exact_trajectory,
                                                      stirling_trajectory):
    # The reference flows, and blocks of 8 drawn eta rows as trajectories:
    # row 0 fails in some, a later row in others, and in the last blocks
    # every L is defined (eta1 and eta3 of one sign).
    rng = np.random.Generator(np.random.Philox(101))
    defined = rng.choice([-1.0, 1.0], (400, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (400, 3))
    defined[:, 2] = np.copysign(defined[:, 2], defined[:, 0])
    trajectories = [exact_trajectory, stirling_trajectory]
    for block in np.concatenate([_drawn_eta(97, 800), defined]).reshape(-1, 8, 3):
        trajectories.append(SimpleNamespace(n_samples=8, eta=block,
                                            lax_dev=invariant_columns(block)[1]))
    raised = 0
    for traj in trajectories:
        want = _reference_lax_residual(traj)
        assert _lax_outcome(traj) == want, traj.eta
        raised += isinstance(want, tuple)
    assert raised == 100


def test_lax_residual_on_reference_flows(exact_trajectory, stirling_trajectory):
    for traj in (exact_trajectory, stirling_trajectory):
        assert lax_residual(traj) <= 1e-7


def test_first_integrals_functionally_independent():
    # gradients of eta2/eta1 and eta3/eta2 with respect to eta
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(20):
        e = rng.uniform(0.2, 3.0, size=3)
        grads = np.array([
            [-e[1] / e[0] ** 2, 1.0 / e[0], 0.0],
            [0.0, -e[2] / e[1] ** 2, 1.0 / e[1]],
        ])
        assert np.linalg.matrix_rank(grads) == 2


def _scalar_invariants(eta):
    """hamiltonian and the drift of lax_pair from row 0, row by row, NaN
    where they raise."""
    try:
        ref = lax_pair(eta[0]).L
    except (DegenerateEtaError, NegativeRatioError):
        ref = None
    ham, dev = np.full(len(eta), math.nan), np.full(len(eta), math.nan)
    for i, row in enumerate(eta):
        try:
            ham[i] = hamiltonian(row)
            if ref is not None:
                with np.errstate(over="ignore"):
                    dev[i] = np.linalg.norm(lax_pair(row).L - ref)
        except (DegenerateEtaError, NegativeRatioError):
            pass
    return ham, dev


def _drawn_eta(seed, n):
    # signed 10^U over the float range, so ratios overflow and underflow,
    # one row in five in [-3, 3], and one entry in ten 0, -0, inf, -inf or NaN
    rng = np.random.Generator(np.random.Philox(seed))
    eta = rng.choice([-1.0, 1.0], (n, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, 3))
    eta[::5] = rng.uniform(-3.0, 3.0, (len(eta[::5]), 3))
    special = rng.random((n, 3)) < 0.1
    eta[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], special.sum())
    return eta


def test_invariant_columns_match_hamiltonian_and_lax_pair_bit_for_bit():
    eta = _drawn_eta(79, 4000)
    row0_fails = drifts = 0
    # blocks of 8 rows, each a trajectory's eta column with its own row 0
    for block in eta.reshape(-1, 8, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = invariant_columns(block)
        want = _scalar_invariants(block)
        assert got[0].tobytes() == want[0].tobytes(), block
        assert got[1].tobytes() == want[1].tobytes(), block
        row0_fails += bool(np.isnan(got[1]).all())
        drifts += int(np.count_nonzero(got[1] > 0.0))
    # row 0 both fails and passes, and there are nonzero drifts
    assert 0 < row0_fails < len(eta) // 8 and drifts > 0


def test_invariant_columns_of_long_columns_match_the_scalar_invariants_bit_for_bit(
        exact_trajectory, stirling_trajectory):
    # columns as long as flows record, one whole column per call (one stacked
    # drift product), next to the shortest ones
    columns = [_drawn_eta(83 + n, n) for n in (1, 2, 3, 64, 300)]
    columns += [exact_trajectory.eta, stirling_trajectory.eta]
    # drawn columns whose row 0 has an L, so their drifts are numbers
    for n in (64, 300):
        eta = _drawn_eta(89 + n, n)
        eta[0] = (-1.5, -0.5, -2.0)
        columns.append(eta)
    drifts = 0
    for eta in columns:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = invariant_columns(eta)
        want = _scalar_invariants(eta)
        assert got[0].tobytes() == want[0].tobytes(), eta
        assert got[1].tobytes() == want[1].tobytes(), eta
        drifts += int(np.count_nonzero(got[1] > 0.0))
    assert drifts > 100


@pytest.mark.parametrize("eta, ham, dev", [
    # e1 = inf gives a finite e2/e1 = 0, but hamiltonian raises
    ([[1.0, 2.0, 3.0], [math.inf, 2.0, 3.0]], [3.5, math.nan], [0.0, math.nan]),
    # eta3/eta1 < 0 on row 0: H is finite, every drift NaN
    ([[-1.0, 2.0, 3.0], [-2.0, 4.0, 6.0]], [-0.5, -0.5], [math.nan, math.nan]),
    # ratios that overflow
    ([[1.0, 1.0, 1.0], [1e-300, 1e300, 1.0], [1.0, 1e-300, 1e300]],
     [2.0, math.nan, math.nan], [0.0, math.nan, math.nan]),
])
def test_invariant_columns_spots(eta, ham, dev):
    got_ham, got_dev = invariant_columns(np.array(eta))
    assert np.array_equal(got_ham, ham, equal_nan=True)
    assert np.array_equal(got_dev, dev, equal_nan=True)
