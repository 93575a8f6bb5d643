import math

import numpy as np
import pytest

from betaflow import (
    DomainClass,
    DomainError,
    DomainLabel,
    EXACT_MODEL,
    Metric3,
    STIRLING_MODEL,
    SingularMatrixError,
    as_point,
    det3,
    invert3,
)
import betaflow.manifold

IDENTITY = Metric3(d1=1.0, d2=1.0, d3=1.0, o12=0.0, o13=0.0, o23=0.0)


def test_as_point_accepts_sequences():
    p = as_point((1, 2, 3))
    assert p.shape == (3,) and p.dtype == np.float64


@pytest.mark.parametrize("bad", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0),
                                 (1.0, math.nan, 2.0), (1.0, math.inf, 2.0)])
def test_as_point_rejects(bad):
    with pytest.raises(DomainError):
        as_point(bad)


@pytest.mark.parametrize("bad", [(1.0, math.nan, 2.0), (math.inf, 2.0, 3.0), (1.0, 2.0, -math.inf)])
def test_as_point_names_a_coordinate_that_is_not_finite(bad):
    with pytest.raises(DomainError) as exc:
        as_point(bad, "target")
    assert str(exc.value) == f"target must be finite, got {list(bad)}"


def test_metric3_array_round_trip():
    m = Metric3(d1=1.0, d2=2.0, d3=3.0, o12=0.1, o13=0.2, o23=0.3)
    a = m.as_array()
    assert np.array_equal(a, a.T)
    assert Metric3.from_array(a) == m


def test_metric3_as_array_stacks_array_entries():
    # same-shape array entries give one 3x3 matrix per entry, each the float
    # entry's as_array bit for bit
    entries = np.random.Generator(np.random.Philox(5)).normal(0.0, 3.0, (6, 50))
    stacked = Metric3(*entries).as_array()
    assert stacked.shape == (50, 3, 3)
    for i, column in enumerate(entries.T.tolist()):
        assert stacked[i].tobytes() == Metric3(*column).as_array().tobytes()


def test_metric3_from_array_rejects_asymmetry():
    a = np.eye(3)
    a[0, 1] = 1e-6
    with pytest.raises(DomainError, match="^matrix is not symmetric within tolerance$"):
        Metric3.from_array(a)


def test_metric3_from_array_rejects_a_shape_that_is_not_3x3():
    with pytest.raises(DomainError, match=r"^expected a 3x3 array, got shape \(2, 2\)$"):
        Metric3.from_array(np.eye(2))


def test_det3_identity():
    assert det3(IDENTITY) == 1.0


def test_det3_uniform_pattern():
    # eigenvalues of the d/o pattern are (d-o) twice and (d+2o)
    m = Metric3(d1=-0.3, d2=-0.3, d3=-0.3, o12=0.2, o13=0.2, o23=0.2)
    expected = (-0.3 - 0.2) ** 2 * (-0.3 + 2 * 0.2)
    assert abs(det3(m) - expected) <= 1e-14
    assert abs(det3(m) - 0.025) <= 1e-12


def test_det3_matches_closed_form():
    det = det3(STIRLING_MODEL.metric((2.0, 3.0, 4.0)))
    assert abs(det - 1.0 / 576.0) <= 1e-12 * abs(det)


def test_invert3_identity():
    assert invert3(IDENTITY) == IDENTITY


def test_invert3_spot():
    inv = invert3(STIRLING_MODEL.metric((2.0, 2.0, 2.0)))
    expected = Metric3(d1=2.0, d2=2.0, d3=2.0, o12=4.0, o13=4.0, o23=4.0)
    assert np.max(np.abs(inv.as_array() - expected.as_array())) <= 1e-10


def test_invert3_singular():
    with pytest.raises(SingularMatrixError):
        invert3(STIRLING_MODEL.metric((3.0, 3.0, 3.0)))


@pytest.mark.parametrize("m", [
    Metric3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    # 1e120 cubed overflows the float range
    Metric3(1e120, 1.0, 1.0, 0.0, 0.0, 0.0),
], ids=["zero", "huge-entry"])
def test_invert3_default_tolerance_flags_singular(m):
    with pytest.raises(SingularMatrixError):
        invert3(m)


@pytest.mark.parametrize("power", [-300, 0, 300])
def test_invert3_default_tolerance_is_scale_invariant(power):
    # det / max|m_ij|^3 = d; the default flags d <= 1e-12 at every scale
    s = 2.0 ** power
    with pytest.raises(SingularMatrixError):
        invert3(Metric3(s, s, 1e-12 * s, 0.0, 0.0, 0.0))
    d = np.nextafter(1e-12, 1.0)
    inv = invert3(Metric3(s, s, d * s, 0.0, 0.0, 0.0))
    assert inv.d3 == pytest.approx(1.0 / (d * s), rel=1e-15)


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_det3_and_invert3_reject_an_entry_that_is_not_finite(entry):
    # det3 returned NaN; invert3 returned a Metric3 of NaNs or raised
    # SingularMatrixError with det=inf
    m = Metric3(entry, 1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match=r"^det is not finite at \["):
        det3(m)
    with pytest.raises(DomainError, match=r"^a matrix entry is not finite at \["):
        invert3(m)


def test_invert3_of_huge_entries_is_their_finite_inverse():
    # the adjugate and det overflowed, and every entry was inf / inf = NaN
    inv = invert3(Metric3(1e300, 1e300, 1e300, 0.0, 0.0, 0.0))
    assert [inv.d1, inv.d2, inv.d3] == pytest.approx([1e-300] * 3, rel=1e-15)
    assert (inv.o12, inv.o13, inv.o23) == (0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match=r"^det is not finite at \["):
        det3(Metric3(1e300, 1e300, 1e300, 0.0, 0.0, 0.0))


def test_invert3_of_an_inverse_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^matrix inverse is not finite at \["):
        invert3(Metric3(1e-310, 1e-310, 1e-310, 0.0, 0.0, 0.0))


def test_invert3_random_well_conditioned():
    rng = np.random.Generator(np.random.Philox(11))
    eye = np.eye(3)
    for _ in range(10_000):
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        m = Metric3.from_array(a @ a.T + (0.5 + rng.uniform()) * eye)
        inv = invert3(m)
        assert np.max(np.abs(m.as_array() @ inv.as_array() - eye)) <= 1e-10
        det_m = det3(m)
        assert abs(det3(inv) - 1.0 / det_m) <= 1e-8 / abs(det_m)


def test_domain_class_rejects_nan_distance():
    with pytest.raises(ValueError):
        DomainClass(DomainLabel.REGULAR, math.nan)


# The lower bound of each model's domain: every coordinate must exceed it.
DOMAIN_LOWER = {EXACT_MODEL: 0.0, STIRLING_MODEL: 1.0}


def _domain_cases():
    for model, lower in DOMAIN_LOWER.items():
        inside = np.nextafter(lower, math.inf)
        for point, accepted in (
            ((lower, 2.0, 2.0), False),
            ((2.0, 2.0, lower), False),
            ((inside, 2.0, 2.0), True),
            ((2.0, inside, inside), True),
            ((math.nan, 2.0, 2.0), False),
            ((2.0, math.inf, 2.0), False),
            ((2.0, 2.0, -math.inf), False),
            ((2.0, 2.0), False),
            (((2.0, 2.0, 2.0),), False),
        ):
            yield pytest.param(model, point, accepted,
                               id=f"{model.name}-{np.asarray(point).tolist()}")


@pytest.mark.parametrize("model, point, accepted", _domain_cases())
def test_in_domain_is_false_exactly_where_check_domain_raises(model, point, accepted):
    assert model.lower == DOMAIN_LOWER[model]
    if np.shape(point) == (3,):
        assert betaflow.manifold.inside(model.lower, *map(float, point)) is accepted
    if accepted:
        assert np.array_equal(model.check_domain(point), point)
    else:
        with pytest.raises(DomainError):
            model.check_domain(point)


@pytest.mark.parametrize("model", list(DOMAIN_LOWER), ids=lambda m: m.name)
def test_check_domain_message_names_the_domain(model):
    with pytest.raises(DomainError, match=model.domain_description):
        model.check_domain((2.0, 2.0, DOMAIN_LOWER[model]))


@pytest.mark.parametrize("model", list(DOMAIN_LOWER), ids=lambda m: m.name)
@pytest.mark.parametrize("point, message", [
    ((math.nan, 2.0, 2.0), "theta must be finite, got [nan, 2.0, 2.0]"),
    ((2.0, math.inf, 2.0), "theta must be finite, got [2.0, inf, 2.0]"),
    ((2.0, 2.0, -math.inf), "theta must be finite, got [2.0, 2.0, -inf]"),
    ((2.0, 2.0), "theta must have exactly 3 components, got shape (2,)"),
    (((2.0, 2.0, 2.0),), "theta must have exactly 3 components, got shape (1, 3)"),
    ("lower", "{name} model needs {domain}, got [{lower!r}, 2.0, 2.0]"),
    ("below", "{name} model needs {domain}, got [2.0, {below!r}, 2.0]"),
], ids=["nan", "inf", "-inf", "shape-2", "shape-1x3", "at-lower", "below-lower"])
def test_check_domain_messages(model, point, message):
    below = model.lower - 0.5
    if point == "lower":
        point = (model.lower, 2.0, 2.0)
    elif point == "below":
        point = (2.0, below, 2.0)
    want = message.format(name=model.name, domain=model.domain_description,
                          lower=model.lower, below=below)
    for theta in (point, np.array(point)):
        with pytest.raises(DomainError) as exc:
            model.check_domain(theta)
        assert str(exc.value) == want


def test_solve_det_is_inverse_then_times_bit_for_bit():
    # one _rank_one call with _inverse's divisions and _times' products
    # written out: the same operations in the same order
    rng = np.random.Generator(np.random.Philox(29))
    signs = rng.choice([-1.0, 1.0], (2000, 7))
    parts = signs * 10.0 ** rng.uniform(-8.0, 8.0, (2000, 7))
    inner = betaflow.manifold
    for d1, d2, d3, o, v0, v1, v2 in parts.tolist():
        factors = inner._rank_one(d1, d2, d3, o)
        want = (factors[0], *inner._times(inner._inverse(*factors), v0, v1, v2))
        got = inner.solve_det(d1, d2, d3, o, v0, v1, v2)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("parts", [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, -0.0, 0.0),
                                   STIRLING_MODEL.eta_metric_kernel(7.77, 1.5, 1.5)[3:]])
def test_solve_det_at_det_zero_raises_inverses_error(parts):
    inner = betaflow.manifold
    with pytest.raises(SingularMatrixError) as want:
        inner._inverse(*inner._rank_one(*parts))
    with pytest.raises(SingularMatrixError) as got:
        inner.solve_det(*parts, 1.0, 2.0, 3.0)
    assert str(got.value) == str(want.value)
