"""Seeded fuzz of the error contract: every function that takes a point or a
dual target returns a finite result or raises a BetaflowError, with warnings
turned into errors, the CLI exits 0, 2 or 3 (and 1 only for a failed
``check``), and every inversion that returns meets the rounding-floor
oracle.

Points are theta = lower + 10^U per coordinate, drawn by Philox: U over
[-300, 300], which reaches both ends of the float range, over [-3, 3], and
over [307, log10 of the largest float], where sums of coordinates overflow;
the exact draw adds (1.7e308, 1, 1), where ln Gamma(a) overflows.  Flow
starts add draws with one coordinate at lower + 10^U, U over [-300, 300],
and the next float above lower.  Targets are eta of those points plus
signed 10^U draws.  Defects the draw finds are marked
``xfail(strict=True)`` and named in CHANGES.md, never filtered out of the
draw.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import betaflow as bf
from betaflow.cli import main
from conftest import rounding_floor_ratio

MODELS = {"exact": bf.EXACT_MODEL, "stirling": bf.STIRLING_MODEL}
N_PER_BAND = 100
# log10 of the largest float
TOP = math.log10(sys.float_info.max)


def _points(name):
    model = MODELS[name]
    rng = np.random.Generator(np.random.Philox(61 if name == "exact" else 67))
    exponents = np.concatenate([rng.uniform(-300.0, 300.0, (N_PER_BAND, 3)),
                                rng.uniform(-3.0, 3.0, (N_PER_BAND, 3)),
                                rng.uniform(307.0, TOP, (N_PER_BAND, 3))])
    extra = [(1.7e308, 1.0, 1.0)] if name == "exact" else []
    return [tuple(p) for p in (model.lower + 10.0 ** exponents).tolist()] + extra


def _targets(name):
    model = MODELS[name]
    targets = []
    for p in _points(name):
        try:
            targets.append(model.eta(p))
        except bf.BetaflowError:
            pass
    rng = np.random.Generator(np.random.Philox(71))
    signs = rng.choice([-1.0, 1.0], (N_PER_BAND, 3))
    targets += list(signs * 10.0 ** rng.uniform(-300.0, 300.0, (N_PER_BAND, 3)))
    return [np.asarray(t) for t in targets]


def _finite(result) -> bool:
    if hasattr(result, "__dataclass_fields__"):
        return all(_finite(getattr(result, f)) for f in result.__dataclass_fields__)
    if isinstance(result, (bf.DomainLabel, bool)):
        return True
    return bool(np.isfinite(np.asarray(result, dtype=float)).all())


def _assert_contract(call, inputs):
    bad = []
    for x in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(x)
            except bf.BetaflowError:
                continue
            except Exception as exc:  # a warning, or an error outside the contract
                bad.append((x, repr(exc)))
                continue
        if not _finite(result):
            bad.append((x, result))
    assert not bad, f"{len(bad)} of {len(inputs)} break the contract, first {bad[0]}"


POINT_CALLS = {
    "potential": lambda m, p: m.potential(p),
    "eta": lambda m, p: m.eta(p),
    "metric": lambda m, p: m.metric(p),
    "det_closed": lambda m, p: m.det_closed(p),
    "classify_domain": lambda m, p: m.classify_domain(p),
    "dual_potential": lambda m, p: m.dual_potential(p),
    "check_domain": lambda m, p: m.check_domain(p),
    # the domain rule on three floats, as the flow and the inversion apply it
    "in_domain": lambda m, p: bf.manifold.inside(m.lower, *p),
    "as_point": lambda m, p: bf.as_point(p),
    "rhs": lambda m, p: bf.rhs(m, p),
    "log_pdf": lambda m, p: m.log_pdf(p, (0.2, 0.3)),
    "sample": lambda m, p: m.sample(p, 4, 1),
    "metric_inverse_closed": lambda m, p: m.metric_inverse_closed(p),
}
MODEL_ONLY = {"log_pdf": "exact", "sample": "exact"}

POINT_CASES = [
    (name, call) for name in MODELS for call in POINT_CALLS
    if MODEL_ONLY.get(call, name) == name
]


@pytest.mark.parametrize("name, call", POINT_CASES)
def test_point_functions_return_finite_or_raise(name, call):
    model = MODELS[name]
    _assert_contract(lambda p: POINT_CALLS[call](model, p), _points(name))


TARGET_CALLS = {
    "inversion_start": lambda m, t: m.inversion_start(t),
    "invert_eta": lambda m, t: bf.invert_eta(m, t),
    "eta_closed": lambda m, t: bf.eta_closed(t, 0.5),
    # e^800 overflows; a NaN time is no time
    "eta_closed_t-800": lambda m, t: bf.eta_closed(t, -800.0),
    "eta_closed_t-nan": lambda m, t: bf.eta_closed(t, math.nan),
    "hamiltonian": lambda m, t: bf.hamiltonian(t),
    "to_canonical": lambda m, t: bf.to_canonical(t),
    "hamilton_rhs": lambda m, t: bf.hamilton_rhs(bf.to_canonical(t)),
    "lax_pair": lambda m, t: bf.lax_pair(t),
}


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("call", TARGET_CALLS)
def test_target_functions_return_finite_or_raise(name, call):
    model = MODELS[name]
    _assert_contract(lambda t: TARGET_CALLS[call](model, t), _targets(name))


@pytest.mark.parametrize("name", MODELS)
def test_inversion_start_is_in_the_domain_or_raises(name):
    # a Stirling start can be the walk's cell end outside the domain
    model = MODELS[name]
    bad = []
    for target in _targets(name):
        try:
            start = model.inversion_start(target)
        except bf.DomainError:
            continue
        try:
            model.check_domain(start)
        except bf.DomainError:
            bad.append((target.tolist(), start.tolist()))
    assert not bad, f"{len(bad)} starts outside the domain, first {bad[0]}"


def _assert_inversions_end_at_the_floor(model, targets, guesses):
    """invert_eta of each target from its guess raises a BetaflowError or
    returns a point within the rounding-floor oracle."""
    bad = []
    for target, guess in zip(targets, guesses):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                back = bf.invert_eta(model, target, guess)
            except bf.BetaflowError:
                continue
            if not rounding_floor_ratio(model, back, target) <= 1.0:
                bad.append((target.tolist(), guess, back.tolist()))
    assert not bad, f"{len(bad)} of {len(targets)} miss the floor, first {bad[0]}"


@pytest.mark.parametrize("name", MODELS)
def test_invert_eta_of_a_drawn_point_ends_at_the_floor(name):
    model = MODELS[name]
    targets = _targets(name)[:-N_PER_BAND]  # eta of the drawn points only
    _assert_inversions_end_at_the_floor(model, targets, [None] * len(targets))


def _tiny_guesses():
    """Exact targets of the [-3, 3] band, each with a guess of 10^[-120, -40]
    per coordinate; such guesses often overflow det G while its cofactors
    stay finite."""
    targets = [bf.EXACT_MODEL.eta(p) for p in _points("exact")[N_PER_BAND:2 * N_PER_BAND]]
    rng = np.random.Generator(np.random.Philox(73))
    guesses = [tuple(g) for g in (10.0 ** rng.uniform(-120.0, -40.0, (N_PER_BAND, 3))).tolist()]
    return targets, guesses


def test_invert_eta_from_a_tiny_guess_ends_at_the_floor():
    _assert_inversions_end_at_the_floor(bf.EXACT_MODEL, *_tiny_guesses())


@pytest.mark.parametrize("name", MODELS)
def test_cli_info_exits_0_2_or_3(name, capsys):
    for p in _points(name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["info", "--model", name, "--json",
                         "--point", ",".join(repr(x) for x in p)])
        out = capsys.readouterr().out
        assert code in (0, 2, 3), (p, code)
        if code == 0:
            assert _finite(_numbers(json.loads(out))), (p, out)


def test_cli_scan_exits_0_2_or_3(capsys):
    # boxes spanned by consecutive drawn Stirling points, 2 to 5 nodes an axis
    points = _points("stirling")
    rng = np.random.Generator(np.random.Philox(83))
    for p, q in zip(points[::2], points[1::2]):
        region = ",".join(f"{min(x, y)!r}:{max(x, y)!r}" for x, y in zip(p, q))
        args = ["scan", "--region", region, "--resolution", str(rng.integers(2, 6))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        out = capsys.readouterr().out
        assert code in (0, 2, 3), (args, code)
        if code == 0:
            assert _finite(_numbers(json.loads(out))), (args, out)


@pytest.mark.parametrize("suite", bf.SUITE_NAMES)
def test_cli_check_exits_0_1_or_3(suite, capsys):
    # exit 1 (a failed check) is allowed here only
    rng = np.random.Generator(np.random.Philox(89))
    for seed in (-1, 0, 2 ** 64, *rng.integers(0, 2 ** 63, 2).tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", "--suite", suite, "--seed", str(seed), "--json"])
        out = capsys.readouterr().out
        assert code in (0, 1, 3), (seed, code)
        assert (code == 3) == (seed < 0), (seed, code)
        if code != 3:
            assert json.loads(out)["passed"] == (code == 0)


def _numbers(report) -> list:
    if isinstance(report, dict):
        return [x for v in report.values() for x in _numbers(v)]
    if isinstance(report, list):
        return [x for v in report for x in _numbers(v)]
    return [report] if isinstance(report, float) else []


# The flow can loop without end on a bad start, so integrate and the flow
# command run in a child process under a timeout.  The child prints, per
# start, the exception type integrate raised (or "ok" for a finite
# trajectory, "non-finite" otherwise) and the flow command's exit code.
_FLOW_CHILD = """
import contextlib, io, json, sys
import numpy as np
import betaflow as bf
from betaflow.cli import main

name, starts, csv_path = json.load(sys.stdin)
model = {"exact": bf.EXACT_MODEL, "stirling": bf.STIRLING_MODEL}[name]
for start in starts:
    try:
        traj = bf.integrate(model, start, 1.0, rtol=1e-6)
        columns = (traj.t, traj.theta, traj.eta, traj.det_g)
        outcome = "ok" if all(np.isfinite(c).all() for c in columns) else "non-finite"
    except bf.BetaflowError as exc:
        outcome = type(exc).__name__
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["flow", "--model", name, "--start", ",".join(map(repr, start)),
                     "--t-end", "1", "--rtol", "1e-6", "--out", csv_path])
    print(json.dumps([start, outcome, code]))
"""


def _flow_starts(name):
    """Starts with one coordinate at lower + 10^U, U over [-300, 300], and
    the others at lower + 10^[-1, 1], so that many pass the start's det
    guard and the flow's state w = 1/(theta - lower) begins near either end
    of the float range; then the next float above lower and 1e300 as one
    coordinate each."""
    model = MODELS[name]
    rng = np.random.Generator(np.random.Philox(73 if name == "exact" else 79))
    exponents = rng.uniform(-1.0, 1.0, (40, 3))
    exponents[np.arange(40), rng.integers(0, 3, 40)] = rng.uniform(-300.0, 300.0, 40)
    starts = [tuple(p) for p in (model.lower + 10.0 ** exponents).tolist()]
    return starts + [(math.nextafter(model.lower, 2.0), 2.0, 3.0), (2.5, 3.0, 1e300)]


@pytest.mark.parametrize("name", MODELS)
def test_integrate_and_cli_flow_finish_within_the_contract(name, tmp_path):
    # never a ZeroDivisionError or OverflowError (the child exits non-zero)
    # nor an inf theta sample ("non-finite")
    starts = _points(name)[::5] + _flow_starts(name)
    src = os.path.dirname(os.path.dirname(bf.__file__))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FLOW_CHILD],
        input=json.dumps([name, starts, str(tmp_path / "flow.csv")]),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(rows) == len(starts)
    for start, outcome, code in rows:
        assert outcome != "non-finite", start
        assert code in (0, 2, 3), (start, code)
        # the flow command runs integrate on the same start
        assert (code == 0) == (outcome == "ok"), (start, outcome, code)
