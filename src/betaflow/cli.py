"""Command-line front end: point reports, flow integration with CSV/SVG
output, check suites, and degeneracy scans.

Exit codes: 0 success, 1 failed checks, 2 usage error, 3 domain or
singularity error (any error raised by the library maps here, as do I/O
failures on output paths).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import BetaflowError, EmptyTrajectoryError, SingularMatrixError
from .exact import EXACT_MODEL
from .flow import Trajectory, integrate
from .integrability import hamiltonian
from .scan import Region, scan_degeneracy
from .stirling import STIRLING_MODEL
from .suites import SUITE_NAMES, run_suite

_MODELS = {"exact": EXACT_MODEL, "stirling": STIRLING_MODEL}

CSV_COLUMNS = ("t", "a", "b", "c", "eta1", "eta2", "eta3", "H", "det_G", "lax_dev")

_SERIES_COLORS = (
    ("eta1", "#1f77b4"),
    ("eta2", "#d62728"),
    ("eta3", "#2ca02c"),
    ("H", "#000000"),
)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_point_flags(list(argv)))
    except SystemExit as exc:
        # argparse exits with 0 after --help and 2 on a usage error
        return exc.code
    try:
        return args.handler(args)
    except (BetaflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _merge_point_flags(argv: list[str]) -> list[str]:
    """Rewrite `--point -1,2,2` as `--point=-1,2,2` so a leading minus in a
    coordinate triple is not mistaken for an option."""
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--point", "--start") and i + 1 < len(argv):
            merged.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def _numbers(text: str, sep: str, count: int, form: str, convert=float) -> tuple:
    """`text` split at `sep` into `count` fields, each converted; an
    ArgumentTypeError naming `form`, or the conversion's own message."""
    parts = text.split(sep)
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {form} - got {text!r}")
    try:
        return tuple(convert(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _point(text: str) -> tuple[float, float, float]:
    return _numbers(text, ",", 3, "a,b,c")


def _interval(text: str) -> tuple[float, float]:
    return _numbers(text, ":", 2, "lo:hi")


def _region(text: str) -> tuple[tuple[float, float], ...]:
    return _numbers(text, ",", 3, "a0:a1,b0:b1,c0:c1", _interval)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaflow",
        description="Integrable gradient flow on the bivariate beta manifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="report the geometry at one point")
    p_info.add_argument("--model", choices=sorted(_MODELS), required=True)
    p_info.add_argument("--point", type=_point, required=True, metavar="a,b,c")
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(handler=_cmd_info)

    p_flow = sub.add_parser("flow", help="integrate the gradient flow")
    p_flow.add_argument("--model", choices=sorted(_MODELS), required=True)
    p_flow.add_argument("--start", type=_point, required=True, metavar="a,b,c")
    p_flow.add_argument("--t-end", type=float, required=True)
    p_flow.add_argument("--rtol", type=float, default=1e-9)
    p_flow.add_argument("--atol", type=float, default=1e-12)
    p_flow.add_argument("--out", required=True, help="trajectory CSV path")
    p_flow.add_argument("--svg", help="optional SVG plot path")
    p_flow.set_defaults(handler=_cmd_flow)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(handler=_cmd_check)

    p_scan = sub.add_parser("scan", help="scan a box for metric degeneracy")
    p_scan.add_argument("--region", type=_region, required=True,
                        metavar="a0:a1,b0:b1,c0:c1")
    p_scan.add_argument("--resolution", type=int, default=8)
    p_scan.add_argument("--tol", type=float, default=1e-9)
    p_scan.add_argument("--out", help="JSON output path (default stdout)")
    p_scan.set_defaults(handler=_cmd_scan)

    return parser


def _cmd_info(args) -> int:
    model = _MODELS[args.model]
    point = model.check_domain(args.point)
    metric = model.metric(point)
    try:
        inverse = [float(x) for x in model.metric_inverse_closed(point).as_array().ravel()]
    except SingularMatrixError:  # det G is exactly 0: G has no inverse to report
        inverse = None
    eta = model.eta(point)
    domain_class = model.classify_domain(point)
    report = {
        "model": args.model,
        "point": [float(x) for x in point],
        "phi": float(model.potential(point)),
        "eta": [float(x) for x in eta],
        "metric": [float(x) for x in metric.as_array().ravel()],
        "metric_inverse": inverse,
        "detG": float(model.det_closed(point)),
        "eigenvalues": [float(x) for x in np.linalg.eigvalsh(metric.as_array())],
        "hamiltonian": float(hamiltonian(eta)),
        "domain_class": {
            "label": domain_class.label.value,
            "distance": float(domain_class.distance),
        },
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"model: {report['model']}")
        print(f"point: ({', '.join(repr(x) for x in report['point'])})")
        print(f"phi = {report['phi']!r}")
        print(f"eta = ({', '.join(repr(x) for x in report['eta'])})")
        for name in ("metric", "metric_inverse"):
            if report[name] is None:
                print(f"{name}: none (det G = 0)")
                continue
            print(f"{name}:")
            for row in np.reshape(report[name], (3, 3)):
                print(f"  [{', '.join(repr(float(x)) for x in row)}]")
        print(f"detG = {report['detG']!r}")
        print(f"eigenvalues = ({', '.join(repr(x) for x in report['eigenvalues'])})")
        print(f"H = {report['hamiltonian']!r}")
        print(f"domain class: {report['domain_class']['label']}"
              f" (distance {report['domain_class']['distance']!r})")
    return 0


def _cmd_flow(args) -> int:
    model = _MODELS[args.model]
    trajectory = integrate(model, args.start, args.t_end,
                           rtol=args.rtol, atol=args.atol)
    write_trajectory_csv(trajectory, args.out)
    if args.svg:
        emit_svg(trajectory, args.svg)
    print(f"status={trajectory.status} samples={trajectory.n_samples}"
          f" t_final={float(trajectory.t[-1])!r}"
          f" accepted={trajectory.n_accepted} rejected={trajectory.n_rejected}"
          f" rhs={trajectory.n_rhs}")
    return 0


def _cmd_check(args) -> int:
    report = run_suite(args.suite, args.seed)
    if args.json:
        print(report.to_json())
    else:
        for check in report.checks:
            verdict = "PASS" if check.passed else "FAIL"
            print(f"{check.name}: {verdict} residual={check.residual:.6g}"
                  f" tolerance={check.tolerance:.6g}")
        print(f"suite {report.suite} (seed {report.seed}):"
              f" {'PASS' if report.passed else 'FAIL'}"
              f" [{report.wall_time_s:.2f}s]")
    return 0 if report.passed else 1


def _cmd_scan(args) -> int:
    (a, b, c) = args.region
    region = Region(a=a, b=b, c=c, na=args.resolution, nb=args.resolution,
                    nc=args.resolution)
    cells = scan_degeneracy(region, tol=args.tol)
    total = (args.resolution - 1) ** 3
    report = json.dumps(
        {
            "region": {"a": list(a), "b": list(b), "c": list(c)},
            "resolution": args.resolution,
            "tol": args.tol,
            "n_cells": total,
            "n_flagged": len(cells),
            # the label is a str enum, so it serializes as its value
            "flagged": [asdict(cell) for cell in cells],
        },
        indent=2,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(report + "\n")
        print(f"flagged {len(cells)} of {total} cells -> {args.out}")
    else:
        print(report)
    return 0


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """The header `CSV_COLUMNS`, then one row per sample of `%.17g` cells
    (a lossless round-trip; non-finite cells read `nan`, `inf` and `-inf`,
    and a negative zero `-0`), each line ended by a single newline."""
    columns = (trajectory.t, *trajectory.theta.T, *trajectory.eta.T,
               trajectory.hamiltonian, trajectory.det_g, trajectory.lax_dev)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(CSV_COLUMNS), comments="")


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into column arrays."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise BetaflowError(f"unexpected CSV header {header!r}")
        rows = [[float(v) for v in row] for row in reader]
    data = np.array(rows) if rows else np.empty((0, len(CSV_COLUMNS)))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def emit_svg(trajectory: Trajectory, path) -> None:
    """Standalone 800x600 SVG: eta components and H against t, with ticks
    and a legend.  Output bytes depend only on the trajectory samples."""
    if trajectory.n_samples < 2:
        raise EmptyTrajectoryError(
            f"need at least 2 samples to plot, got {trajectory.n_samples}"
        )
    t = trajectory.t
    series = (*trajectory.eta.T, trajectory.hamiltonian)  # in _SERIES_COLORS order
    stacked = np.concatenate([v[np.isfinite(v)] for v in series])
    if stacked.size == 0:
        y_lo, y_hi = -1.0, 1.0
    else:
        y_lo, y_hi = float(stacked.min()), float(stacked.max())
    pad = 0.05 * (y_hi - y_lo)
    if pad == 0.0:
        pad = 0.5
    y_lo -= pad
    y_hi += pad
    t_lo, t_hi = float(t[0]), float(t[-1])

    left, right, top, bottom = 70.0, 630.0, 40.0, 540.0

    def sx(value: float) -> float:
        return left + (value - t_lo) / (t_hi - t_lo) * (right - left)

    def sy(value: float) -> float:
        return bottom - (value - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600"'
        ' viewBox="0 0 800 600">',
        '<rect x="0" y="0" width="800" height="600" fill="#ffffff"/>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{right - left:.1f}"'
        f' height="{bottom - top:.1f}" fill="none" stroke="#333333"/>',
    ]
    for i in range(6):
        tv = t_lo + i * (t_hi - t_lo) / 5.0
        x = sx(tv)
        parts.append(f'<line x1="{x:.3f}" y1="{bottom:.1f}" x2="{x:.3f}"'
                     f' y2="{bottom + 6:.1f}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.3f}" y="{bottom + 20:.1f}" font-size="12"'
                     f' text-anchor="middle">{tv:.6g}</text>')
        yv = y_lo + i * (y_hi - y_lo) / 5.0
        y = sy(yv)
        parts.append(f'<line x1="{left - 6:.1f}" y1="{y:.3f}" x2="{left:.1f}"'
                     f' y2="{y:.3f}" stroke="#333333"/>')
        parts.append(f'<text x="{left - 10:.1f}" y="{y + 4:.3f}" font-size="12"'
                     f' text-anchor="end">{yv:.6g}</text>')
    parts.append(f'<text x="{(left + right) / 2:.1f}" y="{bottom + 40:.1f}"'
                 ' font-size="13" text-anchor="middle">t</text>')
    for (_, color), values in zip(_SERIES_COLORS, series):
        pts = " ".join(
            f"{sx(float(ti)):.3f},{sy(float(vi)):.3f}"
            for ti, vi in zip(t, values)
            if np.isfinite(vi)
        )
        parts.append(f'<polyline fill="none" stroke="{color}"'
                     f' stroke-width="1.5" points="{pts}"/>')
    for idx, (name, color) in enumerate(_SERIES_COLORS):
        y = top + 18.0 * (idx + 1)
        parts.append(f'<line x1="650" y1="{y:.1f}" x2="680" y2="{y:.1f}"'
                     f' stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="688" y="{y + 4:.1f}" font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


if __name__ == "__main__":
    sys.exit(main())
