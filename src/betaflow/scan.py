"""Grid sweep locating the degeneracy set of the approximated metric.

The closed-form determinant is a rational function whose numerator is
affine in each parameter separately, so on any axis-aligned cell its sign
pattern at the eight corners is decisive: a sign change brackets the zero
surface.  Node and midpoint threshold tests catch cells that merely touch
the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .manifold import DomainLabel
from .stirling import STIRLING_MODEL, det_kernel


@dataclass(frozen=True)
class Region:
    """Axis-aligned box with per-axis node counts."""

    a: tuple[float, float]
    b: tuple[float, float]
    c: tuple[float, float]
    na: int
    nb: int
    nc: int

    def __post_init__(self):
        for lo, hi in (self.a, self.b, self.c):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"invalid region interval [{lo!r}, {hi!r}]")
            if lo <= STIRLING_MODEL.lower:
                raise DomainError(
                    f"region lower bound {lo!r} must exceed"
                    f" {STIRLING_MODEL.lower:g} (stirling domain)"
                )
        for n in (self.na, self.nb, self.nc):
            if n < 2:
                raise DomainError(f"region resolution must be >= 2, got {n}")

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.linspace(self.a[0], self.a[1], self.na),
            np.linspace(self.b[0], self.b[1], self.nb),
            np.linspace(self.c[0], self.c[1], self.nc),
        )


@dataclass(frozen=True)
class FlaggedCell:
    """One grid cell suspected of meeting det G = 0."""

    index: tuple[int, int, int]
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    label: DomainLabel
    distance: float
    min_abs_det: float
    sign_change: bool


def scan_degeneracy(region: Region, tol: float = 1e-9) -> list[FlaggedCell]:
    """Flag cells where the closed-form determinant changes sign across the
    corners or falls below tol at a corner or the midpoint.  The result is
    ordered lexicographically by cell index.  DomainError where tol is not
    finite and >= 0, or where numpy cannot build the grids (too many nodes)."""
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    try:
        ax, bx, cx = region.axes()
        # Halves first, so the sum cannot overflow; on coordinates above 1
        # this rounds as 0.5 * (x[:-1] + x[1:]).
        mid_axes = [0.5 * x[:-1] + 0.5 * x[1:] for x in (ax, bx, cx)]
        # Where det_kernel's products overflow (coordinates past about 1e100)
        # det is inf or NaN; such a cell compares false everywhere below and
        # is not flagged.
        with np.errstate(over="ignore", invalid="ignore"):
            det = det_kernel(*np.meshgrid(ax, bx, cx, indexing="ij"))
            det_mid = det_kernel(*np.meshgrid(*mid_axes, indexing="ij"))
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"cannot build the scan grid of {region.na} x {region.nb}"
                          f" x {region.nc} nodes: {exc}") from exc

    ni, nj, nk = det_mid.shape
    corners = [det[di:di + ni, dj:dj + nj, dk:dk + nk]
               for di in (0, 1) for dj in (0, 1) for dk in (0, 1)]
    sign_change = (np.minimum.reduce(corners) < 0.0) & (0.0 < np.maximum.reduce(corners))
    min_abs = np.minimum.reduce([np.abs(view) for view in corners])
    flagged = sign_change | (min_abs <= tol) | (np.abs(det_mid) <= tol)

    half_diag = 0.5 * math.hypot(ax[1] - ax[0], bx[1] - bx[0], cx[1] - cx[0])
    found = []
    for i, j, k in np.argwhere(flagged).tolist():
        mid = (mid_axes[0][i], mid_axes[1][j], mid_axes[2][k])
        cls = STIRLING_MODEL.classify_domain(mid, tol=half_diag)
        found.append(FlaggedCell(
            index=(i, j, k),
            lo=(float(ax[i]), float(bx[j]), float(cx[k])),
            hi=(float(ax[i + 1]), float(bx[j + 1]), float(cx[k + 1])),
            label=cls.label,
            distance=cls.distance,
            min_abs_det=float(min_abs[i, j, k]),
            sign_change=bool(sign_change[i, j, k]),
        ))
    return found
