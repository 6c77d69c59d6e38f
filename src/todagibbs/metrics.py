"""Distances between spectral measures and grid densities.

Two problem-specific metrics plus standard comparison statistics:

* ``bl_bv_distance``: supremum of |int f dmu - int f dnu| over test functions
  with total variation and Lipschitz constant both at most one.  Lipschitz
  test functions are absolutely continuous, so integrating by parts turns the
  problem into  sup { int g * DeltaF : |g| <= 1, int |g| <= 1 }  with DeltaF
  the CDF difference.  The maximizer saturates |g| = 1 on the unit-length
  region where |DeltaF| is largest (bathtub principle), computed here by
  sorting the merged-partition cells by |DeltaF| and filling a length budget
  of one, fractionally for the last cell.

* ``log_energy_distance``: D with D^2 = - double-int log|x-y| dDelta dDelta
  for the density difference Delta, evaluated through the cell-integrated
  log kernel.  Defined for densities only; point masses carry infinite
  log-energy, so empirical measures must be smoothed first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .equilibrium import GridDensity, build_log_kernel
from .matrices import EmpiricalSpectralMeasure

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CdfOnGrid:
    """CDF of a probability measure, tabulated at its breakpoints.

    ``step`` marks atomic measures (CDF jumps at breakpoints); otherwise the
    CDF is piecewise linear between breakpoints.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    step: bool

    def __post_init__(self):
        if self.values[-1] < 1.0 - 1e-9 or np.any(np.diff(self.values) < -1e-12):
            raise ValueError("CDF must be nondecreasing up to 1")

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Right-continuous evaluation F(x)."""
        if self.step:
            idx = np.searchsorted(self.breakpoints, xs, side="right")
            padded = np.concatenate(([0.0], self.values))
            return padded[idx]
        return np.interp(xs, self.breakpoints, self.values, left=0.0, right=1.0)

    def evaluate_left(self, xs: np.ndarray) -> np.ndarray:
        """Left limit F(x-)."""
        if self.step:
            idx = np.searchsorted(self.breakpoints, xs, side="left")
            padded = np.concatenate(([0.0], self.values))
            return padded[idx]
        return self.evaluate(xs)


def cdf_of(measure) -> CdfOnGrid:
    if isinstance(measure, EmpiricalSpectralMeasure):
        vals = measure.values
        uniq, counts = np.unique(vals, return_counts=True)
        cums = np.cumsum(counts) / vals.size
        return CdfOnGrid(uniq, cums, step=True)
    if isinstance(measure, GridDensity):
        edges, cums = measure.cdf_breakpoints()
        cums = np.minimum(cums / cums[-1], 1.0)  # exact unit mass at the edge
        return CdfOnGrid(edges, cums, step=False)
    raise TypeError(f"not a probability measure: {type(measure).__name__}")


def _merged_breakpoints(f1: CdfOnGrid, f2: CdfOnGrid) -> np.ndarray:
    return np.union1d(f1.breakpoints, f2.breakpoints)


def bl_bv_distance(mu, nu) -> float:
    """Dual BV-and-Lipschitz distance between two probability measures."""
    f1, f2 = cdf_of(mu), cdf_of(nu)
    pts = _merged_breakpoints(f1, f2)
    if pts.size == 1:
        return 0.0
    # cell k is (pts[k], pts[k+1]); DeltaF is linear there (constant if both
    # inputs are atomic), so the mean of |DeltaF| over the cell is exact up to
    # one possible sign crossing, handled in closed form.
    left = f1.evaluate(pts[:-1]) - f2.evaluate(pts[:-1])
    right = f1.evaluate_left(pts[1:]) - f2.evaluate_left(pts[1:])
    lengths = np.diff(pts)
    mean_abs = _mean_abs_linear(left, right)
    order = np.argsort(mean_abs)[::-1]
    budget = 1.0
    total = 0.0
    for k in order:
        if mean_abs[k] <= 0.0 or budget <= 0.0:
            break
        take = min(lengths[k], budget)
        total += mean_abs[k] * take
        budget -= take
    return float(total)


def _mean_abs_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean of |a + t (b - a)| for t in [0, 1], elementwise."""
    same = a * b >= 0
    out = np.empty_like(a)
    out[same] = 0.5 * (np.abs(a[same]) + np.abs(b[same]))
    cross = ~same
    aa, bb = a[cross], b[cross]
    out[cross] = 0.5 * (aa * aa + bb * bb) / (np.abs(aa) + np.abs(bb))
    return out


def ks_distance(mu, nu) -> float:
    """Supremum CDF gap on the merged breakpoint grid."""
    f1, f2 = cdf_of(mu), cdf_of(nu)
    pts = _merged_breakpoints(f1, f2)
    gap_right = np.abs(f1.evaluate(pts) - f2.evaluate(pts))
    gap_left = np.abs(f1.evaluate_left(pts) - f2.evaluate_left(pts))
    return float(max(np.max(gap_right), np.max(gap_left)))


def log_energy_distance(rho1: GridDensity, rho2: GridDensity) -> float:
    """D(rho1, rho2) = sqrt(-(quadratic form of the log kernel) on rho1-rho2).

    The form is nonnegative on zero-mass differences up to discretization
    rounding; tiny negative values are clamped to zero and logged.
    """
    if rho1.grid != rho2.grid:
        raise ValueError("densities must share one grid")
    delta = rho1.values - rho2.values
    q = -build_log_kernel(rho1.grid).quadratic_form(delta)
    if q < 0.0:
        logger.debug("log-energy form clamped at 0 (magnitude %.3e)", -q)
    return float(np.sqrt(max(q, 0.0)))


def smooth_empirical(es: EmpiricalSpectralMeasure, grid, bandwidth: float | None = None) -> GridDensity:
    """Gaussian kernel density estimate of an empirical measure on a grid.

    Default bandwidth is n^(-1/5) times the sample standard deviation, floored
    at h/2 for the grid step h.  Below h/2 a Gaussian centred in a cell can
    underflow to zero at every grid point, so a smaller bandwidth is rejected,
    and so is any eigenvalue outside the grid.
    """
    vals = es.values
    lo = grid.x[0] - grid.h / 2.0
    hi = grid.x[-1] + grid.h / 2.0
    if vals[0] < lo or vals[-1] > hi:
        raise ValueError(
            f"eigenvalue range [{vals[0]:.4g}, {vals[-1]:.4g}] exceeds grid "
            f"[{lo:.4g}, {hi:.4g}]"
        )
    if bandwidth is None:
        bandwidth = max(float(np.std(vals)) * vals.size ** (-0.2), grid.h / 2.0)
    if not bandwidth >= grid.h / 2.0:
        raise ValueError(f"bandwidth {bandwidth!r} is below half the grid step "
                         f"h/2 = {grid.h / 2.0:.6g}")
    x = grid.x
    out = np.zeros(grid.m)
    chunk = max(1, int(2e6 // grid.m))
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    for start in range(0, vals.size, chunk):
        block = vals[start:start + chunk]
        out += np.exp(-inv * (x[:, None] - block[None, :]) ** 2).sum(axis=1)
    return GridDensity.from_unnormalized(grid, out)
