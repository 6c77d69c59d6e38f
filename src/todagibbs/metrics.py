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

import numpy as np

from .equilibrium import GridDensity, build_log_kernel
from .matrices import EmpiricalSpectralMeasure

logger = logging.getLogger(__name__)

# smooth_empirical: Gaussian terms beyond this many bandwidths are dropped,
# and at most this many sorted eigenvalues share one grid window, fewer on a
# grid so fine that one (window x block) table would exceed KDE_MAX_TERMS
KDE_REACH = 9.0
KDE_CHUNK = 128
KDE_MAX_TERMS = 2_000_000


def _breakpoints(measure) -> np.ndarray:
    """Atoms of an empirical measure, cell edges of a grid density."""
    if isinstance(measure, EmpiricalSpectralMeasure):
        return measure.values
    if isinstance(measure, GridDensity):
        return measure.cdf_breakpoints()[0]
    raise TypeError(f"not a probability measure: {type(measure).__name__}")


def _cdf(measure, pts: np.ndarray, side: str) -> np.ndarray:
    """CDF at pts: F(x) for side="right", its left limit F(x-) for side="left"."""
    if isinstance(measure, EmpiricalSpectralMeasure):
        return np.searchsorted(measure.values, pts, side) / measure.values.size
    if isinstance(measure, GridDensity):
        edges, cums = measure.cdf_breakpoints()
        cums = np.minimum(cums / cums[-1], 1.0)  # exact unit mass at the edge
        return np.interp(pts, edges, cums, left=0.0, right=1.0)
    raise TypeError(f"not a probability measure: {type(measure).__name__}")


def _cdf_gaps(mu, nu):
    """Merged breakpoints, with F_mu - F_nu there and its left limits there."""
    # the union's sorted distinct values by np.unique's `!=` rule; np.union1d
    # itself would import numpy.ma (np.unique calls np.ma.is_masked)
    pts = np.sort(np.concatenate((_breakpoints(mu), _breakpoints(nu))))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    gap = _cdf(mu, pts, "right") - _cdf(nu, pts, "right")
    gap_left = _cdf(mu, pts, "left") - _cdf(nu, pts, "left")
    return pts, gap, gap_left


def bl_bv_distance(mu, nu) -> float:
    """Dual BV-and-Lipschitz distance between two probability measures."""
    pts, gap, gap_left = _cdf_gaps(mu, nu)
    # cell k is (pts[k], pts[k+1]); DeltaF is linear there (constant if both
    # inputs are atomic), so the mean of |DeltaF| over the cell is exact up to
    # one possible sign crossing, handled in closed form.
    lengths = np.diff(pts)
    mean_abs = _mean_abs_linear(gap[:-1], gap_left[1:])
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
    _, gap, gap_left = _cdf_gaps(mu, nu)
    return float(max(np.max(np.abs(gap)), np.max(np.abs(gap_left))))


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

    The sum is exact up to a truncation at KDE_REACH bandwidths, where a term
    is below exp(-40.5) ~ 3e-18 of its peak: the eigenvalues are sorted, so
    each block of up to KDE_CHUNK neighbours is summed only over the grid
    points within that reach of the block.  Whatever the bandwidth, a
    block's table of terms holds at most KDE_MAX_TERMS values, or one grid's
    worth on a larger grid.
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
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    reach = KDE_REACH * bandwidth
    chunk = min(KDE_CHUNK, max(1, KDE_MAX_TERMS // grid.m))
    for start in range(0, vals.size, chunk):
        block = vals[start:start + chunk]
        cells = slice(*np.searchsorted(x, (block[0] - reach, block[-1] + reach)))
        out[cells] += np.exp(-inv * (x[cells, None] - block[None, :]) ** 2).sum(axis=1)
    return GridDensity.from_unnormalized(grid, out)
