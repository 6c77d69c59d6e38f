"""Equilibrium measures of the high-temperature log-gas.

For pressure P >= 0 and confinement W(x) = x^2/2 + V(x) the free-energy
functional over probability densities rho,

    F(rho) = int W rho - P * double-int log|x-y| rho(x) rho(y) + int rho log rho,

is strictly convex and has a unique minimizer with full support.  Its
stationarity condition

    W(x) - 2P * int log|x-y| rho(y) dy + log rho(x) = lambda

with U_rho the log-potential of rho, is linearized by ``solve_linearized``:
``solve_equilibrium`` takes Newton steps in log rho through it, with a
monotone free-energy safeguard, and ``dos`` differentiates mu_P in P with it.

Discretization: midpoint grid, with the logarithmic kernel integrated exactly
over cells so the singularity needs no regularization.  The kernel matrix is
Toeplitz; products use a circulant FFT embedding.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass

import numpy as np

from .potentials import NonConfiningError, Potential

logger = logging.getLogger(__name__)

DENSITY_FLOOR = 1e-300
# projected CG: relative residual of an exact solve and of a Newton step, iteration cap
CG_TOL = 1e-12
NEWTON_FORCING = 1e-3
CG_MAX_ITER = 1000
# boundary cells above this fraction of the peak indicate mass escaping the box
_LEAK_RATIO = 1e-10
# domain_auto: target log tail envelope, and the half-width beyond which V is too weak
_TAIL_LOG = np.log(1e-16)
_MAX_HALF_WIDTH = 1e9


class DomainTooSmallError(ValueError):
    """Converged density does not vanish at the grid boundary."""

    exit_code = 1  # the command line's status for it: invalid input


class NonConvergedError(RuntimeError):
    """Newton steps hit max_iter (returned if not raise_on_failure) or CG hit CG_MAX_ITER."""

    exit_code = 2  # the command line's status for it: numerical non-convergence


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on [-L, L]: x_i = -L + (i + 1/2) h, h = 2L/M."""

    half_width: float
    m: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.m < 16:
            raise ValueError("need at least 16 grid points")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.m

    @property
    def x(self) -> np.ndarray:
        # centered construction keeps the grid exactly antisymmetric
        return (np.arange(self.m) - (self.m - 1) / 2.0) * self.h


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative cell values integrating to one against the grid measure."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.shape != (self.grid.m,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        if np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        mass = float(np.sum(vals) * self.grid.h)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"density mass {mass} deviates from 1 beyond 1e-10")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_unnormalized(cls, grid: Grid, values) -> "GridDensity":
        vals = np.clip(np.asarray(values, dtype=float), 0.0, None)
        total = np.sum(vals) * grid.h
        if not total > 0:
            raise ValueError("cannot normalize a zero density")
        return cls(grid, vals / total)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.h)

    def moment(self, k: int) -> float:
        return float(np.sum(self.grid.x ** k * self.values) * self.grid.h)

    def cdf_breakpoints(self):
        """Cell edges and CDF values there (piecewise linear in between)."""
        edges = np.concatenate((self.grid.x - self.grid.h / 2.0,
                                [self.grid.x[-1] + self.grid.h / 2.0]))
        cums = np.concatenate(([0.0], np.cumsum(self.values) * self.grid.h))
        return edges, cums

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("x,rho\n")
        for x, r in zip(self.grid.x, self.values):
            buf.write(f"{x:.17g},{r:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "GridDensity":
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        xs, vals = data[:, 0], data[:, 1]
        h = xs[1] - xs[0]
        half_width = xs[-1] + h / 2.0
        grid = Grid(half_width, xs.size)
        if not np.allclose(grid.x, xs, atol=1e-9 * max(1.0, half_width)):
            raise ValueError("CSV grid is not a uniform midpoint grid about 0")
        return cls.from_unnormalized(grid, vals)


class LogKernel:
    """Cell-integrated logarithmic kernel on a grid.

    K[i, j] = (1/h) * int_{cell j} log|x_i - y| dy, which depends only on
    |i - j|.  The antiderivative G(t) = t log|t| - t handles the diagonal
    cell exactly (improper integral across the singularity).
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        h = grid.h
        d = np.arange(grid.m, dtype=float)
        upper = (d + 0.5) * h
        lower = (d - 0.5) * h
        self.column = (_g(upper) - _g(lower)) / h
        # circulant embedding for fast symmetric-Toeplitz products
        c = np.concatenate((self.column, [0.0], self.column[:0:-1]))
        self._fft_len = c.size
        self._kernel_fft = np.fft.rfft(c)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product K @ vec."""
        m = self.grid.m
        padded = np.zeros(self._fft_len)
        padded[:m] = vec
        out = np.fft.irfft(np.fft.rfft(padded) * self._kernel_fft, self._fft_len)
        return out[:m]

    def log_potential(self, values: np.ndarray) -> np.ndarray:
        """U(x_i) = int log|x_i - y| rho(y) dy for cellwise-constant rho."""
        return self.grid.h * self.apply(values)

    def quadratic_form(self, delta: np.ndarray) -> float:
        """h^2 * delta^T K delta."""
        return float(self.grid.h ** 2 * np.dot(delta, self.apply(delta)))


def _g(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    nz = t != 0.0
    out[nz] = t[nz] * np.log(np.abs(t[nz])) - t[nz]
    return out


def build_log_kernel(grid: Grid) -> LogKernel:
    return LogKernel(grid)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged minimizer with its multiplier and diagnostics."""

    p: float
    potential: Potential
    density: GridDensity
    lam: float
    free_energy: float
    residual: float
    iterations: int
    converged: bool

    def to_json_dict(self, density_file: str) -> dict:
        return {
            "P": self.p,
            "potential": self.potential.to_dict(),
            "lambda": self.lam,
            "free_energy": self.free_energy,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "grid": {"half_width": self.density.grid.half_width, "m": self.density.grid.m},
            "density_file": density_file,
        }


def _normalized_exp(log_values: np.ndarray, h: float) -> np.ndarray:
    shifted = log_values - np.max(log_values)
    g = np.exp(shifted)
    return g / (np.sum(g) * h)


def solve_linearized(rho: np.ndarray, p: float, kernel: LogKernel, b: np.ndarray,
                     tol: float) -> np.ndarray:
    """y with (I - 2P h S K S) y = b on the complement of e, by projected conjugate gradients.

    S = diag(sqrt(rho)) and e = sqrt(rho h) is a unit vector.  A perturbation
    rho (1 + du) with int rho du = 0 changes W - 2P U_rho + log rho by
    du - 2P h K(rho du), which in y = e du is (I - 2P h S K S) y with e . y = 0.
    There S y has zero mass, where K is negative definite, so the operator is
    positive definite; the multiplier's change, a multiple of e, drops out with
    the projection of b.  Raises ``NonConvergedError`` unless the residual falls
    to tol times the projected b within CG_MAX_ITER iterations.
    """
    e = np.sqrt(rho * kernel.grid.h)

    def project(v):
        return v - np.dot(e, v) * e

    b = project(b)
    y, r, d = np.zeros_like(b), b.copy(), b.copy()
    rr = float(np.dot(b, b))
    target = tol ** 2 * rr
    for _ in range(CG_MAX_ITER):
        if rr <= target:
            break
        q = project(d - 2.0 * p * e * kernel.apply(e * d))  # h S K S d = e K(e d)
        alpha = rr / float(np.dot(d, q))
        y += alpha * d
        r -= alpha * q
        rr, rr_old = float(np.dot(r, r)), rr
        d = r + (rr / rr_old) * d
    if rr > target:
        raise NonConvergedError(f"conjugate gradients: relative residual "
                                f"{tol * np.sqrt(rr / target):.3e} after {CG_MAX_ITER} iterations")
    return y


def solve_equilibrium(p: float, w: Potential, grid: Grid, tol: float = 1e-8, max_iter: int = 100,
                      raise_on_failure: bool = False) -> EquilibriumSolution:
    """Minimize the free-energy functional by Newton steps in u = log rho.

    With R = W - 2P U_rho + log rho - lambda on every cell (log of rho floored
    at DENSITY_FLOOR), a step solves (I - 2P h S K S) y = -e R by
    ``solve_linearized`` to NEWTON_FORCING and moves u by t du with
    du = -R + 2P K(e y); normalization absorbs the multiplier's change.  t
    starts at 1 and halves whenever the free energy would increase.
    Convergence is declared when the stationarity defect sup |R| drops below
    tol on cells above the density floor; ``iterations`` counts the steps.

    P = 0 is allowed (entropy-only problem, minimizer exp(-W)/Z).  A solution
    that still leaks mass at the boundary raises ``DomainTooSmallError``, and
    CG that hits CG_MAX_ITER raises ``NonConvergedError`` whatever raise_on_failure.
    """
    if not 0 <= p < np.inf:
        raise ValueError("pressure must be nonnegative")
    if not tol > 0:
        raise ValueError("tol must be positive")

    kernel = build_log_kernel(grid)
    h = grid.h
    wx = w.confinement(grid.x)
    rho = _normalized_exp(-wx, h)
    phi = kernel.log_potential(rho)
    f_curr = _free_energy_parts(wx, phi, rho, p, h)
    residual, lam = np.inf, 0.0
    iterations = 0
    converged = False

    for iterations in range(max_iter + 1):
        log_rho = np.log(np.maximum(rho, DENSITY_FLOOR))
        r = wx - 2.0 * p * phi + log_rho
        lam = float(np.sum(r * rho) * h)
        r -= lam
        residual = float(np.max(np.abs(r[rho > DENSITY_FLOOR])))
        if residual <= tol:
            converged = True
            break
        if iterations == max_iter:
            break
        e = np.sqrt(rho * h)
        y = solve_linearized(rho, p, kernel, -e * r, NEWTON_FORCING)
        du = 2.0 * p * kernel.apply(e * y) - r
        # monotone safeguard: halve the step, down to 2^-27, until the free energy does not rise
        for t in 0.5 ** np.arange(28.0):
            candidate = _normalized_exp(log_rho + t * du, h)
            phi_cand = kernel.log_potential(candidate)
            f_cand = _free_energy_parts(wx, phi_cand, candidate, p, h)
            if f_cand <= f_curr + 1e-14 * (1.0 + abs(f_curr)):
                break
        rho, phi, f_curr = candidate, phi_cand, f_cand

    density = GridDensity.from_unnormalized(grid, rho)
    if np.max(rho[[0, -1]]) > _LEAK_RATIO * np.max(rho):
        raise DomainTooSmallError(
            f"boundary density {np.max(rho[[0, -1]]):.3g} vs peak {np.max(rho):.3g}; "
            "enlarge the grid half-width"
        )
    solution = EquilibriumSolution(
        p=p, potential=w, density=density, lam=lam, free_energy=f_curr,
        residual=residual, iterations=iterations, converged=converged,
    )
    if not converged:
        logger.warning("equilibrium solve not converged: residual %.3e after %d Newton steps",
                       residual, iterations)
        if raise_on_failure:
            raise NonConvergedError(f"residual {residual:.3e} after {iterations} Newton steps")
    return solution


def _free_energy_parts(wx, phi, rho, p, h) -> float:
    """The free-energy functional of cell values rho, given W (wx) and U_rho (phi)."""
    pot = float(np.sum(wx * rho) * h)
    log_energy = float(np.sum(phi * rho) * h)
    mask = rho > DENSITY_FLOOR
    entropy = float(np.sum(rho[mask] * np.log(rho[mask])) * h)
    return pot - p * log_energy + entropy


def domain_auto(p: float, w: Potential) -> float:
    """Smallest half-width L with exp(-W(L) + 2P log(2L)) <= 1e-16 exp(-min W).

    min W is taken over the exact critical candidates of W, which hold its
    argmin: the roots of W' for the polynomial ``w.coeffs`` and the nodes of
    a table and the vertex -b of x^2/2 + a + b x on each of its segments.  A
    doubling search brackets the crossing, bisection refines it.  The search
    starts at the farthest candidate where the bound fails, or at 1, so no
    well of W is cut off.  The bound keeps the truncated tail mass of
    exp(-W + 2P U_rho), the shape of mu_P, below 1e-12.
    """
    if not 0 <= p < np.inf:
        raise ValueError("pressure must be nonnegative")
    coeffs = np.asarray(w.coeffs, dtype=float)
    # W' in descending powers; a complex root's real part is a harmless extra point
    slope = np.polyder(np.polyadd(coeffs[::-1], [0.5, 0.0, 0.0]))
    xs, vs = np.asarray(w.table_x, dtype=float), np.asarray(w.table_v, dtype=float)
    candidates = np.concatenate([np.roots(slope).real, xs, -np.diff(vs) / np.diff(xs)])
    w_min = float(np.min(w.confinement(candidates)))

    def excess(length):
        # log of the tail envelope relative to the target, > 0 means too small
        w_edge = np.min(w.confinement(np.array([length, -length])), axis=0)
        log_gain = 2.0 * p * np.log(2.0 * length) if p > 0 else 0.0
        return (-w_edge + log_gain) - (_TAIL_LOG - w_min)

    far = np.maximum(np.abs(candidates), 1.0)
    start = float(np.max(far[excess(far) > 0], initial=1.0))
    length = start
    while excess(length) > 0:
        length *= 2.0
        if length > _MAX_HALF_WIDTH:
            raise NonConfiningError(f"confinement too weak to bound the tail at pressure {p:g}")
    if length == start:
        return start
    lo, hi = length / 2.0, length
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi
