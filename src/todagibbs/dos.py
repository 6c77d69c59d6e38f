"""Toda density of states and its cross-identities.

The almost-sure limit of the Toda spectral measure at pressure P is obtained
from the log-gas equilibrium family by differentiating in the pressure,

    nu_P = d/dP ( P * mu_P ),

evaluated here with central differences.  On top of that single construction
the module verifies three structural identities at desk scale:

* the mixture identity  mu_P = int_0^1 nu_{sP} ds  (and its variance-profile
  generalization  nu_sigma = int_0^1 nu_{sigma(P)} dP),
* the free-energy derivative law linking the Toda log-moment-generating
  function of Tr V to the pressure derivative of the Coulomb free energy,
* the representation of nu_P as (C + 2P * log-potential of nu_P) * mu_P.

Free energies enter only through V-differences, where additive constants and
the overall sign convention of the log-partition limit cancel; the difference
used here is  F_C(V) - F_C(0) = -(inf F[V] - inf F[0])  with F the functional
minimized by the equilibrium solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import Grid, GridDensity, build_log_kernel, domain_auto, solve_equilibrium
from .matrices import trace_potential
from .metrics import ks_distance, log_energy_distance
from .potentials import Potential
from .sampling import SeededStream, _mcmc_chains


# largest clipped negative mass a density of states may carry
NEGATIVITY_CEILING = 1e-3
# beta_mixture_check clamps quadrature nodes s below this
MIXTURE_S_MIN = 1e-3

# Verdict bounds of the five checks; each report carries "pass" and "bound".
MIXTURE_BOUND = 1e-2            # sup CDF gap between mu_P and the mixture
FREE_ENERGY_FLOOR = 0.02        # gap <= max(FREE_ENERGY_STDERRS * stderr, floor)
FREE_ENERGY_STDERRS = 3.0
NU_NORMALIZATION_BOUND = 1e-3   # |normalization - 1|
NU_FACTOR_FLOOR = -1e-6         # smallest density factor on the support of mu
LIPSCHITZ_GROWTH = 1.5          # max ratio <= growth * first ratio + slack
LIPSCHITZ_SLACK = 1e-9
CONVEXITY_FLOOR = -1e-6         # smallest second difference of F_C


class DosStepError(ValueError):
    """Differencing produced material negative mass; refine h_P or the grid."""


@dataclass(frozen=True)
class DosResult:
    """Density of states with its finite-difference provenance."""

    nu: GridDensity
    fd_step: float
    negativity: float


def dos_from_equilibrium(p: float, w: Potential, grid: Grid,
                         h_p: float | None = None, tol: float = 1e-8) -> DosResult:
    """nu_P as the central difference of P' -> P' mu_{P'} at P, step h_p (min(1e-3, P/10)).

    Pre-clip mass equals one up to rounding because each solve is normalized
    exactly; tiny negative cells are clipped and the clipped mass reported.
    """
    if not p > 0:
        raise ValueError("pressure must be positive")
    if h_p is None:
        h_p = min(1e-3, p / 10.0)
    if not 0 < h_p < p / 2:
        raise ValueError("need 0 < h_p < p/2")
    lower = solve_equilibrium(p - h_p, w, grid, tol=tol, raise_on_failure=True)
    upper = solve_equilibrium(p + h_p, w, grid, tol=tol, raise_on_failure=True)
    raw = ((p + h_p) * upper.density.values - (p - h_p) * lower.density.values) / (2.0 * h_p)
    mass = float(np.sum(raw) * grid.h)
    if abs(mass - 1.0) > 1e-8:
        raise DosStepError(f"pre-clip mass {mass} deviates from 1 beyond 1e-8")
    negativity = float(-np.sum(np.minimum(raw, 0.0)) * grid.h)
    if negativity > NEGATIVITY_CEILING:
        raise DosStepError(
            f"clipped negative mass {negativity:.3e} exceeds ceiling "
            f"{NEGATIVITY_CEILING:.1e}; reduce h_p or refine the grid"
        )
    nu = GridDensity.from_unnormalized(grid, raw)
    return DosResult(nu=nu, fd_step=h_p, negativity=negativity)


def gauss_legendre_unit(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]: the rule of every parameter integral."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def mixture_over_profile(profile, w: Potential, grid: Grid, n_nodes: int,
                         tol: float = 1e-8) -> GridDensity:
    """nu_sigma = int_0^1 nu_{sigma(s)} ds by Gauss-Legendre quadrature.

    ``profile`` maps s in [0, 1] to a pressure, e.g. a ``VarianceProfile``.
    """
    if n_nodes < 5:
        raise ValueError("need at least 5 quadrature nodes")
    mix = np.zeros(grid.m)
    for s, wt in zip(*gauss_legendre_unit(n_nodes)):
        result = dos_from_equilibrium(float(profile(s)), w, grid, tol=tol)
        mix += wt * result.nu.values
    return GridDensity.from_unnormalized(grid, mix)


def beta_mixture_check(p: float, w: Potential, grid: Grid, n_nodes: int = 21,
                       tol: float = 1e-8) -> dict:
    """Compare mu_P against the pressure mixture int_0^1 nu_{sP} ds.

    Quadrature nodes below MIXTURE_S_MIN are clamped there; the solver
    conditioning degrades toward P = 0 where both sides approach exp(-W)/Z anyway.
    """
    mixture = mixture_over_profile(lambda s: max(float(s), MIXTURE_S_MIN) * p, w, grid,
                                   n_nodes, tol=tol)
    mu = solve_equilibrium(p, w, grid, tol=tol, raise_on_failure=True).density
    gap = ks_distance(mixture, mu)
    return {
        "sup_cdf_gap": gap,
        "n_nodes": n_nodes,
        "s_min": MIXTURE_S_MIN,
        "second_moment_mixture": mixture.moment(2),
        "second_moment_mu": mu.moment(2),
        "bound": MIXTURE_BOUND,
        "pass": bool(gap <= MIXTURE_BOUND),
    }


# -- free-energy derivative check ----------------------------------------


def coulomb_free_energy_shift(p: float, v: Potential, grid: Grid, tol: float = 1e-8) -> float:
    """F_C(V, P) - F_C(0, P): minus the difference of functional minima.

    The minimized functional is the large-N rate of the log partition with the
    opposite sign, so the V-difference of log-partition limits is
    -(inf F[V] - inf F[0]); constants independent of V cancel.
    """
    with_v = solve_equilibrium(p, v, grid, tol=tol, raise_on_failure=True)
    without = solve_equilibrium(p, Potential.zero(), grid, tol=tol, raise_on_failure=True)
    return -(with_v.free_energy - without.free_energy)


def free_energy_relation_check(p: float, w: Potential, n: int, mc_sweeps: int,
                               seed: int = 0, n_alpha: int = 8, replicas: int = 4,
                               thin: int = 5, tol: float = 1e-8) -> dict:
    """Thermodynamic integration against the pressure-derivative identity.

    lhs: (1/N) log E[exp(-Tr V)] under the V = 0 ensemble, via
         -int_0^1 E_alpha[(1/N) Tr V] d(alpha) with E_alpha sampled by MCMC
         under the tilted potential alpha V (Gauss-Legendre over the alpha
         nodes, stderr from replica spread).
    rhs: d/dP ( P * [F_C(V, P) - F_C(0, P)] ) by central differences of
         equilibrium free energies, step min(1e-2, P/10) so the lower
         pressure stays positive.
    """
    if n_alpha < 8:
        raise ValueError("need at least 8 integration nodes")
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a spread-based stderr")
    if w.is_zero:
        return {"lhs": 0.0, "rhs": 0.0, "stderr": 0.0, "gap": 0.0,
                "min_ess": float("inf"), "reliable": True, "alphas": [], "node_means": [],
                "node_stderr": [], "node_ess": [], "node_acceptance": [],
                "bound": FREE_ENERGY_FLOOR, "pass": True}
    if not w.is_polynomial:
        raise TypeError("thermodynamic integration needs a polynomial potential")
    fd_step = min(1e-2, p / 10.0)

    alphas, weights = gauss_legendre_unit(n_alpha)
    # chain k * replicas + r samples node k on stream k * replicas + r; all
    # chains advance together as one batched state
    reports = _mcmc_chains([SeededStream(seed, i) for i in range(n_alpha * replicas)], n, p,
                           [w.scaled(float(a)) for a in np.repeat(alphas, replicas)],
                           mc_sweeps, thin)
    values = np.reshape([np.mean([trace_potential(m, w) for m in r.samples]) for r in reports],
                        (n_alpha, replicas))
    ess = np.reshape([r.ess for r in reports], (n_alpha, replicas))
    rates = {kind: np.reshape([r.acceptance[kind] for r in reports], ess.shape).mean(axis=1)
             for kind in ("diag", "offdiag")}
    node_means = values.mean(axis=1)
    node_se = values.std(axis=1, ddof=1) / np.sqrt(replicas)
    node_ess = [float(sum(row)) for row in ess]
    node_acceptance = [{kind: float(rate[k]) for kind, rate in rates.items()}
                       for k in range(n_alpha)]

    lhs = float(-np.sum(weights * node_means))
    stderr = float(np.sqrt(np.sum((weights * node_se) ** 2)))

    # the V and the V = 0 solves share one grid, wide enough for both measures
    grid = Grid(max(domain_auto(p + fd_step, v) for v in (w, Potential.zero())), 2000)
    shift_up = coulomb_free_energy_shift(p + fd_step, w, grid, tol=tol)
    shift_dn = coulomb_free_energy_shift(p - fd_step, w, grid, tol=tol)
    rhs = float(((p + fd_step) * shift_up - (p - fd_step) * shift_dn) / (2.0 * fd_step))
    bound = max(FREE_ENERGY_STDERRS * stderr, FREE_ENERGY_FLOOR)

    return {
        "lhs": lhs,
        "rhs": rhs,
        "stderr": stderr,
        "gap": abs(lhs - rhs),
        "min_ess": min(node_ess),
        "reliable": bool(min(node_ess) >= 50.0),
        "alphas": alphas.tolist(),
        "node_means": node_means.tolist(),
        "node_stderr": node_se.tolist(),
        "node_ess": node_ess,
        "node_acceptance": node_acceptance,
        "bound": bound,
        "pass": bool(abs(lhs - rhs) <= bound),
    }


def nu_density_relation_check(p: float, w: Potential, grid: Grid, tol: float = 1e-8) -> dict:
    """Check nu_P = (C + 2P * log-potential of nu_P) * mu_P pointwise.

    C is fitted as the mu-weighted mean of nu/mu - 2P U_nu, which also pins
    the normalization  C + 2P int U_nu dmu = 1.
    """
    mu = solve_equilibrium(p, w, grid, tol=tol, raise_on_failure=True).density
    nu = dos_from_equilibrium(p, w, grid, tol=tol).nu
    h = grid.h
    u_nu = build_log_kernel(grid).log_potential(nu.values)
    mask = mu.values > 0.0
    weight = float(np.sum(mu.values[mask]) * h)
    c_fit = float(np.sum(nu.values[mask] * h - 2.0 * p * u_nu[mask] * mu.values[mask] * h)
                  / weight)
    density_factor = c_fit + 2.0 * p * u_nu
    residual = float(np.max(np.abs(nu.values - density_factor * mu.values)))
    normalization = float(c_fit + 2.0 * p * np.sum(u_nu * mu.values) * h)
    min_factor = float(np.min(density_factor[mask]))
    return {
        "constant": c_fit,
        "sup_residual": residual,
        "normalization": normalization,
        "min_density_factor": min_factor,
        "bound": {"normalization": NU_NORMALIZATION_BOUND, "min_density_factor": NU_FACTOR_FLOOR},
        "pass": bool(abs(normalization - 1.0) <= NU_NORMALIZATION_BOUND
                     and min_factor >= NU_FACTOR_FLOOR),
    }


LIPSCHITZ_PRESSURES = (0.5, 1.0, 2.0)
LIPSCHITZ_DELTAS = (1e-1, 1e-2, 1e-3)
CONVEXITY_PRESSURES = tuple(np.arange(0.4, 2.401, 0.2).tolist())  # 0.4, 0.6, ..., 2.4


def d_lipschitz_sweep(w: Potential = Potential.zero(), grid: Grid | None = None) -> dict:
    """Secant ratios D(mu_P, mu_{P+delta}) / delta as delta shrinks.

    P runs over LIPSCHITZ_PRESSURES and delta over LIPSCHITZ_DELTAS; each
    solve runs to tol 1e-9.
    """
    if grid is None:
        grid = Grid(domain_auto(max(LIPSCHITZ_PRESSURES) + max(LIPSCHITZ_DELTAS), w), 2000)
    ratios = {}
    for p in LIPSCHITZ_PRESSURES:
        base = solve_equilibrium(p, w, grid, tol=1e-9, raise_on_failure=True).density
        ratios[p] = []
        for delta in LIPSCHITZ_DELTAS:
            shifted = solve_equilibrium(p + delta, w, grid, tol=1e-9,
                                        raise_on_failure=True).density
            ratios[p].append(log_energy_distance(base, shifted) / delta)
    bound = {p: LIPSCHITZ_GROWTH * r[0] + LIPSCHITZ_SLACK for p, r in ratios.items()}
    return {"ratios": ratios, "bound": bound,
            "pass": all(max(r) <= bound[p] for p, r in ratios.items())}


def fc_convexity_check(w: Potential = Potential.zero(), grid: Grid | None = None,
                       tol: float = 1e-8) -> dict:
    """Discrete convexity of the Coulomb free energy P -> F_C on CONVEXITY_PRESSURES.

    F_C is the log-partition limit, i.e. minus the functional minimum; its
    convexity in P is the finite-N variance inequality surviving the limit.
    """
    if grid is None:
        grid = Grid(domain_auto(max(CONVEXITY_PRESSURES), w), 2000)
    f_c = np.array([
        -solve_equilibrium(p, w, grid, tol=tol, raise_on_failure=True).free_energy
        for p in CONVEXITY_PRESSURES
    ])
    second = f_c[2:] - 2.0 * f_c[1:-1] + f_c[:-2]
    return {
        "p_grid": list(CONVEXITY_PRESSURES),
        "free_energies": f_c.tolist(),
        "second_differences": second.tolist(),
        "min_second_difference": float(np.min(second)),
        "bound": CONVEXITY_FLOOR,
        "pass": bool(np.min(second) >= CONVEXITY_FLOOR),
    }
