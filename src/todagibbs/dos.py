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
minimized by the equilibrium solver.  Its pressure derivative needs no
differencing: d/dP ( P inf F ) is the solver's Euler-Lagrange multiplier
lambda, so  d/dP ( P [F_C(V) - F_C(0)] ) = lambda_0 - lambda_V  at P itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import Grid, GridDensity, build_log_kernel, domain_auto, solve_equilibrium
from .metrics import ks_distance, log_energy_distance
from .potentials import Potential
from .sampling import SeededStream, _mcmc_chains, integrated_autocorr_time


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
    if not 0 < p < np.inf:
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


def free_energy_relation_check(p: float, w: Potential, n: int, mc_sweeps: int,
                               seed: int = 0, n_alpha: int = 8, replicas: int = 4,
                               tol: float = 1e-8) -> dict:
    """Thermodynamic integration against the pressure-derivative identity, for any V.

    lhs: (1/N) log E[exp(-Tr V)] under the V = 0 ensemble, via
         -int_0^1 E_alpha[(1/N) Tr V] d(alpha) with E_alpha sampled by
         ``replicas`` MCMC chains that run V at tilt alpha (Gauss-Legendre
         in s with alpha = s^2, as E_alpha is not analytic at alpha = 0, stderr
         from replica spread); a chain's mean and ESS (node_ess, min_ess) read
         its running (1/N) Tr V at every post-burn sweep.
    rhs: d/dP ( P * [F_C(V, P) - F_C(0, P)] ) = lambda_0(P) - lambda_V(P),
         the difference of the two solves' multipliers at P.  With F the
         functional minimum and E the log-energy of mu_P, the envelope
         theorem gives dF/dP = -E(mu_P), so d/dP (P F) = F - P E, which is
         the multiplier lambda (integrate the Euler-Lagrange equation
         against mu_P).

    For V = 0 both sides vanish, so no chain and no solve runs (the inputs
    are still validated) and min_ess is None.
    """
    if n_alpha < 8:
        raise ValueError("need at least 8 integration nodes")
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a spread-based stderr")

    s_nodes, s_weights = gauss_legendre_unit(n_alpha)
    alphas, weights = s_nodes ** 2, 2.0 * s_nodes * s_weights
    if w.is_zero:
        alphas, weights = alphas[:0], weights[:0]
    # chain k * replicas + r runs V at tilt alphas[k] on stream k * replicas + r;
    # all chains advance together as one batched state, and with no node (V = 0)
    # the runner still validates p, n and mc_sweeps
    # thin = mc_sweeps keeps one sample per chain: the check reads only trace_v_series
    reports = _mcmc_chains([SeededStream(seed, i) for i in range(alphas.size * replicas)],
                           n, p, w, np.repeat(alphas, replicas), mc_sweeps, mc_sweeps)
    rhs = 0.0
    if not w.is_zero:
        # the V and the V = 0 solves share one grid, wide enough for both measures
        zero = Potential.zero()
        grid = Grid(max(domain_auto(p, v) for v in (w, zero)), 2000)
        lam_v, lam_0 = (solve_equilibrium(p, v, grid, tol=tol, raise_on_failure=True).lam
                        for v in (w, zero))
        rhs = lam_0 - lam_v
    series = [r.trace_v_series for r in reports]
    values = np.reshape([np.mean(s) for s in series], (-1, replicas))
    ess = np.reshape([s.size / integrated_autocorr_time(s) for s in series], values.shape)
    rates = {kind: np.reshape([r.acceptance[kind] for r in reports], ess.shape).mean(axis=1)
             for kind in (reports[0].acceptance if reports else ())}
    node_means = values.mean(axis=1)
    node_se = values.std(axis=1, ddof=1) / np.sqrt(replicas)
    node_ess = [float(sum(row)) for row in ess]
    node_acceptance = [{kind: float(rate[k]) for kind, rate in rates.items()}
                       for k in range(len(alphas))]

    # the sum of negated terms is exactly minus the sum, and +0.0 when V = 0
    lhs = float(np.sum(weights * -node_means))
    stderr = float(np.sqrt(np.sum((weights * node_se) ** 2)))
    min_ess = min(node_ess, default=None)
    bound = max(FREE_ENERGY_STDERRS * stderr, FREE_ENERGY_FLOOR)

    return {
        "lhs": lhs,
        "rhs": rhs,
        "stderr": stderr,
        "gap": abs(lhs - rhs),
        "min_ess": min_ess,
        "reliable": min_ess is None or min_ess >= 50.0,
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


def d_lipschitz_sweep(grid: Grid, w: Potential = Potential.zero()) -> dict:
    """Secant ratios D(mu_P, mu_{P+delta}) / delta as delta shrinks.

    P runs over LIPSCHITZ_PRESSURES and delta over LIPSCHITZ_DELTAS; each
    solve runs to tol 1e-9.
    """
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


def fc_convexity_check(grid: Grid, w: Potential = Potential.zero(), tol: float = 1e-8) -> dict:
    """Discrete convexity of the Coulomb free energy P -> F_C on CONVEXITY_PRESSURES.

    F_C is the log-partition limit, i.e. minus the functional minimum; its
    convexity in P is the finite-N variance inequality surviving the limit.
    """
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
