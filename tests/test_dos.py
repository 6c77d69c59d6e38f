import math

import numpy as np
import pytest

from todagibbs import dos
from todagibbs import (Grid, McmcReport, PeriodicJacobiMatrix, Potential, VarianceProfile,
                       beta_mixture_check, d_lipschitz_sweep,
                       domain_auto, dos_from_equilibrium, fc_convexity_check,
                       free_energy_relation_check, mixture_over_profile,
                       nu_density_relation_check, solve_equilibrium)

W0 = Potential.zero()


def std_grid(p_max, m=1200):
    return Grid(domain_auto(p_max, W0), m)


# -- pressure differencing ----------------------------------------------------

def test_dos_mass_is_one():
    res = dos_from_equilibrium(1.0, W0, std_grid(1.1))
    assert res.nu.mass() == pytest.approx(1.0, abs=1e-12)
    assert res.negativity <= 1e-10


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_dos_second_moment(p):
    res = dos_from_equilibrium(p, W0, std_grid(p + 0.1, m=2000))
    assert res.nu.moment(2) == pytest.approx(1.0 + 2.0 * p, abs=2e-3)


def test_dos_even_symmetry():
    nu = dos_from_equilibrium(1.0, W0, std_grid(1.1)).nu.values
    assert np.max(np.abs(nu - nu[::-1])) <= 1e-9


def test_dos_step_validation():
    grid = std_grid(1.1, m=400)
    with pytest.raises(ValueError):
        dos_from_equilibrium(1.0, W0, grid, h_p=0.6)
    with pytest.raises(ValueError):
        dos_from_equilibrium(1.0, W0, grid, h_p=0.0)
    with pytest.raises(ValueError):
        dos_from_equilibrium(0.0, W0, grid)


def test_dos_step_refinement_second_order():
    grid = std_grid(1.3)
    nus = [dos_from_equilibrium(1.0, W0, grid, h_p=hp, tol=1e-11).nu.values
           for hp in (0.2, 0.1, 0.05)]
    d1 = np.max(np.abs(nus[1] - nus[0]))
    d2 = np.max(np.abs(nus[2] - nus[1]))
    assert d2 <= d1 / 2.5


# -- profile mixtures -----------------------------------------------------------

def test_constant_profile_equals_single_pressure():
    grid = std_grid(1.1)
    mix = mixture_over_profile(VarianceProfile.constant(1.0), W0, grid, 9)
    single = dos_from_equilibrium(1.0, W0, grid).nu
    assert np.max(np.abs(mix.values - single.values)) <= 1e-8


def test_linear_profile_second_moment():
    grid = std_grid(2.2, m=1600)
    mix = mixture_over_profile(VarianceProfile((1.0, 2.0)), W0, grid, 11)
    assert mix.moment(2) == pytest.approx(4.0, abs=5e-3)


def test_profile_node_doubling_converged():
    grid = std_grid(1.6, m=800)
    prof = VarianceProfile((0.8, 1.5))
    a = mixture_over_profile(prof, W0, grid, 8)
    b = mixture_over_profile(prof, W0, grid, 16)
    assert np.max(np.abs(a.values - b.values)) <= 1e-6


def test_mixture_node_count_validation():
    with pytest.raises(ValueError):
        mixture_over_profile(VarianceProfile.constant(1.0), W0, std_grid(1.1, 400), 4)


# -- mixture identity --------------------------------------------------------------

def test_beta_mixture_identity_quadratic_case():
    rep = beta_mixture_check(1.0, W0, std_grid(1.1), n_nodes=21)
    assert rep["sup_cdf_gap"] <= 1e-2
    # closed form: int_0^1 (1 + 2 s P) ds = 1 + P matches the second moment
    assert rep["second_moment_mixture"] == pytest.approx(1.0 + 1.0, abs=5e-3)
    assert rep["second_moment_mu"] == pytest.approx(1.0 + 1.0, abs=5e-3)


def test_small_pressure_limit_is_gibbs_density():
    grid = std_grid(1.0)
    nu = dos_from_equilibrium(1e-3, W0, grid).nu
    gauss = np.exp(-grid.x ** 2 / 2.0)
    gauss /= gauss.sum() * grid.h
    assert np.max(np.abs(nu.values - gauss)) <= 1e-2 * np.max(gauss)


# -- free-energy derivative ----------------------------------------------------------

def test_free_energy_check_zero_potential_is_exact():
    rep = free_energy_relation_check(1.0, W0, n=50, mc_sweeps=10, seed=1)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0 and rep["stderr"] == 0.0


def test_free_energy_node_doubling_within_stderr():
    # small tilt keeps the quadrature bias far below the Monte Carlo noise
    v = Potential.polynomial([0, 0, 0, 0, 0.02])
    common = dict(n=40, mc_sweeps=200, seed=5, replicas=3, thin=4)
    a = free_energy_relation_check(1.0, v, n_alpha=8, **common)
    b = free_energy_relation_check(1.0, v, n_alpha=16, **common)
    assert abs(a["lhs"] - b["lhs"]) <= math.hypot(a["stderr"], b["stderr"]) * 1.5


def test_free_energy_alpha_quadrature_exact_for_polynomials(monkeypatch):
    # a steep degree-12 integrand: 8 Gauss-Legendre nodes integrate it exactly,
    # an 8-node trapezoid misses by about 0.06
    def integrand(alpha):
        return 3.0 * (1.0 - alpha) ** 12 + alpha

    def chains(streams, n, p, potentials, sweeps, thin):
        # the chain under alpha V yields a diagonal matrix with (1/N) Tr V = integrand(alpha)
        reports = []
        for tilted in potentials:
            x = (integrand(tilted.coeffs[4] / 0.1) / 0.1) ** 0.25
            sample = PeriodicJacobiMatrix(np.full(n, x), np.zeros(n))
            reports.append(McmcReport([sample] * 100, {"diag": 0.25, "offdiag": 0.75},
                                      1.0, 100.0, sweeps))
        return reports

    monkeypatch.setattr(dos, "_mcmc_chains", chains)
    v = Potential.polynomial([0, 0, 0, 0, 0.1])
    rep = free_energy_relation_check(1.0, v, n=10, mc_sweeps=10)
    assert rep["stderr"] == 0.0
    assert abs(rep["lhs"] + (3.0 / 13.0 + 0.5)) <= 1e-12
    assert rep["node_ess"] == [400.0] * 8
    assert rep["node_acceptance"] == [{"diag": 0.25, "offdiag": 0.75}] * 8


def test_free_energy_check_small_pressure_default_step():
    # the default finite-difference step shrinks with P, so P - step stays positive
    v = Potential.polynomial([0, 0, 0, 0, 0.02])
    rep = free_energy_relation_check(0.005, v, n=20, mc_sweeps=10, seed=3, replicas=2)
    assert np.isfinite(rep["rhs"]) and np.isfinite(rep["lhs"])


def test_free_energy_check_validation():
    with pytest.raises(ValueError):
        free_energy_relation_check(1.0, W0, n=50, mc_sweeps=10, n_alpha=4)
    with pytest.raises(ValueError):
        free_energy_relation_check(1.0, W0, n=50, mc_sweeps=10, replicas=1)


# -- density representation of nu ------------------------------------------------------

def test_nu_density_relation():
    grid = std_grid(1.1, m=2000)
    rep = nu_density_relation_check(1.0, W0, grid)
    assert abs(rep["normalization"] - 1.0) <= 1e-3
    assert rep["sup_residual"] <= 5e-3
    assert rep["min_density_factor"] >= -1e-6


# -- regularity in the pressure ----------------------------------------------------------

def test_d_lipschitz_ratios_bounded():
    ratios = d_lipschitz_sweep(grid=Grid(domain_auto(2.2, W0), 1000))["ratios"]
    for p, r in ratios.items():
        assert max(r) <= 1.5 * r[0] + 1e-9
        assert all(np.isfinite(r))


def test_fc_convexity():
    rep = fc_convexity_check(grid=Grid(domain_auto(2.5, W0), 1000))
    assert rep["min_second_difference"] >= -1e-6
