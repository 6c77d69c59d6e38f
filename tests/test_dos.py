import math

import numpy as np
import pytest

from todagibbs import dos, sampling
from todagibbs import (Grid, McmcReport, Potential, VarianceProfile,
                       beta_mixture_check, d_lipschitz_sweep,
                       domain_auto, dos_from_equilibrium, fc_convexity_check,
                       free_energy_relation_check, mixture_over_profile,
                       nu_density_relation_check, solve_equilibrium)

from _oracles import central_difference_nu, quadratic_v_log_moment
from test_sampling import tabulated_quadratic

W0 = Potential.zero()


def std_grid(p_max, m=1200):
    return Grid(domain_auto(p_max, W0), m)


# -- the pressure derivative ----------------------------------------------------

def test_dos_mass_is_one():
    nu = dos_from_equilibrium(1.0, W0, std_grid(1.1))
    assert nu.mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_dos_second_moment(p):
    nu = dos_from_equilibrium(p, W0, std_grid(p + 0.1, m=2000))
    assert nu.moment(2) == pytest.approx(1.0 + 2.0 * p, abs=2e-3)


def test_dos_even_symmetry():
    nu = dos_from_equilibrium(1.0, W0, std_grid(1.1)).values
    assert np.max(np.abs(nu - nu[::-1])) <= 1e-9


@pytest.mark.parametrize("p, m, bound", [(100.0, 2000, 1.5e-4), (1000.0, 4000, 5e-4)])
def test_second_moments_at_large_pressure(p, m, bound):
    # V = 0: mu_P has second moment 1 + P and nu_P has 1 + 2P; the misses
    # measured -7.4e-5 and -7.6e-5 at P = 100, -2.4e-4 at P = 1000
    grid = Grid(domain_auto(p + 0.5, W0), m)
    solution = solve_equilibrium(p, W0, grid, raise_on_failure=True)
    assert abs(solution.density.moment(2) - (1.0 + p)) <= bound
    assert abs(dos._dos_at(solution).moment(2) - (1.0 + 2.0 * p)) <= bound


def test_dos_step_validation():
    with pytest.raises(ValueError):
        dos_from_equilibrium(0.0, W0, std_grid(1.1, m=400))


def test_dos_step_refinement_second_order():
    # the central difference approaches the implicit derivative at O(h^2)
    grid = std_grid(1.3)
    implicit = dos_from_equilibrium(1.0, W0, grid, tol=1e-11).values
    gaps = [np.max(np.abs(central_difference_nu(1.0, W0, grid, hp, 1e-11) - implicit))
            for hp in (0.2, 0.1, 0.05)]
    assert all(fine <= coarse / 2.5 for coarse, fine in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("w", [W0, Potential.polynomial([0, 0, 0, 0, 1.0])],
                         ids=["zero", "quartic"])
def test_dos_matches_a_small_central_difference(w):
    grid = Grid(domain_auto(1.5, w), 2000)
    implicit = dos_from_equilibrium(1.0, w, grid, tol=1e-11).values
    assert np.max(np.abs(central_difference_nu(1.0, w, grid, 1e-3, 1e-11) - implicit)) <= 1e-6


@pytest.mark.parametrize("c", [0.1, 1.0])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_dos_integrates_to_the_multiplier_difference(c, p):
    # int_0^1 (int V d nu_P for the potential alpha V) d alpha = lambda_V(P) - lambda_0(P):
    # the multipliers come from two solves, nu_P from 32 more, and no chain runs;
    # Gauss-Legendre in s with alpha = s^2, as in the free-energy check.  The
    # gaps measured 2.4e-10 to 6.4e-10; the central difference at its old
    # default step left 3-4e-8
    grid = Grid(domain_auto(p, W0), 2000)
    v = Potential.polynomial([0, 0, 0, 0, c])
    lam_v, lam_0 = (solve_equilibrium(p, u, grid, raise_on_failure=True).lam for u in (v, W0))
    s_nodes, s_weights = dos.gauss_legendre_unit(32)
    integral = sum(2.0 * s * wt * grid.h * np.dot(v(grid.x), dos_from_equilibrium(
        p, Potential.polynomial([0, 0, 0, 0, s * s * c]), grid).values)
                   for s, wt in zip(s_nodes, s_weights))
    assert abs(integral - (lam_v - lam_0)) <= 1e-8


def test_each_nu_takes_one_equilibrium_solve(monkeypatch):
    solved = []

    def recording(p, w, grid, **kwargs):
        solved.append(p)
        return solve_equilibrium(p, w, grid, **kwargs)

    monkeypatch.setattr(dos, "solve_equilibrium", recording)
    grid = std_grid(1.6, m=400)
    dos_from_equilibrium(1.0, W0, grid)
    nu_density_relation_check(1.0, W0, grid)
    mixture_over_profile(VarianceProfile((0.8, 1.5)), W0, grid, 6)
    assert solved[:2] == [1.0, 1.0] and len(solved) == 2 + 6


# -- profile mixtures -----------------------------------------------------------

def test_constant_profile_equals_single_pressure():
    grid = std_grid(1.1)
    mix = mixture_over_profile(VarianceProfile((1.0, 1.0)), W0, grid, 9)
    single = dos_from_equilibrium(1.0, W0, grid)
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
        mixture_over_profile(VarianceProfile((1.0, 1.0)), W0, std_grid(1.1, 400), 4)


# -- mixture identity --------------------------------------------------------------

def test_beta_mixture_identity_quadratic_case():
    rep = beta_mixture_check(1.0, W0, std_grid(1.1), n_nodes=21)
    assert rep["sup_cdf_gap"] <= 1e-2
    # closed form: int_0^1 (1 + 2 s P) ds = 1 + P matches the second moment
    assert rep["second_moment_mixture"] == pytest.approx(1.0 + 1.0, abs=5e-3)
    assert rep["second_moment_mu"] == pytest.approx(1.0 + 1.0, abs=5e-3)


def test_small_pressure_limit_is_gibbs_density():
    grid = std_grid(1.0)
    nu = dos_from_equilibrium(1e-3, W0, grid)
    gauss = np.exp(-grid.x ** 2 / 2.0)
    gauss /= gauss.sum() * grid.h
    assert np.max(np.abs(nu.values - gauss)) <= 1e-2 * np.max(gauss)


# -- free-energy derivative ----------------------------------------------------------

def test_free_energy_check_zero_potential_is_exact():
    rep = free_energy_relation_check(1.0, W0, n=50, mc_sweeps=10, seed=1)
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0 and rep["stderr"] == 0.0
    # no chain ran, so there is no sample size to report
    assert rep["min_ess"] is None and rep["reliable"] and rep["node_ess"] == []


def test_free_energy_rhs_is_the_pressure_derivative_to_second_order():
    # central differences of P * [F_C(V) - F_C(0)] approach the check's rhs,
    # the multiplier difference at P, with the O(h^2) truncation error
    p, v = 1.0, Potential.polynomial([0, 0, 0, 0, 1.0])
    rhs = free_energy_relation_check(p, v, n=6, mc_sweeps=10, replicas=2, tol=1e-12)["rhs"]
    grid = Grid(max(domain_auto(p, u) for u in (v, W0)), 2000)

    def scaled_shift(q):
        with_v, without = (solve_equilibrium(q, u, grid, tol=1e-12, raise_on_failure=True)
                           for u in (v, W0))
        return -q * (with_v.free_energy - without.free_energy)

    gaps = [abs((scaled_shift(p + h) - scaled_shift(p - h)) / (2.0 * h) - rhs)
            for h in (2e-2, 1e-2, 5e-3)]
    assert all(3.0 <= coarse / fine <= 5.0 for coarse, fine in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 2e-6


def test_free_energy_check_solves_twice_at_its_pressure(monkeypatch):
    solved = []

    def recording(p, w, grid, **kwargs):
        solved.append((p, w))
        return solve_equilibrium(p, w, grid, **kwargs)

    monkeypatch.setattr(dos, "solve_equilibrium", recording)
    v = Potential.polynomial([0, 0, 0, 0, 0.1])
    free_energy_relation_check(0.7, v, n=6, mc_sweeps=10, replicas=2)
    assert sorted(solved, key=lambda pw: pw[1].is_zero) == [(0.7, v), (0.7, W0)]


def test_free_energy_node_doubling_within_stderr():
    # small tilt keeps the quadrature bias far below the Monte Carlo noise
    v = Potential.polynomial([0, 0, 0, 0, 0.02])
    common = dict(n=40, mc_sweeps=200, seed=5, replicas=3)
    a = free_energy_relation_check(1.0, v, n_alpha=8, **common)
    b = free_energy_relation_check(1.0, v, n_alpha=16, **common)
    assert abs(a["lhs"] - b["lhs"]) <= math.hypot(a["stderr"], b["stderr"]) * 1.5


def test_free_energy_alpha_quadrature_exact_for_polynomials(monkeypatch):
    # a steep degree-7 integrand: with alpha = s^2 it is of degree 14 in s,
    # and times the weight's 2 s, of degree 15, which 8 Gauss-Legendre nodes
    # in s integrate exactly
    def integrand(alpha):
        return 3.0 * (1.0 - alpha) ** 7 + alpha

    def chains(streams, n, p, v, tilts, sweeps, thin):
        # the chain at tilt alpha records (1/N) Tr V = integrand(alpha) after each
        # of 100 post-burn sweeps, whatever thin it is given; the constant series
        # has tau 1, so 100 sweeps are 100 effective samples
        return [McmcReport([], {"diag": 0.25, "offdiag": 0.75}, 1.0, 0.0,
                           trace_v_series=np.full(100, integrand(alpha)))
                for alpha in tilts]

    monkeypatch.setattr(sampling, "_mcmc_chains", chains)
    v = Potential.polynomial([0, 0, 0, 0, 0.1])
    rep = free_energy_relation_check(1.0, v, n=10, mc_sweeps=10)
    assert rep["stderr"] == 0.0
    assert abs(rep["lhs"] + (3.0 / 8.0 + 0.5)) <= 1e-12
    assert rep["node_ess"] == [400.0] * 8
    assert rep["node_acceptance"] == [{"diag": 0.25, "offdiag": 0.75}] * 8


def test_free_energy_check_holds_one_sample_and_reads_every_post_burn_sweep(monkeypatch):
    # the check reads only each chain's running Tr V, so a chain keeps one
    # sample, and a node's mean averages its chains' whole post-burn series
    reports, real = [], sampling._mcmc_chains

    def recording(*args):
        reports.extend(real(*args))
        return reports

    monkeypatch.setattr(sampling, "_mcmc_chains", recording)
    rep = free_energy_relation_check(1.0, Potential.polynomial([0, 0, 0, 0, 0.1]), n=20,
                                     mc_sweeps=100, seed=2, replicas=2)
    assert len(reports) == 16 and all(len(r.samples) <= 1 for r in reports)
    series = np.reshape([r.trace_v_series for r in reports], (8, 2, 80))
    np.testing.assert_allclose(rep["node_means"], series.mean(axis=(1, 2)), rtol=1e-14)


def test_free_energy_check_quartic_v_gap_within_three_stderr():
    # at V = x^4 the integrand is steep near alpha = 0, where it is not
    # analytic; a Gauss-Legendre rule in alpha left a gap of about +0.02 at
    # every N from 12 to 200.  Three runs at seeds fixed before the first
    # run: their mean gap is within 3 of its stderr
    v = Potential.polynomial([0, 0, 0, 0, 1.0])
    reps = [free_energy_relation_check(1.0, v, n=50, mc_sweeps=500, seed=seed)
            for seed in (7, 8, 9)]
    gap = np.mean([rep["lhs"] - rep["rhs"] for rep in reps])
    stderr = math.sqrt(sum(rep["stderr"] ** 2 for rep in reps)) / len(reps)
    assert abs(gap) <= 3.0 * stderr


def test_free_energy_check_small_pressure_default_step():
    # the rhs solves at P itself, so a small P needs no step that keeps P - step positive
    v = Potential.polynomial([0, 0, 0, 0, 0.02])
    rep = free_energy_relation_check(0.005, v, n=20, mc_sweeps=10, seed=3, replicas=2)
    assert np.isfinite(rep["rhs"]) and np.isfinite(rep["lhs"])


def test_free_energy_check_validation():
    with pytest.raises(ValueError):
        free_energy_relation_check(1.0, W0, n=50, mc_sweeps=10, n_alpha=4)
    with pytest.raises(ValueError):
        free_energy_relation_check(1.0, W0, n=50, mc_sweeps=10, replicas=0)
    # one chain per node has an error bar from its own autocorrelation
    v = Potential.polynomial([0, 0, 0.1])
    rep = free_energy_relation_check(1.0, v, n=10, mc_sweeps=20, seed=3, replicas=1)
    assert all(se > 0.0 for se in rep["node_stderr"]) and rep["stderr"] > 0.0


@pytest.mark.parametrize("p, n, sweeps", [
    (math.inf, 50, 10), (math.nan, 50, 10), (-1.0, 50, 10), (1.0, 2, 10), (1.0, 50, 0),
], ids=["p_inf", "p_nan", "p_negative", "n_2", "no_sweeps"])
def test_free_energy_check_zero_potential_validates_its_inputs(p, n, sweeps):
    # V = 0 runs no chain and no solve, but its inputs are checked as for any V
    with pytest.raises(ValueError):
        free_energy_relation_check(p, W0, n=n, mc_sweeps=sweeps)


@pytest.mark.parametrize("c, p", [(0.1, 1.0), (0.5, 0.5)])
def test_free_energy_check_quadratic_v_closed_form(c, p):
    # the exact lhs at every N, and the rhs's N -> infinity limit
    exact = quadratic_v_log_moment(c, p)
    rep = free_energy_relation_check(p, Potential.polynomial([0, 0, c]), n=100,
                                     mc_sweeps=150, seed=3)
    # the rhs errs only by the 2000-point solves, measured 2.4e-7 and 8.4e-7
    assert abs(rep["rhs"] - exact) <= 1e-5
    assert abs(rep["lhs"] - exact) <= 4.0 * rep["stderr"]


@pytest.mark.parametrize("c, p", [(0.1, 1.0), (0.5, 0.5)])
def test_free_energy_check_tabulated_quadratic_v(c, p):
    # the same closed form through a tabulated V
    exact = quadratic_v_log_moment(c, p)
    rep = free_energy_relation_check(p, tabulated_quadratic(c, 0.01), n=8, mc_sweeps=60,
                                     seed=3, replicas=2)
    assert abs(rep["lhs"] - exact) <= 4.0 * rep["stderr"]
    # the solves see the interpolant on their grid, measured within 7.5e-6
    assert abs(rep["rhs"] - exact) <= 2e-5
    # the surrogate fit recovers c x^2, so a sweep's correction sees only the
    # interpolation error, at most N c h^2 / 4 = 1e-4 in Tr V: it nearly always accepts
    assert all(rates["correction"] >= 0.99 for rates in rep["node_acceptance"])


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
