import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from todagibbs import (DomainTooSmallError, Grid, GridDensity, Potential,
                       build_log_kernel, domain_auto, solve_equilibrium)

from _oracles import free_energy

W0 = Potential.zero()


# -- grid and density ------------------------------------------------------

def test_grid_midpoints_symmetric():
    g = Grid(5.0, 100)
    assert g.h == pytest.approx(0.1)
    assert np.array_equal(g.x, -g.x[::-1])
    assert g.x[0] == pytest.approx(-5.0 + g.h / 2)
    with pytest.raises(ValueError):
        Grid(5.0, 8)
    with pytest.raises(ValueError):
        Grid(-1.0, 100)


def test_density_normalization_enforced():
    g = Grid(3.0, 60)
    vals = np.ones(60) / 6.0
    rho = GridDensity(g, vals)
    assert rho.mass() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        GridDensity(g, vals * 1.01)
    with pytest.raises(ValueError):
        GridDensity(g, -vals)


def test_density_csv_round_trip(tmp_path):
    g = Grid(4.0, 64)
    rho = GridDensity.from_unnormalized(g, np.exp(-g.x ** 2))
    path = tmp_path / "rho.csv"
    path.write_text(rho.to_csv_text())
    again = GridDensity.from_csv(path)
    assert again.grid == g
    assert np.allclose(again.values, rho.values, rtol=1e-15)


# -- kernel ------------------------------------------------------------------

def test_kernel_diagonal_closed_form():
    g = Grid(6.0, 300)
    k = build_log_kernel(g)
    assert k.column[0] == pytest.approx(math.log(g.h / 2.0) - 1.0, rel=1e-14)


def test_kernel_symmetry_and_toeplitz():
    g = Grid(6.0, 128)
    k = build_log_kernel(g)
    # the matrix of the operator, one unit vector at a time: K[i, j] = column[|i - j|]
    dense = np.array([k.apply(e) for e in np.eye(g.m)]).T
    for i, j in ((3, 10), (10, 3), (50, 57)):
        assert dense[i, j] == pytest.approx(k.column[7], abs=1e-12)


def test_kernel_far_entries_match_adaptive_quadrature():
    g = Grid(6.0, 256)
    k = build_log_kernel(g)
    h = g.h
    for i, j in ((0, 40), (10, 200), (5, 6)):
        target, _ = quad(lambda y: np.log(abs(g.x[i] - y)),
                         g.x[j] - h / 2, g.x[j] + h / 2, epsabs=1e-13)
        assert k.column[abs(i - j)] == pytest.approx(target / h, abs=1e-10)
        dist = abs(g.x[i] - g.x[j])
        assert abs(k.column[abs(i - j)] - math.log(dist)) <= h * h / (24 * dist * dist) * 1.5


def test_kernel_apply_matches_dense():
    g = Grid(4.0, 96)
    k = build_log_kernel(g)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(96)
    dense = np.array([[k.column[abs(i - j)] for j in range(96)] for i in range(96)])
    assert np.allclose(k.apply(v), dense @ v, atol=1e-11)


# -- free energy ----------------------------------------------------------------

def test_free_energy_gaussian_closed_form():
    g = Grid(10.0, 4000)
    rho = GridDensity.from_unnormalized(g, np.exp(-g.x ** 2 / 2.0))
    expected = 0.5 - 0.5 * math.log(2.0 * math.pi * math.e)
    assert free_energy(rho, 0.0, W0) == pytest.approx(expected, abs=1e-6)


def test_free_energy_constant_shift():
    g = Grid(8.0, 500)
    rho = GridDensity.from_unnormalized(g, np.exp(-g.x ** 2))
    c = 0.7
    shifted = Potential.polynomial([c])
    assert free_energy(rho, 1.0, shifted) - free_energy(rho, 1.0, W0) == \
        pytest.approx(c, abs=1e-12)


def test_free_energy_convex_along_segments():
    g = Grid(8.0, 400)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = GridDensity.from_unnormalized(g, np.exp(-(g.x - rng.uniform(-1, 1)) ** 2))
        b = GridDensity.from_unnormalized(
            g, np.exp(-np.abs(g.x - rng.uniform(-1, 1)) / rng.uniform(0.5, 2)))
        mid = GridDensity(g, 0.5 * (a.values + b.values))
        fm = free_energy(mid, 1.0, W0)
        fa = free_energy(a, 1.0, W0)
        fb = free_energy(b, 1.0, W0)
        assert fm <= 0.5 * (fa + fb) + 1e-12


# -- solver -----------------------------------------------------------------------

def test_entropy_only_solution_exact():
    grid = Grid(domain_auto(0.0, W0), 2000)
    sol = solve_equilibrium(0.0, W0, grid)
    assert sol.converged
    analytic = np.exp(-grid.x ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(sol.density.values - analytic)) <= 1e-8


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_second_moment_identity(p):
    grid = Grid(domain_auto(p, W0), 2000)
    sol = solve_equilibrium(p, W0, grid)
    assert sol.converged and sol.residual <= 1e-8
    assert sol.density.moment(2) == pytest.approx(1.0 + p, abs=1e-3)


def test_even_potential_gives_even_solution():
    v = Potential.polynomial([0, 0, 0.3, 0, 0.05])
    grid = Grid(domain_auto(1.0, v), 1200)
    sol = solve_equilibrium(1.0, v, grid)
    rho = sol.density.values
    assert np.max(np.abs(rho - rho[::-1])) <= 1e-10


def test_multiplier_identity_and_fixed_point():
    grid = Grid(domain_auto(1.0, W0), 1500)
    kernel = build_log_kernel(grid)
    sol = solve_equilibrium(1.0, W0, grid, tol=1e-9)
    # lambda = free energy - P * log-energy, a direct consequence of averaging
    # the stationarity relation against the minimizer
    log_energy = kernel.quadratic_form(sol.density.values)
    assert abs(sol.lam - (sol.free_energy - 1.0 * log_energy)) <= 10 * 1e-9
    # reconstructed density matches the solution on cells above floor
    u = kernel.log_potential(sol.density.values)
    rebuilt = np.exp(sol.lam) * np.exp(-W0.confinement(grid.x) + 2.0 * u)
    mask = sol.density.values > 1e-250
    rel = np.abs(np.log(rebuilt[mask]) - np.log(sol.density.values[mask]))
    assert np.max(rel) <= 10 * 1e-9


def test_free_energy_matches_exact_partition_integral():
    # independent oracle: the V = 0 functional minimum has the closed form
    #   -log sqrt(2 pi) - (1/P) int_0^P log Gamma(s) ds - log P + 1,
    # the log-partition integral of the per-site factorized ensemble.
    for p in (0.5, 1.0, 2.0):
        grid = Grid(domain_auto(p, W0), 2500)
        sol = solve_equilibrium(p, W0, grid, tol=1e-9)
        integral, err = quad(lambda s: gammaln(s), 0.0, p, limit=200)
        assert err < 1e-10
        expected = -0.5 * math.log(2 * math.pi) - integral / p - math.log(p) + 1.0
        assert sol.free_energy == pytest.approx(expected, abs=2e-5)


def test_monotone_descent_of_free_energy():
    grid = Grid(domain_auto(2.0, W0), 800)
    # replay the iteration coarsely: free energy of successive solves with
    # decreasing tol must be nonincreasing toward the minimum
    f_loose = solve_equilibrium(2.0, W0, grid, tol=1e-4).free_energy
    f_tight = solve_equilibrium(2.0, W0, grid, tol=1e-10).free_energy
    assert f_tight <= f_loose + 1e-12


def test_whole_line_support_at_floor():
    grid = Grid(domain_auto(1.0, W0), 1000)
    sol = solve_equilibrium(1.0, W0, grid)
    assert np.all(sol.density.values > 0.0)


def test_domain_too_small_raises():
    with pytest.raises(DomainTooSmallError):
        solve_equilibrium(1.0, W0, Grid(2.0, 200))


def test_non_convergence_flagged():
    grid = Grid(domain_auto(1.0, W0), 600)
    sol = solve_equilibrium(1.0, W0, grid, max_iter=2)
    assert not sol.converged
    assert sol.residual > 1e-8


def test_grid_refinement_second_order():
    base = Grid(domain_auto(1.0, W0), 500)
    m2 = []
    grid = base
    for _ in range(3):
        m2.append(solve_equilibrium(1.0, W0, grid, tol=1e-10).density.moment(2))
        grid = Grid(grid.half_width, 2 * grid.m)
    d1, d2 = abs(m2[1] - m2[0]), abs(m2[2] - m2[1])
    assert d2 <= d1 / 2.5 + 1e-12


# -- automatic domain --------------------------------------------------------------

def test_domain_auto_values():
    l1 = domain_auto(1.0, W0)
    assert l1 <= 12.0
    # crossing of L^2/2 - 2 log(2L) = -log(1e-16), found independently
    target = -math.log(1e-16)
    f = lambda L: L * L / 2.0 - 2.0 * math.log(2.0 * L) - target
    lo, hi = 5.0, 15.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    assert l1 == pytest.approx(hi, abs=1e-3)
    l0 = domain_auto(0.0, W0)
    assert l0 <= 9.0
    assert domain_auto(2.0, W0) >= domain_auto(1.0, W0)


def test_domain_auto_covers_far_minimum():
    # W = -4.5 x^2 + 0.001 x^4 has its minimum -5062.5 at |x| = sqrt(2250),
    # beyond any fixed probe window
    v = Potential.polynomial([0, 0, -5.0, 0, 0.001])
    x_star, w_min = math.sqrt(2250.0), -5062.5
    length = domain_auto(1.0, v)
    assert length > x_star
    w_edge = float(v.confinement(np.array([length]))[0])
    assert w_edge - w_min == pytest.approx(-math.log(1e-16) + 2.0 * math.log(2.0 * length))
    # a table inside [-3, 3] with this envelope gets the same half-width
    xs = np.linspace(-3, 3, 61)
    tab = Potential.tabulated(xs, v(xs), envelope_coeffs=v.coeffs)
    assert domain_auto(1.0, tab) == length
    sol = solve_equilibrium(1.0, v, Grid(length, 2000))
    assert sol.converged
    assert sol.density.moment(2) == pytest.approx(x_star ** 2, rel=1e-3)


def test_domain_auto_keeps_a_far_shallow_well():
    # W' = 0.002 x (x^2 - 35)(x^2 - 100): the minimum W(0) = 0 and a second
    # well W(10) = 8.33 behind a barrier of 54 at |x| = 5.9, which holds
    # e^-8.33 of the mass at P = 0
    v = Potential.polynomial([0, 0, 3.0, 0, -0.0675, 0, 0.002 / 6])
    length = domain_auto(0.0, v)
    assert length > 10.0
    wide = solve_equilibrium(0.0, v, Grid(14.0, 4000)).density.moment(2)
    auto = solve_equilibrium(0.0, v, Grid(length, 2000)).density.moment(2)
    assert auto == pytest.approx(wide, rel=1e-6)
