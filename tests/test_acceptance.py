"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Everything is seeded; tolerances are fixed here and not
adjusted at runtime.
"""

import math

import numpy as np
import pytest

from todagibbs import (EmpiricalSpectralMeasure, Grid, Potential,
                       SeededStream, VarianceProfile, beta_mixture_check,
                       bl_bv_distance, build_log_kernel, d_lipschitz_sweep,
                       domain_auto, dos_from_equilibrium, eigenvalues,
                       fc_convexity_check, free_energy_relation_check,
                       ks_distance, log_energy_distance, mcmc_toda,
                       mixture_over_profile, sample_beta_matrix,
                       sample_toda_matrix, sample_profile_matrix,
                       solve_equilibrium, trace_power)
from todagibbs.equilibrium import GridDensity
from todagibbs.matrices import spectra

from _oracles import (bathtub_lp, beta_two_point_trace_moment, central_difference_nu,
                      fourier_log_energy, with_entry)

W0 = Potential.zero()
V_QUARTIC = Potential.polynomial([0, 0, 0, 0, 1.0])
V_SMALL_QUARTIC = Potential.polynomial([0, 0, 0, 0, 0.1])


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def quadratic_p1():
    grid = Grid(domain_auto(1.0, W0), 2000)
    mu = solve_equilibrium(1.0, W0, grid, raise_on_failure=True)
    nu = dos_from_equilibrium(1.0, W0, grid)
    return grid, mu, nu


def test_criterion_1_toda_convergence(quadratic_p1):
    grid, mu, nu = quadratic_p1
    measures = spectra(sample_toda_matrix(SeededStream(2024, i), 2000, 1.0) for i in range(50))
    aggregate = EmpiricalSpectralMeasure(np.concatenate([m.values for m in measures]))
    d = bl_bv_distance(aggregate, nu)
    ks = ks_distance(aggregate, nu)
    report(1, d <= 0.02 and ks <= 0.02,
           f"50 x N=2000 Toda spectra vs dP(P mu_P): d={d:.5f} (<=0.02), "
           f"KS={ks:.5f} (<=0.02)")


def test_criterion_2_exact_moments():
    lines = []
    ok = True
    for p in (0.5, 1.0, 2.0):
        t2 = np.array([trace_power(sample_toda_matrix(SeededStream(8100, i), 1000, p), 2)
                       for i in range(30)])
        se = t2.std(ddof=1) / math.sqrt(t2.size)
        ok &= abs(t2.mean() - (1 + 2 * p)) <= 3 * se
        lines.append(f"P={p}: tr2={t2.mean():.4f} (1+2P={1 + 2 * p}, 3se={3 * se:.4f})")
        grid = Grid(domain_auto(p, W0), 2000)
        m2_mu = solve_equilibrium(p, W0, grid, raise_on_failure=True).density.moment(2)
        m2_nu = dos_from_equilibrium(p, W0, grid).moment(2)
        ok &= abs(m2_mu - (1 + p)) <= 1e-3
        ok &= abs(m2_nu - (1 + 2 * p)) <= 2e-3
        lines.append(f"P={p}: m2(mu)={m2_mu:.6f} (1+P +-1e-3), "
                     f"m2(nu)={m2_nu:.6f} (1+2P +-2e-3)")
    report(2, ok, "; ".join(lines))


def test_criterion_3_dumitriu_edelman_bridge(quadratic_p1):
    grid, mu, _ = quadratic_p1
    measures = spectra(sample_beta_matrix(SeededStream(8200, i), 2000, 1.0) for i in range(20))
    aggregate = EmpiricalSpectralMeasure(np.concatenate([m.values for m in measures]))
    d = bl_bv_distance(aggregate, mu.density)
    tr = np.array([2.0 * trace_power(sample_beta_matrix(SeededStream(8300, i), 2, 1.0), 2)
                   for i in range(30000)])
    se = tr.std(ddof=1) / math.sqrt(tr.size)
    oracle = beta_two_point_trace_moment(beta=2.0 * 1.0 / 2.0)
    ok = d <= 0.02 and abs(tr.mean() - oracle) <= 3 * se
    report(3, ok,
           f"beta spectra vs mu_1: d={d:.5f} (<=0.02); N=2 Tr M^2: "
           f"mc={tr.mean():.4f} vs quadrature={oracle:.4f} (3se={3 * se:.4f})")


def test_criterion_4_beta_mixture_identity():
    lines = []
    ok = True
    for v, label in ((W0, "V=0"), (V_SMALL_QUARTIC, "V=0.1x^4")):
        grid = Grid(domain_auto(1.0, v), 2000)
        rep = beta_mixture_check(1.0, v, grid, n_nodes=21)
        ok &= rep["sup_cdf_gap"] <= 1e-2
        lines.append(f"{label}: sup CDF gap={rep['sup_cdf_gap']:.2e} (<=1e-2)")
    report(4, ok, "; ".join(lines))


def test_criterion_5_euler_lagrange_residual():
    lines = []
    ok = True
    for p, v in ((0.5, W0), (1.0, W0), (2.0, W0), (1.0, V_SMALL_QUARTIC)):
        grid = Grid(domain_auto(p, v), 2000)
        kernel = build_log_kernel(grid)
        sol = solve_equilibrium(p, v, grid, tol=1e-8, raise_on_failure=True)
        gap = abs(sol.lam - (sol.free_energy
                             - p * kernel.quadratic_form(sol.density.values)))
        ok &= sol.converged and sol.residual <= 1e-8 and gap <= 1e-7
        lines.append(f"(P={p},{'V=0' if v.is_zero else 'quartic'}): "
                     f"residual={sol.residual:.1e}, lambda gap={gap:.1e}")
    report(5, ok, "; ".join(lines))


def test_criterion_6_general_potential_mcmc():
    chain = mcmc_toda(SeededStream(99, 0), 200, 1.0, V_QUARTIC, sweeps=5000, thin=10)
    aggregate = EmpiricalSpectralMeasure(
        np.concatenate([m.values for m in spectra(chain.samples)]))
    grid = Grid(domain_auto(1.1, V_QUARTIC), 2000)
    nu = dos_from_equilibrium(1.0, V_QUARTIC, grid)
    d = bl_bv_distance(aggregate, nu)
    ok = chain.ess >= 200 and d <= 0.05
    report(6, ok,
           f"MCMC N=200 V=x^4: ESS={chain.ess:.0f} (>=200), "
           f"spectra vs nu: d={d:.5f} (<=0.05), acc={chain.acceptance}")


def test_criterion_7_variance_profile():
    profile = VarianceProfile((1.0, 2.0))
    matrices = [sample_profile_matrix(SeededStream(8400, i), 2000, profile) for i in range(50)]
    aggregate = EmpiricalSpectralMeasure(np.concatenate([m.values for m in spectra(matrices)]))
    t2 = np.array([trace_power(m, 2) for m in matrices])
    se = t2.std(ddof=1) / math.sqrt(t2.size)
    grid = Grid(domain_auto(2.1, W0), 2000)
    mix = mixture_over_profile(profile, W0, grid, n_nodes=15)
    d = bl_bv_distance(aggregate, mix)
    ok = d <= 0.03 and abs(t2.mean() - 4.0) <= 3 * se
    report(7, ok,
           f"sigma=1+x: spectra vs mixture d={d:.5f} (<=0.03); "
           f"tr2={t2.mean():.4f} (4 +- {3 * se:.4f})")


def test_criterion_8_free_energy_derivative():
    zero = free_energy_relation_check(1.0, W0, n=200, mc_sweeps=10, seed=1)
    rep = free_energy_relation_check(1.0, V_SMALL_QUARTIC, n=200, mc_sweeps=300,
                                     seed=31, n_alpha=16, replicas=4)
    tol = max(3.0 * rep["stderr"], 0.02)
    ok = (zero["lhs"] == 0.0 and zero["rhs"] == 0.0
          and rep["gap"] <= tol and rep["reliable"])
    report(8, ok,
           f"V=0 exact: lhs=rhs=0; V=0.1x^4: lhs={rep['lhs']:.5f} "
           f"rhs={rep['rhs']:.5f} gap={rep['gap']:.5f} (<= {tol:.3f}), "
           f"min ESS={rep['min_ess']:.0f}")


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(0)
    lp_worst = 0.0
    for _ in range(100):
        n1, n2 = rng.integers(2, 12, size=2)
        e1 = EmpiricalSpectralMeasure(rng.standard_normal(n1) * rng.uniform(0.3, 2.0))
        e2 = EmpiricalSpectralMeasure(rng.standard_normal(n2) * rng.uniform(0.3, 2.0))
        lp_worst = max(lp_worst, abs(bl_bv_distance(e1, e2) - bathtub_lp(e1, e2)))

    grid = Grid(8.0, 1600)
    fourier_worst = 0.0
    for mean, sd in ((0.4, 1.0), (-0.3, 1.3), (0.8, 0.7)):
        a = GridDensity.from_unnormalized(grid, np.exp(-(grid.x - mean) ** 2 / (2 * sd * sd)))
        b = GridDensity.from_unnormalized(grid, np.exp(-(grid.x + 0.2) ** 2 / 2.0))
        gap = abs(log_energy_distance(a, b) - fourier_log_energy(a, b))
        fourier_worst = max(fourier_worst, gap)

    rank_ok = True
    for trial in range(100):
        trng = np.random.default_rng(1000 + trial)
        n = int(trng.integers(12, 48))
        m = sample_toda_matrix(SeededStream(8500, trial), n, 1.0)
        k = int(trng.integers(1, 4))
        changed = m
        for _ in range(k):
            kind = "diag" if trng.random() < 0.5 else "offdiag"
            site = int(trng.integers(0, n))
            changed = with_entry(changed, site, kind, float(trng.standard_normal() ** 2 + 0.1))
        d = bl_bv_distance(eigenvalues(m), eigenvalues(changed))
        rank_ok &= d <= 2.0 * k / n + 1e-8

    ok = lp_worst <= 1e-9 and fourier_worst <= 1e-4 and rank_ok
    report(9, ok,
           f"bathtub vs LP worst gap={lp_worst:.2e} (<=1e-9); "
           f"kernel vs Fourier worst gap={fourier_worst:.2e} (<=1e-4); "
           f"rank inequality 100 trials: {'ok' if rank_ok else 'violated'}")


def test_criterion_10_regularity_sweeps():
    ratios = d_lipschitz_sweep(grid=Grid(domain_auto(2.2, W0), 1500))["ratios"]
    ratio_ok = all(max(r) <= 1.5 * r[0] + 1e-9 for r in ratios.values())

    convexity = fc_convexity_check(grid=Grid(domain_auto(2.5, W0), 1500))
    convex_ok = convexity["min_second_difference"] >= -1e-6

    base = Grid(domain_auto(1.0, W0), 500)
    m2 = []
    grid = base
    for _ in range(3):
        m2.append(solve_equilibrium(1.0, W0, grid, tol=1e-10,
                                    raise_on_failure=True).density.moment(2))
        grid = Grid(grid.half_width, 2 * grid.m)
    solver_d1, solver_d2 = abs(m2[1] - m2[0]), abs(m2[2] - m2[1])
    solver_ok = solver_d2 <= solver_d1 / 2.5 + 1e-13

    # the central difference of P mu_P approaches the implicit nu_P at O(h^2)
    fd_grid = Grid(domain_auto(1.3, W0), 1200)
    implicit = dos_from_equilibrium(1.0, W0, fd_grid, tol=1e-11).values
    fd_d0, fd_d1, fd_d2 = (
        np.max(np.abs(central_difference_nu(1.0, W0, fd_grid, hp, 1e-11) - implicit))
        for hp in (0.2, 0.1, 0.05))
    fd_ok = fd_d1 <= fd_d0 / 2.5 and fd_d2 <= fd_d1 / 2.5

    ok = ratio_ok and convex_ok and solver_ok and fd_ok
    report(10, ok,
           f"D ratios bounded: {ratio_ok}; min second diff of F_C="
           f"{convexity['min_second_difference']:.2e} (>=-1e-6); solver refinement "
           f"{solver_d1:.2e}->{solver_d2:.2e}; dP difference to the implicit nu "
           f"{fd_d0:.2e}->{fd_d1:.2e}->{fd_d2:.2e}")
