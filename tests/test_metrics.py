import ast
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from todagibbs import (EmpiricalSpectralMeasure, Grid, GridDensity,
                       SeededStream, bl_bv_distance, ks_distance,
                       log_energy_distance, smooth_empirical)
from todagibbs.metrics import KDE_MAX_TERMS

from _oracles import atomic_cdf_gap, bathtub_lp, direct_gaussian_kde, fourier_log_energy


def gaussian_density(grid, mean, sd):
    return GridDensity.from_unnormalized(grid, np.exp(-(grid.x - mean) ** 2 / (2 * sd * sd)))


# -- dual BV/Lipschitz distance ----------------------------------------------

def test_distance_to_self_is_zero():
    es = EmpiricalSpectralMeasure([0.0, 1.0, 2.5])
    assert bl_bv_distance(es, es) == 0.0
    g = Grid(4.0, 64)
    rho = gaussian_density(g, 0.0, 1.0)
    assert bl_bv_distance(rho, rho) == 0.0


@pytest.mark.parametrize("t", [0.25, 0.9, 1.0, 1.7, 5.0])
def test_two_atoms_closed_form(t):
    d = bl_bv_distance(EmpiricalSpectralMeasure([0.0]), EmpiricalSpectralMeasure([t]))
    assert d == pytest.approx(min(t, 1.0), abs=1e-14)


def test_matches_linear_program_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n1, n2 = rng.integers(2, 12, size=2)
        e1 = EmpiricalSpectralMeasure(rng.standard_normal(n1) * rng.uniform(0.3, 2.0))
        e2 = EmpiricalSpectralMeasure(rng.standard_normal(n2) * rng.uniform(0.3, 2.0))
        worst = max(worst, abs(bl_bv_distance(e1, e2) - bathtub_lp(e1, e2)))
    assert worst <= 1e-9


def test_oracles_import_nothing_from_the_library():
    path = os.path.join(os.path.dirname(__file__), "_oracles.py")
    tree = ast.parse(open(path).read())
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert not [name for name in modules if name.split(".")[0] == "todagibbs"]


def test_bounded_by_sup_and_l1_of_cdf_gap():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e1 = EmpiricalSpectralMeasure(rng.standard_normal(6))
        e2 = EmpiricalSpectralMeasure(rng.standard_normal(9) + rng.uniform(-1, 1))
        d = bl_bv_distance(e1, e2)
        ks = ks_distance(e1, e2)
        pts, df = atomic_cdf_gap(e1.values, e2.values)
        l1 = float(np.sum(np.abs(df) * np.diff(pts)))
        assert d <= min(ks, l1) + 1e-12
        assert d <= 2.0


def test_rejects_non_measures():
    with pytest.raises(TypeError):
        bl_bv_distance([1, 2, 3], EmpiricalSpectralMeasure([0.0]))


atoms = st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                 min_size=1, max_size=8)


@given(atoms, atoms)
@settings(max_examples=40)
def test_symmetry(a, b):
    e1, e2 = EmpiricalSpectralMeasure(a), EmpiricalSpectralMeasure(b)
    assert bl_bv_distance(e1, e2) == pytest.approx(bl_bv_distance(e2, e1), abs=1e-12)
    assert ks_distance(e1, e2) == pytest.approx(ks_distance(e2, e1), abs=1e-12)


@given(atoms, atoms, atoms)
@settings(max_examples=40)
def test_triangle_inequality(a, b, c):
    e1, e2, e3 = (EmpiricalSpectralMeasure(v) for v in (a, b, c))
    assert bl_bv_distance(e1, e3) <= \
        bl_bv_distance(e1, e2) + bl_bv_distance(e2, e3) + 1e-10
    assert ks_distance(e1, e3) <= ks_distance(e1, e2) + ks_distance(e2, e3) + 1e-10


# -- log-energy distance ---------------------------------------------------------

def test_log_energy_zero_on_equal_inputs():
    g = Grid(6.0, 200)
    rho = gaussian_density(g, 0.2, 0.8)
    assert log_energy_distance(rho, rho) == 0.0


def test_log_energy_positive_on_distinct_smooth_densities():
    g = Grid(6.0, 400)
    a = gaussian_density(g, 0.0, 1.0)
    b = gaussian_density(g, 0.4, 1.1)
    assert log_energy_distance(a, b) > 1e-12


def test_log_energy_matches_fourier_oracle():
    g = Grid(8.0, 1600)
    pairs = [
        (gaussian_density(g, 0.4, 1.0), gaussian_density(g, -0.3, 1.3)),
        (gaussian_density(g, 0.0, 0.7),
         GridDensity.from_unnormalized(g, np.exp(-np.abs(g.x) / 0.9))),
    ]
    for a, b in pairs:
        dk = log_energy_distance(a, b)
        df = fourier_log_energy(a, b)
        assert abs(dk - df) <= 1e-4


def test_log_energy_quadratic_homogeneity():
    g = Grid(6.0, 300)
    base = gaussian_density(g, 0.0, 1.0)
    bump = gaussian_density(g, 0.5, 0.6)
    delta = 0.2 * (bump.values - base.values)  # zero mass
    d1 = log_energy_distance(GridDensity(g, base.values + delta), base)
    for c in (0.5, 2.0):
        dc = log_energy_distance(GridDensity(g, base.values + c * delta), base)
        assert dc == pytest.approx(abs(c) * d1, rel=1e-10)


def test_log_energy_grid_mismatch_rejected():
    g1, g2 = Grid(6.0, 200), Grid(6.0, 240)
    with pytest.raises(ValueError):
        log_energy_distance(gaussian_density(g1, 0, 1), gaussian_density(g2, 0, 1))


def test_half_norm_pairing_inequality():
    # |int f dDelta| <= 2 ||f||_{1/2} D for f = arctan; the half norm follows
    # from the closed-form transform of 1/(1+x^2), truncated at t_min
    g = Grid(8.0, 1200)
    a = gaussian_density(g, 0.3, 1.0)
    b = gaussian_density(g, -0.2, 1.2)
    lhs = abs(float(np.sum(np.arctan(g.x) * (a.values - b.values)) * g.h))
    d = log_energy_distance(a, b)
    t_min = 1e-4
    half_norm_sq = 0.25 * exp1(2.0 * t_min)
    assert lhs <= 2.0 * math.sqrt(half_norm_sq) * d


def test_refinement_stability_of_distances():
    coarse = Grid(8.0, 800)
    fine = Grid(coarse.half_width, 2 * coarse.m)
    vals = {}
    for g in (coarse, fine):
        a = gaussian_density(g, 0.4, 1.0)
        b = gaussian_density(g, -0.3, 1.3)
        vals[g.m] = (bl_bv_distance(a, b), log_energy_distance(a, b))
    assert abs(vals[800][0] - vals[1600][0]) <= 1e-3
    assert abs(vals[800][1] - vals[1600][1]) <= 1e-3


# -- smoothing and KS -------------------------------------------------------------

def test_smooth_single_atom_is_truncated_normal():
    g = Grid(5.0, 500)
    es = EmpiricalSpectralMeasure([0.0])
    bw = 0.3
    rho = smooth_empirical(es, g, bandwidth=bw)
    target = GridDensity.from_unnormalized(g, np.exp(-g.x ** 2 / (2 * bw * bw)))
    assert np.allclose(rho.values, target.values, atol=1e-12)
    assert rho.mass() == pytest.approx(1.0, abs=1e-10)


def test_smooth_requires_grid_coverage():
    g = Grid(1.0, 64)
    with pytest.raises(ValueError):
        smooth_empirical(EmpiricalSpectralMeasure([0.0, 3.0]), g)


@pytest.mark.parametrize("bandwidth", [1e-200, 1e-30, 0.0])
def test_smooth_rejects_bandwidth_below_half_grid_step(bandwidth):
    g = Grid(1.0, 64)
    with pytest.raises(ValueError, match="half the grid step"):
        smooth_empirical(EmpiricalSpectralMeasure([0.0123]), g, bandwidth=bandwidth)


def test_smooth_default_bandwidth_floored_at_half_grid_step():
    g = Grid(1.0, 64)
    rho = smooth_empirical(EmpiricalSpectralMeasure([0.0123, 0.0123]), g)
    width = 0.5 * g.h
    target = GridDensity.from_unnormalized(g, np.exp(-(g.x - 0.0123) ** 2 / (2 * width ** 2)))
    assert np.allclose(rho.values, target.values, atol=1e-12)


@pytest.mark.parametrize("bandwidth", ["h/2", "h", "default", "half_width"])
@pytest.mark.parametrize("count", [1, 1001])
@pytest.mark.parametrize("m", [400, 16000])
def test_smooth_matches_untruncated_direct_sum(bandwidth, count, m):
    # the library sums each block of sorted eigenvalues over the grid points
    # within a few bandwidths; the oracle sums every term at every point.
    # On 16000 points a block holds fewer than KDE_CHUNK eigenvalues.
    g = Grid(4.0, m)
    lo, hi = g.x[0] - g.h / 2, g.x[-1] + g.h / 2
    if count == 1:
        vals = np.array([0.0123])
    else:  # 1001 is not a multiple of the block size; four lie in the outer half cells
        draws = np.random.default_rng(8).standard_normal(count - 4)
        vals = np.concatenate((np.clip(draws, -3.5, 3.5),
                               [lo, lo + g.h / 4, hi - g.h / 8, hi]))
    es = EmpiricalSpectralMeasure(vals)
    width = {"h/2": g.h / 2, "h": g.h, "half_width": g.half_width,
             "default": max(np.std(es.values) * count ** -0.2, g.h / 2)}[bandwidth]
    rho = smooth_empirical(es, g, bandwidth=None if bandwidth == "default" else width)
    want = direct_gaussian_kde(es.values, g.x, g.h, width)
    assert np.max(np.abs(rho.values - want)) <= 1e-13 * np.max(want)


def test_smooth_memory_is_bounded_on_a_fine_grid():
    # a bandwidth as wide as the grid puts every point in every block's window;
    # the blocks shrink so that one table of terms stays near KDE_MAX_TERMS
    g = Grid(4.0, 50_000)
    es = EmpiricalSpectralMeasure(np.random.default_rng(2).standard_normal(300))
    tracemalloc.start()
    try:
        smooth_empirical(es, g, bandwidth=g.half_width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * KDE_MAX_TERMS * 8


def test_smoothing_bias_shrinks_with_bandwidth():
    draws = np.sqrt(SeededStream(21, 0).generator().gamma(2.0, 2.0, size=2000))
    es = EmpiricalSpectralMeasure(draws)
    g = Grid(8.0, 2000)
    gaps = [ks_distance(smooth_empirical(es, g, bandwidth=bw), es)
            for bw in (0.4, 0.2, 0.1)]
    assert gaps[1] <= 0.75 * gaps[0]
    assert gaps[2] <= 0.75 * gaps[1]


def test_ks_basic_values():
    assert ks_distance(EmpiricalSpectralMeasure([0.0]), EmpiricalSpectralMeasure([0.0])) == 0.0
    assert ks_distance(EmpiricalSpectralMeasure([0.0]), EmpiricalSpectralMeasure([1.0])) == 1.0


def test_ks_uniform_sample_close_to_uniform_density():
    g = Grid(0.5, 100)  # uniform density on [-1/2, 1/2]
    uniform = GridDensity(g, np.ones(100))
    rng = np.random.default_rng(3)
    sample = EmpiricalSpectralMeasure(rng.uniform(-0.5, 0.5, 10 ** 4))
    assert ks_distance(uniform, sample) <= 0.03
