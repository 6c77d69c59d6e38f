import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todagibbs import (EmpiricalSpectralMeasure, InvalidMatrixError,
                       PeriodicJacobiMatrix, Potential, bl_bv_distance,
                       eigenvalues, load_matrix, trace_potential, trace_power)
from todagibbs import matrices
from todagibbs.matrices import _folded_band, _trace_deltas, matrix_text
from todagibbs.sampling import (SeededStream, _colour_classes, sample_beta_matrix,
                                sample_toda_matrix)

from _oracles import char_poly_eigenvalues, with_entry

V4 = Potential.polynomial([0, 0, 0, 0, 1.0])


def random_matrix(rng, n, periodic=True):
    off = rng.standard_normal(n if periodic else n - 1) ** 2 + 0.1
    return PeriodicJacobiMatrix(rng.standard_normal(n), off, periodic=periodic)


# -- construction ---------------------------------------------------------

def test_shape_validation():
    with pytest.raises(InvalidMatrixError):
        PeriodicJacobiMatrix([1.0, 2.0], [1.0, 1.0], periodic=True)  # N < 3
    with pytest.raises(InvalidMatrixError):
        PeriodicJacobiMatrix([1.0, 2.0, 3.0], [1.0, 1.0], periodic=True)
    with pytest.raises(InvalidMatrixError):
        PeriodicJacobiMatrix([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], periodic=False)


def test_non_finite_entries_rejected_at_construction():
    for diag, off, periodic in (([1.0, np.nan, 0.0], [1.0, 1.0, 1.0], True),
                                ([1.0, 2.0, 0.0], [1.0, 1.0, np.inf], True),
                                ([1.0, 2.0, 0.0], [-np.inf, 1.0], False)):
        with pytest.raises(InvalidMatrixError, match="non-finite"):
            PeriodicJacobiMatrix(diag, off, periodic=periodic)


def test_spectral_measure_sorted_and_validated():
    es = EmpiricalSpectralMeasure([3.0, -1.0, 2.0])
    assert np.all(np.diff(es.values) >= 0)
    with pytest.raises(ValueError):
        EmpiricalSpectralMeasure([np.inf])
    with pytest.raises(ValueError):
        EmpiricalSpectralMeasure([])


# -- eigenvalues -----------------------------------------------------------

def test_two_by_two_closed_form():
    m = PeriodicJacobiMatrix([1.5, 1.5], [0.7], periodic=False)
    assert np.allclose(eigenvalues(m).values, [0.8, 2.2], atol=1e-14)


def test_zero_matrix():
    for periodic in (True, False):
        off = np.zeros(5 if periodic else 4)
        m = PeriodicJacobiMatrix(np.zeros(5), off, periodic=periodic)
        assert np.allclose(eigenvalues(m).values, 0.0)


def test_periodic_vs_characteristic_polynomial_oracle():
    rng = np.random.default_rng(7)
    m = random_matrix(rng, 6, periodic=True)
    ev = eigenvalues(m).values
    oracle = char_poly_eigenvalues(m)
    assert oracle.size == 6
    assert np.max(np.abs(ev - oracle)) <= 1e-10


def _assert_matches_dense(m):
    ev = eigenvalues(m).values
    dense = m.to_dense()
    bound = 1e-12 * (1.0 + np.linalg.norm(dense, 2))
    assert np.max(np.abs(ev - np.linalg.eigvalsh(dense))) <= bound


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 200])
def test_periodic_fold_matches_dense(n):
    # the folded band differs between odd and even N; N = 3 is the smallest cycle
    rng = np.random.default_rng(100 + n)
    _assert_matches_dense(random_matrix(rng, n))


@pytest.mark.parametrize("n", [3, 4, 7, 200])
def test_periodic_fold_tiny_corner_and_zero_diagonal(n):
    rng = np.random.default_rng(200 + n)
    off = rng.standard_normal(n) ** 2 + 0.1
    off[-1] = 1e-300  # chi floor in the corner: the cycle is nearly open
    _assert_matches_dense(PeriodicJacobiMatrix(rng.standard_normal(n), off))
    _assert_matches_dense(PeriodicJacobiMatrix(np.zeros(n), rng.uniform(0.1, 2.0, n)))


# the scipy solvers that the single dsbevd call replaced are the oracles
PRESSURES = [1e-3, 1.0, 50.0, 1e300]


@pytest.mark.parametrize("p", PRESSURES)
@pytest.mark.parametrize("n", [3, 4, 5, 10, 200, 2000])
def test_periodic_eigenvalues_bit_identical_to_eig_banded(n, p):
    from scipy.linalg import eig_banded
    for seed in range(3):
        m = sample_toda_matrix(SeededStream(seed), n, p)
        oracle = eig_banded(_folded_band(m), lower=True, eigvals_only=True)
        assert np.array_equal(eigenvalues(m).values, oracle)


@pytest.mark.parametrize("p", PRESSURES)
@pytest.mark.parametrize("n", [2, 3, 10, 200, 2000])
def test_tridiagonal_eigenvalues_bit_identical_to_eigh_tridiagonal(n, p):
    from scipy.linalg import eigh_tridiagonal
    for seed in range(3):
        m = sample_beta_matrix(SeededStream(seed), n, p)
        oracle = eigh_tridiagonal(m.diag, m.offdiag, eigvals_only=True)
        assert np.array_equal(eigenvalues(m).values, oracle)


@pytest.mark.parametrize("periodic", [True, False])
def test_eigenvalues_leave_the_matrix_unchanged(periodic):
    m = random_matrix(np.random.default_rng(11), 50, periodic=periodic)
    diag, off = m.diag.copy(), m.offdiag.copy()
    eigenvalues(m)
    assert np.array_equal(m.diag, diag) and np.array_equal(m.offdiag, off)


def test_lapack_failure_raises_linalg_error(monkeypatch):
    def failing(ab, **kwargs):
        return np.zeros(ab.shape[1]), np.zeros((0, 0)), 1
    monkeypatch.setattr(matrices, "_dsbevd", lambda: failing)
    with pytest.raises(np.linalg.LinAlgError, match="dsbevd"):
        eigenvalues(random_matrix(np.random.default_rng(0), 5))


def test_missing_lapack_wrapper_raises_import_error(monkeypatch, tmp_path):
    load = matrices._dsbevd.__wrapped__  # bypasses the per-process cache
    name = "scipy.linalg._flapack"
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda _: None)
    with pytest.raises(ImportError, match="dsbevd.*_flapack.*not installed"):
        load()
    # a scipy whose linalg directory holds no wrapper module
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda _: spec)
    with pytest.raises(ImportError, match=f"dsbevd.*_flapack.*{re.escape(str(tmp_path))}"):
        load()
    monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
    with pytest.raises(ImportError, match="_flapack.*has no LAPACK dsbevd"):
        load()


def test_eigenvalues_same_before_and_after_importing_scipy_linalg():
    # a fresh interpreter, so that the wrapper module is loaded by the eigensolve first
    script = textwrap.dedent("""
        import json, sys
        from todagibbs import eigenvalues, matrices
        from todagibbs.sampling import SeededStream, sample_beta_matrix, sample_toda_matrix
        ms = [sample_toda_matrix(SeededStream(1), 200, 1.0), sample_beta_matrix(SeededStream(1), 200, 1.0)]
        before = [eigenvalues(m).values.tolist() for m in ms]
        loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
        import scipy.linalg
        after = [eigenvalues(m).values.tolist() for m in ms]
        same = scipy.linalg.lapack.dsbevd is matrices._dsbevd()
        print(json.dumps([before == after, loaded, same]))
    """)
    src = os.path.dirname(os.path.dirname(matrices.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, ["scipy.linalg._flapack"], True]


# -- traces ------------------------------------------------------------------

def test_trace_power_small_cases():
    m = PeriodicJacobiMatrix([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], periodic=True)
    assert trace_power(m, 2) == pytest.approx(2.0, abs=1e-15)
    m2 = PeriodicJacobiMatrix([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], periodic=True)
    assert trace_power(m2, 1) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("periodic,n", [(True, 3), (True, 4), (True, 5), (True, 7),
                                        (True, 9), (True, 10), (True, 41),
                                        (False, 2), (False, 3), (False, 10), (False, 41)])
def test_trace_power_matches_dense(periodic, n):
    # up to N = 7 closed walks wrap the cycle and the window is the whole
    # matrix; the windows of radius k // 2 are proper sub-arcs at N = 9 for
    # k <= 7, and from N = 10 for every k <= 8
    rng = np.random.default_rng(11 + n)
    m = random_matrix(rng, n, periodic=periodic)
    dense = m.to_dense()
    for k in range(1, 9):
        ref = np.trace(np.linalg.matrix_power(dense, k)) / n
        assert abs(trace_power(m, k) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_trace_power_memory_is_linear_in_n():
    m = random_matrix(np.random.default_rng(31), 4000)
    tracemalloc.start()
    try:
        trace_power(m, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_trace_potential_consistency():
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 6)
    assert trace_potential(m, Potential.polynomial([0, 0, 1.0])) == pytest.approx(
        trace_power(m, 2), abs=1e-12)
    assert trace_potential(m, Potential.zero()) == 0.0
    a = float(np.mean(V4(eigenvalues(m).values)))
    b = trace_potential(m, V4)
    assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


@pytest.mark.parametrize("periodic, n", [(True, n) for n in range(3, 9)]
                         + [(False, n) for n in range(2, 9)])
def test_trace_potential_of_zero_is_exactly_zero(periodic, n):
    # V = 0 is the polynomial with no terms, traced like any other, windows
    # of the whole matrix included
    m = random_matrix(np.random.default_rng(5 + n), n, periodic=periodic)
    assert trace_potential(m, Potential.zero()) == 0.0


def test_trace_potential_tabulated_beyond_table_uses_envelope():
    rng = np.random.default_rng(21)
    m = random_matrix(rng, 8)
    quartic = Potential.polynomial([0, 0, 0, 0, 0.05])
    xs = np.linspace(-1.5, 1.5, 601)
    v = Potential.tabulated(xs, quartic(xs), envelope_coeffs=quartic.coeffs)
    eigs = eigenvalues(m).values
    assert np.sum(np.abs(eigs) > 1.5) >= 1 and np.sum(np.abs(eigs) < 1.5) >= 1
    # linear interpolation errs by at most h^2/8 max|V''| inside the table
    h = xs[1] - xs[0]
    bound = h ** 2 / 8 * 0.6 * 1.5 ** 2 + 1e-12
    assert abs(trace_potential(m, v) - trace_potential(m, quartic)) <= bound


# -- local trace updates ------------------------------------------------------

def test_local_delta_no_change_is_zero():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 9)
    delta = _trace_deltas(m.diag, m.offdiag, m.periodic, [4], "diag", [m.diag[4]], V4.coeffs)
    assert delta[0] == 0.0


def test_local_delta_quadratic_closed_form():
    rng = np.random.default_rng(6)
    m = random_matrix(rng, 9)
    v2 = Potential.polynomial([0, 0, 1.0])
    new = 1.7
    delta = _trace_deltas(m.diag, m.offdiag, m.periodic, [3], "offdiag", [new], v2.coeffs)[0]
    assert delta == pytest.approx(2.0 * (new ** 2 - m.offdiag[3] ** 2), rel=1e-12)


@pytest.mark.parametrize("periodic", [True, False])
def test_local_delta_matches_full_recompute(periodic):
    rng = np.random.default_rng(17)
    n = 12
    m = random_matrix(rng, n, periodic=periodic)
    sites = range(n) if periodic else range(n - 1)
    for site in sites:
        for kind in ("diag", "offdiag"):
            new = float(rng.standard_normal() ** 2 + 0.05)
            d_local = _trace_deltas(m.diag, m.offdiag, periodic, [site], kind, [new],
                                    V4.coeffs)[0]
            m2 = with_entry(m, site, kind, new)
            d_full = n * (trace_potential(m2, V4) - trace_potential(m, V4))
            assert d_local == pytest.approx(d_full, abs=1e-10 * (1 + abs(d_full)))


def dense_trace_v(m, coeffs):
    w = m.to_dense()
    return sum(c * np.trace(np.linalg.matrix_power(w, k)) for k, c in enumerate(coeffs))


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("degree", [0, 2, 4, 6])
def test_stacked_deltas_match_dense_difference(degree, periodic):
    # windows of radius max(deg/2 - 1, 0) where they fit as a proper sub-arc
    # of the cycle (diag from N = deg, offdiag from deg + 1), the whole matrix
    # below; the sizes straddle both thresholds and that of radius-deg windows
    rng = np.random.default_rng(degree)
    coeffs = np.zeros(degree + 1)
    coeffs[::2] = rng.uniform(0.1, 1.0, degree // 2 + 1)
    v = Potential.polynomial(coeffs)
    sizes = (degree - 1, degree, degree + 1, degree + 2, 2 * degree + 2, 2 * degree + 3, 41, 200)
    for n in sorted({max(size, 3) for size in sizes}):
        m = random_matrix(rng, n, periodic=periodic)
        base = dense_trace_v(m, coeffs)
        for kind, size in (("diag", n), ("offdiag", m.offdiag.size)):
            sites = np.arange(size) if n <= 41 else np.array([0, 1, 57, size - 2, size - 1])
            new = rng.standard_normal(sites.size) ** 2 + 0.05
            got = _trace_deltas(m.diag, m.offdiag, periodic, sites, kind, new, v.coeffs)
            want = [dense_trace_v(with_entry(m, s, kind, x), coeffs) - base
                    for s, x in zip(sites, new)]
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + abs(base))


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_a_colour_class_moves_tr_v_by_the_sum_of_its_site_deltas(degree):
    # no closed walk of length <= deg V uses two moves of one class, so a
    # whole class applied at once moves Tr V by the sum of its members'
    # deltas, each taken alone; below N = deg + 1 every class is one site
    rng = np.random.default_rng(degree + 100)
    coeffs = np.zeros(degree + 1)
    coeffs[::2] = rng.uniform(0.1, 1.0, degree // 2 + 1)
    for n in range(3, degree + 4):
        m = random_matrix(rng, n)
        base = dense_trace_v(m, coeffs)
        for sites in _colour_classes(n, degree):
            for kind in ("diag", "offdiag"):
                new = rng.standard_normal(sites.size) ** 2 + 0.05
                deltas = _trace_deltas(m.diag, m.offdiag, True, sites, kind, new,
                                       tuple(coeffs))
                moved = m
                for site, value in zip(sites, new):
                    moved = with_entry(moved, site, kind, value)
                whole = dense_trace_v(moved, coeffs) - base
                assert abs(whole - deltas.sum()) <= 1e-12 * (1.0 + abs(base))


def test_local_delta_degree_fallback():
    # degree 8 window does not fit in N = 7, falls back to full difference;
    # the reference sums V over both spectra, independent of the power traces
    rng = np.random.default_rng(23)
    m = random_matrix(rng, 7)
    v8 = Potential.polynomial([0] * 8 + [1.0])
    d_local = _trace_deltas(m.diag, m.offdiag, m.periodic, [2], "diag", [0.4], v8.coeffs)[0]
    m2 = with_entry(m, 2, "diag", 0.4)
    d_full = np.sum(v8(eigenvalues(m2).values)) - np.sum(v8(eigenvalues(m).values))
    assert d_local == pytest.approx(d_full, rel=1e-9)


def test_local_delta_sweep_composes_to_global_difference():
    rng = np.random.default_rng(29)
    n = 14
    m = random_matrix(rng, n)
    start = m
    total = 0.0
    for site in range(n):
        for kind in ("diag", "offdiag"):
            new = float(rng.standard_normal() ** 2 + 0.05)
            total += _trace_deltas(m.diag, m.offdiag, True, [site], kind, [new], V4.coeffs)[0]
            m = with_entry(m, site, kind, new)
    global_diff = n * (trace_potential(m, V4) - trace_potential(start, V4))
    assert total == pytest.approx(global_diff, abs=1e-8)


# -- invariants (property based) ----------------------------------------------

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(st.lists(finite, min_size=3, max_size=12), st.booleans())
def test_eigenvalue_sum_equals_trace(diag, periodic):
    n = len(diag)
    rng = np.random.default_rng(abs(hash(tuple(diag))) % 2 ** 32)
    off = rng.uniform(0.05, 2.0, n if periodic else n - 1)
    m = PeriodicJacobiMatrix(diag, off, periodic=periodic)
    ev = eigenvalues(m).values
    scale = 1e-9 * n * (1.0 + max(np.max(np.abs(m.diag)), np.max(np.abs(off))))
    assert abs(np.sum(ev) - np.sum(m.diag)) <= scale


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20)
def test_weyl_rank_bound(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    m = random_matrix(rng, n)
    k = int(rng.integers(1, 4))
    changed = m
    for _ in range(k):
        kind = "diag" if rng.random() < 0.5 else "offdiag"
        site = int(rng.integers(0, n))
        changed = with_entry(changed, site, kind, float(rng.standard_normal() ** 2 + 0.1))
    d = bl_bv_distance(eigenvalues(m), eigenvalues(changed))
    assert d <= 2.0 * k / n + 1e-8


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
@settings(max_examples=20)
def test_dump_round_trip(seed, periodic):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, int(rng.integers(3, 20)), periodic=periodic)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.txt")
        with open(path, "w") as fh:
            fh.write(matrix_text(m))
        again = load_matrix(path)
    assert again.periodic == m.periodic
    assert np.array_equal(again.diag, m.diag)
    assert np.array_equal(again.offdiag, m.offdiag)
