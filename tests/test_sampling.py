import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from todagibbs import (NonConfiningError, Potential,
                       SeededStream, VarianceProfile, eigenvalues,
                       integrated_autocorr_time, mcmc_toda, replica_map,
                       sample_beta_matrix, sample_chi, sample_coupled_toda,
                       sample_profile_matrix, sample_toda_matrix, trace_power)
from todagibbs.sampling import _colour_classes, _log_accept_a, _log_accept_b, _mcmc_chains
from todagibbs.matrices import local_trace_delta

from _oracles import sequential_metropolis_sweeps


def stderr(x):
    return np.std(x, ddof=1) / math.sqrt(len(x))


# -- chi draws ----------------------------------------------------------------

def test_chi_second_moment_dof3():
    x = sample_chi(SeededStream(42, 0), 3.0, size=10 ** 6)
    sq = x ** 2
    assert abs(sq.mean() - 3.0) <= 3.0 * stderr(sq)


def test_chi_dof2_is_rayleigh():
    x = sample_chi(SeededStream(43, 0), 2.0, size=10 ** 5)
    res = stats.kstest(x, lambda t: 1.0 - np.exp(-t ** 2 / 2.0))
    assert res.pvalue >= 1e-3


def test_chi_density_dof1_matches_analytic():
    # with 2P = 1 the density is 2^(1-P) x^(2P-1) exp(-x^2/2) / Gamma(P)
    p = 0.5
    dens = lambda x: 2.0 ** (1 - p) * x ** (2 * p - 1) * np.exp(-x ** 2 / 2) / gamma_fn(p)
    xs = np.linspace(0.05, 3.0, 50)
    assert np.allclose(dens(xs), stats.chi(df=1).pdf(xs), rtol=1e-12)
    draws = sample_chi(SeededStream(44, 0), 1.0, size=10 ** 6)
    edges = np.linspace(0.0, 3.5, 36)
    hist, _ = np.histogram(draws, bins=edges)
    frac = hist / draws.size
    for k in range(edges.size - 1):
        cell, _ = quad(dens, edges[k], edges[k + 1])
        tol = 5.0 * math.sqrt(cell * (1 - cell) / draws.size) + 1e-9
        assert abs(frac[k] - cell) <= tol


def test_chi_additivity():
    d1, d2 = 1.3, 2.4
    x1 = sample_chi(SeededStream(45, 0), d1, size=10 ** 5)
    x2 = sample_chi(SeededStream(45, 1), d2, size=10 ** 5)
    z = np.sqrt(x1 ** 2 + x2 ** 2)
    res = stats.kstest(z, stats.chi(df=d1 + d2).cdf)
    assert res.pvalue >= 1e-3


def test_chi_parameter_validation():
    with pytest.raises(ValueError):
        sample_chi(SeededStream(0, 0), 0.0)
    with pytest.raises(ValueError):
        sample_chi(SeededStream(0, 0), -1.0)
    assert sample_chi(SeededStream(0, 0), 0.2) > 0.0


# -- iid matrix ensembles ------------------------------------------------------

def test_toda_matrix_moments_and_determinism():
    t2 = [trace_power(sample_toda_matrix(SeededStream(1, i), 500, 1.0), 2)
          for i in range(30)]
    assert abs(np.mean(t2) - 3.0) <= 3.0 * stderr(t2)
    a = sample_toda_matrix(SeededStream(1, 4), 500, 1.0)
    b = sample_toda_matrix(SeededStream(1, 4), 500, 1.0)
    assert np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)


def test_toda_offdiag_chi_moment():
    m = sample_toda_matrix(SeededStream(2, 0), 1000, 0.5)
    sq = 2.0 * m.offdiag ** 2
    assert abs(sq.mean() - 1.0) <= 3.0 * stderr(sq)


def test_beta_matrix_structure():
    m = sample_beta_matrix(SeededStream(3, 0), 2000, 1.0)
    assert not m.periodic
    assert m.offdiag.size == 1999
    last = m.offdiag[-1]  # dof 2P/N, tiny but strictly positive
    assert last > 0.0 and np.isfinite(last)


def test_beta_two_site_trace_moment():
    t2 = []
    for i in range(2000):
        m = sample_beta_matrix(SeededStream(4, i), 2, 1.0)
        t2.append(2.0 * trace_power(m, 2))
    beta = 2.0 * 1.0 / 2.0
    assert abs(np.mean(t2) - (2.0 + beta)) <= 3.0 * stderr(t2)


def test_beta_finite_n_trace_identity():
    # E[(1/N) Tr C^2] = 1 + P (N-1)/N at every N, the bridge to the solver's
    # second-moment limit 1 + P
    n, p = 50, 1.5
    t2 = [trace_power(sample_beta_matrix(SeededStream(22, i), n, p), 2)
          for i in range(300)]
    expected = 1.0 + p * (n - 1) / n
    assert abs(np.mean(t2) - expected) <= 3.0 * stderr(t2)


def test_profile_constant_matches_toda_law():
    prof = VarianceProfile.constant(1.0)
    t2p = [trace_power(sample_profile_matrix(SeededStream(5, i), 400, prof), 2)
           for i in range(25)]
    t2t = [trace_power(sample_toda_matrix(SeededStream(6, i), 400, 1.0), 2)
           for i in range(25)]
    tol = 3.0 * math.hypot(stderr(t2p), stderr(t2t))
    assert abs(np.mean(t2p) - np.mean(t2t)) <= tol


def test_toda_matrix_is_the_constant_profile_matrix():
    # one entry law: on the same stream the two samplers draw the same entries
    for n, p in ((3, 0.3), (50, 1.0), (401, 2.5)):
        stream = SeededStream(9, n)
        a = sample_toda_matrix(stream, n, p)
        b = sample_profile_matrix(stream, n, VarianceProfile.constant(p))
        assert np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)


def test_profile_linear_second_moment():
    prof = VarianceProfile((1.0, 2.0))  # sigma(x) = 1 + x
    t2 = [trace_power(sample_profile_matrix(SeededStream(7, i), 1000, prof), 2)
          for i in range(25)]
    assert abs(np.mean(t2) - 4.0) <= 3.0 * stderr(t2)


def test_profile_validation():
    with pytest.raises(ValueError):
        VarianceProfile((1.0,))
    with pytest.raises(ValueError):
        VarianceProfile((1.0, 0.0))


def test_coupled_dominance_and_moments():
    lo, hi = sample_coupled_toda(SeededStream(8, 0), 500, 1.0, 0.5)
    assert np.all(hi.offdiag >= lo.offdiag)
    assert np.array_equal(lo.diag, hi.diag)
    sq = 2.0 * hi.offdiag ** 2
    assert abs(sq.mean() - 3.0) <= 3.0 * stderr(sq)


def test_coupled_small_increment():
    lo, hi = sample_coupled_toda(SeededStream(9, 0), 500, 1.0, 1e-6)
    assert np.all(hi.offdiag >= lo.offdiag)
    assert np.mean(hi.offdiag - lo.offdiag) <= 1e-2


def test_entry_laws_sub_gaussian():
    # finite exp(x^2/8) moments, stable across independent halves
    m = sample_toda_matrix(SeededStream(10, 0), 20000, 1.0)
    for vals in (m.diag, m.offdiag):
        e = np.exp(vals ** 2 / 8.0)
        first, second = e[:10000].mean(), e[10000:].mean()
        assert np.isfinite(first) and np.isfinite(second)
        assert abs(first - second) <= 6.0 * np.std(e) / math.sqrt(10000)


def test_replica_map_stream_order_and_determinism():
    fn = lambda stream: (stream.stream_id, float(sample_toda_matrix(stream, 100, 1.0).diag[0]))
    shifted = lambda stream: fn(SeededStream(stream.master_seed, stream.stream_id + 4))
    first = replica_map(shifted, 6, 123)
    assert [sid for sid, _ in first] == list(range(4, 10))
    assert first == replica_map(shifted, 6, 123)
    assert first == [fn(SeededStream(123, sid)) for sid in range(4, 10)]
    assert len({x for _, x in first}) == 6


# -- Metropolis chain -----------------------------------------------------------

def test_mcmc_zero_potential_matches_iid():
    rep = mcmc_toda(SeededStream(11, 0), 300, 1.0, Potential.zero(), sweeps=120, thin=2)
    assert rep.acceptance == {"diag": 1.0, "offdiag": 1.0}
    assert rep.ess == len(rep.samples)
    iid = [trace_power(sample_toda_matrix(SeededStream(12, i), 300, 1.0), 2)
           for i in range(60)]
    chain = rep.trace_sq_series
    tol = 3.0 * math.hypot(stderr(iid), stderr(chain))
    assert abs(np.mean(chain) - np.mean(iid)) <= tol


def test_identity_proposal_accepts_surely():
    assert _log_accept_b(0.7, 0.7, 1.5, 0.0) == 0.0
    assert _log_accept_a(-0.3, -0.3, 0.0) == 0.0
    b, a = np.array([0.7, 2.5, 1e-3]), np.array([-0.3, 0.0, 4.0])
    assert np.array_equal(_log_accept_b(b, b, 1.5, np.zeros(3)), np.zeros(3))
    assert np.array_equal(_log_accept_a(a, a, np.zeros(3)), np.zeros(3))


def test_mcmc_validation():
    with pytest.raises(ValueError):
        mcmc_toda(SeededStream(0, 0), 300, 1.0, Potential.zero(), sweeps=0)
    xs = np.linspace(-30, 30, 601)
    tab = Potential.tabulated(xs, 0.01 * xs ** 4, envelope_coeffs=[0, 0, 0, 0, 0.01])
    with pytest.raises(ValueError):
        mcmc_toda(SeededStream(0, 0), 500, 1.0, tab, sweeps=10)


def test_mcmc_nonconfining_tabulated_rejected():
    xs = np.linspace(-9, 9, 181)
    flat = Potential.tabulated(xs, np.zeros_like(xs) + 1.0, envelope_coeffs=[1.0])
    # constant envelope is fine (x^2/2 still confines); fabricate a failing one
    # by a table that decays like -x^2 inside a zero envelope
    with pytest.raises((ValueError, NonConfiningError)):
        bad = Potential.tabulated(xs, -0.6 * xs ** 2, envelope_coeffs=[0, 0, -0.6])
        mcmc_toda(SeededStream(0, 0), 10, 1.0, bad, sweeps=2)
    mcmc_toda(SeededStream(0, 0), 10, 1.0, flat, sweeps=2)


def test_mcmc_quartic_moment_against_exact_reweighting():
    # N = 3 is small enough to integrate the tilted law semi-analytically by
    # importance reweighting exact V = 0 draws.
    v = Potential.polynomial([0, 0, 0, 0, 0.1])
    n, p = 3, 1.0
    draws = [sample_toda_matrix(SeededStream(13, i), n, p) for i in range(4000)]
    logw = np.array([-n * tv for tv in
                     (np.mean(v(eigenvalues(m).values)) for m in draws)])
    w = np.exp(logw - logw.max())
    t2 = np.array([trace_power(m, 2) for m in draws])
    target = float(np.sum(w * t2) / np.sum(w))

    rep = mcmc_toda(SeededStream(14, 0), n, p, v, sweeps=10000, thin=10)
    chain_mean = rep.trace_sq_series.mean()
    tau = integrated_autocorr_time(rep.trace_sq_series)
    se_chain = rep.trace_sq_series.std() * math.sqrt(tau / rep.trace_sq_series.size)
    ess_w = np.sum(w) ** 2 / np.sum(w ** 2)
    se_target = t2.std() / math.sqrt(ess_w)
    assert abs(chain_mean - target) <= 4.0 * math.hypot(se_chain, se_target)


def test_single_site_detailed_balance_and_occupancy():
    # freeze all coordinates but one off-diagonal entry of an N = 3 matrix and
    # drive it with the production proposal and acceptance rule; compare bin
    # occupancy with a quadrature oracle and check binned flow antisymmetry.
    rng = np.random.default_rng(77)
    p = 1.0
    v = Potential.polynomial([0, 0, 0, 0, 0.1])
    base = sample_toda_matrix(SeededStream(15, 0), 3, p)

    def log_weight(b):
        m = base.with_entry(0, "offdiag", b)
        trv = 3.0 * np.mean(v(eigenvalues(m).values))
        return (2 * p - 1) * math.log(b) - b * b - trv

    grid = np.linspace(1e-4, 4.0, 3000)
    logw = np.array([log_weight(b) for b in grid])
    w = np.exp(logw - logw.max())
    edges = np.array([0.0, 0.4, 0.7, 1.0, 1.4, 4.0])
    cell = np.array([np.trapezoid(np.where((grid >= lo) & (grid < hi), w, 0.0), grid)
                     for lo, hi in zip(edges[:-1], edges[1:])])
    cell /= cell.sum()

    steps = 40000
    scale = 0.8
    b = float(base.offdiag[0])
    xi = rng.standard_normal(steps)
    logu = np.log(rng.random(steps))
    visits = np.zeros(edges.size - 1)
    flows = np.zeros((edges.size - 1, edges.size - 1))
    prev_bin = np.searchsorted(edges, b) - 1
    for t in range(steps):
        b_new = b * math.exp(scale * xi[t])
        dtrv = local_trace_delta(base.with_entry(0, "offdiag", b), 0, "offdiag", b_new, v)
        if logu[t] < _log_accept_b(b, b_new, p, dtrv):
            b = b_new
        cur = min(np.searchsorted(edges, b, side="right") - 1, edges.size - 2)
        visits[cur] += 1
        flows[prev_bin, cur] += 1
        prev_bin = cur
    occupancy = visits / steps
    assert np.max(np.abs(occupancy - cell)) <= 1e-2
    anti = np.abs(flows - flows.T) / steps
    assert np.max(anti) <= 1e-2


def test_mcmc_report_invariants():
    rep = mcmc_toda(SeededStream(16, 0), 50, 1.0,
                    Potential.polynomial([0, 0, 0, 0, 0.2]), sweeps=150, thin=3)
    assert all(0.0 <= r <= 1.0 for r in rep.acceptance.values())
    assert rep.ess <= len(rep.samples)
    assert rep.sweeps == 150
    assert all(s.periodic and s.n == 50 for s in rep.samples)


@pytest.mark.parametrize("n", [3, 30])
def test_constant_potential_chain_runs(n):
    # a constant V moves no trace: every delta is 0, and at N = 3 the window
    # is the whole matrix
    v = Potential.polynomial([1.0])
    rep = mcmc_toda(SeededStream(5, n), n, 1.0, v, sweeps=30)
    assert len(rep.samples) == 24 and all(s.n == n for s in rep.samples)
    assert all(0.0 < r < 1.0 for r in rep.acceptance.values())
    last = rep.samples[-1]
    assert local_trace_delta(last, 1, "diag", 0.3, v) == 0.0
    assert local_trace_delta(last, 1, "offdiag", 0.3, v) == 0.0


@pytest.mark.parametrize("n", [20, 23, 41, 200, 201, 2003])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_colour_classes_partition_the_cycle_into_spaced_sites(n, degree):
    classes = _colour_classes(n, degree)
    stride = 2 * degree + 2
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(n))
    assert len(classes) < 2 * stride  # a class holds about n / stride sites
    for sites in classes:
        gaps = np.abs(sites[:, None] - sites[None, :])
        cyclic = np.minimum(gaps, n - gaps)[~np.eye(sites.size, dtype=bool)]
        assert np.all(cyclic >= stride)


@pytest.mark.parametrize("n", [20, 23, 41])
def test_class_sweeps_match_sequential_dense_oracle(n):
    # the chain draws its start and each sweep's proposals and uniforms from
    # one stream; replay them through a one-move-at-a-time dense sweep
    coeffs, p, sweeps = [0, 0, 0, 0, 1.0], 1.0, 20
    stream = SeededStream(40, n)
    rep = mcmc_toda(stream, n, p, Potential.polynomial(coeffs), sweeps=sweeps)
    rng = stream.generator()
    diag, off = rng.standard_normal(n), np.sqrt(rng.gamma(np.full(n, p), 1.0))
    draws = [(rng.standard_normal(n), np.log(rng.random(n)),
              rng.standard_normal(n), np.log(rng.random(n))) for _ in range(sweeps)]
    states = sequential_metropolis_sweeps(diag, off, p, coeffs, _colour_classes(n, 4),
                                          draws, (0.5, 0.5))
    burn = sweeps - len(rep.samples)  # 4 sweeps, below ADAPT_MIN_BURN: no scale update
    for sample, (d, o) in zip(rep.samples, states[burn:], strict=True):
        assert np.max(np.abs(sample.diag - d)) <= 1e-9
        assert np.max(np.abs(sample.offdiag - o)) <= 1e-9
    assert all(0.0 < r < 1.0 for r in rep.acceptance.values())


@pytest.mark.parametrize("n", [5, 40])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_batched_chains_match_mcmc_toda_chain_by_chain(degree, n):
    # several tilts alpha V in one batch, so the coefficients differ per chain;
    # at N = 5 the classes are single sites and degree 6 takes whole-matrix
    # windows; 60 sweeps adapt the scales once, after a 12-sweep burn-in
    v = Potential.polynomial([0.0] * degree + [1.0])
    tilted = [v.scaled(alpha) for alpha in (0.05, 1.0, 8.0)]
    streams = [SeededStream(3, i) for i in range(len(tilted))]
    kwargs = dict(sweeps=60, thin=2, proposal_scales=(1.5, 1.5))
    batch = _mcmc_chains(streams, n, 1.0, tilted, **kwargs)
    for stream, u, got in zip(streams, tilted, batch, strict=True):
        want = mcmc_toda(stream, n, 1.0, u, **kwargs)
        assert len(got.samples) == len(want.samples) == 24
        for a, b in zip(got.samples, want.samples):
            assert np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)
        assert got.acceptance == want.acceptance
        assert got.proposal_scales == want.proposal_scales
        assert got.autocorr_time == want.autocorr_time and got.ess == want.ess
        assert np.array_equal(got.trace_sq_series, want.trace_sq_series)
    # the adaptation moved each chain's scales by its own acceptance
    assert len({rep.proposal_scales for rep in batch}) > 1


def test_short_burn_in_adapts_proposal_scales():
    # 120 sweeps burn in for 24, fewer than the 25-sweep adaptation interval;
    # at scale 10 under V = 0.2 x^4 about 7% of the moves are accepted
    rep = mcmc_toda(SeededStream(0, 0), 40, 1.0, Potential.polynomial([0, 0, 0, 0, 0.2]),
                    sweeps=120, proposal_scales=(10.0, 10.0))
    assert max(rep.proposal_scales) < 10.0


@pytest.mark.parametrize("scales", [(10.0, 10.0), (10.0, 1000.0)])
def test_wide_proposals_raise_no_runtime_warning(scales):
    # at scale 1000 most off-diagonal proposals overflow or underflow to 0;
    # they are rejected without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mcmc_toda(SeededStream(17, 0), 40, 1.0, Potential.polynomial([0, 0, 0, 0, 0.2]),
                        sweeps=30, proposal_scales=scales)
    assert all(0.0 <= r <= 1.0 for r in rep.acceptance.values())
    assert all(np.all(np.isfinite(s.offdiag)) and np.all(s.offdiag > 0) for s in rep.samples)
