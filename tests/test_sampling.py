import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from todagibbs import (Grid, NonConfiningError, Potential,
                       SeededStream, VarianceProfile, domain_auto, dos_from_equilibrium,
                       eigenvalues, solve_equilibrium,
                       integrated_autocorr_time, mcmc_toda, replica_map,
                       sample_beta_matrix, sample_profile_matrix,
                       sample_toda_matrix, trace_potential, trace_power)
from todagibbs import sampling
from todagibbs.sampling import (_colour_classes, _draw_entries, _log_accept_a, _log_accept_b,
                                _mcmc_chains)
from todagibbs.matrices import _delta_radius, _trace_deltas

from _oracles import (quadratic_v_diag_second_moment, quadratic_v_offdiag_second_moment,
                      quadratic_v_tilted_mean, sequential_metropolis_sweeps, with_entry)


def stderr(x):
    return np.std(x, ddof=1) / math.sqrt(len(x))


# -- chi draws ----------------------------------------------------------------

def chi_draws(seed, stream_id, dof, size):
    # sqrt(2) times the off-diagonal entry law at shape dof / 2 is chi_dof
    rng = SeededStream(seed, stream_id).generator()
    return math.sqrt(2.0) * _draw_entries(rng, size, np.full(size, dof / 2.0))[1]


def test_chi_second_moment_dof3():
    x = chi_draws(42, 0, 3.0, 10 ** 6)
    sq = x ** 2
    assert abs(sq.mean() - 3.0) <= 3.0 * stderr(sq)


def test_chi_dof2_is_rayleigh():
    x = chi_draws(43, 0, 2.0, 10 ** 5)
    res = stats.kstest(x, lambda t: 1.0 - np.exp(-t ** 2 / 2.0))
    assert res.pvalue >= 1e-3


def test_chi_density_dof1_matches_analytic():
    # with 2P = 1 the density is 2^(1-P) x^(2P-1) exp(-x^2/2) / Gamma(P)
    p = 0.5
    dens = lambda x: 2.0 ** (1 - p) * x ** (2 * p - 1) * np.exp(-x ** 2 / 2) / gamma_fn(p)
    xs = np.linspace(0.05, 3.0, 50)
    assert np.allclose(dens(xs), stats.chi(df=1).pdf(xs), rtol=1e-12)
    draws = chi_draws(44, 0, 1.0, 10 ** 6)
    edges = np.linspace(0.0, 3.5, 36)
    hist, _ = np.histogram(draws, bins=edges)
    frac = hist / draws.size
    for k in range(edges.size - 1):
        cell, _ = quad(dens, edges[k], edges[k + 1])
        tol = 5.0 * math.sqrt(cell * (1 - cell) / draws.size) + 1e-9
        assert abs(frac[k] - cell) <= tol


def test_chi_additivity():
    d1, d2 = 1.3, 2.4
    x1 = chi_draws(45, 0, d1, 10 ** 5)
    x2 = chi_draws(45, 1, d2, 10 ** 5)
    z = np.sqrt(x1 ** 2 + x2 ** 2)
    res = stats.kstest(z, stats.chi(df=d1 + d2).cdf)
    assert res.pvalue >= 1e-3


def test_chi_parameter_validation():
    # at shape 1e-4 most Gamma draws underflow to 0; the floor keeps them positive
    rng = SeededStream(0, 0).generator()
    assert np.all(_draw_entries(rng, 1000, np.full(1000, 1e-4))[1] > 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda x: mcmc_toda(SeededStream(0, 0), 5, x, Potential.polynomial([0, 0, 1.0]), sweeps=2),
    lambda x: sample_toda_matrix(SeededStream(0, 0), 5, x),
    lambda x: sample_beta_matrix(SeededStream(0, 0), 5, x),
    lambda x: solve_equilibrium(x, Potential.zero(), Grid(6.0, 64)),
    lambda x: dos_from_equilibrium(x, Potential.zero(), Grid(6.0, 64)),
    lambda x: domain_auto(x, Potential.zero()),
], ids=["mcmc_toda", "toda", "beta", "solve", "dos", "domain_auto"])
def test_pressures_must_be_finite(call, value):
    with pytest.raises(ValueError, match="must be (positive|nonnegative)"):
        call(value)


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
    assert np.array_equal(rep.trace_v_series, np.zeros(rep.trace_sq_series.size))
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


def test_mcmc_nonconfining_tabulated_rejected():
    xs = np.linspace(-9, 9, 181)
    flat = Potential.tabulated(xs, np.zeros_like(xs) + 1.0, envelope_coeffs=[1.0])
    # constant envelope is fine (x^2/2 still confines); fabricate a failing one
    # by a table that decays like -x^2 inside a zero envelope
    with pytest.raises((ValueError, NonConfiningError)):
        bad = Potential.tabulated(xs, -0.6 * xs ** 2, envelope_coeffs=[0, 0, -0.6])
        mcmc_toda(SeededStream(0, 0), 10, 1.0, bad, sweeps=2)
    mcmc_toda(SeededStream(0, 0), 10, 1.0, flat, sweeps=2)


def test_mcmc_tabulated_double_well_envelope_runs_beyond_table():
    # W = -4.5 x^2 + 0.001 x^4 outside [-3, 3]: bounded below with wells at
    # |x| = 47.4, so the chain is accepted and its spectrum leaves the table
    envelope = Potential.polynomial([0, 0, -5.0, 0, 0.001])
    xs = np.linspace(-3, 3, 61)
    tab = Potential.tabulated(xs, envelope(xs), envelope_coeffs=envelope.coeffs)
    report = mcmc_toda(SeededStream(0, 0), 10, 1.0, tab, sweeps=20)
    eigs = np.concatenate([eigenvalues(m).values for m in report.samples])
    assert np.all(np.isfinite(eigs)) and np.max(np.abs(eigs)) > 3.0
    assert 0 < report.acceptance["diag"] < 1 and 0 < report.acceptance["offdiag"] < 1


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


def tabulated_quadratic(c, h):
    """c x^2 tabulated on [-8, 8] at node spacing h, with envelope c x^2 beyond."""
    xs = np.linspace(-8.0, 8.0, round(16.0 / h) + 1)
    return Potential.tabulated(xs, c * xs ** 2, envelope_coeffs=[0, 0, c])


@pytest.mark.parametrize("v, n, tilts", [
    (Potential.polynomial([0, 0, 0, 0, 1.0]), 200, (0.1, 0.5, 1.0)),
    (tabulated_quadratic(0.5, 0.1), 10, (0.3, 1.0)),
], ids=["quartic", "tabulated"])
def test_running_trace_v_matches_kept_samples(v, n, tilts):
    # a chain traces Tr V once at its start and then adds the accepted changes;
    # at every kept sweep that running sum is a fresh trace of the kept sample
    streams = [SeededStream(8, i) for i in range(len(tilts))]
    for rep in _mcmc_chains(streams, n, 1.0, v, tilts, sweeps=60, thin=3):
        exact = [trace_potential(m, v) for m in rep.samples]
        assert rep.trace_v_series.size == 48  # the post-burn sweeps
        np.testing.assert_allclose(rep.trace_v_series[::3], exact, rtol=1e-12, atol=0.0)


def assert_chain_mean(series, exact, bias=0.0):
    # within 4 stderr of the chain's own tau, plus a stated bias
    se = series.std() * math.sqrt(integrated_autocorr_time(series) / series.size)
    assert abs(series.mean() - exact) <= 4.0 * se + bias


@pytest.mark.parametrize("c, p", [(0.5, 1.0), (0.1, 0.5)])
def test_quadratic_v_chain_mean_trace_v_closed_form(c, p):
    # V = c x^2 at N = 200, where the entry laws give E[(1/N) Tr V] exactly
    rep = mcmc_toda(SeededStream(1, 0), 200, p, Potential.polynomial([0, 0, c]), sweeps=400)
    assert_chain_mean(rep.trace_v_series, quadratic_v_tilted_mean(c, p))
    # Tr V alone cannot tell a diagonal surplus from an off-diagonal deficit;
    # each sample's mean a_i^2 and mean b_i^2 have their own exact laws
    assert_chain_mean(np.array([np.mean(m.diag ** 2) for m in rep.samples]),
                      quadratic_v_diag_second_moment(c))
    assert_chain_mean(np.array([np.mean(m.offdiag ** 2) for m in rep.samples]),
                      quadratic_v_offdiag_second_moment(c, p))


def interpolation_bias(c, h, n):
    # the interpolant of c x^2 at spacing h exceeds it by at most c h^2 / 4, so
    # (1/N) Tr V does too, and the law's density moves by a factor within
    # exp(+-N c h^2 / 4): a nonnegative mean moves by at most expm1(N c h^2 / 4) of itself
    return c * h * h / 4.0, math.expm1(n * c * h * h / 4.0)


def test_tabulated_quadratic_v_chain_mean_trace_v_closed_form():
    # the same law through the tabulated path; the mean's bias bound, 1.9e-3,
    # is below its stderr, 4e-3
    c, p, h, n = 0.5, 1.0, 0.01, 200
    rep = mcmc_toda(SeededStream(1, 0), n, p, tabulated_quadratic(c, h), sweeps=250)
    err, rel = interpolation_bias(c, h, n)
    exact = quadratic_v_tilted_mean(c, p)
    assert_chain_mean(rep.trace_v_series, exact, bias=err + rel * exact)


@pytest.mark.parametrize("factor, n, sweeps", [(0.5, 40, 400), (0.8, 40, 400), (0.8, 200, 250)])
def test_tabulated_chain_corrects_a_wrong_surrogate_to_the_closed_form(monkeypatch, factor, n,
                                                                        sweeps):
    # sweeps under factor * c x^2 sample a wider law than c x^2; only the
    # per-sweep correction can bring the chain to the closed forms
    c, p, h = 0.5, 1.0, 0.01
    monkeypatch.setattr(sampling, "_surrogate", lambda v: (0.0, 0.0, factor * c))
    rep = mcmc_toda(SeededStream(1, 0), n, p, tabulated_quadratic(c, h), sweeps=sweeps)
    assert 0.05 < rep.acceptance["correction"] < 0.95
    err, rel = interpolation_bias(c, h, n)
    exact = quadratic_v_tilted_mean(c, p)
    assert_chain_mean(rep.trace_v_series, exact, bias=err + rel * exact)
    for entries, want in (([m.diag for m in rep.samples], quadratic_v_diag_second_moment(c)),
                          ([m.offdiag for m in rep.samples],
                           quadratic_v_offdiag_second_moment(c, p))):
        assert_chain_mean(np.mean(np.square(entries), axis=1), want, bias=rel * want)


def tabulated_quartic(h):
    """0.5 x^2 + 0.1 x^4 tabulated on [-8, 8] at node spacing h, with itself beyond."""
    envelope = Potential.polynomial([0, 0, 0.5, 0, 0.1])
    xs = np.linspace(-8.0, 8.0, round(16.0 / h) + 1)
    return Potential.tabulated(xs, envelope(xs), envelope_coeffs=envelope.coeffs)


@pytest.mark.parametrize("v, passes", [(Potential.polynomial([0, 0, 0.5, 0, 0.1]), 1),
                                       (tabulated_quartic(0.1), 2)],
                         ids=["polynomial", "tabulated"])
def test_sweep_is_a_palindrome_for_a_tabulated_v(monkeypatch, v, passes):
    # the surrogate sweeps are reversible only as a palindrome: the forward
    # pass, then its reverse; a polynomial sweep is the forward pass alone.
    # A quartic V_s has two classes at N = 40 (a quadratic one has one per kind)
    steps = []

    def recording(diag, off, periodic, sites, kind, new_values, coeffs):
        steps.append((tuple(sites), kind))
        return _trace_deltas(diag, off, periodic, sites, kind, new_values, coeffs)

    monkeypatch.setattr(sampling, "_trace_deltas", recording)
    mcmc_toda(SeededStream(2, 0), 40, 1.0, v, sweeps=1)
    forward = [(tuple(sites), kind) for sites in _colour_classes(40, 4)
               for kind in ("diag", "offdiag")]
    assert len(forward) > 2 and steps == (forward + forward[::-1])[:len(forward) * passes]


@pytest.mark.parametrize("xs, envelope", [
    (np.linspace(-8, 8, 161), [0, 0, 0.3]),
    (np.arange(-4.0, 5.0), [0, 0, 0, 0, 0.05]),
    (np.linspace(-3, 3, 61), [0, 0, -5.0, 0, 0.001]),
    # three even powers, but x = -2 and x = 2 give one equation: rank 2
    (np.array([-2.0, 0.0, 2.0]), [0, 0, 0, 0, 1.0]),
], ids=["quadratic", "quartic", "double_well", "three_nodes"])
def test_surrogate_fits_an_even_polynomial_table_at_its_nodes(xs, envelope):
    vs = np.polynomial.polynomial.polyval(xs, envelope)
    coeffs = sampling._surrogate(Potential.tabulated(xs, vs, envelope_coeffs=envelope))
    assert len(coeffs) == len(envelope) and not any(coeffs[1::2])
    np.testing.assert_allclose(np.polynomial.polynomial.polyval(xs, coeffs), vs,
                               rtol=0, atol=1e-9)


def test_chain_under_a_non_confining_surrogate_stays_finite_and_corrects():
    # a valid tabulated V whose least-squares V_s has a negative leading
    # coefficient, so V_s alone confines nothing; the correction to V keeps
    # the chain confined.  Seeds 1-10 corrected at 0.88-0.93 over 300 sweeps
    xs = np.linspace(-6.0, 6.0, 241)
    vs = 0.1 * xs ** 4 + 0.5 * np.log1p(xs ** 2)
    envelope = [vs[-1] - 1e-6 * 6.0 ** 8] + [0] * 7 + [1e-6]
    v = Potential.tabulated(xs, vs, envelope_coeffs=envelope)
    assert sampling._surrogate(v)[-1] < 0.0
    streams = [SeededStream(seed, 0) for seed in (1, 2, 3)]
    for rep in _mcmc_chains(streams, 40, 1.0, v, [1.0] * 3, sweeps=300):
        assert np.all(np.isfinite(rep.trace_v_series))
        assert all(np.all(np.isfinite(m.diag)) and np.all(np.isfinite(m.offdiag))
                   for m in rep.samples)
        assert rep.acceptance["correction"] > 0.8


def test_single_site_detailed_balance_and_occupancy():
    # freeze all coordinates but one off-diagonal entry of an N = 3 matrix and
    # drive it with the production proposal and acceptance rule; compare bin
    # occupancy with a quadrature oracle and check binned flow antisymmetry.
    rng = np.random.default_rng(77)
    p = 1.0
    v = Potential.polynomial([0, 0, 0, 0, 0.1])
    base = sample_toda_matrix(SeededStream(15, 0), 3, p)

    def log_weight(b):
        m = with_entry(base, 0, "offdiag", b)
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
        m = with_entry(base, 0, "offdiag", b)
        dtrv = _trace_deltas(m.diag, m.offdiag, True, [0], "offdiag", [b_new], v.coeffs)[0]
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
    for kind in ("diag", "offdiag"):
        assert _trace_deltas(last.diag, last.offdiag, True, [1], kind, [0.3], v.coeffs)[0] == 0.0


@pytest.mark.parametrize("n", [20, 23, 41, 200, 201, 2003, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_colour_classes_partition_the_cycle_into_spaced_sites(n, degree):
    # members of a class lie at least the delta radius + 1 apart on the
    # cycle, and only a cycle a walk of length <= degree can wrap gets one
    # site per class
    classes = _colour_classes(n, degree)
    spacing = _delta_radius(degree) + 1
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(n))
    singles = all(sites.size == 1 for sites in classes)
    assert singles == (n <= degree)
    if singles:
        assert np.array_equal(np.concatenate(classes), np.arange(n))
    else:
        assert len(classes) < 2 * spacing  # a class holds about n / spacing sites
    for sites in classes:
        gaps = np.abs(sites[:, None] - sites[None, :])
        cyclic = np.minimum(gaps, n - gaps)[~np.eye(sites.size, dtype=bool)]
        assert np.all(cyclic >= spacing)


QUARTIC, SEXTIC = (0, 0, 0, 0, 1.0), (0, 0, 0, 0, 0, 0, 1.0)


@pytest.mark.parametrize("n, coeffs", [
    # N = 4 is the largest cycle a walk of length 4 wraps: one site per class
    *(pytest.param(n, QUARTIC, id=str(n)) for n in (20, 23, 41, 4, 5)),
    *(pytest.param(n, SEXTIC, id=f"sextic-{n}") for n in (6, 7, 8)),
])
def test_class_sweeps_match_sequential_dense_oracle(n, coeffs):
    # the chain draws its start and each sweep's proposals and uniforms from
    # one stream; replay them through a one-move-at-a-time dense sweep
    p, sweeps = 1.0, 20
    stream = SeededStream(40, n)
    rep = mcmc_toda(stream, n, p, Potential.polynomial(coeffs), sweeps=sweeps)
    rng = stream.generator()
    diag, off = rng.standard_normal(n), np.sqrt(rng.gamma(np.full(n, p), 1.0))
    draws = [(rng.standard_normal(n), np.log(rng.random(n)),
              rng.standard_normal(n), np.log(rng.random(n))) for _ in range(sweeps)]
    states = sequential_metropolis_sweeps(diag, off, p, coeffs,
                                          _colour_classes(n, len(coeffs) - 1), draws, (0.5, 0.5))
    burn = sweeps - len(rep.samples)  # 4 sweeps, below ADAPT_MIN_BURN: no scale update
    for sample, (d, o) in zip(rep.samples, states[burn:], strict=True):
        assert np.max(np.abs(sample.diag - d)) <= 1e-9
        assert np.max(np.abs(sample.offdiag - o)) <= 1e-9
    assert all(0.0 < r < 1.0 for r in rep.acceptance.values())


TILTS = (0.05, 0.37, 1.0, 8.0)
CHAIN_KWARGS = dict(sweeps=60, thin=2, proposal_scales=(1.5, 1.5))


def assert_same_chain(got, want):
    assert len(got.samples) == len(want.samples) == 24
    for a, b in zip(got.samples, want.samples):
        assert np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)
    assert got.acceptance == want.acceptance
    assert got.proposal_scales == want.proposal_scales
    assert got.autocorr_time == want.autocorr_time and got.ess == want.ess
    assert np.array_equal(got.trace_sq_series, want.trace_sq_series)


@pytest.mark.parametrize("n", [5, 40])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_batched_chains_match_mcmc_toda_chain_by_chain(degree, n):
    # one V at several tilts in one batch: each chain is its batch of one, and
    # the tilt-1 chain is mcmc_toda's; at N = 5 the classes are single sites and
    # degree 6 takes whole-matrix windows; 60 sweeps adapt the scales once,
    # after a 12-sweep burn-in
    v = Potential.polynomial([0.0] * degree + [1.0])
    streams = [SeededStream(3, i) for i in range(len(TILTS))]
    batch = _mcmc_chains(streams, n, 1.0, v, TILTS, **CHAIN_KWARGS)
    for stream, tilt, got in zip(streams, TILTS, batch, strict=True):
        assert_same_chain(got, _mcmc_chains([stream], n, 1.0, v, [tilt], **CHAIN_KWARGS)[0])
    assert_same_chain(batch[TILTS.index(1.0)],
                      mcmc_toda(streams[TILTS.index(1.0)], n, 1.0, v, **CHAIN_KWARGS))
    # the adaptation moved each chain's scales by its own acceptance
    assert len({rep.proposal_scales for rep in batch}) > 1


@pytest.mark.parametrize("n", [5, 40])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_tilted_chain_matches_mcmc_toda_under_scaled_polynomial(degree, n):
    # the chain at tilt alpha samples the polynomial alpha V: it makes the same
    # moves as mcmc_toda under that polynomial, whose deltas round differently
    coeffs = [0.5 * (k % 2 == 0) for k in range(degree)] + [1.0]
    v = Potential.polynomial(coeffs)
    for seed in range(3):
        streams = [SeededStream(seed, i) for i in range(len(TILTS))]
        batch = _mcmc_chains(streams, n, 1.0, v, TILTS, **CHAIN_KWARGS)
        for stream, alpha, got in zip(streams, TILTS, batch, strict=True):
            scaled = Potential.polynomial([alpha * c for c in coeffs])
            assert_same_chain(got, mcmc_toda(stream, n, 1.0, scaled, **CHAIN_KWARGS))


@pytest.mark.parametrize("tilts", [[1.0], [1.0, 2.0, 3.0], [1.0, -0.5], [1.0, math.nan],
                                   [math.inf, 1.0]])
def test_tilts_need_one_finite_nonnegative_value_per_stream(tilts):
    streams = [SeededStream(0, i) for i in range(2)]
    with pytest.raises(ValueError, match="tilt"):
        _mcmc_chains(streams, 5, 1.0, Potential.polynomial([0, 0, 1.0]), tilts, sweeps=2)


def test_short_burn_in_adapts_proposal_scales():
    # 120 sweeps burn in for 24, fewer than the 25-sweep adaptation interval;
    # at scale 10 under V = 0.2 x^4 about 7% of the moves are accepted
    rep = mcmc_toda(SeededStream(0, 0), 40, 1.0, Potential.polynomial([0, 0, 0, 0, 0.2]),
                    sweeps=120, proposal_scales=(10.0, 10.0))
    assert max(rep.proposal_scales) < 10.0


@pytest.mark.parametrize("sweeps", [40, 150])
def test_acceptance_counts_post_burn_sweeps_only(sweeps):
    # burn-ins of 8 and 30 sweeps: the first adapts nothing, the second once,
    # after sweep 25.  A chain of 5 sweeps fewer burns in for one sweep fewer
    # along the same states, so its first sample is the state the burn-in ends
    # in, and every accepted move changes its entry
    v, n, stream = Potential.polynomial([0, 0, 0, 0, 1.0]), 12, SeededStream(4, 0)
    report = mcmc_toda(stream, n, 1.0, v, sweeps=sweeps)
    states = [mcmc_toda(stream, n, 1.0, v, sweeps=sweeps - 5).samples[0]] + report.samples
    for kind in ("diag", "offdiag"):
        moved = sum(int(np.sum(getattr(a, kind) != getattr(b, kind)))
                    for a, b in zip(states, states[1:]))
        assert report.acceptance[kind] == moved / (n * len(report.samples))


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
