"""Seeded samplers for Toda-chain Gibbs ensembles and tridiagonal beta models.

All randomness flows through :class:`SeededStream`: a (master_seed, stream_id)
pair that deterministically spawns an independent generator.  Every sampler is
a pure function of its stream and parameters, so a replica's result depends
only on its stream id.

Entry laws.  Under the quadratic-confinement ensemble with pressure P the
matrix entries are independent: diagonal entries standard normal, off-diagonal
entries distributed as chi with 2P degrees of freedom scaled by 1/sqrt(2).
With b = exp(-r/2) that scaled chi law has density proportional to
b^(2P-1) exp(-b^2), which is exactly sqrt(Gamma(shape=P, scale=1)).

General confining potentials V are handled by a Metropolis-within-Gibbs chain
in the (a_i, b_i) coordinates: Gaussian random walk on diagonal entries,
multiplicative log-normal walk on off-diagonal entries (positivity preserved,
proposal Jacobian included in the ratio).  For polynomial V of degree d the
change of Tr V(M) under a move at site i reads only entries within
r = (d - 1) // 2 sites of i (``matrices._delta_radius``), so moves r + 1 or
more sites apart on the cycle are conditionally independent; each sweep
visits colour classes of such sites (the chromatic Gibbs sampler of
Gonzalez, Low, Gretton and Guestrin, AISTATS 2011) and decides a whole class
at once from stacked local windows.  A tabulated V moves so under a polynomial
fit to its table, corrected to V once per sweep (the surrogate transition
method; Liu, Monte Carlo Strategies in Scientific Computing, 2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import PeriodicJacobiMatrix, _delta_radius, _trace_deltas, trace_potential
from .potentials import Potential

# Underflow guard: chi draws with tiny degrees of freedom concentrate below
# the smallest normal double; flooring keeps entries strictly positive without
# moving any eigenvalue at solver precision.
_CHI_FLOOR = 1e-300

# share of the sweeps that mcmc_toda spends adapting proposal scales and discards
BURN_IN_FRACTION = 0.2
# a burn-in of fewer sweeps measures the acceptance of the chain's first,
# transient sweeps more than the chain's own, so it adapts nothing: from the
# V = 0 start under V = x^4 at scale 0.5, the mean rate of one sweep climbs
# from 0.55 to within 0.02 of its settled 0.67-0.71 by about sweep 10
ADAPT_MIN_BURN = 10
# one _trace_deltas call stacks at most about this many windows (a class's
# sites times a block of chains); the temporaries of a larger stack outgrow
# the cache, and each window is traced alone, so the deltas do not change
DELTA_WINDOWS = 640


@dataclass(frozen=True)
class SeededStream:
    """Deterministic, independent random stream identified by (seed, id)."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class VarianceProfile:
    """Positive function on [0, 1], linear interpolation between uniform nodes."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in np.atleast_1d(self.values))
        if len(vals) < 2:
            raise ValueError("profile needs at least two nodes")
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError("profile node values must be finite and positive")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, p: float) -> "VarianceProfile":
        return cls((p, p))

    @property
    def maximum(self) -> float:
        return max(self.values)

    def __call__(self, t):
        xs = np.linspace(0.0, 1.0, len(self.values))
        return np.interp(t, xs, np.asarray(self.values))


def _draw_entries(rng: np.random.Generator, n: int, shapes: np.ndarray):
    """n standard-normal diagonal entries, then sqrt(Gamma(shape, 1)) off-diagonal entries."""
    diag = rng.standard_normal(n)
    return diag, np.maximum(np.sqrt(rng.gamma(shapes, 1.0)), _CHI_FLOOR)


def sample_toda_matrix(stream: SeededStream, n: int, p: float) -> PeriodicJacobiMatrix:
    """Periodic matrix with iid entries: diag N(0,1), offdiag chi_{2P}/sqrt(2)."""
    if n < 3:
        raise ValueError("need n >= 3 for a periodic matrix")
    if not 0 < p < math.inf:
        raise ValueError("pressure p must be positive")
    diag, off = _draw_entries(stream.generator(), n, np.full(n, p))
    return PeriodicJacobiMatrix(diag, off, periodic=True)


def sample_beta_matrix(stream: SeededStream, n: int, p: float) -> PeriodicJacobiMatrix:
    """Tridiagonal beta-ensemble matrix at beta = 2P/N (Dumitriu-Edelman).

    Off-diagonal entry j (1-based) is chi with (N - j) * 2P/N degrees of
    freedom, scaled by 1/sqrt(2); the matrix is not periodic.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < p < math.inf:
        raise ValueError("pressure p must be positive")
    shapes = (n - np.arange(1, n)) * (p / n)
    diag, off = _draw_entries(stream.generator(), n, shapes)
    return PeriodicJacobiMatrix(diag, off, periodic=False)


def sample_profile_matrix(stream: SeededStream, n: int,
                          profile: VarianceProfile) -> PeriodicJacobiMatrix:
    """Periodic matrix with position-dependent pressure sigma(i/N).

    Off-diagonal entry i is chi_{2 sigma(i/N)} / sqrt(2), so a constant
    profile sigma = P reproduces ``sample_toda_matrix`` in law.
    """
    if n < 3:
        raise ValueError("need n >= 3 for a periodic matrix")
    diag, off = _draw_entries(stream.generator(), n, profile(np.arange(1, n + 1) / n))
    return PeriodicJacobiMatrix(diag, off, periodic=True)


# -- Metropolis-within-Gibbs chain ---------------------------------------


@dataclass
class McmcReport:
    """Thinned samples plus mixing diagnostics for one chain; the diagnostics read Tr M^2."""

    samples: list
    acceptance: dict
    autocorr_time: float
    ess: float
    sweeps: int
    trace_sq_series: np.ndarray = field(repr=False, default=None)
    trace_v_series: np.ndarray = field(repr=False, default=None)
    proposal_scales: tuple = (0.0, 0.0)

    def __post_init__(self):
        for kind, rate in self.acceptance.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"acceptance rate for {kind} outside [0, 1]")
        if self.ess > len(self.samples) + 1e-9:
            raise ValueError("effective sample size cannot exceed sample count")


def integrated_autocorr_time(series: np.ndarray) -> float:
    """Integrated autocorrelation time with Sokal's adaptive window."""
    x = np.asarray(series, dtype=float)
    n = x.size
    # a constant series is uncorrelated, though its mean can round off its value
    if n < 8 or np.all(x == x[0]):
        return 1.0
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var <= 0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(f * np.conj(f), nfft)[:n].real
    acf /= acf[0]
    tau = 1.0
    for window in range(1, n):
        tau = 1.0 + 2.0 * np.sum(acf[1:window + 1])
        if window >= 5.0 * tau:
            break
    return float(max(tau, 1.0))


def _log_accept_b(b_old, b_new, p: float, dtrv):
    """Log acceptance ratio for the multiplicative off-diagonal move.

    Base law density ~ b^(2P-1) exp(-b^2); the log-normal proposal contributes
    a Jacobian factor b_new/b_old, giving 2P log(b'/b) - (b'^2 - b^2) - dTrV.
    Scalars or arrays.
    """
    return 2.0 * p * np.log(b_new / b_old) - (b_new * b_new - b_old * b_old) - dtrv


def _log_accept_a(a_old, a_new, dtrv):
    return -0.5 * (a_new * a_new - a_old * a_old) - dtrv


def _colour_classes(n: int, degree: int) -> list[np.ndarray]:
    """Sites 0..n-1 in classes of moves, under a V_s of this degree, that read no other's entry.

    A move reads entries within r = ``_delta_radius(degree)`` sites of its own,
    so a site's colour is its position in one of floor(n / (r + 1)) near-equal
    blocks.  Only at n <= 2 (r + 1), which is n <= degree for the even V_s, can a
    walk of length <= degree wrap the cycle: then every class is one site, in order.
    """
    r = _delta_radius(degree)
    blocks = n // (r + 1) if n > 2 * (r + 1) else 1
    starts = np.arange(blocks) * n // blocks
    sizes = np.diff(starts, append=n)
    return [starts[sizes > c] + c for c in range(int(sizes.max()))]


def mcmc_toda(stream: SeededStream, n: int, p: float, v: Potential,
              sweeps: int, thin: int = 1, proposal_scales=(0.5, 0.5)) -> McmcReport:
    """Sample the Toda Gibbs ensemble with confining potential V at pressure P.

    For V = 0 the invariant law factorizes over entries and each sweep draws
    the state exactly (acceptance 1).  Otherwise a Metropolis-within-Gibbs
    sweep moves one colour class at a time (``_colour_classes``: sites the
    delta radius of deg V_s plus one apart, one site a class when N <= deg V_s),
    its diagonal and then its off-diagonal entries, each kind decided together
    from the exact Tr V changes of stacked local windows.  Each sweep draws its
    proposals and uniforms for all N sites up front, indexed by site.
    Proposal scales adapt toward 30-40% acceptance during the burn-in (the
    first BURN_IN_FRACTION of the sweeps, which yields no samples), every 25
    sweeps or once at its end if it is shorter, then freeze; a burn-in of
    fewer than ADAPT_MIN_BURN sweeps keeps the given scales.  Acceptance
    rates count the post-burn sweeps only.  Tabulated V sweeps under a
    polynomial fit and corrects each sweep exactly, and its acceptance adds
    the correction's.  This is ``_mcmc_chains``'s batch of one, at tilt 1.
    """
    return _mcmc_chains([stream], n, p, v, [1.0], sweeps, thin, proposal_scales)[0]


def _run_exact_chain(rng, n, p, sweeps, burn, thin) -> McmcReport:
    samples, t2_series = [], []
    for sweep in range(sweeps):
        diag, off = _draw_entries(rng, n, np.full(n, p))
        if sweep < burn:
            continue
        t2_series.append((np.sum(diag ** 2) + 2.0 * np.sum(off ** 2)) / n)
        if (sweep - burn) % thin == 0:
            samples.append(PeriodicJacobiMatrix(diag, off, periodic=True))
    return McmcReport(
        samples=samples,
        acceptance={"diag": 1.0, "offdiag": 1.0},
        autocorr_time=1.0,
        ess=float(len(samples)),
        sweeps=sweeps,
        trace_sq_series=np.asarray(t2_series),
        trace_v_series=np.zeros(len(t2_series)),
    )


def _surrogate(v: Potential) -> tuple[float, ...]:
    """Ascending coefficients of the even polynomial V_s whose deltas move a chain under V.

    A polynomial V is its own V_s.  A tabulated V's is the least-squares fit
    of its table at the nodes by the even powers up to max(deg envelope, 2),
    which need not confine: the chain corrects to V exactly.
    """
    if v.is_polynomial:
        return v.coeffs
    xs, scale = np.asarray(v.table_x), max(abs(v.table_x[0]), abs(v.table_x[-1]))
    powers = np.arange(0, max(len(v.coeffs) - 1, 2) + 1, 2)
    fit = np.linalg.lstsq((xs[:, None] / scale) ** powers, v.table_v, rcond=None)[0]
    coeffs = np.zeros(powers[-1] + 1)
    coeffs[powers] = fit / scale ** powers
    return tuple(coeffs)


def _mcmc_chains(streams, n: int, p: float, v: Potential, tilts, sweeps: int,
                 thin: int = 1, proposal_scales=(0.5, 0.5)) -> list[McmcReport]:
    """``mcmc_toda`` chains under one V, chain c at tilt ``tilts[c]``, as one (chains, N) state.

    Chain c samples the Toda ensemble under tilts[c] * V.  Every move takes
    its Tr V change from the polynomial V_s = ``_surrogate(v)``, times the
    chain's tilt, so all chains share V_s's colour classes.  A polynomial V
    is its own V_s, and its sweep is one pass over the classes.  A tabulated
    V's sweep is that pass and its exact reverse, a palindrome at frozen
    scales and so reversible for the V_s law, then per chain one correction
    accepted with probability min(1, exp(-tilt [dTr V - dTr V_s])).  Chain c
    draws from ``streams[c]`` what a batch of one on that stream draws, in
    the same order, and at tilt 1 matches ``mcmc_toda(streams[c], n, p, v, ...)``
    bit for bit.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0 < p < math.inf:
        raise ValueError("pressure p must be positive")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if not (proposal_scales[0] > 0 and proposal_scales[1] > 0):
        raise ValueError("proposal scales must be positive")
    tilts = np.asarray(tilts, dtype=float)
    if tilts.shape != (len(streams),) or not np.all((tilts >= 0) & (tilts < math.inf)):
        raise ValueError("need one finite, nonnegative tilt per stream")

    rngs = [stream.generator() for stream in streams]
    burn = int(BURN_IN_FRACTION * sweeps)
    if v.is_zero:
        return [_run_exact_chain(rng, n, p, sweeps, burn, thin) for rng in rngs]

    chains = len(rngs)
    diag, off = (np.array(x) for x in zip(*(_draw_entries(rng, n, np.full(n, p))
                                            for rng in rngs)))
    coeffs = _surrogate(v)
    # Tr V(M) of each chain's current state, untilted; the moves advance it by
    # their V_s deltas, which a tabulated V's correction replaces by V's
    trv = np.array([n * trace_potential(PeriodicJacobiMatrix(d, o), v)
                    for d, o in zip(diag, off)])

    # diag then offdiag, each a (chains, 1) column like the tilts
    scales = np.ones((2, chains, 1)) * np.reshape(proposal_scales, (2, 1, 1))
    tilts = tilts[:, None]
    # diag, offdiag and, for a tabulated V, correction acceptances since the last reset
    accepted = np.zeros((2 + v.is_tabulated, chains), dtype=int)
    # every 25 sweeps, or once at the end of a shorter burn-in
    adapt_interval = min(25, burn) if burn >= ADAPT_MIN_BURN else 0

    # the state and the draws are indexed flat: a class's sites in every chain
    flat_diag, flat_off = diag.reshape(-1), off.reshape(-1)
    steps = [(sites, sites + n * np.arange(chains)[:, None], kind)
             for sites in _colour_classes(n, len(coeffs) - 1) for kind in ("diag", "offdiag")]
    passes = [steps] if v.is_polynomial else [steps, steps[::-1]]

    def deltas(sites, kind, new_values):
        block = max(1, DELTA_WINDOWS // sites.size)
        return np.concatenate([
            _trace_deltas(diag[c:c + block], off[c:c + block], True, sites, kind,
                          new_values[c:c + block], coeffs) for c in range(0, chains, block)])

    moves = np.array([n * len(passes)] * 2 + [1] * v.is_tabulated)[:, None]
    samples, t2_series, trv_series = [[] for _ in rngs], [], []

    for sweep in range(sweeps):
        if sweep == burn:  # the acceptance rates count post-burn sweeps only
            accepted[:] = 0
        # per chain: each pass's proposals and uniforms by site, then the correction's
        draws = [np.concatenate(x) for x in zip(*(
            [x for _ in passes for x in (rng.standard_normal(n), np.log(rng.random(n)),
                                         rng.standard_normal(n), np.log(rng.random(n)))]
            + ([np.log(rng.random(1))] if v.is_tabulated else []) for rng in rngs))]
        if v.is_tabulated:
            start = diag.copy(), off.copy(), trv.copy()
        for k, pass_steps in enumerate(passes):
            xi_a, log_u_a, xi_b, log_u_b = draws[4 * k:4 * k + 4]
            for sites, at, kind in pass_steps:
                if kind == "diag":
                    # Gaussian random walk
                    a_old = flat_diag[at]
                    a_new = a_old + scales[0] * xi_a[at]
                    dtrv = deltas(sites, kind, a_new)
                    ok = log_u_a[at] < _log_accept_a(a_old, a_new, tilts * dtrv)
                    flat_diag[at[ok]] = a_new[ok]
                    accepted[0] += ok.sum(axis=1)
                else:
                    # multiplicative log-normal random walk; a proposal that
                    # overflows or is not positive is rejected
                    b_old = flat_off[at]
                    with np.errstate(over="ignore", invalid="ignore"):
                        b_new = b_old * np.exp(scales[1] * xi_b[at])
                        valid = (b_new > 0.0) & np.isfinite(b_new)
                        b_new = np.where(valid, b_new, b_old)
                        dtrv = deltas(sites, kind, b_new)
                        ok = valid & (log_u_b[at] < _log_accept_b(b_old, b_new, p, tilts * dtrv))
                    flat_off[at[ok]] = b_new[ok]
                    accepted[1] += ok.sum(axis=1)
                trv += np.add.reduce(dtrv, axis=1, where=ok)
        if v.is_tabulated:
            # trv has moved from start[2] by the sweep's dTr V_s
            exact = np.array([n * trace_potential(PeriodicJacobiMatrix(d, o), v)
                              for d, o in zip(diag, off)])
            ok = draws[-1] < -tilts[:, 0] * (exact - trv)
            diag[~ok], off[~ok] = start[0][~ok], start[1][~ok]
            trv = np.where(ok, exact, start[2])
            accepted[2] += ok

        if sweep < burn:
            if adapt_interval and (sweep + 1) % adapt_interval == 0:
                rate = (accepted[:2] / (moves[:2] * adapt_interval))[..., None]
                scales = np.where(rate > 0.40, np.minimum(scales * 1.25, 10.0),
                                  np.where(rate < 0.30, np.maximum(scales / 1.25, 1e-3), scales))
                accepted[:] = 0
            continue

        t2_series.append((np.sum(diag ** 2, axis=1) + 2.0 * np.sum(off ** 2, axis=1)) / n)
        trv_series.append(trv / n)
        if (sweep - burn) % thin == 0:
            for chain_samples, d, o in zip(samples, diag, off):
                chain_samples.append(PeriodicJacobiMatrix(d, o, periodic=True))

    rates = accepted / (moves * (sweeps - burn))
    series, v_series = (np.ascontiguousarray(np.transpose(x)) for x in (t2_series, trv_series))
    return [McmcReport(
        samples=kept,
        acceptance={kind: float(rate) for kind, rate in
                    zip(("diag", "offdiag", "correction"), rates[:, c])},
        autocorr_time=integrated_autocorr_time(series[c]),
        ess=len(kept) / integrated_autocorr_time(series[c, ::thin]),
        sweeps=sweeps,
        trace_sq_series=series[c],
        trace_v_series=v_series[c],
        proposal_scales=(float(scales[0, c, 0]), float(scales[1, c, 0])),
    ) for c, kept in enumerate(samples)]


def replica_map(fn, replicas: int, master_seed: int, workers: int = 1) -> list:
    """Run fn(stream) for stream ids 0..replicas-1, serially in id order.

    ``workers`` is ignored (the LAPACK wrappers hold the GIL, so threads gain
    nothing); it stays only because the benchmark harness passes and binds it.
    """
    return [fn(SeededStream(master_seed, i)) for i in range(replicas)]
