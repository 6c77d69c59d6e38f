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
proposal Jacobian included in the ratio).  For polynomial V of degree d a
move at site i changes Tr V(M) only through entries within d of i, so sites
at least 2d + 2 apart on the cycle are conditionally independent; each sweep
visits colour classes of such sites (the chromatic Gibbs sampler of
Gonzalez, Low, Gretton and Guestrin, AISTATS 2011) and decides a whole class
at once from stacked local windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import PeriodicJacobiMatrix, _trace_deltas, trace_potential
from .potentials import Potential

# Underflow guard: chi draws with tiny degrees of freedom concentrate below
# the smallest normal double; flooring keeps entries strictly positive without
# moving any eigenvalue at solver precision.
_CHI_FLOOR = 1e-300

TABULATED_MCMC_MAX_N = 400
# share of the sweeps that mcmc_toda spends adapting proposal scales and discards
BURN_IN_FRACTION = 0.2
# a burn-in of fewer sweeps measures the acceptance of the chain's first,
# transient sweeps more than the chain's own, so it adapts nothing: from the
# V = 0 start under V = x^4 at scale 0.5, the mean rate of one sweep climbs
# from 0.55 to within 0.02 of its settled 0.67-0.71 by about sweep 10
ADAPT_MIN_BURN = 10


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


def _chi_positive(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, _CHI_FLOOR)


def _draw_entries(rng: np.random.Generator, n: int, shapes: np.ndarray):
    """n standard-normal diagonal entries, then sqrt(Gamma(shape, 1)) off-diagonal entries."""
    diag = rng.standard_normal(n)
    return diag, _chi_positive(np.sqrt(rng.gamma(shapes, 1.0)))


def sample_chi(stream: SeededStream, dof: float, size=None):
    """Chi-distributed draw(s): X with X^2 ~ Gamma(dof/2, scale 2).

    Any dof > 0 is accepted, including dof < 1 where the distribution piles
    up near zero.  Draws are floored at 1e-300 to stay strictly positive.
    """
    if not dof > 0:
        raise ValueError("dof must be positive")
    rng = stream.generator()
    x = np.sqrt(rng.gamma(dof / 2.0, 2.0, size=size))
    return _chi_positive(x) if size is not None else float(max(x, _CHI_FLOOR))


def sample_toda_matrix(stream: SeededStream, n: int, p: float) -> PeriodicJacobiMatrix:
    """Periodic matrix with iid entries: diag N(0,1), offdiag chi_{2P}/sqrt(2)."""
    if n < 3:
        raise ValueError("need n >= 3 for a periodic matrix")
    if not p > 0:
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
    if not p > 0:
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


def sample_coupled_toda(stream: SeededStream, n: int, s: float, h: float):
    """Monotone coupling of pressures s and s+h on a shared diagonal.

    The second matrix's off-diagonal entries are the root-sum-square of the
    first's with an independent chi_{2h}/sqrt(2) increment, so marginals are
    exact and entrywise dominance b_i(s+h) >= b_i(s) holds surely.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not (s > 0 and h > 0):
        raise ValueError("s and h must be positive")
    rng = stream.generator()
    diag = rng.standard_normal(n)
    b_s_sq = rng.gamma(s, 1.0, size=n)
    incr_sq = rng.gamma(h, 1.0, size=n)
    b_s = _chi_positive(np.sqrt(b_s_sq))
    b_sh = _chi_positive(np.sqrt(b_s_sq + incr_sq))
    lo = PeriodicJacobiMatrix(diag, b_s, periodic=True)
    hi = PeriodicJacobiMatrix(diag, b_sh, periodic=True)
    return lo, hi


# -- Metropolis-within-Gibbs chain ---------------------------------------


@dataclass
class McmcReport:
    """Thinned samples plus mixing diagnostics for one chain."""

    samples: list
    acceptance: dict
    autocorr_time: float
    ess: float
    sweeps: int
    trace_sq_series: np.ndarray = field(repr=False, default=None)
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
    if n < 8:
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


def _colour_classes(n: int, radius: int) -> list[np.ndarray]:
    """Sites 0..n-1 in classes whose members are >= 2 radius + 2 apart on the cycle.

    A move at site i changes Tr V(M) only through entries within ``radius``
    of i (its degree, for polynomial V), so moves of one class have disjoint
    windows and are conditionally independent.  The cycle is cut into
    floor(n / (2 radius + 2)) near-equal blocks, each at least that long, and
    a site's colour is its position inside its block.  With one block (small
    n, or radius n for a move that reads the whole spectrum) every class is a
    single site, in site order.
    """
    blocks = max(n // (2 * radius + 2), 1)
    starts = np.arange(blocks) * n // blocks
    sizes = np.diff(starts, append=n)
    return [starts[sizes > c] + c for c in range(int(sizes.max()))]


def mcmc_toda(stream: SeededStream, n: int, p: float, v: Potential,
              sweeps: int, thin: int = 1, proposal_scales=(0.5, 0.5)) -> McmcReport:
    """Sample the Toda Gibbs ensemble with confining potential V at pressure P.

    For V = 0 the invariant law factorizes over entries and each sweep draws
    the state exactly (acceptance 1).  Otherwise a Metropolis-within-Gibbs
    sweep updates every diagonal and off-diagonal entry once, one colour
    class at a time (``_colour_classes``): the diagonal moves of the class,
    then its off-diagonal moves, each decided together.  Each sweep draws its
    proposals and uniforms for all N sites up front, indexed by site.
    Proposal scales adapt toward 30-40% acceptance during the burn-in (the
    first BURN_IN_FRACTION of the sweeps, which yields no samples), every 25
    sweeps or once at its end if it is shorter, then freeze; a burn-in of
    fewer than ADAPT_MIN_BURN sweeps keeps the given scales.  Polynomial V
    takes exact Tr V changes from dense local windows, stacked per class;
    when N < 4 deg V + 4 every class is one site, in site order.  Tabulated
    V recomputes the full spectrum per move, so it runs one site at a time,
    and is limited to N <= 400.  This is the batch of one of ``_mcmc_chains``.
    """
    return _mcmc_chains([stream], n, p, [v], sweeps, thin, proposal_scales)[0]


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
    )


def _mcmc_chains(streams, n: int, p: float, potentials, sweeps: int, thin: int = 1,
                 proposal_scales=(0.5, 0.5)) -> list[McmcReport]:
    """``mcmc_toda`` chains, one per stream and potential, advanced as one (chains, N) state.

    The potentials share kind and degree, hence the colour classes.  Chain c
    draws what ``mcmc_toda(streams[c], n, p, potentials[c], ...)`` draws, in
    the same order, and matches it bit for bit.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not p > 0:
        raise ValueError("pressure p must be positive")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if not (proposal_scales[0] > 0 and proposal_scales[1] > 0):
        raise ValueError("proposal scales must be positive")
    if len({(u.kind, len(u.coeffs)) for u in potentials}) != 1:
        raise ValueError("batched chains need potentials of one kind and degree")
    for u in potentials:
        u.require_confining()
    v = potentials[0]
    if v.is_tabulated and n > TABULATED_MCMC_MAX_N:
        raise ValueError(
            f"tabulated potentials recompute full spectra per move; N <= {TABULATED_MCMC_MAX_N}"
        )

    rngs = [stream.generator() for stream in streams]
    burn = int(BURN_IN_FRACTION * sweeps)
    if v.is_zero:
        return [_run_exact_chain(rng, n, p, sweeps, burn, thin) for rng in rngs]

    chains = len(rngs)
    diag, off = (np.array(x) for x in zip(*(_draw_entries(rng, n, np.full(n, p))
                                            for rng in rngs)))
    # a tabulated V's every move reads the whole spectrum: singleton classes
    classes = _colour_classes(n, v.degree if v.is_polynomial else n)
    if v.is_polynomial:
        # a power's coefficient stays a float (so a zero is skipped) where all chains share it
        coeffs = tuple(float(col[0]) if np.all(col == col[0]) else col[:, None, None]
                       for col in np.array([u.coeffs for u in potentials]).T)

        def delta_tr(sites, kind, new_values):
            return _trace_deltas(diag, off, True, sites, kind, new_values, coeffs)
    else:
        # Tr V(M) of each chain's current state, kept for the delta
        trv = np.array([n * trace_potential(PeriodicJacobiMatrix(d, o), u)
                        for d, o, u in zip(diag, off, potentials)])

        def delta_tr(sites, kind, new_values):
            return np.array([[n * trace_potential(PeriodicJacobiMatrix(d, o).with_entry(
                int(sites[0]), kind, float(x[0])), u) - t]
                for d, o, x, u, t in zip(diag, off, new_values, potentials, trv)])

    # diag then offdiag, each a (chains, 1) column
    scales = np.ones((2, chains, 1)) * np.reshape(proposal_scales, (2, 1, 1))
    accepted, proposed = np.zeros((2, chains), dtype=int), 0
    # every 25 sweeps, or once at the end of a shorter burn-in
    adapt_interval = min(25, burn) if burn >= ADAPT_MIN_BURN else 0

    # the state and the draws are indexed flat: a class's sites in every chain
    flat_diag, flat_off = diag.reshape(-1), off.reshape(-1)
    flat_classes = [(sites, sites + n * np.arange(chains)[:, None]) for sites in classes]
    moved = np.zeros((2, chains * n), dtype=bool)
    samples, t2_series = [[] for _ in rngs], []

    for sweep in range(sweeps):
        xi_a, log_u_a, xi_b, log_u_b = (np.concatenate(x) for x in zip(*(
            (rng.standard_normal(n), np.log(rng.random(n)),
             rng.standard_normal(n), np.log(rng.random(n))) for rng in rngs)))
        for sites, at in flat_classes:
            # diagonal moves: Gaussian random walk
            a_old = flat_diag[at]
            a_new = a_old + scales[0] * xi_a[at]
            dtrv = delta_tr(sites, "diag", a_new)
            ok = log_u_a[at] < _log_accept_a(a_old, a_new, dtrv)
            flat_diag[at[ok]] = a_new[ok]
            moved[0, at] = ok
            if not v.is_polynomial:
                trv += np.where(ok, dtrv, 0.0)[:, 0]
            # off-diagonal moves: multiplicative log-normal random walk; a
            # proposal that overflows or is not positive is rejected
            b_old = flat_off[at]
            with np.errstate(over="ignore", invalid="ignore"):
                b_new = b_old * np.exp(scales[1] * xi_b[at])
                valid = (b_new > 0.0) & np.isfinite(b_new)
                b_new = np.where(valid, b_new, b_old)
                dtrv = delta_tr(sites, "offdiag", b_new)
                ok = valid & (log_u_b[at] < _log_accept_b(b_old, b_new, p, dtrv))
            flat_off[at[ok]] = b_new[ok]
            moved[1, at] = ok
            if not v.is_polynomial:
                trv += np.where(ok, dtrv, 0.0)[:, 0]
        # the classes partition the sites: each move was recorded once
        accepted += moved.reshape(2, chains, n).sum(axis=2)
        proposed += n

        if sweep < burn:
            if adapt_interval and (sweep + 1) % adapt_interval == 0:
                rate = (accepted / max(proposed, 1))[..., None]
                scales = np.where(rate > 0.40, np.minimum(scales * 1.25, 10.0),
                                  np.where(rate < 0.30, np.maximum(scales / 1.25, 1e-3), scales))
                accepted[:], proposed = 0, 0
            continue

        t2_series.append((np.sum(diag ** 2, axis=1) + 2.0 * np.sum(off ** 2, axis=1)) / n)
        if (sweep - burn) % thin == 0:
            for chain_samples, d, o in zip(samples, diag, off):
                chain_samples.append(PeriodicJacobiMatrix(d, o, periodic=True))

    rates = accepted / max(proposed, 1)
    series = np.ascontiguousarray(np.transpose(t2_series))
    return [McmcReport(
        samples=kept,
        acceptance={"diag": float(rates[0, c]), "offdiag": float(rates[1, c])},
        autocorr_time=integrated_autocorr_time(series[c]),
        ess=len(kept) / integrated_autocorr_time(series[c, ::thin]),
        sweeps=sweeps,
        trace_sq_series=series[c],
        proposal_scales=(float(scales[0, c, 0]), float(scales[1, c, 0])),
    ) for c, kept in enumerate(samples)]


def replica_map(fn, replicas: int, master_seed: int, workers: int = 1) -> list:
    """Run fn(stream) for stream ids 0..replicas-1, serially in id order.

    ``workers`` is ignored (the LAPACK wrappers hold the GIL, so threads gain
    nothing); it stays only because the benchmark harness passes and binds it.
    """
    return [fn(SeededStream(master_seed, i)) for i in range(replicas)]
