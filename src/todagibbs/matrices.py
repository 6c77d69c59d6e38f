"""Periodic Jacobi matrices, spectra and trace functionals.

The central object is a symmetric tridiagonal matrix stored as its diagonal
and off-diagonal sequences.  Periodic matrices carry one extra coupling in
the (1, N) / (N, 1) corner, the last entry of ``offdiag``.  Storage is
structure-of-sequences.  The eigensolver never builds the dense matrix:
both kinds are one symmetric band, of half-width 1 for a plain tridiagonal
matrix and 2 for a periodic one folded (see ``eigenvalues``), solved by
one LAPACK ``dsbevd`` call.

Traces also avoid the dense matrix.  (M^k)_{jj} is a sum over closed
length-k walks at j, and such a walk stays within k // 2 sites of j, so
every trace functional is read off one routine: ``_windows`` stacks the
small dense windows of M around many sites, and ``_poly_diagonals`` takes
the diagonal of V(W) for each.  ``trace_power`` and ``trace_potential`` for
polynomial V, V = 0 included, sum the centre entry V(M)_jj of the window
around each j at every N (a cycle too short for the window is its own
window), and ``_trace_deltas`` gets the change of Tr V(M) under one
entry-pair update from the windows of radius ``_delta_radius`` around the
modified sites of a whole colour class of the Metropolis chain at once.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .potentials import Potential


class InvalidMatrixError(ValueError):
    """Matrix violates a structural precondition (shape, finiteness)."""


@dataclass(frozen=True)
class PeriodicJacobiMatrix:
    """Symmetric tridiagonal matrix, optionally with periodic corner entries.

    ``diag`` has length N.  For periodic matrices ``offdiag`` also has
    length N and its last entry sits in the corner; for plain tridiagonal
    matrices ``offdiag`` has length N - 1.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    periodic: bool = True

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float)).copy()
        off = np.atleast_1d(np.asarray(self.offdiag, dtype=float)).copy()
        n = diag.size
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise InvalidMatrixError("matrix has non-finite entries")
        if self.periodic:
            if n < 3:
                raise InvalidMatrixError("periodic matrices need N >= 3")
            if off.size != n:
                raise InvalidMatrixError(
                    f"periodic matrix expects {n} offdiagonal entries, got {off.size}"
                )
        else:
            if n < 2:
                raise InvalidMatrixError("need N >= 2")
            if off.size != n - 1:
                raise InvalidMatrixError(
                    f"tridiagonal matrix expects {n - 1} offdiagonal entries, got {off.size}"
                )
        diag.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def n(self) -> int:
        return self.diag.size


@dataclass(frozen=True)
class EmpiricalSpectralMeasure:
    """Sorted eigenvalue list carrying uniform weights 1/len."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.sort(np.atleast_1d(np.asarray(self.values, dtype=float)))
        if vals.size < 1:
            raise ValueError("empirical spectral measure needs at least one point")
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def moment(self, k: int) -> float:
        return float(np.mean(self.values ** k))


def _folded_band(m: PeriodicJacobiMatrix) -> np.ndarray:
    """Lower band storage (3 x N) of the periodic matrix in folded order.

    Visiting the sites as 0, N-1, 1, N-2, 2, ... places every neighbour of the
    cycle, the corner bond (N-1, 0) included, at most two positions away, so
    the permuted matrix is a symmetric band of half-width 2.  Row r, column c
    holds the permuted entry (c + r, c).
    """
    n = m.n
    perm = np.empty(n, dtype=np.intp)
    perm[0::2] = np.arange((n + 1) // 2)
    perm[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    ab = np.zeros((3, n), order="F")
    ab[0] = m.diag[perm]
    # bond i couples sites i and i + 1 (mod N) with weight offdiag[i]
    nxt = np.roll(inv, -1)
    ab[np.abs(inv - nxt), np.minimum(inv, nxt)] = m.offdiag
    return ab


# LAPACK dsbevd in the BLAS library that numpy links, with the width of its
# integer arguments: numpy's wheels bundle OpenBLAS built for 64-bit integers
# with a ``scipy_`` prefix; other builds export the plain Fortran names
_DSBEVD_SYMBOLS = (("scipy_dsbevd_64_", ctypes.c_int64), ("dsbevd_64_", ctypes.c_int64),
                   ("dsbevd_", ctypes.c_int32))


@functools.cache
def _dsbevd():
    """LAPACK ``dsbevd`` and its integer type, from the library numpy already loaded.

    The symbol is looked up through numpy's LAPACK extension module, whose
    dependencies hold the BLAS library, so nothing new is loaded.  A
    ``ctypes.CDLL`` call releases the GIL, so threads eigensolve in parallel.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name, int_type in _DSBEVD_SYMBOLS:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        # JOBZ, UPLO, N, KD, AB, LDAB, W, Z, LDZ, WORK, LWORK, IWORK, LIWORK,
        # INFO, then the hidden lengths of the two strings
        fn.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 12 + [ctypes.c_size_t] * 2
        fn.restype = None
        return fn, int_type
    raise ImportError("the eigensolve needs LAPACK dsbevd, but numpy's BLAS library exports "
                      f"none of {', '.join(name for name, _ in _DSBEVD_SYMBOLS)}")


def eigenvalues(m: PeriodicJacobiMatrix) -> EmpiricalSpectralMeasure:
    """All eigenvalues, ascending, from one LAPACK ``dsbevd`` call.

    A plain tridiagonal matrix is its own symmetric band of half-width 1.  A
    periodic matrix is folded into a symmetric band of half-width 2
    (``_folded_band``); the permutation is a similarity, so the spectrum is
    unchanged.  Eigenvalues only, O(N^2).
    """
    n = m.n
    if m.periodic:
        ab = _folded_band(m)
    else:
        ab = np.zeros((2, n), order="F")
        ab[0] = m.diag
        ab[1, :-1] = m.offdiag
    dsbevd, int_type = _dsbevd()
    kd = ab.shape[0] - 1
    # N, KD, LDAB, LDZ, LWORK, LIWORK, INFO, IWORK: eigenvalues only, lower band
    ints = (int_type * 8)(n, kd, kd + 1, 1, 2 * n, 1, 0, 0)
    n_, kd_, ldab, ldz, lwork, liwork, info, iwork = (
        ctypes.addressof(ints) + k * ctypes.sizeof(int_type) for k in range(8))
    vals, z, work = np.empty(n), np.empty(1), np.empty(2 * n)
    dsbevd(b"N", b"L", n_, kd_, ab.ctypes.data, ldab, vals.ctypes.data, z.ctypes.data, ldz,
           work.ctypes.data, lwork, iwork, liwork, info, 1, 1)
    if ints[6] != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsbevd failed with info = {ints[6]}")
    return EmpiricalSpectralMeasure(vals)


def spectra(ms) -> list[EmpiricalSpectralMeasure]:
    """``eigenvalues`` of each matrix, in input order, on min(len, cpu count) threads.

    The calling thread and k - 1 new ones each take every k-th matrix; the
    LAPACK call releases the GIL, so the solves run in parallel.  An error
    in any thread is raised here once all have finished.
    """
    ms = list(ms)
    k = max(min(len(ms), os.cpu_count() or 1), 1)
    out: list = [None] * len(ms)
    errors: list = []

    def solve(start):
        try:
            for i in range(start, len(ms), k):
                out[i] = eigenvalues(ms[i])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=solve, args=(t,)) for t in range(1, k)]
    for thread in threads:
        thread.start()
    solve(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


def _windows(diag: np.ndarray, off: np.ndarray, periodic: bool, sites: np.ndarray,
             before: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (..., sites, k, k) dense windows of M and each site's position in its window.

    Leading axes of ``diag`` and ``off`` (one matrix each) lead the windows.
    Window row t holds site + t - ``before``; consecutive rows are coupled by
    the bond between their sites, and the window is plain tridiagonal.  A
    plain tridiagonal matrix is the cycle with the closing bond set to 0.
    When k > N - 1 the window is not a proper sub-arc of the cycle, and
    every site gets the whole dense matrix instead.
    """
    n = diag.shape[-1]
    bonds = off if periodic else np.concatenate((off, np.zeros_like(off[..., :1])), axis=-1)
    if k <= n - 1:
        # bond t couples positions t and t + 1
        idx = (sites[:, None] + np.arange(-before, k - before)) % n
        pos = np.full(sites.size, before)
    else:
        k = n
        idx = np.broadcast_to(np.arange(n), (sites.size, n))
        pos = sites
    t = np.arange(k)
    w = np.zeros(diag.shape[:-1] + (sites.size, k, k))
    w[..., t, t] = diag[..., idx]
    w[..., t[:-1], t[1:]] = w[..., t[1:], t[:-1]] = bonds[..., idx[:, :-1]]
    if k == n and periodic:
        w[..., 0, n - 1] = w[..., n - 1, 0] = bonds[..., n - 1, None]
    return w, pos


def _poly_diagonals(w: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Diagonal of V(W) for a stack (..., k, k) of small dense W, V by ascending coeffs."""
    total = np.full(w.shape[:-1], coeffs[0] if coeffs else 0.0)
    acc = None
    for c in coeffs[1:]:
        acc = w if acc is None else acc @ w
        if c != 0.0:
            total = total + c * np.diagonal(acc, axis1=-2, axis2=-1)
    return total


def _trace_poly(m: PeriodicJacobiMatrix, coeffs: tuple[float, ...]) -> float:
    """Tr V(M), V by ascending coeffs, as the sum of the entries V(M)_jj.

    A closed walk of length at most d = deg V at j stays within r = d // 2
    sites of j, so V(M)_jj is the centre entry of V(W) for the window W of
    radius r around j (``_windows``; the whole matrix when N <= 2r + 1, where
    the walk can wrap the cycle).  V = 0 has no terms: r = 0 and every entry is 0.
    """
    r = max(len(coeffs) - 1, 0) // 2
    sites = np.arange(m.n)
    w, pos = _windows(m.diag, m.offdiag, m.periodic, sites, r, 2 * r + 1)
    return float(_poly_diagonals(w, coeffs)[sites, pos].sum())


def trace_power(m: PeriodicJacobiMatrix, power: int) -> float:
    """(1/N) Tr(M^power), from the window of radius power // 2 around each site."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return _trace_poly(m, (0.0,) * power + (1.0,)) / m.n


def trace_potential(m: PeriodicJacobiMatrix, v: Potential) -> float:
    """(1/N) Tr V(M): polynomial V from small dense windows, tabulated V on the spectrum."""
    if v.is_polynomial:
        return _trace_poly(m, v.coeffs) / m.n
    return float(np.mean(v(eigenvalues(m).values)))


def _delta_radius(degree: int) -> int:
    """r such that a closed walk of length <= degree through one entry stays within r sites of it.

    It spends one step on a diagonal entry, or two crossing a bond and back, and
    retraces every other step: r = (degree - 1) // 2 beyond either end of a bond.
    ``_trace_deltas`` reads that window; ``sampling._colour_classes`` spaces moves r + 1 apart.
    """
    return max(degree - 1, 0) // 2


def _trace_deltas(diag: np.ndarray, off: np.ndarray, periodic: bool, sites: np.ndarray,
                  kind: str, new_values: np.ndarray, coeffs) -> np.ndarray:
    """Tr V(M') - Tr V(M) per site for polynomial V, M' replacing that site's entry pair.

    V has ``coeffs`` as in ``_poly_diagonals``; leading axes of ``diag``,
    ``off`` and ``new_values`` hold one matrix each.  Each move is taken
    alone against M, exactly, from the old and the new window (``_windows``)
    of radius ``_delta_radius(deg V)`` traced together.
    """
    r = _delta_radius(len(coeffs) - 1)
    sites = np.asarray(sites)
    w, pos = _windows(diag, off, periodic, sites, r, 2 * r + (1 if kind == "diag" else 2))
    w = np.array((w, w))
    rows, k = np.arange(sites.size), w.shape[-1]
    if kind == "diag":
        w[1][..., rows, pos, pos] = new_values
    else:
        w[1][..., rows, pos, (pos + 1) % k] = new_values
        w[1][..., rows, (pos + 1) % k, pos] = new_values
    traces = _poly_diagonals(w, coeffs).sum(axis=-1)
    return traces[1] - traces[0]


# -- text dump format ---------------------------------------------------

def matrix_text(m: PeriodicJacobiMatrix) -> str:
    """Plain-text dump: 'N periodic_flag' / diag / offdiag, full precision."""
    return (f"{m.n} {1 if m.periodic else 0}\n"
            + " ".join(format(x, ".17g") for x in m.diag) + "\n"
            + " ".join(format(x, ".17g") for x in m.offdiag) + "\n")


def load_matrix(path) -> PeriodicJacobiMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        n, flag = int(header[0]), int(header[1])
        diag = np.array([float(t) for t in fh.readline().split()])
        off = np.array([float(t) for t in fh.readline().split()])
    if diag.size != n:
        raise InvalidMatrixError("dump header inconsistent with diagonal length")
    return PeriodicJacobiMatrix(diag, off, periodic=bool(flag))
