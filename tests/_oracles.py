"""Independent oracles used by the tests.

Each oracle recomputes a quantity along a route disjoint from the library
implementation it checks: characteristic-polynomial root bracketing for
eigenvalues, a linear program for the bathtub dual distance (on CDF gaps
counted directly from the atoms), characteristic-function quadrature for the
log-energy distance, brute-force quadrature for the two-point
beta-ensemble moment, a one-move-at-a-time Metropolis sweep with Tr V
from the dense matrix, the untruncated Gaussian kernel sum, and closed forms
for a quadratic V; ``dense`` builds a matrix's dense form and ``with_entry``
copies a matrix with one entry changed.  Nothing here imports from todagibbs.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial as Poly
from scipy.integrate import nquad
from scipy.optimize import brentq, linprog


def dense(m):
    """The dense N x N form of a periodic or plain tridiagonal matrix."""
    n = m.n
    out = np.diag(m.diag)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = out[idx + 1, idx] = m.offdiag[: n - 1]
    if m.periodic:
        out[0, n - 1] = out[n - 1, 0] = m.offdiag[n - 1]
    return out


def with_entry(m, site, kind, value):
    """Copy of the matrix m with its diagonal or off-diagonal entry at ``site`` set to value."""
    diag, off = m.diag.copy(), m.offdiag.copy()
    {"diag": diag, "offdiag": off}[kind][site] = value
    return type(m)(diag, off, m.periodic)


def char_poly_eigenvalues(m):
    """Eigenvalues via symbolic determinant expansion plus root bracketing."""
    n = m.n
    a = dense(m)
    entries = [[Poly([a[i, j]]) for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] = Poly([a[i, i], -1.0])

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = Poly([0.0])
        r0 = rows[0]
        for idx, c in enumerate(cols):
            e = entries[r0][c]
            if e.coef.size == 1 and e.coef[0] == 0.0:
                continue
            term = e * det(rows[1:], cols[:idx] + cols[idx + 1:])
            total = total + term if idx % 2 == 0 else total - term
        return total

    p = det(list(range(n)), list(range(n)))
    radius = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    xs = np.linspace(-radius, radius, 20001)
    vals = p(xs)
    roots = []
    for i in range(xs.size - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(p, xs[i], xs[i + 1], xtol=1e-14, rtol=8.9e-16))
    return np.sort(np.asarray(roots))


def atomic_cdf_gap(atoms1, atoms2):
    """Merged atoms and F1 - F2 on each cell between them, by counting atoms <= x."""
    pts = np.unique(np.concatenate((atoms1, atoms2)))

    def cdf(atoms):
        return np.mean(np.asarray(atoms)[None, :] <= pts[:-1, None], axis=1)

    return pts, cdf(atoms1) - cdf(atoms2)


def bathtub_lp(mu, nu):
    """Dual distance as an explicit linear program over the cell values of g.

    Valid for atomic measures, where the CDF difference is constant on each
    merged-partition cell.
    """
    pts, d_f = atomic_cdf_gap(mu.values, nu.values)
    lengths = np.diff(pts)
    k = lengths.size
    # g = u - v with u, v in [0, 1]; budget sum (u + v) length <= 1
    c = np.concatenate((-d_f * lengths, d_f * lengths))
    a_ub = np.concatenate((lengths, lengths))[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=[1.0], bounds=[(0.0, 1.0)] * (2 * k),
                  method="highs")
    assert res.status == 0
    return float(-res.fun)


def fourier_log_energy(rho1, rho2, t_min=1e-4, t_max=1e4, n_t=6000):
    """Log-energy distance from the weighted characteristic-function integral.

    The densities are cellwise constant, so their transform is the midpoint
    atom transform times sinc(t h / 2).  Below t_min the integrand is taken
    at its analytic small-t limit (the difference has zero mass, so the
    transform is O(t) there).
    """
    grid = rho1.grid
    delta = (rho1.values - rho2.values) * grid.h
    x = grid.x
    t = np.exp(np.linspace(np.log(t_min), np.log(t_max), n_t))
    phi = np.exp(1j * np.outer(t, x)) @ delta
    phi *= np.sinc(t * grid.h / (2.0 * np.pi))
    integrand = np.abs(phi) ** 2 / t
    total = np.trapezoid(integrand * t, np.log(t))
    first_moment = float(np.dot(x, delta))
    total += 0.5 * (first_moment * t_min) ** 2
    return float(np.sqrt(max(total, 0.0)))


def direct_gaussian_kde(values, x, h, bandwidth):
    """Gaussian kernel of every value summed at every point x, scaled to unit mass (sum * h).

    No truncation and no windowing: every term at every point, one value at a time.
    """
    x = np.asarray(x)
    total = np.zeros(x.size)
    for value in np.asarray(values):
        total += np.exp(-(x - value) ** 2 / (2.0 * bandwidth * bandwidth))
    return total / (total.sum() * h)


def beta_two_point_trace_moment(beta, cutoff=12.0):
    """E[x^2 + y^2] under the density c |x-y|^beta exp(-(x^2+y^2)/2)."""
    dens = lambda y, x: abs(x - y) ** beta * np.exp(-(x * x + y * y) / 2.0)
    # break the inner integral at the moving |x - y| singularity
    opts = [lambda x: {"limit": 300, "points": [x]}, {"limit": 300}]
    z, _ = nquad(dens, [[-cutoff, cutoff], [-cutoff, cutoff]], opts=opts)
    num, _ = nquad(lambda y, x: (x * x + y * y) * dens(y, x),
                   [[-cutoff, cutoff], [-cutoff, cutoff]], opts=opts)
    return num / z


def sequential_metropolis_sweeps(diag, off, p, coeffs, classes, draws, scales):
    """States after each sweep of a one-move-at-a-time Metropolis chain on a periodic matrix.

    Tr V(M) is taken from the dense matrix before and after every move.
    Sites are visited class by class: the diagonal move of each site of the
    class in turn, then the off-diagonal move of each.  ``draws`` holds one
    (xi_a, log_u_a, xi_b, log_u_b) tuple per sweep, indexed by site; a move is
    a + s_a xi_a or b exp(s_b xi_b), accepted when log u is below the log
    ratio of exp(-a^2/2) b^(2p-1) exp(-b^2) exp(-Tr V) times the log-normal
    Jacobian b'/b.
    """
    diag, off = np.array(diag, dtype=float), np.array(off, dtype=float)
    n = diag.size
    nxt = (np.arange(n) + 1) % n

    def trace_v():
        m = np.diag(diag)
        m[np.arange(n), nxt] = off
        m[nxt, np.arange(n)] = off
        return sum(c * np.trace(np.linalg.matrix_power(m, k)) for k, c in enumerate(coeffs))

    states = []
    for xi_a, log_u_a, xi_b, log_u_b in draws:
        for sites in classes:
            for i in sites:
                a, before = diag[i], trace_v()
                diag[i] = a + scales[0] * xi_a[i]
                log_ratio = -0.5 * (diag[i] ** 2 - a ** 2) - (trace_v() - before)
                if not log_u_a[i] < log_ratio:
                    diag[i] = a
            for i in sites:
                b, before = off[i], trace_v()
                off[i] = b * np.exp(scales[1] * xi_b[i])
                log_ratio = (2.0 * p * np.log(off[i] / b) - (off[i] ** 2 - b ** 2)
                             - (trace_v() - before))
                if not log_u_b[i] < log_ratio:
                    off[i] = b
        states.append((diag.copy(), off.copy()))
    return states


# V = c x^2 keeps the entries independent: Tr V(M) = c (sum a_i^2 + 2 sum b_i^2).
# Under the Toda law tilted by exp(-alpha Tr V), a_i ~ N(0, 1 / (1 + 2 alpha c))
# and b_i^2 ~ Gamma(P, scale 1 / (1 + 2 alpha c)) (Dumitriu and Edelman,
# J. Math. Phys. 2002), which gives both closed forms at every N.

def quadratic_v_log_moment(c, p):
    """(1/N) log E_0[exp(-Tr V)] for V = c x^2: -(1/2 + P) log(1 + 2c).

    E[exp(-c a^2)] = (1 + 2c)^(-1/2) for a ~ N(0, 1) and E[exp(-2c b^2)] =
    (1 + 2c)^(-P) for b^2 ~ Gamma(P, 1).
    """
    return -(0.5 + p) * math.log1p(2.0 * c)


def quadratic_v_tilted_mean(c, p, alpha=1.0):
    """E_alpha[(1/N) Tr V] for V = c x^2 at tilt alpha: c (1 + 2P) / (1 + 2 alpha c)."""
    return c * (1.0 + 2.0 * p) / (1.0 + 2.0 * alpha * c)


def quadratic_v_diag_second_moment(c, alpha=1.0):
    """E_alpha[a_i^2] for V = c x^2 at tilt alpha: 1 / (1 + 2 alpha c)."""
    return 1.0 / (1.0 + 2.0 * alpha * c)


def quadratic_v_offdiag_second_moment(c, p, alpha=1.0):
    """E_alpha[b_i^2] for V = c x^2 at tilt alpha: P / (1 + 2 alpha c), the Gamma mean."""
    return p / (1.0 + 2.0 * alpha * c)
