"""Second-order theory and exact simulation of TFBM II / TFGN II.

Closed-form variance and covariance of the normalized second-kind tempered
fractional Brownian motion, on floats or elementwise on arrays; its Matern
integrand (_matern) over a lag's triangle for the increment autocovariance;
both kinds' increment spectral densities as one lattice sum, on floats or
elementwise on arrays of omega; and exact Gaussian path sampling with a
counter-based (Philox) generator, by circulant embedding of the stationary
increment noise on regular grids from t = 0 (Davies-Harte / Wood-Chan), and
by Cholesky on every other grid and where the embedding has a negative
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, NumericsError, PoleError
from .kernels import (ProcessParams, QuadratureConfig, DEFAULT_QUAD, _check_params,
                      _quad)
from .rng import philox_streams
from . import specfun

_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grids, matrices, ensembles


@dataclass(frozen=True, eq=False)  # arrays have no truth value for ==
class SampleGrid:
    """Strictly increasing time points; uniform and dt, read-only properties
    computed from the times, describe their spacing.  Like every record
    that holds arrays, a grid compares and hashes by identity."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("grid must be a 1-D array with at least one point")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def uniform(self) -> bool:
        """Whether every spacing is the first to 1e-12 max(|t_0|, |t_-1|, 1);
        true for one point."""
        d = np.diff(self.times)
        scale = max(abs(self.times[0]), abs(self.times[-1]), 1.0)
        return bool(d.size == 0 or np.max(np.abs(d - d[0])) <= 1e-12 * scale)

    @property
    def dt(self) -> float | None:
        """The spacing of a uniform grid of two or more points, else None."""
        if self.n == 1 or not self.uniform:
            return None
        return float(self.times[1] - self.times[0])

    @classmethod
    def regular(cls, t_max: float, n: int, include_zero: bool = True) -> "SampleGrid":
        if n < 1 or t_max <= 0.0:
            raise ValueError("need n >= 1 points and t_max > 0")
        if include_zero:
            return cls(np.linspace(0.0, t_max, n))
        return cls(np.linspace(t_max / n, t_max, n))

    @property
    def n(self) -> int:
        return self.times.size


# relative diagonal shifts CovarianceMatrix.cholesky tries, in order
JITTER_LADDER = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10)


@dataclass(eq=False)
class CovarianceMatrix:
    """Covariance of TFBM II over a grid, with a cached Cholesky factor.

    ``jitter`` is the diagonal shift the factorization needed: None until
    ``cholesky`` has run, 0.0 when the matrix factored as it is.
    """

    grid: SampleGrid
    values: np.ndarray
    chol: np.ndarray | None = None
    jitter: float | None = None

    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor, tolerating exact zero-variance rows (t = 0).

        Escalating jitter eps*trace/n, eps from JITTER_LADDER, is added on
        failure and recorded in ``jitter``; running past the ladder signals a
        bug in the covariance closed form.
        """
        if self.chol is not None:
            return self.chol
        c = self.values
        n = c.shape[0]
        live = np.where(np.diag(c) > 0.0)[0]
        sub = c[np.ix_(live, live)]
        scale = np.trace(sub) / max(len(live), 1)
        for eps in JITTER_LADDER:
            shift = eps * scale
            try:
                lsub = np.linalg.cholesky(
                    sub + shift * np.eye(len(live)) if eps else sub)
            except np.linalg.LinAlgError:
                continue
            full = np.zeros_like(c)
            full[np.ix_(live, live)] = lsub
            self.chol = full
            self.jitter = float(shift)
            return full
        raise FactorizationError(
            "covariance matrix is indefinite beyond the jitter budget "
            f"(n={n}); this indicates a closed-form or series bug")


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated paths (n_paths x n_times) plus the provenance to rebuild them."""

    params: ProcessParams
    grid: SampleGrid
    paths: np.ndarray
    seed: int

    def __post_init__(self):
        if self.paths.shape != (self.paths.shape[0], self.grid.n):
            raise ValueError("paths must be n_paths x n_times")
        if not np.all(np.isfinite(self.paths)):
            raise ValueError("paths contain non-finite entries")


# ---------------------------------------------------------------------------
# closed-form second-order theory


def _fbm_coef(H: float) -> float:
    """The t^{2H} coefficient of the untempered variance and of C_t^2."""
    return specfun.gamma_fn(1.0 - H) / (_SQRT_PI * H * 2.0 ** (2.0 * H)
                                        * specfun.gamma_fn(H + 0.5))


def variance_fbm_limit(H: float, t: float) -> float:
    """Variance of the untempered (lambda = 0) limit process at time t.

    Equals t^{2H} Gamma(1-H) / (sqrt(pi) H 2^{2H} Gamma(H+1/2)), 0 < H < 1.
    """
    if not 0.0 < H < 1.0:
        raise ValueError(f"the untempered limit requires H in (0, 1), got {H}")
    _check_params(times=(t,))
    return abs(t) ** (2.0 * H) * _fbm_coef(H)


# variance_tfbm2 raises where C_t^2 is below this share of its terms' sizes
_CANCEL = 1e-7


def _variance_series(H: float, z: np.ndarray) -> np.ndarray:
    """Rows 1 - F1 and F2 over a 1-D array z >= 0, with the 2F3 of C_t^2 as
    F1 = 1F2(-1/2; 1-H, 1/2; z) and F2 = 1F2(H-1/2; H+1, H+1/2; z): 1 - F1
    from its k = 1 term z/(1-H), so nothing cancels at small z, and F2 from
    1, term j+1 of a row being term j times (a + j) z / prod(b + j).  An
    element leaves the masked loop once both ratios are below 1/2 and both
    terms within _EPS/8 of their sums, so that each tail |term| / (1 - ratio)
    is within _EPS/4, or once a sum is not finite."""
    a = np.array([[0.5], [H - 0.5]])
    b = np.array([[2.0 - H, 1.5, 2.0], [H + 1.0, H + 0.5, 1.0]])[:, :, None]
    term = np.stack([z / (1.0 - H), np.ones(z.size)])
    s, out = term.copy(), np.empty(term.shape)
    act, j = np.arange(z.size), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while act.size:
            ratio = (a + j) / (b + j).prod(axis=1) * z
            term *= ratio
            s += term
            settled = (np.abs(ratio) < 0.5) & (
                np.abs(term) <= 0.125 * specfun._EPS * np.abs(s))
            done = settled.all(axis=0) | ~np.isfinite(s).all(axis=0)
            out[:, act[done]] = s.compress(done, axis=1)
            live = ~done  # compress: boolean indexing along axis 1 is slower
            act, z, term, s = (act[live], z[live], term.compress(live, axis=1),
                               s.compress(live, axis=1))
            j += 1
    return out


@specfun._elementwise("t")
def variance_tfbm2(H: float, lam: float, t):
    """Variance C_t^2 of normalized TFBM II at a float or an array t (H, lambda > 0).

    Two-term closed form in the argument z = lambda^2 t^2 / 4:

        C_t^2 = -2 Gamma(H) lam^{-2H} / (sqrt(pi) Gamma(H - 1/2))
                  * [1 - 2F3(1, -1/2; 1-H, 1/2, 1; z)]
              + t^{2H} Gamma(1-H) / (sqrt(pi) H 2^{2H} Gamma(H + 1/2))
                  * 2F3(1, H - 1/2; 1, H+1, H+1/2; z)

    validated against the defining spectral integral, with both series from
    _variance_series.  C_0^2 = 0 for every H.  H = 1/2 is the Brownian case
    C_t^2 = |t| (the formula's 1/Gamma(0) factor kills the first term);
    integer H hits genuine poles and raises PoleError unless every t is 0.
    Negative t uses |t|.  The terms grow like e^{lam t} and cancel as lam t
    grows: a C_t^2 below _CANCEL of their sizes' sum (negative or NaN too)
    raises NumericsError naming the first such t; that is from lam t of 16
    to 32, by H, and never up to 12 for H in (0, 2) at least 0.01 from 1
    and 2.  Nearer those poles it raises at lam t = 12 already (at H =
    0.9999, 1.0001 and 1.999, for one; ROADMAP item 22).
    """
    _check_params(H, lam, times=(t,))
    t = np.abs(t)
    if H == 0.5 or not t.any():
        return t
    if H == math.floor(H):
        raise PoleError(
            f"the 2F3 closed form has parameter poles at integer H (H = {H})")
    u, f2 = _variance_series(H, 0.25 * (lam * t) ** 2)
    a = -2.0 * specfun.gamma_fn(H) * lam ** (-2.0 * H) / (
        _SQRT_PI * specfun.gamma_fn(H - 0.5))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan raise below
        au, bf = a * u, _fbm_coef(H) * t ** (2.0 * H) * f2
        v = au + bf
        bad = ~((v >= _CANCEL * (np.abs(au) + np.abs(bf))) & (v < np.inf))
    i = np.argmax(bad)  # the first cancelled value, if any
    if bad[i]:
        raise NumericsError(
            f"variance_tfbm2: the closed form gives C_t^2 = {v[i]:.6g}, below "
            f"{_CANCEL:g} of its terms' sizes, at H = {H}, lambda = {lam}, "
            f"t = {t[i]}: its terms cancel")
    v[t == 0.0] = 0.0  # both terms are 0 there, each -0.0 for some H
    return v


def covariance_tfbm2(H: float, lam: float, s, t):
    """Cov[B(t), B(s)] = ((C_t^2 + C_s^2) - C_{t-s}^2) / 2 for TFBM II, for
    float s and t or elementwise over broadcastable arrays: one call of
    ``variance_tfbm2`` over the distinct values among the |s|, |t| and
    |t - s| (n of them over all pairs of a regular grid from 0), each found
    by binary search in the sorted distinct ones."""
    _check_params(times=(s, t))
    args = [np.abs(t), np.abs(s), np.abs(t - s)]
    uniq = np.concatenate([a.ravel() for a in args])
    uniq.sort()  # by hand: faster than np.unique(..., return_inverse=True)
    uniq = uniq[np.concatenate((uniq[:1] >= 0.0, uniq[1:] != uniq[:-1]))]
    var = variance_tfbm2(H, lam, uniq)
    ct, cs, cd = (var[np.searchsorted(uniq, a)] for a in args)
    out = 0.5 * ((ct + cs) - cd)
    return float(out) if np.ndim(out) == 0 else out


def _matern(H: float, lam: float):
    """(M, c): M(w) = w^{H-1} K_{H-1}(lam w) for w > 0 and c = 1 / (sqrt(pi)
    Gamma(H - 1/2) (2 lam)^{H-1}), so that Cov[B(t), B(s)] of TFBM II is
    c int_0^t int_0^s M(|u - v|) dv du (H != 1/2; c < 0 for H < 1/2).  c is
    pinned against the spectral-integral variance (twice c, which sometimes
    appears with this form, double-counts the |u - v| symmetry)."""
    c = 1.0 / (_SQRT_PI * specfun.gamma_fn(H - 0.5) * (2.0 * lam) ** (H - 1.0))
    return (lambda w: w ** (H - 1.0) * specfun.bessel_k(H - 1.0, lam * w)), c


# ---------------------------------------------------------------------------
# increment noise: autocovariance and spectral densities


def tfgn2_acvf(H: float, lam: float, j: int,
               q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Autocovariance r(j) of TFGN II: one _quad of M and c of _matern over
    the lag's triangle, r(j) = c int_{j-1}^{j+1} (1 - |w - j|) M(w) dw, with
    panel edges at the lag points (at j = 0 its halves fold onto [0, 1]).
    For H < 1/2 that lag-0 integral diverges, and sum_j r(j) = lam^{1-2H}
    gives r(0) = lam^{1-2H} - 2c int_0^inf min(w, 1) M(w) dw.  The error is
    held to q.rel_tol relative, as every _quad is, so r(j) ~ e^{-lam j}
    keeps its digits.  H = 1/2 is white noise.
    """
    _check_params(H, lam, times=(j,))
    if not float(j).is_integer():
        raise ValueError(f"tfgn2_acvf is defined at integer lags j, got {j}")
    j = abs(int(j))
    if H == 0.5:
        return float(j == 0)
    m, c = _matern(H, lam)
    # 1 - |w - j| as the distance to the nearer foot, exact next to both
    # feet: at j = 1, 1 - |w - 1| would lose the digits of w at the
    # singular end w = 0
    base, edges = 0.0, (j - 1.0, j, j + 1.0)
    weight = lambda w: np.minimum(w - (j - 1.0), (j + 1.0) - w)
    if j == 0 and H > 0.5:
        edges, weight = (0.0, 1.0), lambda w: 2.0 - 2.0 * w
    elif j == 0:  # lam^{1-2H} less the triangles of every lag j != 0
        base, edges = lam ** (1.0 - 2.0 * H), (0.0, 1.0, math.inf)
        weight = lambda w: -2.0 * np.minimum(w, 1.0)
    return base + c * _quad(lambda w, rows: weight(w) * m(w), edges, q)[0]


def _lattice_tail_zeta(power: float, expo: float, lam: float, omega, L: int,
                       tol) -> tuple[np.ndarray, np.ndarray]:
    """sum_{|l| > L} |omega + 2 pi l|^{-power} (1 + lam^2/(omega+2 pi l)^2)^expo
    at each element of omega, to a tol per element (or one for all).

    Binomial expansion in lam^2/x^2 with each resulting pure power summed
    through specfun.hurwitz_zeta, one call per power for all elements and
    both signs of omega; returns arrays (value, bound), the bound being the
    first omitted binomial term plus the Euler-Maclaurin remainders of the
    zeta values used, each times its term's coefficient.  An element leaves
    the sum once its bound is within its tol (or 1e-18 of its value), so its
    values are those of a call with it alone.  With c = L + 1, term i is
    binom(expo, i) (2 pi c)^-power r^(2i) times the zeta sums scaled by
    c^s, s = power + 2i, and r = lam / (2 pi c): r^2 is below the
    expansion's ratio and each scaled sum at most about
    c/(s-1) + (c/(c-1/2))^s, so every term is finite at any lam and L,
    where lam^(2i) and the unscaled sums leave the float range.  The
    expansion converges when 2 pi (L+1) - pi > sqrt(2) lam;
    _spectral_density, the one caller, calls it only then, and it is not
    checked again here.
    """
    omega = np.ravel(omega)
    tol = np.full(omega.shape, tol)
    c = L + 1.0
    u_max = (lam / (_TWO_PI * c - math.pi)) ** 2
    r2 = (lam / (_TWO_PI * c)) ** 2
    value, bound = np.empty(omega.shape), np.empty(omega.shape)
    live = np.arange(omega.size)  # the elements still summing
    q = c + np.stack([omega, -omega]) / _TWO_PI  # q+ and q- of each

    def zeta_pair(s):  # c^s (zeta(s, q+) + zeta(s, q-)) and its remainder bound
        v, rem = specfun.hurwitz_zeta(s, q, c)
        return v[0] + v[1], rem[0] + rem[1]

    total = np.zeros(omega.shape)
    zeta_rem = np.zeros(omega.shape)  # sum of |term coefficient| * zeta remainder
    coef = (_TWO_PI * c) ** -power  # binom(expo, i) (2 pi c)^-power r^(2i)
    zsum, zrem = zeta_pair(power)
    for i in range(60):
        coef_next = coef * (expo - i) / (i + 1.0) * r2
        # remainder: first omitted term with geometric domination; its zeta
        # sum is the next term's
        zs_next, zr_next = zeta_pair(power + 2 * i + 2)
        total += coef * zsum
        zeta_rem += abs(coef) * zrem
        rem = abs(coef_next) * (zs_next + zr_next) / (1.0 - u_max) + zeta_rem
        more = (rem >= tol) & (rem >= 1e-18 * np.abs(total))
        value[live], bound[live] = total, rem
        if not more.any():
            break
        live, q, tol = live[more], q[:, more], tol[more]
        total, zeta_rem = total[more], zeta_rem[more]
        coef, zsum, zrem = coef_next, zs_next[more], zr_next[more]
    return value, bound


@specfun._elementwise("omega")
def _spectral_density(kind: str, H: float, lam: float, omega,
                      tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral density on [-pi, pi] of the increment noise of either kind,
    and its truncation bound, summed at |omega| (h is even), at a float
    omega (two floats) or elementwise over an array of omega (two arrays of
    its shape):

        h(w) = (1/2pi) |e^{iw}-1|^2 sum_{l in Z} (lam^2 + x^2)^{1/2-H} / (x^2 + d),

    x = w + 2 pi l, d = lam^2 for kind I and 0 for kind II.  The terms with
    |l| <= L are summed directly, the rest by _lattice_tail_zeta (binomial
    exponent 1/2 - H, less 1 for kind I), whose bound times w2/2pi is the
    returned one.  Each element's L doubles from 8 until 2 pi (L+1) - pi >
    sqrt(2) lam (the expansion converges) and its bound is below tol, and
    its direct terms are added in the order of l, so an element's values
    are those of a call with it alone; NumericsError names the first element
    still failing at L = 4096 (every one, for lam above about 1.8e4).
    Nothing cancels near w = 0: |e^{iw}-1|^2 is w2 = 4 sin^2(w/2), and the
    l = 0 term times it (2 sin(w/2)/w)^2 (lam^2 + w^2)^{1/2-H} w^2/(w^2 + d).
    At w = 0 the value is the exact limit, with zero bound.
    """
    _check_params(H, lam)
    specfun._check_x("the spectral density", omega,
                     np.abs(omega) <= math.pi + 1e-12, "omega in [-pi, pi]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    omega = np.minimum(np.abs(omega), math.pi)
    limit = lam ** (1.0 - 2.0 * H) / _TWO_PI if kind == "II" else 0.0
    value, bound = np.full(omega.shape, limit), np.zeros(omega.shape)
    on = np.flatnonzero(omega)  # w = 0 keeps the limit, with zero bound
    w = omega[on]
    d, expo = (0.0, 0.5 - H) if kind == "II" else (lam * lam, -(H + 0.5))
    half = np.sin(0.5 * w)
    w2 = 4.0 * half ** 2
    sinc = np.where(w > 1e-8, 2.0 * half / w, 1.0)  # rounds to 1
    head = sinc * sinc * (lam * lam + w * w) ** (0.5 - H) * (
        w * w / (w * w + d) if d else 1.0)
    tail, err = np.zeros(w.shape), np.full(w.shape, math.inf)
    ells = np.zeros(w.shape, dtype=int)  # each element's L
    L = 4
    while (live := np.flatnonzero(~(err <= tol))).size:  # L = 8, 16, .., 4096
        if L == 4096:
            e = err[live[0]]
            why = (f"bound {e:.3g} above tol {tol:.3g}" if e < math.inf else
                   "the tail expansion needs 2 pi (L+1) - pi > sqrt(2) lambda")
            raise NumericsError(f"lattice sum at lambda = {lam}: {why} at L = 4096")
        L *= 2
        if (lam / (_TWO_PI * (L + 1.0) - math.pi)) ** 2 < 0.5:  # it converges
            tail[live], rem = _lattice_tail_zeta(
                1.0 + 2.0 * H, expo, lam, w[live], L,
                tol * _TWO_PI / np.maximum(w2[live], 1e-300))
            err[live], ells[live] = w2[live] * rem / _TWO_PI, L
    # the terms 0 < |l| <= L in the order l = +1, -1, +2, .., 64 values of |l|
    # at a time, each block summed on from the last by one sequential cumsum
    acc = np.zeros(w.shape)
    for ell in range(1, ells.max(initial=0) + 1, 64):
        mag = np.repeat(np.arange(ell, ell + 64.0), 2)  # |l|
        x = w[:, None] + _TWO_PI * (np.tile([1.0, -1.0], 64) * mag)
        terms = (lam * lam + x * x) ** (0.5 - H) / (x * x + d) * (mag <= ells[:, None])
        acc = np.cumsum(np.column_stack([acc, terms]), axis=1)[:, -1]
    value[on] = (head + w2 * (acc + tail)) / _TWO_PI
    bound[on] = err
    return value, bound


def tfgn2_spectral_density(H: float, lam: float, omega,
                           tol: float = 1e-10):
    """Spectral density of TFGN II on [-pi, pi] and its truncation bound
    (_spectral_density with d = 0) at a float omega, or elementwise over an
    array of omega, flat at w = 0 where it is lam^{1-2H}/2pi:

        h(w) = (1/2pi) |e^{iw}-1|^2 sum_{l in Z} (w+2pi l)^{-2}
                                              [lam^2+(w+2pi l)^2]^{1/2-H}
    """
    return _spectral_density("II", H, lam, omega, tol)


def tfgn1_spectral_density(H: float, lam: float, omega,
                           tol: float = 1e-10):
    """Spectral density of first-kind TFGN on [-pi, pi] and its truncation
    bound (_spectral_density with d = lam^2) at a float omega, or
    elementwise over an array of omega, 0 at w = 0 (anti-persistence):

        h(w) = (1/2pi) |e^{iw}-1|^2 sum_{l in Z} [lam^2+(w+2pi l)^2]^{-(H+1/2)}
    """
    return _spectral_density("I", H, lam, omega, tol)


# ---------------------------------------------------------------------------
# covariance matrices and exact Gaussian sampling


def build_cov_matrix(H: float, lam: float, grid: SampleGrid) -> CovarianceMatrix:
    """Covariance matrix of TFBM II over the grid, diagonal = C_t^2: entry
    (i, j) is ``covariance_tfbm2`` at (t_i, t_j), all pairs in one call.
    Any grid, uniform or not, takes this one path."""
    t = grid.times
    return CovarianceMatrix(grid=grid, values=covariance_tfbm2(H, lam, t[:, None], t))


# Eigenvalues of the circulant embedding in [-EIGEN_ROUNDING * max, 0) are
# rounding noise and sample as 0; one below that sends the grid to Cholesky.
EIGEN_ROUNDING = 1e-12

# normals drawn per FFT batch; fixes the batches' path boundaries for a grid
_BATCH_NORMALS = 1 << 18


def _circulant_eigenvalues(H: float, lam: float, m: int, dt: float) -> np.ndarray:
    """Eigenvalues ev_0..ev_m of the minimal circulant embedding of the
    increment noise of TFBM II at spacing dt, m increments.

    With C_k = C_{k dt}^2 for k = 0..m+1 (one call of ``variance_tfbm2``),
    the increment autocovariance is g(j) = (C_{j+1} + C_{|j-1|} - 2 C_j) / 2,
    the circulant's first row is (g(0..m), g(m-1..1)) of size M = 2m, and
    its eigenvalues are the real part of that row's real FFT.  They are
    returned as computed, negative ones included.  g is taken as half the
    difference of the first differences C_{j+1} - C_j, which are exact
    wherever consecutive C are within a factor 2; summed back into the
    covariance matrix, it then matches ``build_cov_matrix`` to about 5e-15
    of the largest C_t^2 at n = 2049, against 1.4e-12 for the three-term
    form.
    """
    c = variance_tfbm2(H, lam, dt * np.arange(m + 2))
    d = np.diff(c)
    g = 0.5 * np.diff(d, prepend=-d[0])
    return np.fft.rfft(np.concatenate((g, g[m - 1:0:-1]))).real


def _circulant_paths(ev: np.ndarray, n_paths: int, streams) -> np.ndarray:
    """Paths at times 0, dt, .., m dt from the nonnegative eigenvalues ev.

    Path i draws M = 2m normals z from the i-th generator of streams:
    w_0 = sqrt(ev_0) z_0, w_m = sqrt(ev_m) z_1 and, for 0 < k < m,
    w_k = sqrt(ev_k / 2) (z_{2k} + i z_{2k+1}), drawn into the floats of w
    (z_1 then moves to w_m).  The increments are the first m entries of
    sqrt(M) irfft(w, M) and the path is their cumulative sum from 0.  A batch
    of paths shares one irfft; batch boundaries depend on the grid only.
    """
    m = ev.size - 1
    size = 2 * m
    amp = np.sqrt(size * ev)
    amp[1:m] *= math.sqrt(0.5)
    per_batch = max(1, _BATCH_NORMALS // size)
    paths = np.zeros((n_paths, m + 1))
    for i0 in range(0, n_paths, per_batch):
        i1 = min(i0 + per_batch, n_paths)
        w = np.empty((i1 - i0, m + 1), dtype=complex)
        z = w.view(float)
        for r in range(i1 - i0):
            next(streams).standard_normal(out=z[r, :size])
        w[:, m] = w[:, 0].imag
        w[:, 0].imag = 0.0
        w *= amp
        x = np.fft.irfft(w, size, axis=1)
        np.cumsum(x[:, :m], axis=1, out=paths[i0:i1, 1:])
    return paths


def _cholesky_paths(H: float, lam: float, grid: SampleGrid, n_paths: int,
                    streams) -> np.ndarray:
    """Paths L z with L the Cholesky factor of ``build_cov_matrix`` and z
    the i-th generator of streams' normals at the positive-variance times."""
    cov = build_cov_matrix(H, lam, grid)
    L = cov.cholesky()
    live = np.diag(cov.values) > 0.0
    lsub = L[np.ix_(live, live)]
    k = int(live.sum())
    paths = np.zeros((n_paths, grid.n))
    for i, gen in enumerate(streams):
        paths[i, live] = lsub @ gen.standard_normal(k)
    return paths


def simulate_gaussian_paths(H: float, lam: float, grid: SampleGrid,
                            n_paths: int, seed: int,
                            n_workers: int = 1) -> PathEnsemble:
    """Exact TFBM II paths over the grid.

    On a regular grid of n >= 2 points starting at t = 0 the stationary
    increments are sampled by circulant embedding (Wood & Chan 1994): the
    eigenvalues of ``_circulant_eigenvalues`` over the grid's m = n - 1
    increments, then one irfft of M = 2m normals per path and a cumulative
    sum; time O(n log n) and memory O(n) per path, no covariance matrix.
    Eigenvalues down to -EIGEN_ROUNDING times the largest are rounding noise
    and sample as 0.  A lower one means the embedding is not a covariance,
    and the grid takes the Cholesky path, as does every other grid
    (non-uniform, one point, not starting at 0): paths = L z with L the
    factor of ``build_cov_matrix`` (``CovarianceMatrix.cholesky``).

    Path i draws its normals from a Philox generator keyed by (seed, i), so
    the ensemble is reproducible.  The paths are made in the calling
    thread; n_workers is accepted for callers that pass it and ignored.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    streams = philox_streams(seed, range(n_paths))
    ev = None
    if grid.n > 1 and grid.uniform and grid.times[0] == 0.0:
        ev = _circulant_eigenvalues(H, lam, grid.n - 1, grid.dt)
        if not ev.min() >= -EIGEN_ROUNDING * ev.max():
            ev = None
    if ev is None:
        paths = _cholesky_paths(H, lam, grid, n_paths, streams)
    else:
        paths = _circulant_paths(np.maximum(ev, 0.0), n_paths, streams)
    params = ProcessParams(H=H, alpha=2.0, lam=lam, kind="II")
    return PathEnsemble(params=params, grid=grid, paths=paths, seed=int(seed))
