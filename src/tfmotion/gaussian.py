"""Second-order theory and exact simulation of TFBM II / TFGN II.

Closed-form variance and covariance of the normalized second-kind tempered
fractional Brownian motion, on floats or elementwise on arrays, the
Matern-type double-integral representation of the covariance (H > 1/2),
autocovariance and spectral densities of the unit-lag increment noises, and
exact Gaussian path sampling with a counter-based (Philox) generator: by
circulant embedding of the stationary increment noise on regular grids from
t = 0 (Davies-Harte / Wood-Chan), and by Cholesky factorization of the
covariance matrix on every other grid and wherever the embedding has a
negative eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationError, NumericsError, PoleError
from .kernels import (ProcessParams, QuadratureConfig, DEFAULT_QUAD, _check_error,
                      _check_params, _epsilon, _quad)
from .rng import philox_generator
from . import specfun

_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grids, matrices, ensembles


@dataclass(frozen=True)
class SampleGrid:
    """Strictly increasing time points with uniform-spacing metadata."""

    times: np.ndarray
    uniform: bool = field(init=False)
    dt: float | None = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("grid must be a 1-D array with at least one point")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", t)
        if t.size > 1:
            d = np.diff(t)
            scale = max(abs(t[0]), abs(t[-1]), 1.0)
            uniform = bool(np.max(np.abs(d - d[0])) <= 1e-12 * scale)
            object.__setattr__(self, "uniform", uniform)
            object.__setattr__(self, "dt", float(d[0]) if uniform else None)
        else:
            object.__setattr__(self, "uniform", True)
            object.__setattr__(self, "dt", None)

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


@dataclass
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


@dataclass(frozen=True)
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
    return abs(t) ** (2.0 * H) * _fbm_coef(H)


@specfun._elementwise("t")
def variance_tfbm2(H: float, lam: float, t):
    """Variance C_t^2 of normalized TFBM II at a float or an array t (H, lambda > 0).

    Two-term 2F3 closed form in the argument z = lambda^2 t^2 / 4:

        C_t^2 = -2 Gamma(H) lam^{-2H} / (sqrt(pi) Gamma(H - 1/2))
                  * [1 - 2F3(1, -1/2; 1-H, 1/2, 1; z)]
              + t^{2H} Gamma(1-H) / (sqrt(pi) H 2^{2H} Gamma(H + 1/2))
                  * 2F3(1, H - 1/2; 1, H+1, H+1/2; z)

    validated against the defining spectral integral.  C_0^2 = 0 for every
    H.  H = 1/2 is the Brownian case C_t^2 = |t| (the formula's 1/Gamma(0)
    factor kills the first term); integer H hits genuine poles of the closed
    form and raises PoleError unless every t is 0.  Negative t uses |t|
    (stationary increments).  The two terms cancel as lam t grows (and at
    tiny lam t for H near 1); a negative result is such a cancellation and
    raises NumericsError naming the first t that gave one.
    """
    _check_params(H, lam, times=(t,))
    t = np.abs(t)
    if H == 0.5 or not t.any():
        return t
    if H == math.floor(H):
        raise PoleError(
            f"the 2F3 closed form has parameter poles at integer H (H = {H})")
    z = 0.25 * (lam * t) ** 2
    f1 = specfun.hyp2f3((1.0, -0.5), (1.0 - H, 0.5, 1.0), z)
    f2 = specfun.hyp2f3((1.0, H - 0.5), (1.0, H + 1.0, H + 0.5), z)
    a = -2.0 * specfun.gamma_fn(H) * lam ** (-2.0 * H) / (
        _SQRT_PI * specfun.gamma_fn(H - 0.5))
    v = a * (1.0 - f1) + _fbm_coef(H) * t ** (2.0 * H) * f2
    i = np.argmax(v < 0.0)  # the first negative value, if any
    if v[i] < 0.0:
        raise NumericsError(
            f"variance_tfbm2: the 2F3 closed form gives C_t^2 = {v[i]:.6g} < 0 "
            f"at H = {H}, lambda = {lam}, t = {t[i]}: its terms cancel")
    v[t == 0.0] = 0.0  # both terms are 0 there, each -0.0 for some H
    return v


def covariance_tfbm2(H: float, lam: float, s, t):
    """Cov[B(t), B(s)] = (C_t^2 + C_s^2 - C_{t-s}^2) / 2 for TFBM II, for
    float s and t or elementwise over broadcastable arrays."""
    return 0.5 * (variance_tfbm2(H, lam, t) + variance_tfbm2(H, lam, s)
                  - variance_tfbm2(H, lam, t - s))


def matern_cov_integral(H: float, lam: float, s: float, t: float,
                        q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Covariance of TFBM II via the Matern-kernel double integral (H > 1/2).

        C(H, lam) * int_0^t int_0^s |u-v|^{H-1} K_{H-1}(lam |u-v|) dv du,
        C(H, lam) = 1 / (sqrt(pi) Gamma(H - 1/2) (2 lam)^{H-1}).

    The prefactor is pinned by cross-validation against the spectral-integral
    variance (a prefactor twice as large, which sometimes appears with this
    representation, double-counts the |u-v| symmetry).  The rectangle integral
    is reduced to one dimension in the difference variable w = |u - v|, whose
    occupation length on [0,t] x [0,s] (s <= t) is
    rho(w) = min(s, t-w) + (s-w)_+; the integrable singularity at w = 0 sits
    at a panel endpoint.  The integrand takes K_{H-1} at all nodes of a
    quadrature sweep in one array call of specfun.bessel_k.  The tolerances
    of q apply to the unscaled integral.
    """
    _check_params(H, lam, times=(s, t))
    if H <= 0.5:
        raise ValueError(f"the Matern representation requires H > 1/2, got {H}")
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    if s == 0.0 or t == 0.0:
        return 0.0
    if s > t:
        s, t = t, s
    nu = H - 1.0
    c = 1.0 / (_SQRT_PI * specfun.gamma_fn(H - 0.5) * (2.0 * lam) ** (H - 1.0))

    def f(w, rows):
        rho = np.minimum(s, t - w) + np.maximum(s - w, 0.0)
        return w ** (H - 1.0) * specfun.bessel_k(nu, lam * w) * rho

    splits = sorted({0.0, min(s, t - s), max(s, t - s), t})
    return c * _quad(f, splits, q)[0]


# ---------------------------------------------------------------------------
# increment noise: autocovariance and spectral densities


def tfgn2_acvf(H: float, lam: float, j: int,
               q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Autocovariance r(j) of TFGN II by quadrature of the real-line form

        r(j) = (1/pi) int_0^inf cos(w j) 4 sin^2(w/2) w^{-2} (lam^2 + w^2)^{1/2 - H} dw

    (4 sin^2(w/2), as 2 - 2 cos w cancels near w = 0).  The head over
    [0, Omega] and the constant term of the tail's expansion into pure
    cosines run at epsabs = 1e-13, each cos(m w) term through _cosine_tail;
    each raises QuadratureError when its error exceeds the tolerances of q.
    """
    _check_params(H, lam, times=(j,))
    if not float(j).is_integer():
        raise ValueError(f"tfgn2_acvf is defined at integer lags j, got {j}")
    j = abs(int(j))

    def g(w, rows=None):
        return (lam * lam + w * w) ** (0.5 - H) / (w * w)

    def head_f(w, rows):
        return 4.0 * np.sin(0.5 * w) ** 2 * np.cos(j * w) * g(w)

    omega = max(1.0, 2.0 * lam)
    # head parts under half a period of cos(j w): none nears _LIMIT panels
    z = np.linspace(0.0, omega, 2 + int(j * omega / math.pi))
    vals, errs = _quad(head_f, np.column_stack([z[:-1], z[1:]]), q, epsabs=1e-13)
    head = vals.sum(keepdims=True)
    _check_error(head_f, head, errs.sum(keepdims=True), q)
    # 4 sin^2(w/2) cos(j w) = 2 cos(j w) - cos((j - 1) w) - cos((j + 1) w)
    tail = 0.0
    for m, c in ((j, 2.0), (abs(j - 1), -1.0), (j + 1, -1.0)):
        if m == 0:
            tail += c * _quad(g, (omega, math.inf), q, epsabs=1e-13)[0]
        else:
            tail += c * _cosine_tail(g, m, omega, q)
    return (head[0] + tail) / math.pi


def _cosine_tail(g, m: int, omega: float, q: QuadratureConfig) -> float:
    """int_omega^inf g(w) cos(m w) dw for a g decreasing to 0, as in QUADPACK's
    QAWF: one _quad batch of 40 panels from omega through the next zeros of
    cos(m w), Wynn's epsilon algorithm over their partial sums, and the panel
    errors plus the epsilon error held to the bound of _quad."""
    k = math.floor(m * omega / math.pi + 0.5) + 0.5  # first zero: (k pi / m) >= omega
    z = np.concatenate([[omega], np.maximum((k + np.arange(40)) * math.pi / m, omega)])
    vals, errs = _quad(lambda w, rows: g(w) * np.cos(m * w),
                       np.column_stack([z[:-1], z[1:]]), q)
    value, err = _epsilon(np.cumsum(vals)[None, :])
    _check_error(g, value, err + errs.sum(), q)
    return float(value[0])


def _lattice_tail_zeta(power: float, expo: float, lam: float, omega: float,
                       L: int, tol: float) -> tuple[float, float]:
    """sum_{|l| > L} |omega + 2 pi l|^{-power} (1 + lam^2/(omega+2 pi l)^2)^expo.

    Binomial expansion in lam^2/x^2 with each resulting pure power summed
    through specfun.hurwitz_zeta; returns (value, bound), the bound being
    the first omitted binomial term plus the Euler-Maclaurin remainders of
    the zeta values used, each times its term's coefficient.  Requires
    2 pi (L+1) - pi > sqrt(2) lam so the expansion converges.
    """
    qp = L + 1.0 + omega / _TWO_PI
    qm = L + 1.0 - omega / _TWO_PI
    x_min = _TWO_PI * (L + 1.0) - math.pi
    u_max = (lam / x_min) ** 2
    if u_max >= 0.5:
        raise ValueError("lattice tail expansion needs 2 pi (L+1) - pi > sqrt(2) lam")

    def zeta_pair(s):  # zeta(s, q+) + zeta(s, q-) and its remainder bound
        (vp, rp), (vm, rm) = specfun.hurwitz_zeta(s, qp), specfun.hurwitz_zeta(s, qm)
        return vp + vm, rp + rm

    total = 0.0
    zeta_rem = 0.0  # sum of |term coefficient| * zeta remainder
    coef = 1.0  # binom(expo, i)
    lam2i = 1.0
    zsum, zrem = zeta_pair(power)
    for i in range(60):
        scale = coef * lam2i * _TWO_PI ** (-(power + 2 * i))
        total += scale * zsum
        zeta_rem += abs(scale) * zrem
        coef_next = coef * (expo - i) / (i + 1.0)
        lam2i_next = lam2i * lam * lam
        # remainder: first omitted term with geometric domination; its zeta
        # sum is the next term's
        zs_next, zr_next = zeta_pair(power + 2 * i + 2)
        rem = abs(coef_next) * lam2i_next * _TWO_PI ** (-(power + 2 * i + 2)) \
            * (zs_next + zr_next) / (1.0 - u_max) + zeta_rem
        if rem < tol or rem < 1e-18 * abs(total):
            return total, rem
        coef, lam2i, zsum, zrem = coef_next, lam2i_next, zs_next, zr_next
    return total, rem


def _density_common(H: float, lam: float, omega: float, tol: float):
    _check_params(H, lam)
    if not abs(omega) <= math.pi + 1e-12:
        raise ValueError(f"omega must lie in [-pi, pi], got {omega}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return min(max(omega, -math.pi), math.pi)


def _lattice_sum(term, H: float, lam: float, omega: float, expo: float,
                 direct: float, w2: float, tol: float) -> tuple[float, float, float]:
    """(direct, tail, bound) of the lattice sum of term(x) over x = omega +- 2 pi l:
    ``direct`` plus the terms with 0 < l <= L, the tail beyond L of
    term(x) = |x|^-(1+2H) (1 + lam^2/x^2)^expo summed by _lattice_tail_zeta
    on specfun.hurwitz_zeta, and w2/2pi times the tail's bound (binomial
    truncation and zeta remainders).  L doubles from 8 until that bound is
    below tol, and NumericsError is raised if it is not by L = 4096 (always
    for lam above about 1.8e4, where the tail expansion does not converge
    even there).
    """
    L = 8
    while True:
        try:
            tail, rem = _lattice_tail_zeta(1.0 + 2.0 * H, expo, lam, omega, L,
                                           tol * _TWO_PI / max(w2, 1e-300))
        except ValueError:  # the tail expansion needs a larger L
            rem = math.inf
        bound = w2 * rem / _TWO_PI
        if bound <= tol:
            break
        if L >= 4096:
            raise NumericsError(f"lattice sum at lambda = {lam}: bound {bound:.3g} "
                                f"above tol {tol:.3g} at L = 4096")
        L *= 2
    acc = direct
    for ell in range(1, L + 1):
        for x in (omega + _TWO_PI * ell, omega - _TWO_PI * ell):
            acc += term(x)
    return acc, tail, bound


def tfgn2_spectral_density(H: float, lam: float, omega: float,
                           tol: float = 1e-10) -> tuple[float, float]:
    """Spectral density of TFGN II on [-pi, pi] and its truncation bound.

        h(w) = (1/2pi) { |e^{iw}-1|^2 w^{-2} (lam^2+w^2)^{1/2-H}
                 + |e^{iw}-1|^2 sum_{l != 0} (w+2pi l)^{-2}
                                [lam^2+(w+2pi l)^2]^{1/2-H} }

    The lattice sum runs directly over 0 < |l| <= L and the rest is summed
    by a binomially expanded Hurwitz-zeta form (specfun.hurwitz_zeta, in
    plain floats); the returned bound, kept below tol, covers the truncation
    of that expansion and the Euler-Maclaurin remainders of its zeta values.
    At w = 0 the value is the exact limit lam^{1-2H} / 2pi with zero bound.
    """
    omega = _density_common(H, lam, omega, tol)
    if omega == 0.0:
        return lam ** (1.0 - 2.0 * H) / _TWO_PI, 0.0
    w2 = 2.0 - 2.0 * math.cos(omega)  # |e^{i w} - 1|^2
    ell0 = (lam * lam + omega * omega) ** (0.5 - H) / (omega * omega)
    direct, tail, bound = _lattice_sum(
        lambda x: (lam * lam + x * x) ** (0.5 - H) / (x * x),
        H, lam, omega, 0.5 - H, 0.0, w2, tol)
    return (w2 * (ell0 + direct + tail)) / _TWO_PI, bound


def tfgn1_spectral_density(H: float, lam: float, omega: float,
                           tol: float = 1e-10) -> tuple[float, float]:
    """Spectral density of first-kind TFGN on [-pi, pi] and truncation bound.

        h(w) = (1/2pi) |e^{iw}-1|^2 sum_{l in Z} [lam^2+(w+2pi l)^2]^{-(H+1/2)}

    with the l = 0 term included in the same form.  Vanishes at w = 0 (the
    anti-persistent signature of the first kind).
    """
    omega = _density_common(H, lam, omega, tol)
    if omega == 0.0:
        return 0.0, 0.0
    w2 = 2.0 - 2.0 * math.cos(omega)
    direct, tail, bound = _lattice_sum(
        lambda x: (lam * lam + x * x) ** (-(H + 0.5)), H, lam, omega, -(H + 0.5),
        (lam * lam + omega * omega) ** (-(H + 0.5)), w2, tol)
    return w2 * (direct + tail) / _TWO_PI, bound


# ---------------------------------------------------------------------------
# covariance matrices and exact Gaussian sampling


def build_cov_matrix(H: float, lam: float, grid: SampleGrid) -> CovarianceMatrix:
    """Covariance matrix of TFBM II over the grid, diagonal = C_t^2.

    Entry (i, j) is 0.5 * ((C_{t_i}^2 + C_{t_j}^2) - C_{t_i - t_j}^2).
    One call of ``variance_tfbm2`` takes the distinct values among the |t_i|
    and the |t_i - t_j| (n of them on a regular grid starting at 0, against
    n^2 entries); each entry finds its value by binary search in the sorted
    distinct ones.  Any grid, uniform or not, takes this one path.
    """
    t = grid.times
    at = np.abs(t)
    d = np.subtract.outer(t, t)
    np.abs(d, out=d)
    uniq = np.concatenate((d.ravel(), at))
    uniq.sort()  # distinct values by hand: np.unique loads numpy.ma
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
    var = variance_tfbm2(H, lam, uniq)
    ct = var[np.searchsorted(uniq, at)]
    values = var[np.searchsorted(uniq, d)]
    np.subtract(ct[:, None] + ct[None, :], values, out=values)
    values *= 0.5
    return CovarianceMatrix(grid=grid, values=values)


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


def _circulant_paths(ev: np.ndarray, n_paths: int, seed: int) -> np.ndarray:
    """Paths at times 0, dt, .., m dt from the nonnegative eigenvalues ev.

    Path i draws M = 2m normals z from ``philox_generator(seed, i)``:
    w_0 = sqrt(ev_0) z_0, w_m = sqrt(ev_m) z_1 and, for 0 < k < m,
    w_k = sqrt(ev_k / 2) (z_{2k} + i z_{2k+1}).  The increments are the first
    m entries of sqrt(M) irfft(w, M) and the path is their cumulative sum
    from 0.  A batch of paths shares one irfft; batch boundaries depend on
    the grid only.
    """
    m = ev.size - 1
    size = 2 * m
    amp = np.sqrt(size * ev)
    amp[1:m] *= math.sqrt(0.5)
    per_batch = max(1, _BATCH_NORMALS // size)
    paths = np.zeros((n_paths, m + 1))
    for i0 in range(0, n_paths, per_batch):
        i1 = min(i0 + per_batch, n_paths)
        z = np.empty((i1 - i0, size))
        for r, i in enumerate(range(i0, i1)):
            philox_generator(seed, i).standard_normal(out=z[r])
        w = np.empty((i1 - i0, m + 1), dtype=complex)
        w[:, 0] = z[:, 0]
        w[:, m] = z[:, 1]
        w[:, 1:m] = z[:, 2:].view(complex)
        w *= amp
        x = np.fft.irfft(w, size, axis=1)
        np.cumsum(x[:, :m], axis=1, out=paths[i0:i1, 1:])
    return paths


def _cholesky_paths(H: float, lam: float, grid: SampleGrid, n_paths: int,
                    seed: int) -> np.ndarray:
    """Paths L z with L the Cholesky factor of ``build_cov_matrix`` and z the
    normals of ``philox_generator(seed, i)`` at the positive-variance times."""
    cov = build_cov_matrix(H, lam, grid)
    L = cov.cholesky()
    live = np.diag(cov.values) > 0.0
    lsub = L[np.ix_(live, live)]
    k = int(live.sum())
    paths = np.zeros((n_paths, grid.n))
    for i in range(n_paths):
        z = philox_generator(seed, i).standard_normal(k)
        paths[i, live] = lsub @ z
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
    ev = None
    if grid.n > 1 and grid.uniform and grid.times[0] == 0.0:
        ev = _circulant_eigenvalues(H, lam, grid.n - 1, grid.dt)
        if not ev.min() >= -EIGEN_ROUNDING * ev.max():
            ev = None
    if ev is None:
        paths = _cholesky_paths(H, lam, grid, n_paths, seed)
    else:
        paths = _circulant_paths(np.maximum(ev, 0.0), n_paths, seed)
    params = ProcessParams(H=H, alpha=2.0, lam=lam, kind="II")
    return PathEnsemble(params=params, grid=grid, paths=paths, seed=int(seed))
