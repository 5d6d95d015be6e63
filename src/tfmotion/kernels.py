"""Moving-average kernels of tempered fractional motions and their L^alpha norms.

With kappa = H - 1/alpha, each kernel is a difference of one univariate
primitive taken at a = -y and b = t - y.  The first kind uses

    phi(x) = x_+^kappa e^{-lam x},          g(t; y) = phi(t - y) - phi(-y),

and the second kind, whose kernel is the tempered fractional integral of the
indicator of [0, t), uses

    R(x) = kappa lam^-kappa Gamma(kappa, lam x)   (x > 0),
    R(x) = lam^-kappa Gamma(1 + kappa)             (x <= 0),
                                            h(t; y) = R(-y) - R(t - y).

Every kernel value goes through _kernel_step, which evaluates these
differences without cancellation over an array of a = -y with one width t
per element; the public kernels take one t, or one t per element, and a
float or an array of y, so each quadrature sweep of kernel_alpha_norm is one
call over the nodes of every time of its batch.  The one exception is the
far field of either kind (_far_kernel), for the stable kernel table: at
nodes a >= 8 t_max, lam > 0 and -1 < kappa < 2, the kernel is a separable
series in x = lam a and lam t, the binomial series of the primitive's power
of x, whose 21 terms leave a tail below 2^-56, in factors of rank 21.
Also here: _check_params, the one check of H, alpha, lambda, sigma, beta,
times, lags and weights; quadrature of integral |kernel|^alpha dy (one
batch over many t), whose left tail is one infinite panel (-inf, -cutoff)
for every lambda, as is the codifference's (QuadratureConfig); and _quad,
the one quadrature helper through which every integral of the package
runs: QUADPACK's adaptive G7/K15 rule (_qk15, _kronrod) and epsilon
extrapolation (_epsilon) in NumPy, over a batch of integrals, raising
QuadratureError past the QuadratureConfig relative tolerance.  An integral is
extrapolated once the error of its panels below its deepest bisection
level is within budget (QUADPACK's erlarg test, by level as in dqagpe),
so a kink or singularity at an edge ends in a few sweeps.  No other module
names those three.
The convention (x)_+^p = x^p for x > 0 and 0 otherwise is used throughout;
for kappa < 0 the primitive at x = 0 takes its infinite right limit, so the
kernels return the signed infinite limit at the singular points y = 0 and
y = t rather than overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from . import specfun


def _check_params(H: float | None = None, lam: float | None = None, *,
                  lam_zero: bool = False, sigma: float | None = None,
                  alpha: float | None = None, beta: float | None = None,
                  times=(), weights=()) -> None:
    """The package's one check of its process parameters, run before any
    arithmetic on them: raise ValueError unless alpha is in (1, 2], beta in
    [-1, 1], H, lambda, sigma and every weight (a float, such as a theta)
    finite, H > 0, lambda > 0 (>= 0 with lam_zero), sigma > 0, and every
    time or lag in times (floats or arrays) finite.  None skips one."""
    if alpha is not None and not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    named = [("H", H), ("lambda", lam), ("sigma", sigma)]
    for name, v in named + [("weight", w) for w in weights]:
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if H is not None and H <= 0.0:
        raise ValueError(f"H must be positive, got {H}")
    if lam is not None and (lam < 0.0 if lam_zero else lam <= 0.0):
        raise ValueError(f"lambda must be {'>= 0' if lam_zero else 'positive'}, "
                         f"got {lam}")
    if sigma is not None and sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if beta is not None and not -1.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [-1, 1], got {beta}")
    for v in times:
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError(f"times and lags must be finite, got "
                             f"{v[~np.isfinite(v)].flat[0]}")


@dataclass(frozen=True)
class ProcessParams:
    """Parameter bundle (H, alpha, lambda, sigma, beta, kind) of one process law."""

    H: float
    alpha: float = 2.0
    lam: float = 1.0
    sigma: float = 1.0
    beta: float = 0.0
    kind: str = "II"

    def __post_init__(self):
        _check_params(self.H, self.lam, lam_zero=True, sigma=self.sigma,
                      alpha=self.alpha, beta=self.beta)
        if self.kind not in ("I", "II"):
            raise ValueError(f"kind must be 'I' or 'II', got {self.kind!r}")
        # at lam = 0 both kinds have one kernel, whose norm needs 0 < H < 1
        if self.lam == 0.0 and not 0.0 < self.H < 1.0:
            raise ValueError("untempered motion (lambda = 0) requires H in (0, 1)")
        if self.alpha == 2.0 and self.beta != 0.0:
            object.__setattr__(self, "beta", 0.0)  # skewness is void for alpha = 2

    @property
    def kappa(self) -> float:
        return self.H - 1.0 / self.alpha


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative tolerance rel_tol in (0, 1e-2] of the library's
    integrals, the one rule for when _quad stops and when it raises (there
    is no absolute floor), and cutoff(lam) = max(50/lambda, 50) (50 at
    lambda = 0): the first finite panel edge, -cutoff, of every left tail,
    which runs on to -infinity, and the left truncation of the stable plan
    (DiscretizationPlan.for_grid)."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")

    def cutoff(self, lam: float) -> float:
        if lam > 0.0:
            return max(50.0 / lam, 50.0)
        return 50.0


DEFAULT_QUAD = QuadratureConfig()


# QUADPACK's qk15 rule (Piessens et al., QUADPACK, Springer 1983): the 15
# Kronrod nodes on [-1, 1], their weights, and the weights of the embedded
# 7-point Gauss rule (zero on the Kronrod-only nodes)
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS = np.concatenate([_WG, _WG[-2::-1]])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny
# fewest and most sweep totals that _kronrod extrapolates (see _epsilon); 50
# is QUADPACK's limexp
_EXTRAP_MIN, _EXTRAP_MAX = 8, 50
_LIMIT = 400  # most panels of one integral (QUADPACK's limit)


def _qk15(f, row, pan):
    """Kronrod value, qk15 error estimate and integral of |f| of every panel.

    pan has one row (lo, hi, bound, side) per panel.  Panels with side 0
    are [lo, hi] in x itself; side +1 and -1 are [lo, hi] in u under the
    qk15i map x = bound + side (1 - u)/u of (bound, inf) and (-inf, bound)
    onto u in (0, 1].  All nodes go to f in one call.  The weighted sums are
    plain elementwise sums, not BLAS products, so they do not depend on the
    BLAS thread count.
    """
    lo, hi, bound, side = pan.T
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    jac = np.ones(x.shape)
    tail = side != 0.0
    u = x[tail]
    x[tail] = bound[tail, None] + side[tail, None] * (1.0 - u) / u
    jac[tail] = 1.0 / (u * u)
    fv = f(x.ravel(), np.repeat(row, _NODES.size)).reshape(x.shape) * jac
    with np.errstate(divide="ignore", invalid="ignore"):  # non-finite f
        resk = (fv * _KRONROD).sum(axis=1)
        resg = (fv * _GAUSS).sum(axis=1)
        resabs = (np.abs(fv) * _KRONROD).sum(axis=1) * h
        resasc = (np.abs(fv - 0.5 * resk[:, None]) * _KRONROD).sum(axis=1) * h
        err = np.abs((resk - resg) * h)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                   np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * h, err, resabs


def _epsilon(s):
    """Wynn's epsilon extrapolation of each row of s, a sequence of partial
    results (oldest first), with an error estimate in the manner of
    QUADPACK's qelg.

    Every even column of the epsilon table with four entries offers its
    newest entry as an estimate, with the summed distance to the column's
    three previous entries as its error; each row takes the estimate of
    least error.  Columns with a non-finite entry (a converged or erratic
    sequence) offer none, and a row without an estimate gets error inf.
    """
    best = np.zeros(len(s))
    best_err = np.full(len(s), np.inf)
    prev, cur = np.zeros((len(s), s.shape[1] + 1)), s
    k = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while cur.shape[1] >= 4:
            if k > 0 and k % 2 == 0:
                last = cur[:, -4:]
                err = np.abs(last[:, :3] - last[:, 3:]).sum(axis=1)
                err = np.maximum(err, 5.0 * _EPMACH * np.abs(last[:, 3]))
                better = np.isfinite(last).all(axis=1) & (err < best_err)
                best = np.where(better, last[:, 3], best)
                best_err = np.where(better, err, best_err)
            prev, cur = cur, prev[:, 1:-1] + 1.0 / np.diff(cur, axis=1)
            k += 1
    return best, best_err


def _kronrod(f, edges, epsrel):
    """Batched adaptive G7/K15 quadrature of one integral per row of edges.

    Each sweep bisects the panels above their share of their integral's
    budget, epsrel |total|, and each panel carries its level, the number of
    bisections from its edge panel.  The singular points and kinks of the library's
    integrands lie on edges (_norm_edges, dependence._codifference_edges;
    the one exception is the codifference bracket's kink where its two
    kernels sum to 0), so an endpoint singularity or kink (|y|^s with
    s > -1 at an edge), whose error falls only by 2^-(1+s) per sweep,
    leaves the panel at that end the deepest.  QUADPACK's erlarg test, in
    dqagpe's level form, starts the extrapolation: an unfinished integral whose panels
    below its deepest level have a summed error within budget (only its
    deepest panels keep it from finishing) is extrapolated as QAGS does,
    by Wynn's epsilon algorithm over its last sweep totals (_epsilon).
    That is accepted once its error estimate is within budget and the value
    is within a factor 100 of the plain total and of its sign, or both are
    within 1% of the integral of |f|, whose sign then changes (dqagse's ier = 6
    test: a divergent integral's totals extrapolate to a finite wrong value).
    Returns the values and error estimates.  An integral it cannot finish
    (a panel too narrow to bisect, or still over budget at _LIMIT panels)
    keeps its last total and summed error, and one with a non-finite panel
    value gets error inf.
    """
    n = len(edges)
    row, pan = [], []
    for r, e in enumerate(edges):
        for a, b in zip(e[:-1], e[1:]):
            if math.isinf(a) and math.isinf(b):
                raise ValueError("a panel may have at most one infinite edge")
            row.append(r)
            if math.isinf(b):
                pan.append((0.0, 1.0, a, 1.0))
            elif math.isinf(a):
                pan.append((0.0, 1.0, b, -1.0))
            else:
                pan.append((a, b, 0.0, 0.0))
    value, error = np.zeros(n), np.zeros(n)
    row = np.array(row, dtype=np.intp)
    pan = np.array(pan)
    active = np.ones(n, dtype=bool)
    val, err, vabs = _qk15(f, row, pan)
    level = np.zeros(len(row), dtype=np.intp)
    totals = []
    while True:
        bad = np.zeros(n, dtype=bool)
        bad[row[~np.isfinite(val + err)]] = True
        tot = np.bincount(row, val, n)
        tot_err = np.where(bad, np.inf, np.bincount(row, err, n))
        count = np.bincount(row, minlength=n)
        budget = epsrel * np.abs(tot)
        done = active & (tot_err <= budget)
        totals.append(tot)
        # summed error of the panels below their integral's deepest level
        deepest = np.zeros(n, dtype=np.intp)
        np.maximum.at(deepest, row, level)
        large = np.bincount(row, np.where(level < deepest[row], err, 0.0), n)
        ready = np.flatnonzero(active & ~done & ~bad & (large <= budget))
        if ready.size and len(totals) >= _EXTRAP_MIN:
            ext, ext_err = _epsilon(np.array(totals[-_EXTRAP_MAX:]).T[ready])
            plain, absf = tot[ready], np.bincount(row, vabs, n)[ready]
            with np.errstate(divide="ignore", invalid="ignore"):  # plain = 0
                near = (0.01 <= ext / plain) & (ext / plain <= 100.0)
            ok = (ext_err <= epsrel * np.abs(ext)) & (
                near | (np.maximum(np.abs(ext), np.abs(plain)) <= 0.01 * absf))
            ready = ready[ok]
            tot[ready], tot_err[ready], done[ready] = ext[ok], ext_err[ok], True
        value[active] = tot[active]
        error[active] = tot_err[active]
        bad |= (count >= _LIMIT) & ~done
        # bisect the panels above their share of their integral's budget
        split = ~done[row] & (err > budget[row] / count[row])
        parent = pan[split]
        mid = 0.5 * (parent[:, 0] + parent[:, 1])
        bad[row[split][(mid <= parent[:, 0]) | (mid >= parent[:, 1])]] = True
        active &= ~(done | bad)
        split &= active[row]
        if not split.any():
            return value, error
        keep = active[row] & ~split
        left, right = pan[split], pan[split]
        left[:, 1] = right[:, 0] = 0.5 * (left[:, 0] + left[:, 1])
        crow = np.concatenate([row[split], row[split]])
        cval, cerr, cabs = _qk15(f, crow, np.concatenate([left, right]))
        row = np.concatenate([row[keep], crow])
        pan = np.concatenate([pan[keep], left, right])
        val = np.concatenate([val[keep], cval])
        err = np.concatenate([err[keep], cerr])
        vabs = np.concatenate([vabs[keep], cabs])
        level = np.concatenate([level[keep], np.tile(level[split] + 1, 2)])


def _quad(f, edges, q: QuadratureConfig = DEFAULT_QUAD):
    """(value, error estimate) of integral f over [e[0], e[-1]] for each row
    e of edges, panel by panel between consecutive edges.

    Every integral of the library goes through here.  edges is one row of
    increasing edges (one integral; floats are returned) or a sequence of
    rows (a batch; arrays are returned).  Each row must hold at least two
    strictly increasing edges, and a panel at most one infinite end (one
    with two raises ValueError); _norm_edges and _codifference_edges are
    sorted sets, and tfgn2_acvf's rows are fixed increasing tuples.
    f(x, rows) is an array integrand: x holds the 15 Kronrod nodes of every
    active panel and rows[i] the index of the integral that x[i] belongs to.
    The batch runs QUADPACK's adaptive G7/K15 rule in NumPy (_kronrod): each
    sweep makes one call of f, and an integral stops once its summed error
    is within 0.25 q.rel_tol |value|, relative error alone, so a small
    value keeps its digits; until then only its panels whose error
    exceeds their share of that budget are bisected, up to _LIMIT panels.
    Infinite edges use QUADPACK's qk15i map.  An integral whose error lies
    only in its most bisected panels (an endpoint singularity or kink,
    whose panel is halved each sweep) is extrapolated from its sweep totals
    as in QUADPACK's QAGS, by dqagpe's level form of the erlarg test.
    Raises QuadratureError when an integral's error estimate exceeds
    40 q.rel_tol |value| or is NaN or inf, as for an integrand that is not
    finite.
    """
    single = np.ndim(edges[0]) == 0
    rows = [edges] if single else list(edges)
    total, err = _kronrod(f, rows, 0.25 * q.rel_tol)
    over = np.flatnonzero(~(err <= 40.0 * q.rel_tol * np.abs(total)) | np.isinf(err))
    if over.size:
        raise QuadratureError(
            f"{getattr(f, '__qualname__', 'integrand')}: quadrature error "
            f"estimate {err[over[0]]:.3e} exceeds tolerance "
            f"(rel={q.rel_tol:.1e}, value={total[over[0]]:.6e})")
    if single:
        return float(total[0]), float(err[0])
    return total, err


def _phi(k: float, lam: float, x: np.ndarray) -> np.ndarray:
    """phi(x) = x_+^k e^{-lam x} over an array x, with the right limit +inf
    at x = 0 for k < 0."""
    out = np.zeros(x.shape)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = xp ** k * np.exp(-lam * xp)
    if k < 0.0:
        out[x == 0.0] = math.inf
    return out


def _kernel_step(kind: str, k: float, lam: float, a: np.ndarray,
                 w) -> np.ndarray:
    """Kernel values between the primitive arguments a = -y (a 1-D array) and
    b = a + w = t - y, at one width w per element (a float w is every
    element's width).

    phi(b) - phi(a) for the first kind, R(a) - R(b) for the second; lam = 0
    reduces the second kind to the first and kappa = 0 to the indicator.
    Taking the width w = t rather than b keeps short steps exact, and each
    branch is free of cancellation:

        first kind, 0 < a:   phi(a) expm1(kappa log1p(w/a) - lam w)
        b <= 0:              0 (both on the plateau)
        a <= 0 < b:          lam^-kappa gamma(1 + kappa, lam b) + phi(b)
        0 < a:               kappa lam^-kappa int_{lam a}^{lam b} s^(kappa-1) e^-s ds

    The last integral is specfun.gamma_interval over the cell [lam a, lam b].
    A cell with lam w <= min(lam a / 2, 1) is 8-point Gauss-Legendre, within
    2.5e-14 relative (1.7e-15 for kappa >= 0) because s = 0 lies at least
    four half-widths to its left; it needs no incomplete gamma.  Longer
    cells (small a, or lam w > 1) are differences of incomplete gammas.
    Every element is computed on its own, so its value is that of a call
    with its width alone, and a zero width gives 0.

    For kappa < 0 the second kind is +inf at b = 0 and -inf at a = 0.  A
    non-finite y or width, or a negative width, raises ValueError.
    """
    w = np.full(a.shape, w, dtype=float)
    specfun._check_x("kernel", w, (w >= 0.0) & (w < np.inf), "finite t >= 0")
    specfun._check_x("kernel", -a, np.isfinite(a), "finite y")
    out = np.zeros(a.shape)
    live = w > 0.0  # a zero width gives 0, at a singular point too
    right = live & (a > 0.0)
    left = live & ~right
    b = a + w
    ar, wr = a[right], w[right]
    if kind == "I" or lam == 0.0:
        out[right] = _phi(k, lam, ar) * np.expm1(k * np.log1p(wr / ar) - lam * wr)
        out[left] = _phi(k, lam, b[left]) - _phi(k, lam, a[left])
        return out
    cross = left & (b > 0.0)
    if k == 0.0:
        out[cross] = 1.0
        return out
    if k < 0.0:
        out[left & (b == 0.0)] = math.inf
        out[left & (a == 0.0)] = -math.inf
        cross &= a != 0.0
    bc = b[cross]
    out[cross] = (lam ** (-k) * specfun.lower_gamma(1.0 + k, lam * bc)
                  + _phi(k, lam, bc))
    out[right] = k * lam ** (-k) * specfun.gamma_interval(k, lam * ar, lam * wr)
    return out


# terms of the far-field series (_far_kernel), and the least x = lam a it
# takes, so that x^-20 stays below 2^800
_FAR_TERMS = 21
_FAR_MIN_X = 2.0 ** -40


def _far_kernel(p: ProcessParams, a: np.ndarray, t: np.ndarray):
    """Factors (coef, powers, scale), n x 21, 21 x m and m, of the kernel
    values g or h(t_i; -a_j) = (coef @ powers)_ij scale_j of p's kind for
    k = kappa in (-1, 2), at the times t (rows) and the leading nodes of a
    descending 1-D array a that lie far left of every time (columns): the
    first m nodes, those with x = lam a >= max(8 lam max(t), _FAR_MIN_X),
    none at lam = 0 or k >= 2.

    With w = lam t <= x/8 and d_n = e^-w w^n/n!, binomial series give

        g(t; -a) = lam^-k x^k e^-x (expm1(-w) + sum_{n>=1} C(k, n) n! d_n x^-n),
        h(t; -a) = k lam^-k x^(k-1) e^-x sum_n C(k-1, n) gamma(n+1, w) x^-n.

    As |C(k, n)| <= |k| and |C(k-1, n)| <= n + 1, term n is at most
    (n + 1) 8^-n of the first (for g, of |g|/phi(a) + |expm1(-w)|), and the
    _FAR_TERMS = 21 terms leave a tail below 2^-56.  The series is
    separable: the row coefficients coef, a falling factorial times d_n, or
    for h times P_n = gamma(n+1, w)/n! from specfun.lower_gamma at n = 20
    and downward by P_(n-1) = P_n + d_n, a sum of positive terms; the node
    powers x^-n, one cumulative product; the node prefactor scale.  A zero
    time gives a row of zeros, as does h at k = 0.  A negative or
    non-finite time raises ValueError.
    """
    specfun._check_x("kernel", t, (t >= 0.0) & (t < np.inf), "finite t >= 0")
    k, lam = p.kappa, p.lam
    x = lam * a
    w = lam * t
    m = int(np.searchsorted(-x, -max(8.0 * w.max(), _FAR_MIN_X), side="right"))
    if m == 0 or k >= 2.0:
        return np.empty((t.size, 0)), np.empty((0, 0)), np.empty(0)
    n = np.arange(1.0, _FAR_TERMS)
    d = np.cumprod(np.column_stack([np.exp(-w), w[:, None] / n]), axis=1)
    if p.kind == "I":  # k (k-1) .. (k-n+1) d_n, and expm1(-w) at n = 0
        c, lead, e, n = d, 1.0, k, n - 1.0
        c[:, 0] = np.expm1(-w)
    else:  # (k-1) (k-2) .. (k-n) P_n
        top = specfun.lower_gamma(float(_FAR_TERMS), w) / math.factorial(_FAR_TERMS - 1)
        c = np.cumsum(np.column_stack([top, d[:, :0:-1]]), axis=1)[:, ::-1]
        lead, e = k, k - 1.0
    coef = c * np.cumprod(np.concatenate([[1.0], k - n]))
    xm = x[:m]
    powers = np.empty((_FAR_TERMS, m))
    powers[0] = 1.0
    powers[1:] = 1.0 / xm
    np.cumprod(powers, axis=0, out=powers)
    return coef, powers, lead * lam ** (-k) * (np.exp(-xm) * xm ** e)


@specfun._elementwise("y")
def kernel_g(p: ProcessParams, t, y):
    """First-kind kernel g(t; y) = phi(t - y) - phi(-y) at a float or an
    array of y, and one t or an array of one t per element of y.

    For kappa < 0 the values at exactly y = t and y = 0 are the one-sided
    infinite limits +inf and -inf.
    """
    return _kernel_step("I", p.kappa, p.lam, -y, t)


@specfun._elementwise("y")
def kernel_h(p: ProcessParams, t, y):
    """Second-kind kernel h(t; y) = R(-y) - R(t - y) at a float or an array
    of y, and one t or an array of one t per element of y (each value is
    that of a call with its own t).

    H = 1/alpha gives the indicator of [0, t) exactly and lam = 0 the
    untempered kernel (t-y)_+^kappa - (-y)_+^kappa.  For 0 <= y < t the value
    is lam^-kappa gamma(1 + kappa, lam (t-y)) + (t-y)^kappa e^{-lam (t-y)}, a
    sum of two positive terms, so h dies continuously as y -> t- when
    H > 1/alpha.  For y < 0 it is kappa lam^-kappa times the integral of
    s^(kappa-1) e^-s over [-lam y, lam (t-y)], which stays accurate far into
    the left tail.  For kappa < 0 the values at exactly y = t and y = 0 are
    +inf and -inf.
    """
    return _kernel_step("II", p.kappa, p.lam, -y, t)


def kernel(p: ProcessParams, t, y):
    """Kernel of the process selected by p.kind (g for I, h for II) at a
    float or an array of y, and one time t or a 1-D array of one time per
    element of y, whose values equal the per-element calls bit for bit."""
    return kernel_g(p, t, y) if p.kind == "I" else kernel_h(p, t, y)


def _kinks(p: ProcessParams, t: float) -> list[float]:
    """The y at which |kernel(t; y)|^alpha, t > 0, has a kink off the edges
    0 and t: for the first kind with alpha < 2, kappa > 0 and lam > 0 the
    one sign change of g(t; .), where (1 + t/a)^kappa = e^(lam t) at a = -y,
    so y = -t / expm1(lam t / kappa) (no kink at alpha = 2, where |g|^2 is
    smooth, and no sign change otherwise).  Empty when lam t / kappa > 700,
    past which expm1 overflows (the root lies within t e^-700 of 0)."""
    if p.kind != "I" or p.alpha >= 2.0 or p.kappa <= 0.0 or p.lam <= 0.0:
        return []
    x = p.lam * t / p.kappa
    return [-t / math.expm1(x)] if x <= 700.0 else []


def _norm_edges(p: ProcessParams, t: float, q: QuadratureConfig) -> list[float]:
    """Panel edges of the alpha-norm integral at time t > 0: graded
    geometrically, -t 10^k, from -t down to -cutoff, so that the mass on
    [-t, 0] and just left of it has panels of its own scale at any t; then
    0 and t, and the kink of the first kind's sign change (_kinks) when it
    lies right of -cutoff.  The left tail is one infinite panel
    (-inf, -cutoff).  Every kink and singular point of the integrand is an
    edge, so _kronrod extrapolates it in a few sweeps."""
    a = q.cutoff(p.lam)
    left = []
    y = t
    while y < a:
        left.append(-y)
        y *= 10.0
    kinks = [y for y in _kinks(p, t) if y > -a]
    return sorted({-math.inf, -a, *left, 0.0, t, *kinks})


@specfun._elementwise("t")
def kernel_alpha_norm(p: ProcessParams, t, q: QuadratureConfig = DEFAULT_QUAD):
    """integral_R |kernel(t; y)|^alpha dy by adaptive quadrature (_quad), at
    a float or an array of times t.  The times of an array are one _quad
    batch, and each sweep is one kernel call (_kernel_step) at the times of
    its nodes' integrals.

    The panels are graded geometrically from -t to -cutoff, with the first
    kind's sign change as an edge (_norm_edges), and the left tail below
    -cutoff is one panel to -infinity through QUADPACK's infinite map, for
    every lambda.  Each integral stops on q.rel_tol relative to its value,
    as every integral does, so the small-t norms, which shrink like
    t^(alpha H), keep their digits.  H = 1/alpha short-circuits to the exact
    value t.  Kernels with kappa < 0 are singular at y = 0 and y = t; _quad
    extrapolates those integrals.
    """
    specfun._check_x("kernel_alpha_norm", t, (t >= 0.0) & (t < np.inf),
                     "finite t >= 0")
    if p.kappa == 0.0 and p.kind == "II":
        return t.copy()  # indicator kernel
    out = np.zeros(t.size)
    pos = np.flatnonzero(t > 0.0)
    if pos.size == 0:
        return out
    tp = t[pos]

    def f(y, rows):
        return np.abs(_kernel_step(p.kind, p.kappa, p.lam, -y, tp[rows])) ** p.alpha

    out[pos], _ = _quad(f, [_norm_edges(p, ti, q) for ti in tp], q)
    return out
