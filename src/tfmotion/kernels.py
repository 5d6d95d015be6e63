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
differences without cancellation over an array of a = -y, at one t or at
one t per element; the public kernels take one t and a float or an array
of y, so a kernel table row is one call, and each quadrature sweep of
kernel_alpha_norm is one call over the nodes of every time of its batch.
Also here: _check_params, the one check of H, lambda, sigma, times and
lags; quadrature of integral |kernel|^alpha dy (one batch over many t); and
_quad, the one quadrature helper through which every integral of the
package runs.
_quad integrates a batch of integrals with QUADPACK's adaptive G7/K15 rule
written in NumPy, one array integrand call per sweep over every active
panel of every integral, with QUADPACK's epsilon extrapolation (_epsilon)
for endpoint singularities.  It returns each integral's error estimate and
raises QuadratureError when that estimate exceeds the QuadratureConfig
tolerances.
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
                  times=()) -> None:
    """The package's one check of its process parameters, run before any
    arithmetic on them: raise ValueError unless H, lambda and sigma are
    finite, H > 0, lambda > 0 (>= 0 with lam_zero), sigma > 0, and every
    time or lag in times (floats or arrays) is finite.  None skips one."""
    for name, v in (("H", H), ("lambda", lam), ("sigma", sigma)):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if H is not None and H <= 0.0:
        raise ValueError(f"H must be positive, got {H}")
    if lam is not None and (lam < 0.0 if lam_zero else lam <= 0.0):
        raise ValueError(f"lambda must be {'>= 0' if lam_zero else 'positive'}, "
                         f"got {lam}")
    if sigma is not None and sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
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
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        _check_params(self.H, self.lam, lam_zero=True, sigma=self.sigma)
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if self.kind not in ("I", "II"):
            raise ValueError(f"kind must be 'I' or 'II', got {self.kind!r}")
        if self.kind == "I" and self.lam == 0.0 and not 0.0 < self.H < 1.0:
            raise ValueError("untempered first-kind motion requires H in (0, 1)")
        if self.alpha == 2.0 and self.beta != 0.0:
            object.__setattr__(self, "beta", 0.0)  # skewness is void for alpha = 2

    @property
    def kappa(self) -> float:
        return self.H - 1.0 / self.alpha


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the library's integrals (see _quad).  For lambda > 0
    the left tails are truncated at cutoff(lam) = max(50/lambda, 50); the
    untempered integrals (lambda = 0) run on to -infinity past cutoff(0) = 50."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-9

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not 0.0 < v <= 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2], got {v}")

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
    """Kronrod value and QUADPACK qk15 error estimate of every panel.

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
    return resk * h, err


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


def _kronrod(f, edges, epsabs, epsrel):
    """Batched adaptive G7/K15 quadrature of one integral per row of edges.

    Each sweep bisects the panels above their share of their integral's
    budget.  An integral whose summed error no longer halves from one sweep
    to the next (an integrable endpoint singularity, where each sweep only
    halves the panel at the singular end) is extrapolated as QUADPACK's QAGS
    does: Wynn's epsilon algorithm over its last sweep totals (_epsilon),
    accepted once that error estimate is within budget.  Returns the values
    and error estimates.  An integral it cannot finish (a panel too narrow
    to bisect, or still over budget at _LIMIT panels) keeps its last total
    and summed error, and one with a non-finite panel value gets error inf.
    """
    n = len(edges)
    row, pan = [], []
    for r, e in enumerate(edges):
        for a, b in zip(e[:-1], e[1:]):
            a, b = float(a), float(b)
            if a == b:
                continue
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
    if not row:
        return value, error
    row = np.array(row, dtype=np.intp)
    pan = np.array(pan)
    active = np.bincount(row, minlength=n) > 0
    val, err = _qk15(f, row, pan)
    totals = []
    last_err = np.full(n, np.inf)
    while True:
        bad = np.zeros(n, dtype=bool)
        bad[row[~np.isfinite(val + err)]] = True
        tot = np.bincount(row, val, n)
        tot_err = np.where(bad, np.inf, np.bincount(row, err, n))
        count = np.bincount(row, minlength=n)
        budget = np.maximum(epsabs, epsrel * np.abs(tot))
        done = active & (tot_err <= budget)
        totals.append(tot)
        slow = np.flatnonzero(active & ~done & ~bad & (tot_err > 0.5 * last_err))
        last_err = tot_err
        if slow.size and len(totals) >= _EXTRAP_MIN:
            ext, ext_err = _epsilon(np.array(totals[-_EXTRAP_MAX:]).T[slow])
            ok = ext_err <= np.maximum(epsabs, epsrel * np.abs(ext))
            slow = slow[ok]
            tot[slow], tot_err[slow], done[slow] = ext[ok], ext_err[ok], True
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
        cval, cerr = _qk15(f, crow, np.concatenate([left, right]))
        row = np.concatenate([row[keep], crow])
        pan = np.concatenate([pan[keep], left, right])
        val = np.concatenate([val[keep], cval])
        err = np.concatenate([err[keep], cerr])


def _check_error(f, total, err, q: QuadratureConfig) -> None:
    """Raise QuadratureError when an error estimate exceeds 40 max(q.abs_tol,
    q.rel_tol |value|) or is NaN or inf (a non-finite integrand)."""
    bound = 40.0 * np.maximum(q.abs_tol, q.rel_tol * np.abs(total))
    over = ~(err <= bound) | np.isinf(err)
    if over.any():
        r = np.flatnonzero(over)[0]
        raise QuadratureError(
            f"{getattr(f, '__qualname__', 'integrand')}: quadrature error "
            f"estimate {err[r]:.3e} exceeds tolerance "
            f"(abs={q.abs_tol:.1e}, rel={q.rel_tol:.1e}, value={total[r]:.6e})")


def _quad(f, edges, q: QuadratureConfig = DEFAULT_QUAD, *,
          epsabs: float | None = None):
    """(value, error estimate) of integral f over [e[0], e[-1]] for each row
    e of edges, panel by panel between consecutive edges.

    Every integral of the library goes through here.  edges is one row of
    increasing edges (one integral; floats are returned) or a sequence of
    rows (a batch; arrays are returned), and f(x, rows) is an array
    integrand: x holds the 15 Kronrod nodes of every active panel and
    rows[i] the index of the integral that x[i] belongs to.  The batch runs
    QUADPACK's adaptive G7/K15 rule in NumPy (_kronrod): each sweep makes one
    call of f, and an integral stops once its summed error is within
    max(epsabs, epsrel |value|), with epsabs default 0.25 q.abs_tol and
    epsrel = 0.25 q.rel_tol; until then only its panels whose error exceeds
    their share of that budget are bisected, up to _LIMIT panels.  Infinite
    edges use QUADPACK's qk15i map.  An integral whose error stops halving
    per sweep (an integrable endpoint singularity) is extrapolated from its
    sweep totals as in QUADPACK's QAGS.  Raises QuadratureError when an
    integral's error estimate exceeds 40 max(q.abs_tol, q.rel_tol |value|)
    or is NaN or inf, as for an integrand that is not finite.
    """
    single = np.ndim(edges[0]) == 0
    rows = [edges] if single else list(edges)
    total, err = _kronrod(f, rows, 0.25 * q.abs_tol if epsabs is None else epsabs,
                          0.25 * q.rel_tol)
    _check_error(f, total, err, q)
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
    b = a + w = t - y, at one width w (a float) or at one width per element
    (an array shaped like a).

    phi(b) - phi(a) for the first kind, R(a) - R(b) for the second; lam = 0
    reduces the second kind to the first and kappa = 0 to the indicator.
    Taking the width w = t rather than b keeps short steps exact, and each
    branch is free of cancellation:

        first kind, 0 < a:   phi(a) expm1(kappa log1p(w/a) - lam w)
        b <= 0:              0 (both on the plateau)
        a <= 0 < b:          lam^-kappa gamma(1 + kappa, lam b) + phi(b)
        0 < a:               kappa lam^-kappa int_{lam a}^{lam b} s^(kappa-1) e^-s ds

    The last integral is specfun.gamma_interval over the cell [lam a, lam b].
    A cell with lam w <= min(lam a / 2, 1) is 8-point Gauss-Legendre, exact
    to rounding there because s = 0 lies at least four half-widths to its
    left; it needs no incomplete gamma, and its node factors depend only on
    w, so all elements of one width share them.  Longer cells (small a, or
    lam w > 1) are differences of incomplete gammas.  Each element's value
    is that of a call with its own width alone, and a zero width gives 0.

    For kappa < 0 the second kind is +inf at b = 0 and -inf at a = 0.  A
    non-finite y or width, or a negative width, raises ValueError.
    """
    wide = np.ndim(w) > 0
    wv = np.atleast_1d(w)
    specfun._check_x("kernel", wv, (wv >= 0.0) & (wv < np.inf), "finite t >= 0")
    specfun._check_x("kernel", -a, np.isfinite(a), "finite y")
    out = np.zeros(a.shape)
    if wide:
        live = w > 0.0
        if not live.all():
            if live.any():
                out[live] = _kernel_step(kind, k, lam, a[live], w[live])
            return out
    elif w == 0.0:
        return out
    b = a + w
    right = a > 0.0
    ar = a[right]
    wr = w[right] if wide else w
    if kind == "I" or lam == 0.0:
        out[right] = _phi(k, lam, ar) * np.expm1(k * np.log1p(wr / ar) - lam * wr)
        left = ~right
        out[left] = _phi(k, lam, b[left]) - _phi(k, lam, a[left])
        return out
    cross = ~right & (b > 0.0)
    if k == 0.0:
        out[cross] = 1.0
        return out
    if k < 0.0:
        out[b == 0.0] = math.inf
        out[a == 0.0] = -math.inf
        cross &= a != 0.0
    bc = b[cross]
    out[cross] = (lam ** (-k) * specfun.lower_gamma(1.0 + k, lam * bc)
                  + _phi(k, lam, bc))
    out[right] = k * lam ** (-k) * specfun.gamma_interval(k, lam * ar, lam * wr)
    return out


@specfun._elementwise("y")
def kernel_g(p: ProcessParams, t: float, y):
    """First-kind kernel g(t; y) = phi(t - y) - phi(-y) at a float or an
    array of y.

    For kappa < 0 the values at exactly y = t and y = 0 are the one-sided
    infinite limits +inf and -inf.
    """
    return _kernel_step("I", p.kappa, p.lam, -y, t)


@specfun._elementwise("y")
def kernel_h(p: ProcessParams, t: float, y):
    """Second-kind kernel h(t; y) = R(-y) - R(t - y) at a float or an array
    of y.

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


def kernel(p: ProcessParams, t: float, y):
    """Kernel of the process selected by p.kind (g for I, h for II) at one
    time t and a float or an array of y."""
    return kernel_g(p, t, y) if p.kind == "I" else kernel_h(p, t, y)


def alpha_norm_tail_bound(p: ProcessParams, t, a: float):
    """Analytic bound on integral_{-inf}^{-a} |kernel(t; y)|^alpha dy, a > 0,
    at a float or an array of times t.

    From |h(t; -u)| <= (2 + lam t) (1 + t/a)^{max(kappa,0)} u^kappa e^{-lam u}
    for u >= a, which also dominates |g|; requires lam > 0.
    """
    if p.lam <= 0.0:
        raise ValueError("tail bound requires lambda > 0")
    al, lam = p.alpha, p.lam
    k = p.kappa
    grow = (1.0 + t / a) ** (al * k) if k > 0.0 else 1.0
    pref = (2.0 + lam * t) ** al * grow * (al * lam) ** (-al * p.H)
    return pref * specfun.upper_gamma(al * p.H, al * lam * a)


def _norm_edges(p: ProcessParams, t: float, q: QuadratureConfig) -> list[float]:
    """Panel edges of the alpha-norm integral at time t > 0: graded
    geometrically, -t 10^k, from -t down to -cutoff, so that the mass on
    [-t, 0] and just left of it has panels of its own scale at any t; then
    0 and t, and -inf as the first edge for lam = 0."""
    a = q.cutoff(p.lam)
    left = []
    y = t
    while y < a:
        left.append(-y)
        y *= 10.0
    first = [-math.inf, -a] if p.lam == 0.0 else [-a]
    return first + left[::-1] + [0.0, t]


@specfun._elementwise("t")
def kernel_alpha_norm(p: ProcessParams, t, q: QuadratureConfig = DEFAULT_QUAD):
    """integral_R |kernel(t; y)|^alpha dy by adaptive quadrature (_quad), at
    a float or an array of times t.  The times of an array are one _quad
    batch, and each sweep is one kernel call (_kernel_step) at the times of
    its nodes' integrals.

    The panels are graded geometrically from -t to -cutoff (_norm_edges).
    The left tail below -cutoff is truncated and covered by the analytic
    exponential bound (lam > 0), which is added to the value, or integrated
    to -infinity through QUADPACK's infinite map (lam = 0).  H = 1/alpha
    short-circuits to the exact value t.  Kernels with kappa < 0 are
    singular at y = 0 and y = t; _quad extrapolates those integrals.
    """
    _check_params(times=(t,))
    if np.any(t < 0.0):
        raise ValueError(f"t must be >= 0, got {t.min()}")
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
    if p.lam > 0.0:
        out[pos] += alpha_norm_tail_bound(p, tp, q.cutoff(p.lam))
    return out
