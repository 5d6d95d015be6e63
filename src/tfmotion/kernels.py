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
differences without cancellation, or for kernel tables through its array twin
_kernel_step_array over all a = -y at one t (kernel_row).  Also here: the
tempered fractional integral/derivative of the interval indicator,
quadrature of integral |kernel|^alpha dy, and _quad, the one quadrature
helper through which every integral of the package runs: it returns
QUADPACK's error estimate and raises QuadratureError when that estimate
exceeds the QuadratureConfig tolerances.  The convention (x)_+^p = x^p for
x > 0 and 0 otherwise is used throughout; for kappa < 0 the primitive at
x = 0 takes its infinite right limit, so the kernels return the signed
infinite limit at the singular points y = 0 and y = t rather than
overflowing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from . import specfun


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
        if self.H <= 0.0:
            raise ValueError(f"H must be positive, got {self.H}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
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
    """Tolerances of the library's integrals (see _quad); the left tails are
    truncated at cutoff(lam) = max(50/lambda, 50), or 50 for lambda = 0."""

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


def _quad(f, edges, q: QuadratureConfig = DEFAULT_QUAD, *,
          epsabs: float | None = None, limit: int = 400,
          **weight) -> tuple[float, float]:
    """(value, error estimate) of integral f over [edges[0], edges[-1]].

    Every integral of the library goes through here: one QUADPACK call per
    panel between consecutive edges, with epsabs (default 0.25 q.abs_tol),
    epsrel = 0.25 q.rel_tol and at most limit subdivisions; ``weight``
    passes QUADPACK weights such as weight="cos", wvar=m.  Values and error
    estimates are summed in panel order.  Raises QuadratureError when the
    summed error exceeds 40 max(q.abs_tol, q.rel_tol |value|).
    """
    from scipy import integrate

    if epsabs is None:
        epsabs = 0.25 * q.abs_tol
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            v, e = integrate.quad(f, a, b, epsabs=epsabs, epsrel=0.25 * q.rel_tol,
                                  limit=limit, **weight)
            total += v
            err += e
    if err > 40.0 * max(q.abs_tol, q.rel_tol * abs(total)):
        raise QuadratureError(
            f"{getattr(f, '__qualname__', 'integrand')}: quadrature error "
            f"estimate {err:.3e} exceeds tolerance "
            f"(abs={q.abs_tol:.1e}, rel={q.rel_tol:.1e}, value={total:.6e})")
    return total, err


def plus_pow(x: float, p: float) -> float:
    """(x)_+^p with the convention 0 for x <= 0 (any real p)."""
    return x ** p if x > 0.0 else 0.0


def _phi(k: float, lam: float, x: float) -> float:
    """phi(x) = x_+^k e^{-lam x}, with the right limit +inf at x = 0 for k < 0."""
    if x > 0.0:
        return x ** k * math.exp(-lam * x)
    return math.inf if x == 0.0 and k < 0.0 else 0.0


def _kernel_step(kind: str, k: float, lam: float, a: float, w: float) -> float:
    """Kernel value between the primitive arguments a = -y and b = a + w = t - y.

    phi(b) - phi(a) for the first kind, R(a) - R(b) for the second; lam = 0
    reduces the second kind to the first and kappa = 0 to the indicator.
    Taking the width w = t rather than b keeps short steps exact, and each
    branch is free of cancellation:

        first kind, 0 < a:   phi(a) expm1(kappa log1p(w/a) - lam w)
        b <= 0:              0 (both on the plateau)
        a <= 0 < b:          lam^-kappa gamma(1 + kappa, lam b) + phi(b)
        0 < a:               kappa lam^-kappa int_{lam a}^{lam b} s^(kappa-1) e^-s ds
    """
    if w == 0.0:
        return 0.0
    b = a + w
    if kind == "I" or lam == 0.0:
        if a > 0.0:
            return _phi(k, lam, a) * math.expm1(k * math.log1p(w / a) - lam * w)
        return _phi(k, lam, b) - _phi(k, lam, a)
    if k == 0.0:
        return 1.0 if a <= 0.0 < b else 0.0
    if b <= 0.0:
        return math.inf if b == 0.0 and k < 0.0 else 0.0
    if a <= 0.0:
        if a == 0.0 and k < 0.0:
            return -math.inf
        return lam ** (-k) * specfun.lower_gamma(1.0 + k, lam * b) + _phi(k, lam, b)
    return k * lam ** (-k) * specfun.gamma_interval(k, lam * a, lam * w)


def _phi_array(k: float, lam: float, x: np.ndarray) -> np.ndarray:
    """_phi elementwise over an array x."""
    out = np.zeros(x.shape)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = xp ** k * np.exp(-lam * xp)
    if k < 0.0:
        out[x == 0.0] = math.inf
    return out


def _kernel_step_array(kind: str, k: float, lam: float, a: np.ndarray,
                       w: float) -> np.ndarray:
    """_kernel_step elementwise over a 1-D array a at one scalar width w,
    with the same branches and infinite markers."""
    out = np.zeros(a.shape)
    if w == 0.0:
        return out
    b = a + w
    right = a > 0.0
    ar = a[right]
    if kind == "I" or lam == 0.0:
        out[right] = _phi_array(k, lam, ar) * np.expm1(k * np.log1p(w / ar) - lam * w)
        left = ~right
        out[left] = _phi_array(k, lam, b[left]) - _phi_array(k, lam, a[left])
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
    out[cross] = (lam ** (-k) * specfun._lower_gamma_array(1.0 + k, lam * bc)
                  + _phi_array(k, lam, bc))
    out[right] = k * lam ** (-k) * specfun._gamma_interval_array(k, lam * ar, lam * w)
    return out


def kernel_g(p: ProcessParams, t: float, y: float) -> float:
    """First-kind kernel g(t; y) = phi(t - y) - phi(-y).

    For kappa < 0 the values at exactly y = t and y = 0 are the one-sided
    infinite limits +inf and -inf.
    """
    if t < 0.0:
        raise ValueError(f"kernel time must be >= 0, got t = {t}")
    return _kernel_step("I", p.kappa, p.lam, -y, t)


def kernel_h(p: ProcessParams, t: float, y: float) -> float:
    """Second-kind kernel h(t; y) = R(-y) - R(t - y).

    H = 1/alpha gives the indicator of [0, t) exactly and lam = 0 the
    untempered kernel (t-y)_+^kappa - (-y)_+^kappa.  For 0 <= y < t the value
    is lam^-kappa gamma(1 + kappa, lam (t-y)) + (t-y)^kappa e^{-lam (t-y)}, a
    sum of two positive terms, so h dies continuously as y -> t- when
    H > 1/alpha.  For y < 0 it is kappa lam^-kappa times the integral of
    s^(kappa-1) e^-s over [-lam y, lam (t-y)], which stays accurate far into
    the left tail.  For kappa < 0 the values at exactly y = t and y = 0 are
    +inf and -inf.
    """
    if t < 0.0:
        raise ValueError(f"kernel time must be >= 0, got t = {t}")
    return _kernel_step("II", p.kappa, p.lam, -y, t)


def g_time_integral(p: ProcessParams, t: float, y: float) -> float:
    """integral_0^t g(s; y) ds in closed form (used by the kind I/II identity)."""
    if t < 0.0:
        raise ValueError(f"kernel time must be >= 0, got t = {t}")
    k = p.kappa
    drift = -t * plus_pow(-y, k) * math.exp(-p.lam * max(-y, 0.0))
    if y >= t or t == 0.0:
        return drift
    if p.lam == 0.0:
        hi = plus_pow(t - y, k + 1.0) / (k + 1.0)
        lo = plus_pow(-y, k + 1.0) / (k + 1.0)
        return hi - lo + drift
    hi = specfun.lower_gamma(k + 1.0, p.lam * (t - y))
    lo = specfun.lower_gamma(k + 1.0, p.lam * (-y)) if y < 0.0 else 0.0
    return (hi - lo) * p.lam ** (-k - 1.0) + drift


def tempered_frac_indicator(kappa: float, lam: float, mode: str,
                            t: float, y: float) -> float:
    """Tempered fractional integral or derivative of 1_[0, t] evaluated at y.

    mode="integral" applies the operator of order kappa > 0; mode="derivative"
    the operator of order 0 < kappa < 1.  Both act in the left-moving
    direction, matching the moving-average kernels: with kappa = |H - 1/alpha|
    the result equals h(t; y) / Gamma(1 + H - 1/alpha).
    """
    if lam <= 0.0:
        raise ValueError(f"tempering rate must be positive, got {lam}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if mode == "integral":
        if kappa <= 0.0:
            raise ValueError(f"integral mode requires kappa > 0, got {kappa}")
        if t == 0.0 or y >= t:
            return 0.0
        hi = specfun.lower_gamma(kappa, lam * (t - y))
        lo = specfun.lower_gamma(kappa, lam * (-y)) if y < 0.0 else 0.0
        return lam ** (-kappa) * (hi - lo) / specfun.gamma_fn(kappa)
    if mode == "derivative":
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"derivative mode requires 0 < kappa < 1, got {kappa}")
        if t == 0.0:
            return 0.0
        if y > t:
            return 0.0
        if y == t:
            return math.inf
        c = kappa / specfun.gamma_fn(1.0 - kappa) * lam ** kappa
        if y >= 0.0:
            return lam ** kappa + c * specfun.upper_gamma(-kappa, lam * (t - y))
        ga = specfun.upper_gamma(-kappa, lam * (-y))
        gb = specfun.upper_gamma(-kappa, lam * (t - y))
        return -c * (ga - gb)
    raise ValueError(f"mode must be 'integral' or 'derivative', got {mode!r}")


def kernel(p: ProcessParams, t: float, y: float) -> float:
    """Kernel of the process selected by p.kind (g for I, h for II)."""
    return kernel_g(p, t, y) if p.kind == "I" else kernel_h(p, t, y)


def kernel_row(p: ProcessParams, t: float, ys: np.ndarray) -> np.ndarray:
    """kernel(p, t, y) for every y of a 1-D array at one time t, in one array
    evaluation of the kind's primitive difference (_kernel_step_array); the
    values agree with the scalar kernel to rounding."""
    if t < 0.0:
        raise ValueError(f"kernel time must be >= 0, got t = {t}")
    return _kernel_step_array(p.kind, p.kappa, p.lam, -np.asarray(ys, dtype=float), t)


def alpha_norm_tail_bound(p: ProcessParams, t: float, a: float) -> float:
    """Analytic bound on integral_{-inf}^{-a} |kernel(t; y)|^alpha dy, a > 0.

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


def kernel_alpha_norm(p: ProcessParams, t: float,
                      q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """integral_R |kernel(t; y)|^alpha dy by adaptive quadrature (_quad).

    The left tail below -cutoff is truncated and covered by the analytic
    exponential bound (lam > 0), which is added to the value, or integrated
    to -infinity directly (lam = 0).  H = 1/alpha short-circuits to the exact
    value t.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if p.kappa == 0.0 and p.kind == "II":
        return float(t)  # indicator kernel
    al, k = p.alpha, p.kappa
    f = lambda y: abs(_kernel_step(p.kind, k, p.lam, -y, t)) ** al
    if p.lam > 0.0:
        a = q.cutoff(p.lam)
        total, _ = _quad(f, (-a, 0.0, t), q)
        return total + alpha_norm_tail_bound(p, t, a)
    total, _ = _quad(f, (-math.inf, 0.0, t), q)
    return total
