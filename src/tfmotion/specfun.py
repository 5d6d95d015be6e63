"""Self-contained special functions backing the closed-form covariance theory.

Implements the gamma function (Lanczos approximation with reflection), the
modified Bessel function of the second kind K_nu (Temme's series for small
argument, a Steed continued fraction for large argument), the unnormalized
incomplete gamma functions and their integral over an interval, and the
generalized hypergeometric series 2F3 and the Hurwitz zeta function.  The
incomplete gammas take one parameter a and a float or an array x: their
series and continued fraction are masked NumPy iterations, one
implementation for one point or a kernel table.  No external
special-function library is used here; SciPy/mpmath appear only in the test
suite as independent oracles.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, SeriesConvergenceError

_EPS = 2.220446049250313e-16

# Lanczos coefficients, g = 607/128, for log-gamma on the positive axis.
_LANCZOS_G = 4.7421875
_LANCZOS_COF = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)
_LANCZOS_C0 = 0.999999999999997092
_SQRT_2PI = 2.5066282746310005

# Taylor coefficients of 1/Gamma(1+z) = sum c[k] z^k (Abramowitz & Stegun 6.1.34,
# shifted by one index).  Used for the Temme auxiliary functions at |z| <= 1/2.
_RGAMMA_C = (
    1.00000000000000000000,
    0.57721566490153286061,
    -0.65587807152025388108,
    -0.04200263503409523553,
    0.16653861138229148950,
    -0.04219773455554433675,
    -0.00962197152787697356,
    0.00721894324666309954,
    -0.00116516759185906511,
    -0.00021524167411495097,
    0.00012805028238811619,
    -0.00002013485478078824,
    -0.00000125049348214267,
    0.00000113302723198170,
    -0.00000020563384169776,
    0.00000000611609510448,
    0.00000000500200764447,
    -0.00000000118127457049,
    0.00000000010434267117,
    0.00000000000778226344,
    -0.00000000000369680562,
    0.00000000000051003703,
    -0.00000000000002058326,
    -0.00000000000000534812,
    0.00000000000000122678,
    -0.00000000000000011813,
)


@dataclass(frozen=True)
class SeriesControl:
    """Tolerance and term cap for hypergeometric series evaluation."""

    rel_tol: float = 1e-12
    max_terms: int = 500

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must lie in (0, 1e-3], got {self.rel_tol}")
        if self.max_terms < 50:
            raise ValueError(f"max_terms must be >= 50, got {self.max_terms}")


DEFAULT_SERIES = SeriesControl()


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (Lanczos, ~1e-15 relative)."""
    if x <= 0.0:
        raise PoleError(f"log_gamma requires x > 0, got {x}")
    y = x
    tmp = x + _LANCZOS_G + 0.5
    tmp = (x + 0.5) * math.log(tmp) - tmp
    ser = _LANCZOS_C0
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    return tmp + math.log(_SQRT_2PI * ser / x)


def _sin_pi(x: float) -> float:
    # sin(pi*x) with the argument reduced to |r| <= 1/2 so accuracy holds
    # near integers.
    n = math.floor(x + 0.5)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (int(n) & 1) else s


def gamma_fn(x: float) -> float:
    """Gamma(x) for real non-pole x; reflection formula below x = 1/2."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma_fn pole at nonpositive integer x = {x}")
    if x >= 0.5:
        return math.exp(log_gamma(x))
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    return math.pi / (_sin_pi(x) * math.exp(log_gamma(1.0 - x)))


def _temme_gam12(mu: float) -> tuple[float, float]:
    """Temme auxiliaries Gamma1, Gamma2 for |mu| <= 1/2.

    Gamma1 = [1/Gamma(1-mu) - 1/Gamma(1+mu)] / (2 mu)  (limit -EulerGamma at 0)
    Gamma2 = [1/Gamma(1-mu) + 1/Gamma(1+mu)] / 2
    Both are even functions; evaluated from the 1/Gamma Taylor coefficients.
    """
    mu2 = mu * mu
    g1 = 0.0
    g2 = 0.0
    p = 1.0  # mu^(k-1) for odd k / mu^(k-2) for even k, built incrementally
    for k in range(0, len(_RGAMMA_C), 2):
        g2 += _RGAMMA_C[k] * p
        if k + 1 < len(_RGAMMA_C):
            g1 -= _RGAMMA_C[k + 1] * p
        p *= mu2
        if p < _EPS:
            break
    return g1, g2


def _bessel_k_temme(mu: float, x: float, max_iter: int = 200) -> tuple[float, float]:
    """(K_mu, K_{mu+1}) for |mu| <= 1/2 and 0 < x <= 2 via Temme's series."""
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < 1e-30 else pimu / math.sin(pimu)
    d = -math.log(x2)
    e = mu * d
    fact2 = 1.0 if abs(e) < 1e-30 else math.sinh(e) / e
    gam1, gam2 = _temme_gam12(mu)
    gampl = gam2 - mu * gam1  # 1/Gamma(1+mu)
    gammi = gam2 + mu * gam1  # 1/Gamma(1-mu)
    ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
    ssum = ff
    e = math.exp(e)
    p = 0.5 * e / gampl
    q = 0.5 / (e * gammi)
    c = 1.0
    d = x2 * x2
    sum1 = p
    mu2 = mu * mu
    for i in range(1, max_iter + 1):
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= d / i
        p /= i - mu
        q /= i + mu
        dl = c * ff
        ssum += dl
        sum1 += c * (p - i * ff)
        if abs(dl) < abs(ssum) * _EPS:
            return ssum, sum1 * (2.0 / x)
    raise SeriesConvergenceError("bessel_k small-x series did not converge")


def _bessel_k_steed(mu: float, x: float, max_iter: int = 10000) -> tuple[float, float]:
    """(K_mu, K_{mu+1}) for |mu| <= 1/2 and x > 2 via the Steed/CF2 evaluation
    of the large-argument (confluent hypergeometric) representation."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, max_iter + 1):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            break
    else:
        raise SeriesConvergenceError("bessel_k continued fraction did not converge")
    h = a1 * h
    rkmu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    rk1 = rkmu * (mu + x + 0.5 - h) / x
    return rkmu, rk1


# Crossover between the small-argument series and the continued-fraction
# branch; the seam is exercised by a continuity test.
BESSEL_K_CROSSOVER = 2.0


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Negative orders use the symmetry K_{-nu} = K_nu.  Relative accuracy is
    ~1e-13 over nu in [0, 3], x in [1e-6, 50].
    """
    if x <= 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    nu = abs(float(nu))
    n = int(nu + 0.5)
    mu = nu - n  # in [-1/2, 1/2]
    if x <= BESSEL_K_CROSSOVER:
        kmu, kmu1 = _bessel_k_temme(mu, x)
    else:
        kmu, kmu1 = _bessel_k_steed(mu, x)
    # upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m from (mu, mu+1) to nu
    for j in range(1, n + 1):
        kmu, kmu1 = kmu1, kmu + (2.0 * (mu + j) / x) * kmu1
    return kmu


def _elementwise(name: str):
    """Decorator for a function whose body takes a 1-D float array in its
    argument ``name``: the wrapped function takes a float there and returns
    a Python float, or an array of any shape and returns an array of that
    shape.  The argument's position is found once, here; a call is bound
    to the signature only when it passes keywords (or too few arguments,
    so that it raises the usual TypeError)."""

    def decorate(body):
        sig = inspect.signature(body)
        pos = list(sig.parameters).index(name)

        @functools.wraps(body)
        def f(*args, **kwargs):
            if kwargs or len(args) <= pos:
                bound = sig.bind(*args, **kwargs)
                args, kwargs = bound.args, bound.kwargs
            x = args[pos]
            xa = np.asarray(x, dtype=float)
            args = args[:pos] + (xa.ravel(),) + args[pos + 1:]
            out = body(*args, **kwargs).reshape(xa.shape)
            return float(out) if xa.ndim == 0 and not isinstance(x, np.ndarray) else out

        return f

    return decorate


def _lower_series(a: float, x: np.ndarray, max_iter: int = 500) -> np.ndarray:
    """Series S with gamma(a, x) = exp(-x) * x^a * S, S = sum_n x^n / (a)_{n+1},
    over a 1-D array x.

    Converges for every non-integer a and fast for x < a + 1; for a in (-1, 0)
    it continues gamma(a, x) = Gamma(a) - Gamma(a, x) analytically.  Each
    element keeps its own sum and stopping test; converged elements are
    frozen and leave the active set.
    """
    out = np.empty(x.shape)
    act = np.arange(x.size)
    ap = a
    s = np.full(x.size, 1.0 / a)
    term = s.copy()
    for _ in range(max_iter):
        ap += 1.0
        term *= x / ap
        s += term
        done = np.abs(term) < np.abs(s) * _EPS
        out[act[done]] = s[done]
        live = ~done
        act, x, s, term = act[live], x[live], s[live], term[live]
        if act.size == 0:
            return out
    raise SeriesConvergenceError("incomplete gamma series did not converge")


def _upper_cf_scaled(a: float, x: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """Continued fraction G(a, x) with Gamma(a, x) = exp(-x) * x^a * G(a, x)
    over a 1-D array x, masked like _lower_series.

    Converges for x > 0 and any real a (used here for a > -1, x >= 1).
    """
    tiny = 1e-300
    out = np.empty(x.shape)
    act = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full(x.size, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        dl = d * c
        h *= dl
        done = np.abs(dl - 1.0) < _EPS
        out[act[done]] = h[done]
        live = ~done
        act, b, c, d, h = act[live], b[live], c[live], d[live], h[live]
        if act.size == 0:
            return out
    raise SeriesConvergenceError("incomplete gamma continued fraction did not converge")


def _scale(a: float, x: np.ndarray) -> np.ndarray:
    """exp(-x) x^a, the factor in front of the series and the fraction."""
    return np.exp(a * np.log(x) - x)


@_elementwise("x")
def lower_gamma(a: float, x):
    """Unnormalized lower incomplete gamma gamma(a, x) for a > 0, x >= 0:
    exp(-x) x^a times the series for x < max(1, a + 1), and Gamma(a) minus
    the continued fraction above that."""
    if a <= 0.0:
        raise ValueError(f"lower_gamma requires a > 0, got {a}")
    if np.any(x < 0.0):
        raise ValueError(f"lower_gamma requires x >= 0, got {x.min()}")
    out = np.zeros(x.shape)
    series = (x < max(1.0, a + 1.0)) & (x != 0.0)
    cf = ~series & (x != 0.0)
    xs, xc = x[series], x[cf]
    if xs.size:
        out[series] = _scale(a, xs) * _lower_series(a, xs)
    if xc.size:
        out[cf] = gamma_fn(a) - _scale(a, xc) * _upper_cf_scaled(a, xc)
    return out


@_elementwise("x")
def upper_gamma(a: float, x):
    """Unnormalized upper incomplete gamma Gamma(a, x) for a > -1, x > 0.

    exp(-x) x^a times the continued fraction for x >= max(1, a + 1), and
    Gamma(a) minus the lower series below that; a = 0 is excluded (the
    exponential-integral case never arises here).
    """
    if np.any(x <= 0.0):
        raise ValueError(f"upper_gamma requires x > 0, got {x.min()}")
    if a == 0.0 or a <= -1.0:
        raise ValueError(f"upper_gamma supports a in (-1, 0) u (0, inf), got {a}")
    out = np.empty(x.shape)
    cf = x >= max(1.0, a + 1.0)
    xs, xc = x[~cf], x[cf]
    if xc.size:
        out[cf] = _scale(a, xc) * _upper_cf_scaled(a, xc)
    if xs.size:
        out[~cf] = gamma_fn(a) - _scale(a, xs) * _lower_series(a, xs)
    return out


# 8-point Gauss-Legendre nodes and weights on [-1, 1].
_GL8_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
              -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
              0.7966664774136267, 0.9602898564975362)
_GL8_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                0.22238103445337443, 0.10122853629037706)
# gamma_interval integrates a cell [x, x + h] by the rule when
# h <= min(_GL_REL_WIDTH x, _GL_MAX_WIDTH).
_GL_REL_WIDTH = 0.5
_GL_MAX_WIDTH = 1.0


@_elementwise("x")
def gamma_interval(a: float, x, h: float):
    """integral_x^{x+h} s^(a-1) e^(-s) ds = Gamma(a, x) - Gamma(a, x+h), for
    a > -1, a != 0, x > 0 and one width h >= 0.

    A cell with h <= min(x/2, 1) is integrated by 8-point Gauss-Legendre,
    written r e^-x sum_j (w_j e^-d_j) (x + d_j)^(a-1) with r = h/2 and
    d_j = r (1 + u_j), so that one width gives 8 shared factors and each
    cell costs one exp and 8 powers.  The rule is exact to rounding there:
    e^-s is entire, and the one singularity of s^(a-1), at s = 0, lies at
    least 2x/h >= 4 half-widths left of the cell; against mpmath the worst
    relative error over a in (-0.95, 3), x in (1e-3, 60) is about 1e-15.
    A longer cell is a difference of upper gammas, or of lower gammas for
    a > 1 and x < a, where Gamma(a, x) is close to Gamma(a) and the upper
    difference would cancel; either loses at most about three digits.
    Both ends of a difference go through one incomplete-gamma call.
    """
    if h < 0.0:
        raise ValueError(f"gamma_interval requires h >= 0, got {h}")
    if np.any(x <= 0.0):
        raise ValueError(f"gamma_interval requires x > 0, got {x.min()}")
    out = np.empty(x.shape)
    gl = h <= np.minimum(_GL_REL_WIDTH * x, _GL_MAX_WIDTH)
    r = 0.5 * h
    xg = x[gl]
    total = np.zeros(xg.shape)
    for u, w in zip(_GL8_NODES, _GL8_WEIGHTS):
        d = r * (1.0 + u)
        total += (w * math.exp(-d)) * (xg + d) ** (a - 1.0)
    out[gl] = r * np.exp(-xg) * total
    up = ~gl
    if a > 1.0:
        low = up & (x < a)
        xl = x[low]
        if xl.size:
            g = lower_gamma(a, np.concatenate([xl + h, xl]))
            out[low] = g[:xl.size] - g[xl.size:]
        up &= ~low
    xu = x[up]
    if xu.size:
        g = upper_gamma(a, np.concatenate([xu, xu + h]))
        out[up] = g[:xu.size] - g[xu.size:]
    return out


def hyp2f3(a: tuple[float, float], b: tuple[float, float, float], z: float,
           ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Generalized hypergeometric 2F3(a1, a2; b1, b2, b3; z) by direct series.

    Terminates once the term-ratio bound guarantees a relative tail below
    ctl.rel_tol; compensated (Kahan) summation guards the accumulation.
    """
    a1, a2 = a
    b1, b2, b3 = b
    for bi in (b1, b2, b3):
        if _is_nonpositive_integer(bi):
            raise PoleError(f"hyp2f3 denominator parameter {bi} is a nonpositive integer")
    if not math.isfinite(z):
        raise ValueError(f"hyp2f3 requires finite z, got {z}")

    s = 1.0
    comp = 0.0  # Kahan compensation
    term = 1.0
    for k in range(ctl.max_terms):
        ratio = ((a1 + k) * (a2 + k) * z) / ((b1 + k) * (b2 + k) * (b3 + k) * (k + 1.0))
        term *= ratio
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if term == 0.0:  # numerator Pochhammer hit zero: series terminated
            return s
        r = abs(ratio)
        if r < 0.5 and abs(term) / (1.0 - r) < ctl.rel_tol * abs(s):
            return s
    raise SeriesConvergenceError(
        f"hyp2f3 did not converge within {ctl.max_terms} terms (z = {z})")


# Euler-Maclaurin form of the Hurwitz zeta function: _HZ_DIRECT terms summed
# directly, then B_2j / (2j)! for j = 1..12, and 4 / (2 pi)^24, the factor of
# the remainder bound (Johansson, Numer. Algorithms 69, 2015, Theorem 1).
_HZ_DIRECT = 9
_HZ_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                 -691 / 1307674368000, 1 / 74724249600,
                 -3617 / 10670622842880000, 43867 / 5109094217170944000,
                 -174611 / 802857662698291200000,
                 77683 / 14101100039391805440000,
                 -236364091 / 1693824136731743669452800000)
_HZ_REM = 4.0 / (2.0 * math.pi) ** 24


def hurwitz_zeta(s: float, q: float) -> tuple[float, float]:
    """Hurwitz zeta(s, q) = sum_{k >= 0} (q + k)^-s for s > 1 and q > 0, and
    a bound on the truncation error of the formula that computes it.

    Euler-Maclaurin summation: the terms k < N = 9 directly, then, with
    x = q + N, the integral x^(1-s)/(s-1), the half term x^-s/2 and
    sum_{j=1}^{12} B_2j/(2j)! (s)_(2j-1) x^(-s-2j+1).  The remainder is at
    most 4 (s)_24 x^(-s-23) / ((2 pi)^24 (s+23)) = 4 (s)_23 x^(-s-23) / (2 pi)^24,
    below 1e-19 of the value for s in (1, 130] at q >= 8.5 (the true bound
    holds with |B_24| / 24! in place of 4 / (2 pi)^24, half as large, which
    leaves room for the rounding of the bound itself).  Rounding of the sum
    is not in the bound: it is a few units in the last place, as the terms
    are added from the smallest up.
    """
    if not (s > 1.0 and q > 0.0):
        raise ValueError(f"hurwitz_zeta requires s > 1 and q > 0, got s = {s}, q = {q}")
    x = q + _HZ_DIRECT
    xs = x ** -s
    term = s * xs / x  # (s)_(2j-1) x^(-s-2j+1) at j = 1
    em = _HZ_BERNOULLI[0] * term
    for j, c in enumerate(_HZ_BERNOULLI[1:], 2):
        term *= (s + 2 * j - 3) * (s + 2 * j - 2) / (x * x)
        em += c * term
    value = em + 0.5 * xs + x * xs / (s - 1.0)
    for k in range(_HZ_DIRECT - 1, -1, -1):
        value += (q + k) ** -s
    return value, _HZ_REM * term
