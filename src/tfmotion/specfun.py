"""Self-contained special functions backing the closed-form covariance theory.

Implements the gamma function (Lanczos approximation with reflection), the
modified Bessel function of the second kind K_nu (the trapezoidal rule on
its cosh integral), the unnormalized incomplete gamma functions (a series
by Horner's rule and a double-exponential trapezoidal rule, each of a
length set by the parameter a alone) and their integral over an interval,
and the generalized hypergeometric series 2F3 and the Hurwitz zeta
function.  K_nu, the incomplete gammas (one parameter a) and 2F3 take a
float or an array argument and are written once in NumPy, for one point
or a whole table; an array gives the values of per-element calls.  No
external special-function library is used here; SciPy/mpmath appear only
in the test suite as independent oracles.
"""

from __future__ import annotations

import functools
import inspect
import math

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


def _check_x(name: str, x: np.ndarray, ok: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first element of x where ok is false."""
    bad = ~ok
    if bad.any():
        raise ValueError(f"{name} requires {what}, got {x[bad][0]}")


@_elementwise("x")
def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x) for finite x > 0,
    by the trapezoidal rule on

        K_nu(x) = e^-x int_0^inf e^(-2x sinh^2(u/2)) cosh(nu u) du,

    whose integrand is even, entire and decaying in |Im u| < pi/2, so that the
    rule converges geometrically in 1/h (Trefethen & Weideman, SIAM Rev. 56,
    2014).
    Each element has its own cut u_max, where 2x sinh^2(u/2) - |nu| u = 40
    (two fixed-point steps from nu = 0), and step h = min(u_max/96, 0.2).
    The terms h/2 e^(-2x sinh^2(u/2) +- nu u) are summed along u in order,
    with 0 past u_max, so an array gives the values of per-element calls.
    A term overflows only where K_nu(x) is about as large: K is then inf,
    and 0.0 where e^-x underflows, without a warning.  Relative accuracy is
    about 1e-14 over nu in [0, 3], x in [1e-20, 700].  K_{-nu} = K_nu.
    """
    _check_x("bessel_k", x, (x > 0.0) & (x < np.inf), "finite x > 0")
    nu = abs(float(nu))
    rx = np.sqrt(x)  # x sinh^2 = (sqrt(x) sinh)^2 stays finite for x > 0
    u_max = 2.0 * np.arcsinh(math.sqrt(20.0) / rx)
    for _ in range(2):
        u_max = 2.0 * np.arcsinh(np.sqrt(20.0 + 0.5 * nu * u_max) / rx)
    h = np.minimum(u_max / 96.0, 0.2)
    last = np.floor(u_max / h)
    k = np.arange(int(last.max(initial=0.0)) + 1)
    u = h[:, None] * k
    with np.errstate(over="ignore"):
        e = -2.0 * (rx[:, None] * np.sinh(0.5 * u)) ** 2
        terms = (0.5 * h)[:, None] * (np.exp(e + nu * u) + np.exp(e - nu * u))
    terms[:, 0] *= 0.5
    terms[k > last[:, None]] = 0.0
    return np.exp(-x) * np.cumsum(terms, axis=1)[:, -1]


def _lower_series(a: float, x: np.ndarray, x_s: float) -> np.ndarray:
    """Series S with gamma(a, x) = exp(-x) * x^a * S, S = sum_k x^k / (a)_{k+1},
    over a 1-D array x < x_s, by Horner's rule over the terms t_k, k < n.
    The ratios x / (a + k) decrease with k, so once r = x_s / (a + n) < 1 the
    tail from t_n on is at most t_n / (1 - r) at x_s; n is the first at which
    that bound is below _EPS / 4 of t_0.  Every term has the sign of 1/a, so
    the bound is relative for all x < x_s.  For a in (-1, 0) the series
    continues gamma(a, x) = Gamma(a) - Gamma(a, x)."""
    n, p = 0, 1.0  # p = t_n / t_0 at x_s
    while True:
        n += 1
        r = x_s / (a + n)
        p *= r
        if r < 1.0 and p / (1.0 - r) < 0.25 * _EPS:
            break
    s = np.ones(x.shape)
    for k in range(n - 1, 0, -1):
        s = 1.0 + s * (x / (a + k))
    return s / a


def _upper_scaled(a: float, x: np.ndarray) -> np.ndarray:
    """G(a, x) with Gamma(a, x) = exp(-x) * x^a * G(a, x) over a 1-D array
    x >= max(1, a + 1), for a > -1, by the trapezoidal rule on

        x G(a, x) = int_R (1 + phi(v)/x)^(a-1) e^-phi(v) phi'(v) dv,

    phi(v) = exp(v - e^-v), a double-exponential map of s = x + phi(v)
    (Takahasi & Mori, 1974).  The nodes run from v = -4 in steps of h to
    log(40 + 40 max(a - 1, 0)) + 0.6 and depend on a alone; the terms are
    summed along v in order, so an array gives the values of per-element
    calls.  h = 0.2 up to a = 20; above it h = 0.2 sqrt(20/a), since the
    integrand nears exp(-t^2 / 2a), whose strip of analyticity narrows as a
    grows.  Against mpmath, x up to 700: relative error below 1e-15 for a
    in (-1, 10], 7e-15 at a = 20, 5e-16 at a = 30, 100 and 160 next to the
    seam.
    """
    h = 0.2 if a <= 20.0 else 0.2 * math.sqrt(20.0 / a)
    v_max = math.log(40.0 + 40.0 * max(a - 1.0, 0.0)) + 0.6
    v = -4.0 + h * np.arange(int((v_max + 4.0) / h) + 1)
    phi = np.exp(v - np.exp(-v))
    w = h * phi * (1.0 + np.exp(-v))
    # (a - 1) log1p(phi/x) < phi for x >= a + 1, so no term overflows
    terms = np.exp((a - 1.0) * np.log1p(phi / x[:, None]) - phi) * w
    return np.cumsum(terms, axis=1)[:, -1] / x


def _incomplete(a: float, x: np.ndarray, lower: bool) -> np.ndarray:
    """gamma(a, x) if lower, else Gamma(a, x), over a 1-D array x > 0:
    exp(-x) x^a times _lower_series below the seam max(1, a + 1) and
    _upper_scaled from it on, each the other's complement to Gamma(a)."""
    x_s = max(1.0, a + 1.0)
    series = x < x_s
    out = np.empty(x.shape)
    for side, is_lower in ((series, True), (~series, False)):
        xs = x[side]
        if xs.size:  # a side with no element is not evaluated
            f = _lower_series(a, xs, x_s) if is_lower else _upper_scaled(a, xs)
            v = np.exp(a * np.log(xs) - xs) * f
            out[side] = v if is_lower == lower else gamma_fn(a) - v
    return out


@_elementwise("x")
def lower_gamma(a: float, x):
    """Unnormalized lower incomplete gamma gamma(a, x) for finite a > 0 and
    x >= 0 (_incomplete)."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"lower_gamma requires finite a > 0, got {a}")
    _check_x("lower_gamma", x, (x >= 0.0) & (x < np.inf), "finite x >= 0")
    out = np.zeros(x.shape)
    pos = x != 0.0
    out[pos] = _incomplete(a, x[pos], lower=True)
    return out


def _check_upper_a(name: str, a: float) -> None:
    if not (-1.0 < a < math.inf and a != 0.0):
        raise ValueError(f"{name} supports finite a in (-1, 0) u (0, inf), got {a}")


@_elementwise("x")
def upper_gamma(a: float, x):
    """Unnormalized upper incomplete gamma Gamma(a, x) for a in (-1, 0) u
    (0, inf) and x > 0, both finite (_incomplete); a = 0 is excluded (the
    exponential-integral case never arises here)."""
    _check_upper_a("upper_gamma", a)
    _check_x("upper_gamma", x, (x > 0.0) & (x < np.inf), "finite x > 0")
    return _incomplete(a, x, lower=False)


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


def _gl_factors(r: float) -> list[float]:
    """The Gauss-Legendre factors w_j e^-d_j, d_j = r (1 + u_j), of one
    half-width r."""
    return [w * math.exp(-r * (1.0 + u)) for u, w in zip(_GL8_NODES, _GL8_WEIGHTS)]


@_elementwise("x")
def gamma_interval(a: float, x, h):
    """integral_x^{x+h} s^(a-1) e^(-s) ds = Gamma(a, x) - Gamma(a, x+h), for
    finite a > -1, a != 0, x > 0 and finite widths h >= 0: one float for
    every cell, or an array shaped like x with one width per cell.

    A cell with h <= min(x/2, 1) is integrated by 8-point Gauss-Legendre,
    written r e^-x sum_j (w_j e^-d_j) (x + d_j)^(a-1) with r = h/2 and
    d_j = r (1 + u_j), so that one width gives 8 shared factors and each
    cell costs one exp and 8 powers.  An array of widths takes the factors
    of each distinct width once, by the same math.exp as a float width, so
    each cell's value is that of a call with its width alone.  The rule is
    exact to rounding there: e^-s is entire, and the one singularity of
    s^(a-1), at s = 0, lies at least 2x/h >= 4 half-widths left of the
    cell; against mpmath the worst relative error over a in (-0.95, 3),
    x in (1e-3, 60) is about 1e-15.
    A longer cell is a difference of upper gammas, or of lower gammas for
    a > 1 and x < a, where Gamma(a, x) is close to Gamma(a) and the upper
    difference would cancel; either loses at most about three digits.
    Both ends of a difference go through one incomplete-gamma call; a short
    cell makes none.
    """
    _check_upper_a("gamma_interval", a)
    wide = np.ndim(h) > 0
    if wide:
        h = np.asarray(h, dtype=float).ravel()
        if h.size != x.size:
            raise ValueError(f"gamma_interval needs one width per x, got "
                             f"{h.size} widths for {x.size} points")
    hv = np.atleast_1d(h)
    _check_x("gamma_interval", hv, (hv >= 0.0) & (hv < np.inf), "finite h >= 0")
    _check_x("gamma_interval", x, (x > 0.0) & (x < np.inf), "finite x > 0")
    out = np.empty(x.shape)
    gl = h <= np.minimum(_GL_REL_WIDTH * x, _GL_MAX_WIDTH)
    xg = x[gl]
    if wide:  # the factors of each distinct half-width, then of each cell
        r = 0.5 * h[gl]
        ru, at = np.unique(r, return_inverse=True)
        factors = np.array([_gl_factors(v) for v in ru.tolist()]).reshape(-1, 8)[at].T
    else:
        r = 0.5 * h
        factors = _gl_factors(r)
    total = np.zeros(xg.shape)
    for u, f in zip(_GL8_NODES, factors):
        total += f * (xg + r * (1.0 + u)) ** (a - 1.0)
    out[gl] = r * np.exp(-xg) * total
    up = ~gl
    if a > 1.0:
        low = up & (x < a)
        xl = x[low]
        if xl.size:
            g = lower_gamma(a, np.concatenate([xl + (h[low] if wide else h), xl]))
            out[low] = g[:xl.size] - g[xl.size:]
        up &= ~low
    xu = x[up]
    if xu.size:
        g = upper_gamma(a, np.concatenate([xu, xu + (h[up] if wide else h)]))
        out[up] = g[:xu.size] - g[xu.size:]
    return out


_HYP_REL_TOL = 1e-12
_HYP_MAX_TERMS = 500


@_elementwise("z")
def hyp2f3(a: tuple[float, float], b: tuple[float, float, float], z):
    """Generalized hypergeometric 2F3(a1, a2; b1, b2, b3; z) by direct series,
    one masked iteration over the elements of z: each element keeps its own
    sum and stopping test and leaves the active set when it stops.

    An element stops once its term ratio r < 1/2 and the tail bound
    |term| / (1 - r) is below _HYP_REL_TOL of its sum, and raises after
    _HYP_MAX_TERMS terms; compensated (Kahan) summation guards the sum.
    """
    a1, a2 = a
    b1, b2, b3 = b
    for bi in (b1, b2, b3):
        if _is_nonpositive_integer(bi):
            raise PoleError(f"hyp2f3 denominator parameter {bi} is a nonpositive integer")
    _check_x("hyp2f3", z, np.isfinite(z), "finite z")
    out = np.empty(z.shape)
    act = np.arange(z.size)
    s = np.ones(z.size)
    comp = np.zeros(z.size)  # Kahan compensation
    term = np.ones(z.size)
    # as in Python floats, terms past the float range go inf and nan silently
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_HYP_MAX_TERMS):
            ratio = ((a1 + k) * (a2 + k) * z) / ((b1 + k) * (b2 + k) * (b3 + k) * (k + 1.0))
            term *= ratio
            y = term - comp
            t = s + y
            comp = (t - s) - y
            s = t
            r = np.abs(ratio)
            small = r < 0.5
            # term == 0: a numerator Pochhammer hit zero and the series ended
            done = (term == 0.0) | small & (
                np.abs(term) / np.where(small, 1.0 - r, 1.0) < _HYP_REL_TOL * np.abs(s))
            out[act[done]] = s[done]
            live = ~done
            act, z, s, comp, term = act[live], z[live], s[live], comp[live], term[live]
            if act.size == 0:
                return out
    raise SeriesConvergenceError(
        f"hyp2f3 did not converge within {_HYP_MAX_TERMS} terms (z = {z[0]})")


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
