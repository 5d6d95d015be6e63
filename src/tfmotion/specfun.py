"""Special functions backing the closed-form covariance theory.

Implements the gamma function (math.gamma, with PoleError at the poles),
the modified Bessel function of the second kind K_nu (the trapezoidal rule
on its cosh integral), the unnormalized incomplete gamma functions (a
series by Horner's rule and a double-exponential trapezoidal rule, each of
a length set by the parameter a alone) and their integral over an
interval, and the Hurwitz zeta function; no generic hypergeometric series.
K_nu and the incomplete gammas take a float or an array argument and are
written once in NumPy; an array gives the values of per-element calls.  No
special-function library but Python's math is used here; SciPy/mpmath
appear only in the test suite as independent oracles.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .errors import NumericsError, PoleError

_EPS = 2.220446049250313e-16


def gamma_fn(x: float) -> float:
    """Gamma(x) for finite non-pole x (math.gamma); NumericsError where it
    overflows (past 171.6, or within about 5.6e-309 of 0)."""
    if not math.isfinite(x):
        raise ValueError(f"gamma_fn requires finite x, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma_fn pole at nonpositive integer x = {x}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise NumericsError(f"gamma_fn overflows at x = {x!r}") from exc


def _elementwise(name: str):
    """Decorator for a function whose body takes a 1-D float array in its
    argument ``name`` and returns an array or a tuple of arrays of its
    length: the wrapped function takes a float there and returns a Python
    float (or a tuple of them), or an array of any shape and returns arrays
    of that shape.  The argument's position is found once, here; a call is
    bound to the signature only when it passes keywords (or too few
    arguments, so that it raises the usual TypeError)."""

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
            scalar = xa.ndim == 0 and not isinstance(x, np.ndarray)

            def shaped(out):
                out = out.reshape(xa.shape)
                return float(out) if scalar else out

            out = body(*args, **kwargs)
            return tuple(map(shaped, out)) if isinstance(out, tuple) else shaped(out)

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
    x >= 0.3 for a < 1 and x >= a + 1 for a >= 1, by the trapezoidal rule on

        x G(a, x) = int_R (1 + phi(v)/x)^(a-1) e^-phi(v) phi'(v) dv,

    phi(v) = exp(v - e^-v), a double-exponential map of s = x + phi(v)
    (Takahasi & Mori, 1974).  The nodes run from v = -4 in steps of h to
    log(40 + 40 max(a - 1, 0)) + 0.6 and depend on a alone; the terms are
    summed along v in order, so an array gives the values of per-element
    calls.  h = 0.2 up to a = 20; above it h = 0.2 sqrt(20/a), since the
    integrand nears exp(-t^2 / 2a), whose strip of analyticity narrows as a
    grows.  Against mpmath, x up to 700: relative error below 1e-15 for a
    in (-1, 10] and x >= 0.3 (at a = -0.95 it grows to 1e-14 at x = 0.2 and
    3e-12 at x = 0.1), 7e-15 at a = 20, 5e-16 at a = 30, 100 and 160 next
    to the seam.
    """
    h = 0.2 if a <= 20.0 else 0.2 * math.sqrt(20.0 / a)
    v_max = math.log(40.0 + 40.0 * max(a - 1.0, 0.0)) + 0.6
    v = -4.0 + h * np.arange(int((v_max + 4.0) / h) + 1)
    phi = np.exp(v - np.exp(-v))
    w = h * phi * (1.0 + np.exp(-v))
    # (a - 1) log1p(phi/x) < phi for x >= a + 1 or a <= 1: no term overflows
    terms = np.exp((a - 1.0) * np.log1p(phi / x[:, None]) - phi) * w
    return np.cumsum(terms, axis=1)[:, -1] / x


_NEAR_ZERO = 0.1  # |a| below which _upper_near_zero replaces Gamma(a) - gamma(a, x)


def _upper_near_zero(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for 0 < |a| < _NEAR_ZERO over a 1-D array x < 0.3, as

        g1(a) - expm1(a log x) / a - x^a sum_{k>=1} (-x)^k / (k! (a + k)),

    g1(a) = (Gamma(1 + a) - 1) / a = expm1(log Gamma(1 + a)) / a (Gautschi,
    ACM TOMS 5, 1979; DLMF 8.7): Gamma(a) - gamma(a, x) would cancel as a
    nears 0, where both near 1/a.  The sum stops at k = 14, whose term is
    below 1e-18 at x = 0.3; no part cancels, and against mpmath the relative
    error is below 1e-15 over x in [1e-8, 0.3)."""
    lg = 0.0
    for c in reversed(_LOG_GAMMA1P):
        lg = lg * a + c
    s = np.zeros(x.shape)
    for k in range(14, 0, -1):
        s = (s + 1.0 / (math.factorial(k) * (a + k))) * -x
    return math.expm1(a * lg) / a - np.expm1(a * np.log(x)) / a - x ** a * s


def _incomplete(a: float, x: np.ndarray, lower: bool) -> np.ndarray:
    """gamma(a, x) if lower, else Gamma(a, x), over a 1-D array x > 0:
    exp(-x) x^a times _lower_series below the seam and _upper_scaled from
    it on, each the other's complement to Gamma(a), except that Gamma(a, x)
    below the seam is _upper_near_zero for |a| < _NEAR_ZERO.  The seam is
    a + 1 for a >= 1, and 0.3 for a < 1, where _upper_scaled still holds
    1e-15: for small a, Gamma(a) minus the series cancels as x nears 1.  The
    prefactor is that product where x < 708 and x^a is finite, and
    exp(a log x - x), whose exponent's rounding costs about x ulps,
    elsewhere."""
    x_s = a + 1.0 if a >= 1.0 else 0.3
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf = nan
        pre = np.exp(-x) * x ** a
    far = ~((x < 708.0) & (pre < np.inf))
    pre[far] = np.exp(a * np.log(x[far]) - x[far])
    series = x < x_s
    out = np.empty(x.shape)
    for side, is_lower in ((series, True), (~series, False)):
        xs = x[side]
        if not xs.size:  # a side with no element is not evaluated
            continue
        if is_lower and not lower and abs(a) < _NEAR_ZERO:
            out[side] = _upper_near_zero(a, xs)
            continue
        f = _lower_series(a, xs, x_s) if is_lower else _upper_scaled(a, xs)
        v = pre[side] * f
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


def _gamma_median(a: float) -> float:
    """m(a) = max(a - 1/3, exp((log Gamma(1 + a) - log 2) / a)) for a > 0,
    near the median of the Gamma(a) law: gamma_interval's seam between its
    lower and upper differences."""
    return max(a - 1.0 / 3.0, math.exp((math.lgamma(1.0 + a) - math.log(2.0)) / a))


@_elementwise("x")
def gamma_interval(a: float, x, h):
    """integral_x^{x+h} s^(a-1) e^(-s) ds = Gamma(a, x) - Gamma(a, x+h), for
    finite a > -1, a != 0, x > 0 and one finite width h >= 0 per cell (a
    float h is every cell's width).

    A cell with h <= min(x/2, 1) is integrated by 8-point Gauss-Legendre,
    r e^-x sum_j w_j exp((a-1) log(x + d_j) - d_j) with r = h/2 and
    d_j = r (1 + u_j), each term of its own cell.  The one singularity of
    s^(a-1), at s = 0, lies at least 2x/h >= 4 half-widths left of the cell
    and e^-s is entire; against mpmath the worst relative error over a in
    [-0.95, 3), x in [1e-3, 60] is 2.5e-14, the rule's own error at
    a = -0.95, x = 2, h = 1, and 1.7e-15 for a >= 0.
    A longer cell is the lower difference gamma(a, x + h) - gamma(a, x)
    where a > 0 and x < m(a), and the upper difference otherwise (at every
    x for a < 0, whose lower gamma diverges), with

        m(a) = max(a - 1/3, exp((log Gamma(1 + a) - log 2) / a))

    near the median of the Gamma(a) law (K. P. Choi, Proc. Amer. Math.
    Soc. 121, 1994; the second term solves x^a / Gamma(1 + a) = 1/2, the
    small-a median).  Left of m(a), Gamma(a, x) is near Gamma(a), so the
    upper difference would cancel; right of it, gamma(a, x) is, so the
    lower one would.  Against mpmath the worst relative error of a long
    cell over a in (0, 2), x in [1e-300, 5] and h in [1e-6, 10] is below
    5e-15, and 3e-14 beside m(a) at a = 20 (the incomplete gammas' own
    error, as the cell is a tenth of them).  Both ends of a difference go
    through one incomplete-gamma call; a short cell makes none.
    """
    _check_upper_a("gamma_interval", a)
    h = np.full(x.shape, np.ravel(h), dtype=float)  # ValueError unless one per x
    _check_x("gamma_interval", h, (h >= 0.0) & (h < np.inf), "finite h >= 0")
    _check_x("gamma_interval", x, (x > 0.0) & (x < np.inf), "finite x > 0")
    out = np.empty(x.shape)
    gl = h <= np.minimum(_GL_REL_WIDTH * x, _GL_MAX_WIDTH)
    xg, r = x[gl], 0.5 * h[gl]
    total = np.zeros(xg.shape)
    for u, w in zip(_GL8_NODES, _GL8_WEIGHTS):
        d = r * (1.0 + u)
        total += w * np.exp((a - 1.0) * np.log(xg + d) - d)
    out[gl] = r * np.exp(-xg) * total
    low = ~gl & (x < _gamma_median(a)) if a > 0.0 else np.zeros(x.shape, dtype=bool)
    # the upper difference as -(G(x + h) - G(x)), bit for bit G(x) - G(x + h)
    sides = ((low, lower_gamma, 1.0), (~(gl | low), upper_gamma, -1.0))
    for cells, g_fn, sign in sides:
        xc = x[cells]
        if xc.size:  # a side with no cell makes no call
            g = g_fn(a, np.concatenate([xc, xc + h[cells]]))
            out[cells] = sign * (g[xc.size:] - g[:xc.size])
    return out


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


@_elementwise("q")
def hurwitz_zeta(s: float, q, c: float = 1.0):
    """Hurwitz zeta(s, q) = sum_{k >= 0} (q + k)^-s for s > 1 and q > 0,
    times c^s, and a bound on the truncation error of the formula that
    computes it, at a float q (two floats) or elementwise over an array of q
    (two arrays of its shape, each element's values those of a call with it
    alone).  Every power is taken of (q + k)/c, so with c near q the value
    stays in range where zeta(s, q) itself underflows; c = 1 gives zeta.

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
    if not s > 1.0:
        raise ValueError(f"hurwitz_zeta requires s > 1, got s = {s}")
    _check_x("hurwitz_zeta", q, q > 0.0, "q > 0")
    x = q + _HZ_DIRECT
    xs = (x / c) ** -s
    term = s * xs / x  # (s)_(2j-1) x^(-s-2j+1) at j = 1
    em = _HZ_BERNOULLI[0] * term
    for j, b in enumerate(_HZ_BERNOULLI[1:], 2):
        term *= (s + 2 * j - 3) * (s + 2 * j - 2) / (x * x)
        em += b * term
    value = em + 0.5 * xs + x * xs / (s - 1.0)
    for k in range(_HZ_DIRECT - 1, -1, -1):
        value += ((q + k) / c) ** -s
    return value, _HZ_REM * term


# Taylor coefficients of log Gamma(1 + a) / a (_upper_near_zero): -gamma_E,
# then (-1)^k zeta(k) / k for k = 2..17, zeta(k) = zeta(k, 1); past them the
# series' terms are below 1e-18 of it for |a| < _NEAR_ZERO.
_LOG_GAMMA1P = (-np.euler_gamma,
                *((-1) ** k * hurwitz_zeta(float(k), 1.0)[0] / k for k in range(2, 18)))
