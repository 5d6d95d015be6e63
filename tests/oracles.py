"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths under test: special
functions come from mpmath, scipy.special or direct quadrature of integral
representations, variances from oscillatory quadrature of the defining
spectral integral, lattice sums from plain truncated summation with an
integral-comparison tail bound, and covariance matrices and CLI table text
from plain loops.
"""

import functools
import json
import math

import mpmath as mp
import numpy as np
from scipy import integrate, special

mp.mp.dps = 40


def mp_gamma(x: float) -> float:
    return float(mp.gamma(x))


def mp_besselk(nu: float, x: float) -> float:
    return float(mp.besselk(mp.mpf(float(nu)), mp.mpf(float(x))))


def mp_hyp2f3(a, b, z, complement: bool = False) -> float:
    """2F3(a; b; z), or 1 - 2F3(a; b; z) with complement, at 60 digits: 1 - 2F3
    is of order z as z nears 0 and keeps 20 digits down to z = 1e-40."""
    with mp.workdps(60):
        v = mp.hyper([mp.mpf(x) for x in a], [mp.mpf(x) for x in b], mp.mpf(z))
        return float(1 - v if complement else v)


def mp_gammainc(a: float, x0: float, x1: float, scaled: bool = False) -> float:
    """integral_x0^x1 s^(a-1) e^-s ds; x1 = inf gives Gamma(a, x0) and x0 = 0
    the lower gamma (a > 0).  scaled multiplies by e^x0 x0^-a."""
    a, x0 = mp.mpf(a), mp.mpf(x0)
    v = mp.gammainc(a, x0, mp.mpf(x1))
    return float(v * mp.exp(x0) * x0 ** -a if scaled else v)


def mp_gamma_interval(a: float, x: float, h: float) -> float:
    """integral_x^(x+h) s^(a-1) e^-s ds with x + h summed exactly.

    mpmath's two-bound gammainc subtracts two incomplete gammas at working
    precision; they can be of order Gamma(a) while the value is of order
    e^-x, so the digits are raised with x (at a fixed 40 digits,
    (0.83, 120.7, 1e-3) came out 0.0 against 1.685e-56)."""
    with mp.workdps(30 + int(x / math.log(10.0))):
        return float(mp.gammainc(mp.mpf(a), mp.mpf(x), mp.mpf(x) + mp.mpf(h)))


def mp_hurwitz_zeta_integral(s: float, q: float) -> mp.mpf:
    """zeta(s, q) from its integral representation
    q^(1-s)/(s-1) + q^-s int_0^inf p(u) (1/(1 - e^-t) - 1/t) du, t = u/q,
    with p the Gamma(s) density, by mpmath quadrature broken at the
    density's peak.  mpmath.zeta itself is not used: at large s and q it
    loses digits (about 2e-10 relative at (40, 513.5) even at 60 digits)."""
    with mp.workdps(20):
        s, q = mp.mpf(s), mp.mpf(q)
        lg = mp.loggamma(s)

        def f(u):
            t = u / q
            return mp.exp((s - 1) * mp.log(u) - u - lg) * (1 / -mp.expm1(-t) - 1 / t)

        w = mp.sqrt(s)
        pts = [0] + [s - 1 + k * w for k in (-8, -4, -2, 0, 2, 4, 8) if s - 1 + k * w > 0]
        return q ** (1 - s) / (s - 1) + q ** -s * mp.quad(f, pts + [mp.inf])


@functools.cache  # the tests ask for each reference sum twice
def mp_hurwitz_em(s: float, q: float, n_direct: int, n_bernoulli: int) -> mp.mpf:
    """The Euler-Maclaurin sum for zeta(s, q) at 120 digits: the terms
    k < n_direct directly, then with x = q + n_direct the integral, the half
    term and the Bernoulli terms j = 1..n_bernoulli.  With 60 terms and 40
    Bernoulli terms its remainder is below 1e-30 of the value for s <= 130
    and q >= 8.5, which makes it the reference for specfun.hurwitz_zeta."""
    with mp.workdps(120):
        s, q = mp.mpf(s), mp.mpf(q)
        x = q + n_direct
        v = mp.fsum((q + k) ** -s for k in range(n_direct)) \
            + x ** (1 - s) / (s - 1) + x ** -s / 2
        for j in range(1, n_bernoulli + 1):
            v += (mp.bernoulli(2 * j) / mp.factorial(2 * j)
                  * mp.rf(s, 2 * j - 1) * x ** (-s - 2 * j + 1))
        return v


def mp_variance_tfbm2(H: float, lam: float, t) -> mp.mpf:
    """TFBM II variance C_t^2 by the two-term 2F3 closed form, at the
    working precision (H not an integer)."""
    H, lam, t = mp.mpf(H), mp.mpf(lam), mp.mpf(t)
    if t == 0:
        return mp.mpf(0)
    half = mp.mpf(0.5)
    z = (lam * t) ** 2 / 4
    a = -2 * mp.gamma(H) * lam ** (-2 * H) * mp.rgamma(H - half) / mp.sqrt(mp.pi)
    b = (t ** (2 * H) * mp.gamma(1 - H)
         / (mp.sqrt(mp.pi) * H * 2 ** (2 * H) * mp.gamma(H + half)))
    return (a * (1 - mp.hyp2f3(1, -half, 1 - H, half, 1, z))
            + b * mp.hyp2f3(1, H - half, 1, H + 1, H + half, z))


def mp_tfgn2_acvf(H: float, lam: float, j: int) -> float:
    """TFGN II autocovariance as half the second difference of the 2F3
    variance, (C_{j+1}^2 - 2 C_j^2 + C_{|j-1|}^2) / 2, in mpmath at
    30 + lam (2j + 1) / ln 10 digits: C_{j+1}^2 is a difference of terms
    of order e^{lam (j+1)}, and r(j) is of order e^{-lam (j-1)}, so the
    digits lost to both cancellations grow like 2 lam j / ln 10."""
    j = abs(int(j))
    with mp.workdps(30 + int(lam * (2 * j + 1) / math.log(10.0))):
        return float((mp_variance_tfbm2(H, lam, j + 1) - 2 * mp_variance_tfbm2(H, lam, j)
                      + mp_variance_tfbm2(H, lam, abs(j - 1))) / 2)


def matern_cov(H: float, lam: float, s: float, t: float) -> float:
    """Cov[B(t), B(s)] of TFBM II (H > 1/2, s, t >= 0) as the Matern double
    integral c int_0^t int_0^s M(|u - v|) dv du, M(w) = w^{H-1} K_{H-1}(lam w)
    and c = 1 / (sqrt(pi) Gamma(H - 1/2) (2 lam)^{H-1}), reduced to the
    difference w = |u - v|, whose occupation length on [0, s] x [0, t]
    (s <= t) is min(s, t - w) + (s - w)_+: SciPy's quad on each panel
    between the kinks, with K_{H-1} from scipy.special.kv.

    M is of order w^{2H-2} at 0, a term that QAGS in w can miss: it took
    the panel [1e-12, 0.5] of H = 0.53125, lam = 1 24% high with an error
    estimate of 6e-24, and C_t^2 of H = 1.109375 at t = 9.4e-36 1.2e-12
    off.  So the panels run in u = log w, where w^{2H-2} dw is smooth.
    For H >= 1 the panel at 0 stops at b e^-60 (b its right edge): M is at
    most logarithmic at 0 and decays like e^{-lam w}, so while lam b <= 12
    the part left out is below 1e-20 of the panel.  For H < 1 the panel at
    0 takes w^{2H-2} as QUADPACK's algebraic weight (QAWS) instead, since
    in u it decays ever more slowly as H nears 1/2; the rest of M tends to
    Gamma(1-H) (2/lam)^{1-H} / 2 at w = 0."""
    s, t = sorted((s, t))
    c = 1.0 / (math.sqrt(math.pi) * special.gamma(H - 0.5) * (2.0 * lam) ** (H - 1.0))
    power = 2.0 * H - 2.0

    def f(w, weight=0.0):  # M(w) rho(w) / w^weight
        rho = min(s, t - w) + max(s - w, 0.0)
        if w == 0.0:
            return 0.5 * special.gamma(1.0 - H) * (2.0 / lam) ** (1.0 - H) * rho
        return w ** (H - 1.0 - weight) * special.kv(H - 1.0, lam * w) * rho

    def in_log(u):
        return f(math.exp(u)) * math.exp(u)

    edges = sorted({0.0, min(s, t - s), max(s, t - s), t})
    tol = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if a == 0.0 and power < 0.0:
            total += integrate.quad(f, a, b, args=(power,), weight="alg",
                                    wvar=(power, 0.0), **tol)[0]
        else:
            lo = math.log(a) if a > 0.0 else math.log(b) - 60.0
            total += integrate.quad(in_log, lo, math.log(b), **tol)[0]
    return c * total


def besselk_quadrature(nu: float, x: float) -> float:
    """K_nu(x) from int_0^inf exp(-x cosh t) cosh(nu t) dt."""

    def f(t):
        a = x * math.cosh(t)
        if a > 700.0:
            return 0.0
        return math.exp(-a) * math.cosh(nu * t)

    v, _ = integrate.quad(f, 0.0, 40.0, epsabs=1e-16, epsrel=1e-14, limit=400)
    return v


def spectral_variance(H: float, lam: float, t: float) -> float:
    """Variance of TFBM II from (1/pi) int_0^inf (2-2cos wt) w^-2 (lam^2+w^2)^{1/2-H} dw."""
    g = lambda w: (lam * lam + w * w) ** (0.5 - H) / (w * w)
    full = lambda w: (2.0 - 2.0 * math.cos(w * t)) * g(w)
    omega0 = max(1.0, 2.0 * lam)
    v1 = integrate.quad(full, 0.0, omega0, limit=800, epsabs=1e-14, epsrel=1e-12)[0]
    v2 = integrate.quad(g, omega0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-12)[0]
    v3 = integrate.quad(g, omega0, np.inf, weight="cos", wvar=t, limit=800)[0]
    return (v1 + 2.0 * v2 - 2.0 * v3) / math.pi


def plus_pow(x: float, p: float) -> float:
    """(x)_+^p with the convention 0 for x <= 0 (any real p)."""
    return x ** p if x > 0.0 else 0.0


def fbm_variance_timedomain(H: float, t: float) -> float:
    """Untempered variance from the time-domain kernel integral at t = 1,
    scaled by t^{2H}."""
    f = lambda s: (plus_pow(1.0 - s, H - 0.5) - plus_pow(-s, H - 0.5)) ** 2
    v = (integrate.quad(f, -np.inf, 0.0, epsabs=1e-14, epsrel=1e-12)[0]
         + integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)[0])
    return abs(t) ** (2.0 * H) * v / mp_gamma(H + 0.5) ** 2


def h_kernel_integral_rep(H: float, alpha: float, lam: float,
                          t: float, y: float) -> float:
    """Second-kind kernel from kappa * int_0^t (s-y)_+^{kappa-1} e^{-lam(s-y)} ds
    (valid for H > 1/alpha, and for H < 1/alpha when y < 0)."""
    k = H - 1.0 / alpha

    def f(s):
        return (s - y) ** (k - 1.0) * math.exp(-lam * (s - y)) if s > y else 0.0

    lo = max(0.0, y)
    v, _ = integrate.quad(f, lo, t, epsabs=1e-14, epsrel=1e-12, limit=400)
    return k * v


def frac_derivative_quadrature(kappa: float, lam: float, t: float, y: float) -> float:
    """Tempered fractional derivative of 1_[0,t] at y by quadrature of the
    defining difference integral (0 < kappa < 1)."""
    ind = lambda s: 1.0 if 0.0 <= s <= t else 0.0
    fy = ind(y)

    def f(s):
        return (fy - ind(s)) * (s - y) ** (-kappa - 1.0) * math.exp(-lam * (s - y))

    c = kappa / mp_gamma(1.0 - kappa)
    splits = sorted({x for x in (0.0, t, y) if x > y} | {y + 60.0 / max(lam, 1.0)})
    total = 0.0
    lo = y
    for hi in splits:
        v, _ = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-11, limit=400)
        total += v
        lo = hi
    return lam ** kappa * fy + c * total


def g_time_integral(H: float, alpha: float, lam: float, t: float, y):
    """int_0^t g(s; y) ds (lam > 0) at a float or an array of y: -t (-y)_+^kappa
    e^{-lam (-y)_+} plus lam^-(kappa+1) times the lower incomplete gamma of
    order kappa + 1 over [lam (-y)_+, lam (t - y)_+], by scipy.special."""
    a = H - 1.0 / alpha + 1.0
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros(ya.shape)
    left = ya < 0.0
    out[left] = -t * (-ya[left]) ** (a - 1.0) * np.exp(lam * ya[left])
    inside = ya < t
    hi, lo = lam * (t - ya[inside]), lam * np.maximum(-ya[inside], 0.0)
    out[inside] += ((special.gammainc(a, hi) - special.gammainc(a, lo))
                    * special.gamma(a) * lam ** -a)
    return out if np.ndim(y) else float(out[0])


def mp_frac_indicator(kappa: float, lam: float, mode: str, t: float, y: float) -> float:
    """Tempered fractional integral (mode "integral", order kappa > 0) or
    derivative (order 0 < kappa < 1) of 1_[0, t] at y, left-moving like the
    kernels, from mpmath's incomplete gammas (lam > 0)."""
    k, lam = mp.mpf(kappa), mp.mpf(lam)
    if t == 0.0 or y > t:
        return 0.0
    lo, hi = lam * max(-y, 0.0), lam * (mp.mpf(t) - y)
    if mode == "integral":
        return float(lam ** -k * mp.gammainc(k, lo, hi) / mp.gamma(k))
    if y == t:
        return math.inf
    c = k / mp.gamma(1 - k) * lam ** k
    if y >= 0.0:
        return float(lam ** k + c * mp.gammainc(-k, hi, mp.inf))
    return float(-c * mp.gammainc(-k, lo, hi))


def mp_cms(alpha: float, beta: float, u1: float, u2: float) -> mp.mpf:
    """Chambers-Mallows-Stuck variate of unit scale at the working precision,
    in Weron's form (Statist. Probab. Lett. 28, 1996): th = pi (u1 - 1/2),
    w = -log u2, B = atan(beta tan(pi alpha/2)) / alpha,
    X = S sin(alpha (th + B)) / cos(th)^(1/alpha)
        (cos(th - alpha (th + B)) / w)^((1 - alpha)/alpha),
    S = (1 + beta^2 tan^2(pi alpha/2))^(1/(2 alpha))."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    th = mp.pi * (mp.mpf(u1) - mp.mpf(0.5))
    w = -mp.log(mp.mpf(u2))
    tb = b * mp.tan(mp.pi * a / 2)
    b0 = mp.atan(tb) / a
    s0 = (1 + tb * tb) ** (1 / (2 * a))
    return (s0 * mp.sin(a * (th + b0)) / mp.cos(th) ** (1 / a)
            * (mp.cos(th - a * (th + b0)) / w) ** ((1 - a) / a))


def float_cms(alpha: float, beta: float, u1, u2) -> np.ndarray:
    """mp_cms transcribed term by term in float64: th is rounded before
    cos th is taken, so the heavy ends lose up to all digits (0.22 relative
    at u1 = 2^-53, alpha = 1.5).  The baseline of the library's form."""
    theta = math.pi * (np.asarray(u1) - 0.5)
    w = -np.log(u2)
    tb = beta * math.tan(0.5 * math.pi * alpha)
    b0 = math.atan(tb) / alpha
    s0 = (1.0 + tb * tb) ** (0.5 / alpha)
    return (s0 * np.sin(alpha * (theta + b0)) / np.cos(theta) ** (1.0 / alpha)
            * (np.cos(theta - alpha * (theta + b0)) / w) ** ((1.0 - alpha) / alpha))


def expression_cms(alpha: float, beta: float, u1, u2) -> np.ndarray:
    """The half-angle CMS transform of stable._cms as one NumPy expression of
    fresh temporaries: the same IEEE operations in the same order, so the
    in-place library form must match it bit for bit."""
    w = -np.log(u2)
    v = 1.0 - u1
    g = 0.5 * math.pi * (2.0 - alpha)
    tg = math.tan(g)
    c1 = 0.5 * math.atan2((1.0 - beta) * tg, 1.0 + beta * tg * tg)
    c2 = 0.5 * math.atan2((1.0 + beta) * tg, 1.0 - beta * tg * tg)
    delta = math.atan(beta * tg)
    s0 = (1.0 + (beta * tg) ** 2) ** (0.5 / alpha)
    k = 0.5 * alpha * math.pi
    ta = np.tan(np.minimum(k * v + c2,
                           np.maximum(-k * u1 - c1, k * (u1 - 0.5) - 0.5 * delta)))
    tt = np.tan(0.5 * math.pi * np.minimum(u1, v))
    k = 0.5 * (alpha - 1.0) * math.pi
    tb = np.tan(np.minimum(k * u1 + c1, k * v + c2))
    q = (tt * tt + 1.0) / tt
    return (s0 * ta * q / (ta * ta + 1.0)
            * (tb * q / (w * (tb * tb + 1.0))) ** ((1.0 - alpha) / alpha))


def dense_table(table) -> np.ndarray:
    """A stable.KernelTable as one n_times x n_nodes array: its far block
    (coef @ powers) * scale, summed over n in order by np.einsum, and then
    its near block."""
    out = np.hstack([np.empty((table.near.shape[0], table.scale.size)), table.near])
    far = out[:, :table.scale.size]
    np.einsum("in,nk->ik", table.coef, table.powers, out=far)
    far *= table.scale
    return out


def plan_char_fn(f_nodes, dy: float, p, theta: float) -> complex:
    """E exp(i theta sum_k f_k dM_k) for independent stable cell increments
    dM_k of scale sigma dy^(1/alpha) and skewness beta (p a ProcessParams):
    the product of the cells' stable characteristic functions, which is the
    exact law of the Riemann-sum moving average on a plan's nodes."""
    f = np.asarray(f_nodes, dtype=float)
    skew = p.beta * math.tan(0.5 * math.pi * p.alpha) * math.copysign(1.0, theta)
    terms = p.sigma ** p.alpha * dy * np.abs(f) ** p.alpha * (1.0 - 1j * skew * np.sign(f))
    return complex(np.exp(-abs(theta) ** p.alpha * terms.sum()))


def lattice_density_brute(H: float, lam: float, omega: float, second_kind: bool,
                          n_terms: int = 2_000_000) -> tuple[float, float]:
    """Spectral density by plain truncated lattice summation.

    Returns (value, tail_bound) with the bound from integral comparison of
    the omitted |l| > n_terms terms.  |e^{iw}-1|^2 is 4 sin^2(w/2), and the
    second kind's l = 0 term times it (2 sin(w/2)/w)^2 (lam^2 + w^2)^{1/2-H},
    so that neither cancels nor divides by w^2 as w nears 0.
    """
    ell = np.arange(1, n_terms + 1, dtype=float)
    xs = np.concatenate([omega + 2.0 * np.pi * ell, omega - 2.0 * np.pi * ell])
    sin_half = math.sin(0.5 * omega)
    w2 = 4.0 * sin_half * sin_half
    if second_kind:
        s = float(np.sum((lam * lam + xs * xs) ** (0.5 - H) / (xs * xs)))
        head = (2.0 * sin_half / omega if omega != 0.0 else 1.0) ** 2 \
            * (lam * lam + omega * omega) ** (0.5 - H)
    else:
        s = float(np.sum((lam * lam + xs * xs) ** (-(H + 0.5))))
        head = w2 * (lam * lam + omega * omega) ** (-(H + 0.5))
    # omitted terms are below (2 pi l - pi)^{-1-2H} (1 + lam^2/pi^2)^{max(1/2-H,0)}
    sup = (1.0 + (lam / math.pi) ** 2) ** max(0.5 - H, 0.0)
    tail = 2.0 * sup * (2.0 * math.pi) ** (-1.0 - 2.0 * H) \
        * (n_terms - 0.5) ** (-2.0 * H) / (2.0 * H)
    return (head + w2 * s) / (2.0 * math.pi), w2 * tail / (2.0 * math.pi)


def mp_lattice_density(H: float, lam: float, omega: float, second_kind: bool) -> float:
    """Spectral density of either kind in mpmath at 20 digits: |e^{iw}-1|^2
    as 4 sin^2(w/2), which mpmath evaluates to full relative precision at any
    w, times the l = 0 term plus the terms l != 0, summed by Levin's
    transformation (mpmath's default Richardson step is 3e-3 off at H = 0.3,
    where the terms decay like l^(-1-2H); Levin agrees with Euler-Maclaurin
    summation to 1e-18 for H in [0.3, 1.9], but not at H = 0.05)."""
    with mp.workdps(20):
        H, lam, w = mp.mpf(H), mp.mpf(lam), mp.mpf(omega)
        d = 0 if second_kind else lam ** 2
        term = lambda x: (lam ** 2 + x ** 2) ** (mp.mpf(0.5) - H) / (x ** 2 + d)
        rest = mp.nsum(lambda l: term(w + 2 * mp.pi * l) + term(w - 2 * mp.pi * l),
                       [1, mp.inf], method="levin")
        return float(4 * mp.sin(w / 2) ** 2 * (term(w) + rest) / (2 * mp.pi))


def mp_lattice_density_far(H: float, lam: float, omega: float, second_kind: bool,
                           M: int) -> float:
    """mp_lattice_density for large lam, where Levin's transformation fails
    (it is off by 99% at lam = 18000): the terms |l| <= M summed directly in
    mpmath at 30 digits, and the rest by the binomial series in lam^2/x^2,
    each power a pair of mpmath Hurwitz zetas, which converges fast once
    2 pi M is well above lam (60 terms; ratio 0.12 at lam = 18000,
    M = 8192)."""
    with mp.workdps(30):
        H, lam, w = mp.mpf(H), mp.mpf(lam), mp.mpf(omega)
        d = 0 if second_kind else lam ** 2
        expo = mp.mpf(0.5) - H - (0 if second_kind else 1)
        term = lambda x: (lam ** 2 + x ** 2) ** (mp.mpf(0.5) - H) / (x ** 2 + d)
        s = term(w) + mp.fsum(term(w + 2 * mp.pi * l) + term(w - 2 * mp.pi * l)
                              for l in range(1, M + 1))
        for i in range(60):
            p = 1 + 2 * H + 2 * i
            s += (mp.binomial(expo, i) * lam ** (2 * i) * (2 * mp.pi) ** -p
                  * (mp.zeta(p, M + 1 + w / (2 * mp.pi)) + mp.zeta(p, M + 1 - w / (2 * mp.pi))))
        return float(4 * mp.sin(w / 2) ** 2 * s / (2 * mp.pi))


def riemann_alpha_norm(kern, alpha: float, t: float, y_min: float,
                       n: int = 2_000_000) -> float:
    """Brute midpoint Riemann sum of int |kern(t, y)|^alpha dy over [y_min, t],
    with kern evaluated at all midpoints in one call."""
    edges = np.linspace(y_min, t, n + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    dy = edges[1] - edges[0]
    return float(np.sum(np.abs(kern(t, mids)) ** alpha) * dy)


def mp_primitive_r(H: float, alpha: float, lam: float, x) -> mp.mpf:
    """Second-kind primitive R(x) = kappa lam^-kappa Gamma(kappa, lam x) for
    x > 0 and lam^-kappa Gamma(1 + kappa) for x <= 0, at mpmath precision;
    for kappa < 0, R(0) is the right limit -inf."""
    k = mp.mpf(H) - 1 / mp.mpf(alpha)
    lam = mp.mpf(lam)
    if x == 0 and k < 0:
        return -mp.inf
    if x <= 0:
        return lam ** -k * mp.gamma(1 + k)
    return k * lam ** -k * mp.gammainc(k, lam * x, mp.inf)


def mp_primitive_phi(H: float, alpha: float, lam: float, x) -> mp.mpf:
    """First-kind primitive phi(x) = x_+^kappa e^{-lam x} at mpmath
    precision; for kappa < 0, phi(0) is the right limit +inf."""
    k = mp.mpf(H) - 1 / mp.mpf(alpha)
    if x == 0 and k < 0:
        return mp.inf
    if x <= 0:
        return mp.mpf(0)
    return x ** k * mp.exp(-mp.mpf(lam) * x)


def mp_kernel_g(H: float, alpha: float, lam: float, t: float, y: float) -> float:
    """g(t; y) = phi(t - y) - phi(-y) with both primitives in extended
    precision; g(0; y) = 0."""
    if t == 0:
        return 0.0
    y = mp.mpf(y)
    return float(mp_primitive_phi(H, alpha, lam, mp.mpf(t) - y)
                 - mp_primitive_phi(H, alpha, lam, -y))


def mp_kernel_h(H: float, alpha: float, lam: float, t: float, y: float) -> float:
    """h(t; y) = R(-y) - R(t - y) with both primitives in extended precision;
    h(0; y) = 0, and at lam = 0 h is the untempered kernel, which is g."""
    if t == 0:
        return 0.0
    if lam == 0:
        return mp_kernel_g(H, alpha, lam, t, y)
    y = mp.mpf(y)
    return float(mp_primitive_r(H, alpha, lam, -y)
                 - mp_primitive_r(H, alpha, lam, mp.mpf(t) - y))


def mp_increment_kernel(H: float, alpha: float, lam: float, t: float,
                        x: float) -> float:
    """Kernel R(t - x) - R(t + 1 - x) of the unit-lag increment Y(t)."""
    d = mp.mpf(t) - mp.mpf(x)
    return float(mp_primitive_r(H, alpha, lam, d)
                 - mp_primitive_r(H, alpha, lam, d + 1))


def loop_cov_matrix(H: float, lam: float, times) -> np.ndarray:
    """TFBM II covariance matrix by the double loop over (i, j) with a dict
    cache of C_x^2 keyed by |x|: the reference for bit-identity of the
    vectorized build."""
    from tfmotion.gaussian import variance_tfbm2

    t = np.asarray(times, dtype=float)
    var_cache: dict[float, float] = {0.0: 0.0}

    def c2(x: float) -> float:
        x = abs(x)
        v = var_cache.get(x)
        if v is None:
            v = variance_tfbm2(H, lam, x)
            var_cache[x] = v
        return v

    n = t.size
    values = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            values[i, j] = values[j, i] = 0.5 * (c2(t[i]) + c2(t[j]) - c2(t[i] - t[j]))
    return values


def philox(seed: int, stream: int) -> np.random.Generator:
    """A newly built Philox generator keyed by (seed, stream), both in
    [0, 2^64): the stream the samplers draw path ``stream`` from."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def circulant_paths(ev: np.ndarray, n_paths: int, seed: int) -> np.ndarray:
    """Gaussian paths from the circulant eigenvalues ev_0..ev_m path by path:
    the M = 2m normals z of ``philox(seed, i)`` give w_0 = z_0, w_m = z_1 and
    w_k = z_2k + i z_(2k+1), times sqrt(M ev_k) (halved inside for
    0 < k < m); the path is the cumulative sum from 0 of the first m entries
    of irfft(w, M).  The reference of the circulant sampler."""
    m = ev.size - 1
    amp = np.sqrt(2 * m * ev)
    amp[1:m] *= math.sqrt(0.5)
    paths = np.zeros((n_paths, m + 1))
    for i in range(n_paths):
        z = philox(seed, i).standard_normal(2 * m)
        w = np.concatenate([z[:1], z[2:].view(complex), z[1:2]]) * amp
        paths[i, 1:] = np.cumsum(np.fft.irfft(w, 2 * m)[:m])
    return paths


def cholesky_paths(H: float, lam: float, times, n_paths: int, seed: int) -> np.ndarray:
    """Gaussian paths L z path by path: L the unjittered Cholesky factor of the
    loop-built covariance at the positive-variance times, z the normals of
    ``philox(seed, i)``; zero at the other times.  The reference of the
    Cholesky sampler."""
    c = loop_cov_matrix(H, lam, times)
    live = np.diag(c) > 0.0
    L = np.linalg.cholesky(c[np.ix_(live, live)])
    paths = np.zeros((n_paths, c.shape[0]))
    for i in range(n_paths):
        paths[i, live] = L @ philox(seed, i).standard_normal(int(live.sum()))
    return paths


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def render_table(fmt: str, command: str, meta: dict, columns, rows) -> str:
    """CLI table text by a per-value join: the reference for the bytes of
    the CLI's CSV and JSON output."""
    meta = {k: meta[k] for k in sorted(meta)}
    if fmt == "csv":
        lines = ["# tfmotion " + command + " "
                 + " ".join(f"{k}={_fmt_cell(v)}" for k, v in meta.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    payload = {"command": command, "meta": meta, "columns": columns, "rows": rows}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def mp_codifference_untempered(H: float, alpha: float, t: int, theta1: float,
                               theta2: float) -> float:
    """Codifference of the untempered (lambda = 0) unit-lag noise at lag t:
    mpmath quadrature of |a+b|^alpha - |a|^alpha - |b|^alpha over (-inf, 1],
    with a = theta1 k(x - t), b = theta2 k(x) and the unit-time kernel
    k(u) = (1-u)_+^kappa - (-u)_+^kappa."""
    kappa = mp.mpf(H) - 1 / mp.mpf(alpha)
    al = mp.mpf(alpha)

    def k(u):
        return ((1 - u) ** kappa if u < 1 else 0) - ((-u) ** kappa if u < 0 else 0)

    def f(x):
        a, b = theta1 * k(x - t), theta2 * k(x)
        return abs(a + b) ** al - abs(a) ** al - abs(b) ** al

    return float(mp.quad(f, [-mp.inf, -1e4, -1e3, -100, -10, -1, 0, 1]))


def two_formula_bracket(a, b, alpha: float) -> np.ndarray:
    """|a+b|^alpha - |a|^alpha - |b|^alpha in the two-formula form the
    library's bracket replaced: |small+large|^alpha - |large|^alpha at every
    node, then |large|^alpha expm1(alpha log1p(r)) wherever r = small/large
    > -1, less |small|^alpha; +0.0 where either weight is zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    swap = np.abs(a) > np.abs(b)
    small = np.where(swap, b, a)
    large = np.where(swap, a, b)
    out = np.zeros(a.shape)
    nz = (small != 0.0) & (large != 0.0)
    small, large = small[nz], large[nz]
    r = small / large
    main = np.abs(small + large) ** alpha - np.abs(large) ** alpha
    near = r > -1.0
    main[near] = np.abs(large[near]) ** alpha * np.expm1(alpha * np.log1p(r[near]))
    out[nz] = main - np.abs(small) ** alpha
    return out


def matern_tail(H: float, lam: float, J: int) -> float:
    """|c| int_J^inf M(w) dw with M and c of matern_cov (J >= 1; c = 0 at
    H = 1/2):
    a bound on sum_{j > J} |r(j)| of the TFGN II autocovariance, since
    r(j) = c int (1 - |w - j|)_+ M(w) dw, M > 0, and the triangles of the
    lags j > J sum to at most 1 on [J, inf) and to 0 below it.  SciPy's quad
    in u = w - J with K_{H-1} from scipy.special.kv."""
    c = 1.0 / (math.sqrt(math.pi) * special.gamma(H - 0.5) * (2.0 * lam) ** (H - 1.0))
    m = lambda u: (J + u) ** (H - 1.0) * special.kv(H - 1.0, lam * (J + u))
    return abs(c) * integrate.quad(m, 0.0, math.inf, epsabs=0.0, epsrel=1e-10,
                                   limit=200)[0]
