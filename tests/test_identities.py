"""Identities between independent code paths, as property tests over the
parameter domain.

hypothesis draws the examples derandomized and without a database, so every
run checks the same ones.  Each tolerance is the identity's error budget:
variance_tfbm2 is within 1e-13 of mpmath for lam t <= 1 and within 1e-8
above (README), so each C^2 value a side is built from contributes that
share of itself, times the size of its coefficient; the other side adds its
quadrature tolerance relative to its value.  The two sides of the
alpha-norm scaling, both quadratures, are each held to rel_tol |value| of
DEFAULT_QUAD, the one tolerance its adaptive rule stops on.

Domain: H at least 0.01 from 1 and 2.  The closed form's two terms
each carry a pole of Gamma(1 - H) at H = 1 and H = 2 and cancel near them,
past the budget (H = 0.99999, lam = s = t = 1 is off by 2.9e-11 relative)
or into NumericsError below lam t = 12 (H = 1.000000001, lam = t = 1).
Near H = 0, tfgn2_acvf raises QuadratureError below about H = 1e-5 (lag 1,
lam from 1e-3 to 5): its triangle integrand w^(2H-1) is nearly 1/w at
w = 0, and the extrapolation does not finish it.  So the autocovariance
identity keeps H above 1e-4, and the others above 0.01 or more.  lam s and
lam t are 0 or at least 1e-60, so that C^2 ~ t^{2H} stays a normal float,
whose relative accuracy the budget assumes.  kernel_alpha_norm raises
QuadratureError where alpha kappa falls below about -0.8, whose kernel is
singular at y = 0 and y = t as |y|^(alpha kappa) (H = 0.0625,
lam = t = 1 at alpha = 2; H = 0.09 fails at lam = 0.1, t = 1), so the
alpha = 2 identity keeps H above 0.15, and the scaling, over alpha in
[1.05, 2], H in (0.55, 1.95).  The spectral density's identity takes H in
[1e-3, 1.99], integers included (neither the lattice sum nor the Matern
triangle has a pole there), and lam in [0.6, 6], where the cosine series
of tfgn2_acvf reaches its tail bound within 50 lags.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from tfmotion.gaussian import (covariance_tfbm2, tfgn2_acvf, tfgn2_spectral_density,
                               variance_tfbm2)
from tfmotion.kernels import DEFAULT_QUAD, ProcessParams, kernel_alpha_norm

import oracles

SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)


def _off_integers(lo: float, hi: float):
    """H in (lo, hi] at least 0.01 from 1 (hi <= 1.99 keeps it from 2)."""
    return st.floats(lo, hi, exclude_min=True).filter(lambda H: abs(H - 1.0) >= 0.01)


@st.composite
def _lag_and_lam(draw):
    """A lag j >= 1 and lam >= 1e-3 with lam (j + 1) <= 12."""
    j = draw(st.integers(1, 1000))
    return j, draw(st.floats(1e-3, 12.0 / (j + 1)))


def _variance_budget(H: float, lam: float, coef, x) -> float:
    """sum_k |coef_k| eps(lam x_k) C^2(x_k), eps = 1e-13 for lam x <= 1 and
    1e-8 above: the error of sum_k coef_k variance_tfbm2(H, lam, x_k)."""
    x = np.asarray(x, dtype=float)
    eps = np.where(lam * x <= 1.0, 1e-13, 1e-8)
    return float(np.sum(np.abs(coef) * eps * variance_tfbm2(H, lam, x)))


@SETTINGS
@given(H=_off_integers(0.5, 1.99), lam=st.floats(1e-3, 10.0),
       ls=st.just(0.0) | st.floats(1e-60, 12.0),
       lt=st.just(0.0) | st.floats(1e-60, 12.0))
def test_covariance_is_the_matern_double_integral(H, lam, ls, lt):
    # covariance_tfbm2's closed form against SciPy quadrature of the Matern
    # integrand (oracles.matern_cov, held to 1e-12 relative), for H > 1/2
    # and lam max(s, t) <= 12
    s, t = ls / lam, lt / lam
    c = covariance_tfbm2(H, lam, s, t)
    m = oracles.matern_cov(H, lam, s, t)
    budget = 0.5 * _variance_budget(H, lam, [1.0, 1.0, 1.0], [s, t, abs(t - s)])
    assert abs(c - m) <= budget + 1e-12 * abs(m), (c, m, budget)


@SETTINGS
@given(H=_off_integers(1e-4, 1.99), lag_lam=_lag_and_lam())
def test_acvf_is_the_second_difference_of_the_variance(H, lag_lam):
    # tfgn2_acvf's triangle quadrature (held to rel_tol = 1e-9 relative)
    # against half the second difference of C^2 at lags j >= 1, for
    # lam (j + 1) <= 12
    j, lam = lag_lam
    x = np.array([j + 1.0, j, j - 1.0])
    coef = np.array([0.5, -1.0, 0.5])
    d = float(coef @ variance_tfbm2(H, lam, x))
    r = tfgn2_acvf(H, lam, j)
    budget = _variance_budget(H, lam, coef, x)
    assert abs(r - d) <= budget + 1e-9 * abs(r), (r, d, budget)


@SETTINGS
@given(H=_off_integers(0.15, 1.99), lam=st.floats(1e-3, 10.0),
       lt=st.just(0.0) | st.floats(1e-60, 12.0))
def test_gaussian_kernel_norm_is_the_variance(H, lam, lt):
    # kernel_alpha_norm of the second kind at alpha = 2 (quadrature, held
    # to rel_tol) against Gamma(H + 1/2)^2 C_t^2, for lam t <= 12
    t = lt / lam
    p = ProcessParams(H=H, alpha=2.0, lam=lam, kind="II")
    norm = kernel_alpha_norm(p, t)
    g2 = math.gamma(H + 0.5) ** 2
    v = g2 * float(variance_tfbm2(H, lam, t))
    budget = g2 * _variance_budget(H, lam, [1.0], [t])
    assert abs(norm - v) <= budget + DEFAULT_QUAD.rel_tol * abs(norm), (norm, v, budget)


@SETTINGS
@given(kind=st.sampled_from(["I", "II"]), H=st.floats(0.55, 1.95, exclude_min=True,
                                                     exclude_max=True),
       alpha=st.floats(1.05, 2.0), lam=st.floats(1e-3, 10.0),
       t=st.floats(1e-3, 10.0), b=st.floats(0.1, 10.0))
def test_kernel_norm_scaling(kind, H, alpha, lam, t, b):
    # ||k_lam(b t)||^alpha = b^{alpha H} ||k_{b lam}(t)||^alpha: substituting
    # y = b u in k_lam(b t; y) = b^kappa k_{b lam}(t; u)
    lhs = kernel_alpha_norm(ProcessParams(H=H, alpha=alpha, lam=lam, kind=kind), b * t)
    rhs = b ** (alpha * H) * kernel_alpha_norm(
        ProcessParams(H=H, alpha=alpha, lam=b * lam, kind=kind), t)
    budget = DEFAULT_QUAD.rel_tol * (abs(lhs) + abs(rhs))
    assert abs(lhs - rhs) <= budget, (lhs, rhs, budget)


@functools.lru_cache
def _acvf_series(H: float, lam: float):
    """r(0..J) of tfgn2_acvf with J = ceil((18 + 6 H) / lam), and the bound
    oracles.matern_tail / pi on the cosine series' terms past J; the examples
    of one (H, lam) differ in omega alone, and share these."""
    J = math.ceil((18.0 + 6.0 * H) / lam)
    r = np.array([tfgn2_acvf(H, lam, j) for j in range(J + 1)])
    return r, oracles.matern_tail(H, lam, J) / math.pi


@SETTINGS
@given(H=st.floats(1e-3, 1.99), lam=st.floats(0.6, 6.0),
       omega=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
def test_spectral_density_is_the_acvf_cosine_series(H, lam, omega):
    # tfgn2_spectral_density's lattice sum against the Fourier series of
    # tfgn2_acvf, h(w) = (r(0) + 2 sum_{j >= 1} r(j) cos(j w)) / 2pi, cut at
    # J = ceil((18 + 6 H) / lam) <= 50 lags, where the tail is below about
    # 1e-11 of r(0).  Budget: the density's reported bound, rel_tol of each
    # r(j) (each held to it relative), the series' tail (oracles.matern_tail
    # bounds sum_{j > J} |r(j)|), and 1e-14 of the series' magnitude for
    # the rounding of both sums
    r, tail = _acvf_series(H, lam)
    w = np.array(omega)
    h, bound = tfgn2_spectral_density(H, lam, w)
    series = (r[0] + 2.0 * np.cos(np.outer(w, np.arange(1, r.size))) @ r[1:]) / (2.0 * math.pi)
    size = (abs(r[0]) + 2.0 * np.sum(np.abs(r[1:]))) / (2.0 * math.pi)
    budget = bound + tail + (DEFAULT_QUAD.rel_tol + 1e-14) * size
    assert np.all(np.abs(h - series) <= budget), (h, series, budget)
