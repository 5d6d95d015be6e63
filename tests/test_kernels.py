import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import tfmotion
from tfmotion import kernels, specfun as sf
from tfmotion.dependence import codifference
from tfmotion.errors import QuadratureError
from tfmotion.gaussian import (matern_cov_integral, tfgn1_spectral_density,
                               tfgn2_acvf, tfgn2_spectral_density, variance_tfbm2)
from tfmotion.kernels import (DEFAULT_QUAD, ProcessParams, QuadratureConfig,
                              _kernel_step, _quad, kernel_alpha_norm,
                              kernel_g, kernel_h)

import oracles


P_HI = ProcessParams(H=0.7, alpha=2.0, lam=0.15)           # H > 1/alpha
P_LO = ProcessParams(H=0.3, alpha=2.0, lam=0.4)            # H < 1/alpha
P_STABLE = ProcessParams(H=0.75, alpha=1.5, lam=0.4)
P_STABLE_LO = ProcessParams(H=0.55, alpha=1.5, lam=0.8)

GRID_T = np.linspace(0.07, 4.0, 12)
GRID_Y = np.linspace(-6.3, 4.7, 17)  # avoids y = 0 and y = t


class TestProcessParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessParams(H=0.7, alpha=1.0, lam=0.1)
        with pytest.raises(ValueError):
            ProcessParams(H=-0.1, alpha=2.0, lam=0.1)
        with pytest.raises(ValueError):
            ProcessParams(H=0.7, alpha=2.0, lam=-0.1)
        with pytest.raises(ValueError):
            ProcessParams(H=1.3, alpha=1.5, lam=0.0, kind="I")

    def test_beta_voided_at_alpha_two(self):
        p = ProcessParams(H=0.7, alpha=2.0, lam=0.1, beta=0.5)
        assert p.beta == 0.0

    def test_kappa(self):
        assert ProcessParams(H=0.75, alpha=1.5, lam=1.0).kappa == pytest.approx(
            0.75 - 2.0 / 3.0)


# calls with a non-finite parameter, time, lag or argument: each raises ValueError
# before any arithmetic, never a value, a warning or another error
NON_FINITE = {
    "variance_lam_inf": lambda: variance_tfbm2(0.7, math.inf, np.array([0.0, 1.0])),
    "codifference_lag_inf": lambda: codifference(P_STABLE, math.inf, 1.0, 1.0),
    "params_H_nan": lambda: ProcessParams(H=math.nan),
    "params_H_inf": lambda: ProcessParams(H=math.inf),
    "params_lam_nan": lambda: ProcessParams(H=0.7, lam=math.nan),
    "params_lam_inf": lambda: ProcessParams(H=0.7, lam=math.inf),
    "params_sigma_nan": lambda: ProcessParams(H=0.7, sigma=math.nan),
    "matern_t_inf": lambda: matern_cov_integral(0.7, 1.0, 1.0, math.inf),
    "matern_lam_inf": lambda: matern_cov_integral(0.7, math.inf, 1.0, 1.0),
    "acvf_lam_inf": lambda: tfgn2_acvf(0.7, math.inf, 1),
    "density2_H_nan": lambda: tfgn2_spectral_density(math.nan, 1.0, 1.0),
    "density1_omega_nan": lambda: tfgn1_spectral_density(0.7, 0.15, math.nan),
    "alpha_norm_t_nan": lambda: kernel_alpha_norm(P_STABLE, math.nan),
    "kernel_h_t_nan": lambda: kernel_h(P_STABLE, math.nan, -1.0),
    "kernel_g_t_inf": lambda: kernel_g(P_STABLE, math.inf, -1.0),
    "kernel_h_y_nan": lambda: kernel_h(P_STABLE, 1.0, math.nan),
    "kernel_g_y_nan": lambda: kernel_g(P_STABLE, 1.0, math.nan),
    "kernel_h_y_inf": lambda: kernel_h(P_STABLE, 1.0, math.inf),
    "kernel_h_y_-inf": lambda: kernel_h(P_STABLE, 1.0, -math.inf),
    "kernel_g_y_-inf": lambda: kernel_g(P_STABLE, 1.0, np.array([-1.0, -math.inf])),
    "upper_gamma_x_nan": lambda: sf.upper_gamma(0.5, math.nan),
    "upper_gamma_a_nan": lambda: sf.upper_gamma(math.nan, 1.0),
    "upper_gamma_x_inf": lambda: sf.upper_gamma(0.5, np.array([1.0, math.inf])),
    "lower_gamma_a_inf": lambda: sf.lower_gamma(math.inf, 1.0),
    "lower_gamma_x_nan": lambda: sf.lower_gamma(0.5, math.nan),
    "gamma_interval_h_nan": lambda: sf.gamma_interval(0.5, 1.0, math.nan),
    "gamma_interval_h_inf": lambda: sf.gamma_interval(0.5, 1.0, math.inf),
    "gamma_interval_x_inf": lambda: sf.gamma_interval(0.5, math.inf, 0.1),
    "gamma_interval_a_nan": lambda: sf.gamma_interval(math.nan, 1.0, 0.1),
}


@pytest.mark.parametrize("name", list(NON_FINITE))
@pytest.mark.filterwarnings("error")
def test_non_finite_input_is_value_error(name):
    with pytest.raises(ValueError):
        NON_FINITE[name]()


class TestKernelH:
    def test_levy_indicator(self):
        p = ProcessParams(H=0.5, alpha=2.0, lam=0.3)
        assert kernel_h(p, 2.0, 1.0) == 1.0
        assert kernel_h(p, 2.0, -1.0) == 0.0
        assert kernel_h(p, 2.0, 0.0) == 1.0
        assert kernel_h(p, 2.0, 2.0) == 0.0

    def test_zero_time(self):
        for p in (P_HI, P_LO, P_STABLE):
            assert kernel_h(p, 0.0, 0.3) == 0.0
            assert kernel_h(p, 0.0, -2.0) == 0.0

    def test_continuous_vanishing_limit_at_right_edge(self):
        # for H > 1/alpha the kernel dies continuously as y -> t^-,
        # like (t-y)^kappa once the tempering integral term is negligible
        vals = [kernel_h(P_HI, 1.0, 1.0 - eps) for eps in (1e-2, 1e-4, 1e-8)]
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert vals[2] == pytest.approx(1e-8 ** P_HI.kappa, rel=1e-3)
        assert kernel_h(P_HI, 1.0, 1.0) == 0.0

    def test_two_branch_matches_integral_representation(self):
        # H < 1/alpha: closed form against quadrature of the kappa-order
        # integral representation (y < 0 branch)
        for p in (P_LO, P_STABLE_LO):
            for (t, y) in [(1.0, -0.5), (2.0, -3.0), (0.5, -0.01)]:
                ref = oracles.h_kernel_integral_rep(p.H, p.alpha, p.lam, t, y)
                assert kernel_h(p, t, y) == pytest.approx(ref, rel=1e-10), (p.H, t, y)

    def test_direct_matches_integral_representation(self):
        # H > 1/alpha cross-check, the two independent evaluation routes
        for (t, y) in [(1.0, -0.5), (1.0, 0.3), (5.0, -20.0)]:
            ref = oracles.h_kernel_integral_rep(0.7, 2.0, 0.15, t, y)
            assert kernel_h(P_HI, t, y) == pytest.approx(ref, rel=1e-10)
        assert kernel_h(P_HI, 1.0, -0.5) == pytest.approx(0.18628874889269598,
                                                          rel=1e-12)

    def test_singular_markers(self):
        assert kernel_h(P_LO, 1.0, 1.0) == math.inf
        assert kernel_h(P_LO, 1.0, 0.0) == -math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_h(P_HI, -1.0, 0.0)


class TestKernelHOracle:
    """h against R(-y) - R(t - y) evaluated in extended precision."""

    # far left-tail points where g + lam * integral cancels (ROADMAP item 2)
    FAR_TAIL = [(0.8, 1.5, 0.3, 0.1, -151.5), (1.3, 2.0, 0.3, 0.1, -200.0),
                (1.3, 2.0, 0.3, 7.0, -60.0), (0.55, 2.0, 0.3, 0.1, -150.0)]
    SWEEP_H_ALPHA = [(0.8, 1.5), (1.3, 2.0), (0.4, 1.5), (0.55, 2.0), (0.9, 1.2)]

    def test_far_tail(self):
        for H, alpha, lam, t, y in self.FAR_TAIL:
            p = ProcessParams(H=H, alpha=alpha, lam=lam)
            ref = oracles.mp_kernel_h(H, alpha, lam, t, y)
            assert kernel_h(p, t, y) == pytest.approx(ref, rel=1e-12, abs=0.0), \
                (H, alpha, t, y)

    def test_sweep(self):
        for H, alpha in self.SWEEP_H_ALPHA:
            for lam in (0.05, 0.3, 2.0):
                p = ProcessParams(H=H, alpha=alpha, lam=lam)
                for t in (0.01, 1.0, 7.0):
                    ys = [-float(u) for u in np.geomspace(1e-3, 60.0 / lam, 30)]
                    ys += [t * f for f in (1e-6, 0.3, 0.7, 1.0 - 1e-6)]
                    for y, v in zip(ys, kernel_h(p, t, np.array(ys))):
                        ref = oracles.mp_kernel_h(H, alpha, lam, t, y)
                        assert v == pytest.approx(
                            ref, rel=2e-11, abs=0.0), (H, alpha, lam, t, y)


class TestKernelStepArray:
    # a = -y hits the singular points a = 0 and b = a + w = 0, the plateau
    # b < 0, the crossing a < 0 < b and the left tail a > 0
    A = np.array([-3.0, -1.0, -0.6, -1e-9, 0.0, 1e-9, 0.3, 2.0, 40.0, 400.0])

    @pytest.mark.parametrize("kind", ["I", "II"])
    @pytest.mark.parametrize("k", [-0.4, 0.0, 0.3, 1.2])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 25.0])
    @pytest.mark.parametrize("w", [0.0, 1.0])
    def test_matches_scalar(self, kind, k, lam, w):
        # against the extended-precision kernels at t = w, y = -a and
        # kappa = k (H = k + 1/2 at alpha = 2), infinite markers included
        v = _kernel_step(kind, k, lam, self.A, w)
        mp_kernel = oracles.mp_kernel_g if kind == "I" else oracles.mp_kernel_h
        for a, va in zip(self.A.tolist(), v):
            ref = mp_kernel(k + 0.5, 2.0, lam, w, -a)
            if math.isinf(ref):
                assert va == ref, a
            else:
                assert va == pytest.approx(ref, rel=1e-12, abs=1e-15), a


    # one width per element: every width of W at every a of A, interleaved;
    # W holds 0 and the widths that put b = a + w = 0 on an element of A
    W = np.array([0.0, 1e-9, 0.6, 1.0, 3.0, 0.05, 40.0])

    @pytest.mark.parametrize("kind", ["I", "II"])
    @pytest.mark.parametrize("k", [-0.4, 0.0, 0.3, 1.2])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 25.0])
    @pytest.mark.filterwarnings("error")
    def test_width_array_matches_scalar_calls(self, kind, k, lam):
        a, w = (g.ravel() for g in np.meshgrid(self.A, self.W))
        order = np.random.default_rng(0).permutation(a.size)
        a, w = a[order], w[order]
        v = _kernel_step(kind, k, lam, a, w)
        assert np.isinf(v).any() == (k < 0.0)  # the singular points are hit
        for wi in self.W.tolist():
            at = w == wi
            assert v[at].tolist() == _kernel_step(kind, k, lam, a[at], wi).tolist(), wi
        assert (v[w == 0.0] == 0.0).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_bad_width_element_raises(self, bad):
        w = np.array([1.0, 0.0, bad, 2.0])
        for kind in ("I", "II"):
            with pytest.raises(ValueError):
                _kernel_step(kind, 0.3, 0.5, np.array([-0.5, 1.0, 2.0, 3.0]), w)


def test_alpha_norm_makes_one_kernel_call_per_sweep(monkeypatch):
    # each _quad sweep (one _qk15 call) evaluates the kernels of every node
    # of every time of the batch in one _kernel_step call
    calls = {"sweeps": 0, "kernel": 0}
    real_qk15, real_step = kernels._qk15, kernels._kernel_step

    def qk15(*args):
        calls["sweeps"] += 1
        return real_qk15(*args)

    def step(*args):
        calls["kernel"] += 1
        return real_step(*args)

    monkeypatch.setattr(kernels, "_qk15", qk15)
    monkeypatch.setattr(kernels, "_kernel_step", step)
    ts = np.array([0.001, 0.1, 1.0, 25.0, 200.0])
    for p in (ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="II"),
              ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="I"),
              ProcessParams(H=0.55, alpha=1.5, lam=0.8, kind="II"),  # kappa < 0
              ProcessParams(H=0.7, alpha=1.5, lam=0.0, kind="I")):
        calls.update(sweeps=0, kernel=0)
        v = kernel_alpha_norm(p, ts)
        assert calls["sweeps"] > 1 and calls["kernel"] == calls["sweeps"], p
        assert v.tolist() == [kernel_alpha_norm(p, t) for t in ts.tolist()]


_P_I = ProcessParams(H=0.55, alpha=1.5, lam=0.8, kind="I")  # kappa < 0
_YS = [-3.0, -0.2, 0.0, 0.7, 1.5, 2.0]  # y = 0 and y = t = 1.5 give -inf, +inf

# (function of one float or array argument, six valid points, calls that
# raise ValueError with the bad point they are given)
CONTRACT = {
    "lower_gamma": (lambda x: sf.lower_gamma(1.3, x), [0.0, 1e-3, 0.4, 2.3, 2.5, 40.0],
                    [(lambda x: sf.lower_gamma(1.3, x), -1.0),
                     (lambda x: sf.lower_gamma(-1.0, x), 2.0)]),
    "upper_gamma": (lambda x: sf.upper_gamma(-0.3, x), [1e-3, 0.4, 1.0, 2.5, 7.0, 40.0],
                    [(lambda x: sf.upper_gamma(-0.3, x), 0.0),
                     (lambda x: sf.upper_gamma(-1.5, x), 2.0)]),
    "gamma_interval": (lambda x: sf.gamma_interval(1.3, x, 0.05),
                       [1e-3, 0.1, 0.4, 1.2, 2.5, 40.0],
                       [(lambda x: sf.gamma_interval(1.3, x, 0.05), 0.0),
                        (lambda x: sf.gamma_interval(1.3, x, -0.1), 2.0)]),
    "kernel_g": (lambda y: kernel_g(_P_I, 1.5, y), _YS,
                 [(lambda y: kernel_g(_P_I, -1.0, y), 0.5)]),
    "kernel_h": (lambda y: kernel_h(P_STABLE_LO, 1.5, y), _YS,
                 [(lambda y: kernel_h(P_STABLE_LO, -1.0, y), 0.5)]),
    "hyp2f3": (lambda z: sf.hyp2f3((1.0, -0.5), (0.3, 0.5, 1.0), z),
               [0.0, 0.005625, 0.8, 6.25, 25.0, -50.0],
               [(lambda z: sf.hyp2f3((1.0, -0.5), (0.3, 0.5, 1.0), z), math.inf),
                (lambda z: sf.hyp2f3((1.0, 0.5), (0.5, -2.0, 1.0), z), 0.3)]),
    "bessel_k": (lambda x: sf.bessel_k(0.3, x), [1e-20, 1e-3, 0.4, 2.0, 30.0, 700.0],
                 [(lambda x: sf.bessel_k(0.3, x), 0.0),
                  (lambda x: sf.bessel_k(0.3, x), math.nan)]),
    "variance_tfbm2": (lambda t: variance_tfbm2(1.3, 0.15, t),
                       [0.0, 1e-3, 0.5, -1.0, 2.0, 7.0],
                       [(lambda t: variance_tfbm2(-0.7, 0.15, t), 1.0),
                        (lambda t: variance_tfbm2(1.0, 0.15, t), 1.0)]),
}


@pytest.mark.parametrize("name", list(CONTRACT))
@pytest.mark.filterwarnings("error")
class TestScalarArrayContract:
    """A float in gives a Python float out; an array in gives an array of
    its shape, equal to per-element calls; bad input raises the same
    ValueError either way; no call warns."""

    def test_float_in_float_out(self, name):
        f, points, _ = CONTRACT[name]
        for x in points:
            assert type(f(x)) is float, x

    def test_shapes_and_values(self, name):
        f, points, _ = CONTRACT[name]
        ref = [f(x) for x in points]
        x = np.array(points)
        assert f(x).tolist() == ref
        assert f(x.reshape(2, 3)).tolist() == np.reshape(ref, (2, 3)).tolist()
        assert f(x.reshape(3, 2).T).tolist() == np.reshape(ref, (3, 2)).T.tolist()
        zero_d = f(x[1:2].reshape(()))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert zero_d == ref[1]
        assert f(np.empty(0)).shape == (0,)
        assert f(np.empty((0, 3))).shape == (0, 3)

    def test_same_errors(self, name):
        f, points, bad = CONTRACT[name]
        for g, xb in bad:
            with pytest.raises(ValueError):
                g(xb)
            with pytest.raises(ValueError):
                g(np.array([points[-1], xb]))


def test_keyword_calls_match_positional():
    # the decorator binds a call to the signature only when it passes
    # keywords; both routes reshape the same argument
    x = np.array([[1e-3, 0.4], [2.5, 40.0]])
    assert (sf.gamma_interval(a=1.3, x=x, h=0.05).tolist()
            == sf.gamma_interval(1.3, x, h=0.05).tolist()
            == sf.gamma_interval(1.3, x, 0.05).tolist())
    assert sf.upper_gamma(-0.3, x=2.5) == sf.upper_gamma(-0.3, 2.5)
    assert type(sf.upper_gamma(a=-0.3, x=2.5)) is float
    ys = np.array(_YS)
    assert (kernel_h(P_STABLE_LO, t=1.5, y=ys).tolist()
            == kernel_h(P_STABLE_LO, 1.5, ys).tolist())
    t = np.array([0.5, 1.0])
    assert (kernel_alpha_norm(P_STABLE, t=t, q=DEFAULT_QUAD).tolist()
            == kernel_alpha_norm(P_STABLE, t).tolist())
    with pytest.raises(TypeError):
        sf.lower_gamma(1.3)
    with pytest.raises(TypeError):
        sf.lower_gamma(1.3, 0.5, x=0.5)


class TestKernelG:
    def test_untempered_reduction(self):
        p = ProcessParams(H=0.7, alpha=2.0, lam=0.0)
        y = -1.3
        assert kernel_g(p, 1.0, y) == pytest.approx(
            (1.0 - y) ** 0.2 - (-y) ** 0.2, rel=1e-14)

    def test_positive_y_single_term(self):
        assert kernel_g(P_HI, 1.0, 0.5) == pytest.approx(
            0.5 ** 0.2 * math.exp(-0.075), rel=1e-14)

    def test_extended_precision_value(self):
        p = ProcessParams(H=0.75, alpha=1.5, lam=0.4, kind="I")
        assert kernel_g(p, 5.0, -2.0) == pytest.approx(-0.40453193692674150,
                                                       rel=1e-13)

    def test_singular_markers(self):
        p = ProcessParams(H=0.3, alpha=2.0, lam=0.4, kind="I")
        assert kernel_g(p, 1.0, 1.0) == math.inf
        assert kernel_g(p, 1.0, 0.0) == -math.inf


class TestKernelIdentity:
    """h = g + lam (int_0^t g ds + t (-y)_+^kappa e^{-lam (-y)_+}) pointwise."""

    @pytest.mark.parametrize("p", [P_HI, P_LO, P_STABLE, P_STABLE_LO])
    def test_pointwise(self, p):
        for t in GRID_T:
            for y in GRID_Y:
                drift = t * oracles.plus_pow(-y, p.kappa) * math.exp(-p.lam * max(-y, 0.0))
                corr = oracles.g_time_integral(p.H, p.alpha, p.lam, t, y) + drift
                resid = kernel_h(p, t, y) - (kernel_g(p, t, y) + p.lam * corr)
                assert abs(resid) < 1e-12, (p, t, y, resid)


class TestInvariances:
    def test_shift_covariance(self):
        for p in (P_HI, P_LO, P_STABLE):
            for t, T in [(1.0, 0.5), (2.0, 3.0)]:
                for y in (-2.1, -0.4, 0.3, 0.9):
                    lhs = kernel_h(p, t + T, y) - kernel_h(p, T, y)
                    rhs = kernel_h(p, t, y - T)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_scaling(self):
        for p in (P_HI, P_STABLE):
            for b in (0.5, 2.0, 10.0):
                pb = ProcessParams(H=p.H, alpha=p.alpha, lam=p.lam / b)
                for (t, y) in [(1.0, -0.7), (2.0, 0.4)]:
                    lhs = kernel_h(pb, b * t, b * y)
                    rhs = b ** p.kappa * kernel_h(p, t, y)
                    assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_lambda_to_zero_limit(self):
        p0 = ProcessParams(H=0.7, alpha=2.0, lam=0.0)
        peps = ProcessParams(H=0.7, alpha=2.0, lam=1e-9)
        for y in (-2.0, -0.3, 0.4):
            assert kernel_h(peps, 1.0, y) == pytest.approx(
                kernel_g(p0, 1.0, y), rel=1e-6)
            assert kernel_g(peps, 1.0, y) == pytest.approx(
                kernel_g(p0, 1.0, y), rel=1e-6)


class TestFracIndicator:
    """h / Gamma(1 + kappa) is the tempered fractional integral (kappa > 0)
    or derivative (kappa < 0) of the indicator of [0, t]."""

    def test_integral_identity(self):
        for p in (P_HI, P_STABLE):
            k = p.kappa
            for t in (0.5, 1.0, 3.0):
                for y in np.linspace(-5.1, 2.6, 21):
                    lhs = oracles.mp_frac_indicator(k, p.lam, "integral", t, float(y))
                    rhs = kernel_h(p, t, float(y)) / sf.gamma_fn(1.0 + k)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_derivative_identity(self):
        for p in (P_LO, P_STABLE_LO):
            kd = 1.0 / p.alpha - p.H
            for t in (0.5, 1.0, 3.0):
                for y in np.linspace(-5.1, 2.6, 21):
                    y = float(y)
                    if abs(y) < 1e-9 or abs(y - t) < 1e-9:
                        continue
                    lhs = oracles.mp_frac_indicator(kd, p.lam, "derivative", t, y)
                    rhs = kernel_h(p, t, y) / sf.gamma_fn(1.0 + p.kappa)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_derivative_against_definition_quadrature(self):
        # order 0.3 = 1/alpha - H at H = 0.2, alpha = 2
        p = ProcessParams(H=0.2, alpha=2.0, lam=1.0)
        got = kernel_h(p, 1.0, -1.0) / sf.gamma_fn(0.7)
        assert got == pytest.approx(-0.03616315516031573, rel=1e-10)
        live = oracles.frac_derivative_quadrature(0.3, 1.0, 1.0, -1.0)
        assert got == pytest.approx(live, rel=1e-9)
        inside = kernel_h(p, 1.0, 0.4) / sf.gamma_fn(0.7)
        assert inside == pytest.approx(
            oracles.frac_derivative_quadrature(0.3, 1.0, 1.0, 0.4), rel=1e-9)


class TestAlphaNorm:
    def test_indicator_kernel(self):
        p = ProcessParams(H=0.5, alpha=2.0, lam=0.7)
        assert kernel_alpha_norm(p, 2.7) == 2.7
        assert kernel_alpha_norm(p, 0.0) == 0.0

    def test_scaling_consistency(self):
        # b^{-alpha H} ||h_lam(b)||^alpha == ||h_{b lam}(1)||^alpha
        q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)
        b = 1e-3
        small = kernel_alpha_norm(P_HI, b, q)
        ref = kernel_alpha_norm(
            ProcessParams(H=0.7, alpha=2.0, lam=0.15 * b), 1.0, q) * b ** 1.4
        assert small == pytest.approx(ref, rel=1e-8)

    def test_brute_force(self):
        p = P_STABLE
        v = kernel_alpha_norm(p, 1.0)
        brute = oracles.riemann_alpha_norm(
            lambda t, y: kernel_h(p, t, y), p.alpha, 1.0, -80.0, n=400_000)
        assert v == pytest.approx(brute, rel=1e-4)

    def test_untempered(self):
        p0 = ProcessParams(H=0.7, alpha=2.0, lam=0.0, kind="I")
        v = kernel_alpha_norm(p0, 1.0)
        ref = sf.gamma_fn(1.2) ** 2 * oracles.fbm_variance_timedomain(0.7, 1.0)
        assert v == pytest.approx(ref, rel=1e-8)

    def test_cross_module_variance_identity(self):
        # alpha = 2: the kernel norm is the variance of the normalized motion
        # scaled back by Gamma(H + 1/2)^2
        v = kernel_alpha_norm(P_HI, 1.0)
        ref = sf.gamma_fn(1.2) ** 2 * variance_tfbm2(0.7, 0.15, 1.0)
        assert v == pytest.approx(ref, rel=1e-6)


class TestQuadHelper:
    def test_raises_when_error_exceeds_budget(self):
        # neither bisection nor the epsilon extrapolation converges here:
        # the integral stops with its summed error far above the budget
        with pytest.raises(QuadratureError):
            _quad(lambda x, rows: np.sin(1.0 / x) / x, (0.0, 1.0))

    def test_raises_on_non_finite_integrand(self):
        # a NaN on part of the range gives error inf, not a NaN value with
        # a NaN error that compares as within budget
        with pytest.raises(QuadratureError):
            _quad(lambda x, rows: np.where(x > 0.7, np.nan, x), (0.0, 1.0))
        with pytest.raises(QuadratureError):
            _quad(lambda x, rows: np.where(rows == 1, np.inf, x), [(0.0, 1.0)] * 2)

    def test_sums_values_and_errors_over_panels(self):
        exp = lambda x, rows: np.exp(x)
        panels = [_quad(exp, (a, b)) for a, b in ((0.0, 0.5), (0.5, 1.0))]
        v, e = _quad(exp, (0.0, 0.5, 1.0))
        assert v == panels[0][0] + panels[1][0]
        assert e == panels[0][1] + panels[1][1]
        assert v == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_infinite_edges(self):
        # QUADPACK's qk15i map for (a, inf) and (-inf, b)
        v, e = _quad(lambda x, rows: 1.0 / (1.0 + x * x), (-math.inf, 0.0, math.inf))
        assert v == pytest.approx(math.pi, rel=1e-12) and e <= 1e-9
        v, _ = _quad(lambda x, rows: np.exp(-x * x), (-math.inf, -1.0))
        assert v == pytest.approx(0.5 * math.sqrt(math.pi) * math.erfc(1.0), rel=1e-12)

    def test_batch_matches_single_calls(self):
        # each integral's bisections depend on its own panels only
        c = np.array([0.5, 1.0, 3.0, 10.0])
        f = lambda x, rows: np.cos(c[rows] * x) * np.exp(-x) / np.sqrt(1.0 + x)
        edges = [(0.0, 1.0), (0.0, 0.5, math.inf), (-0.5, 2.0, 7.0), (0.0, math.inf)]
        vals, errs = _quad(f, edges)
        for r, row in enumerate(edges):
            v, e = _quad(lambda x, rows: f(x, np.full(x.size, r)), row)
            assert vals[r] == pytest.approx(v, rel=1e-14, abs=0.0)
            assert errs[r] == pytest.approx(e, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [P_HI, P_STABLE, ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")])
    def test_alpha_norm_batch_matches_single(self, p):
        ts = [1e-4, 0.01, 0.3, 1.0, 25.0, 200.0]
        batch = kernel_alpha_norm(p, np.array(ts))
        for t, v in zip(ts, batch):
            assert v == pytest.approx(kernel_alpha_norm(p, t), rel=1e-14, abs=0.0)

    def test_epsilon_extrapolates_geometric_sums(self):
        # partial sums of two geometric series: Wynn's epsilon algorithm
        # removes both components exactly, while the plain sum is still far
        # off; erratic sums get a large error and constant ones none at all
        k = np.arange(12.0)
        s = np.cumsum(0.9 ** k + 0.5 * 0.7 ** k)
        noise = np.cumsum(np.random.default_rng(1).random(12))
        v, e = kernels._epsilon(np.array([s, noise, np.ones(12)]))
        assert v[0] == pytest.approx(10.0 + 0.5 / 0.3, rel=1e-12) and e[0] < 1e-10
        assert s[-1] < 10.0
        assert e[1] > 1e-2 and e[2] == math.inf

    @pytest.mark.parametrize("case,parent", [
        (("I", 0.5), 2.377296073326821), (("I", 1.0), 3.146891842606504),
        (("II", 0.5), 2.3293165828144495), (("II", 1.0), 3.203217466756861),
        ("matern", 0.941274098706759)])
    def test_endpoint_singular_integrals_extrapolate(self, case, parent, monkeypatch):
        # integrable endpoint singularities: |kernel|^alpha at y = 0 and
        # y = t for kappa < 0, and the Matern integrand w^(2H - 2) at w = 0
        # for H near 1/2.  Bisection alone would halve the singular panel
        # once per sweep for about 50 sweeps (300 for Matern); the epsilon
        # extrapolation finishes in a few sweeps without SciPy.  The
        # reference values are those of the per-panel SciPy quadrature that
        # served every integral before the batched rule.
        from tfmotion.gaussian import matern_cov_integral
        sweeps, calls = [], []
        qk15 = kernels._qk15
        monkeypatch.setattr(kernels, "_qk15", lambda *a: sweeps.append(1) or qk15(*a))
        monkeypatch.setattr(integrate, "quad", lambda *a, **k: calls.append(a))
        if case == "matern":
            v = matern_cov_integral(0.55, 0.5, 1.0, 1.0)
        else:
            p = ProcessParams(H=0.3, alpha=1.5, lam=0.4, kind=case[0])
            v = kernel_alpha_norm(p, case[1])
        assert v == pytest.approx(parent, rel=1e-9)
        assert len(sweeps) <= 16 and not calls

    def test_only_quadrature_site(self):
        # every library integral runs on the batched NumPy rule of _quad:
        # no SciPy quadrature and no warning filters anywhere in the
        # package; and each incomplete-gamma recurrence and kernel step has
        # one (array) implementation, with no scalar or array twin beside it
        for f in Path(kernels.__file__).parent.glob("*.py"):
            src = f.read_text()
            for token in ("scipy.integrate", "integrate.quad(", "catch_warnings",
                          "from scipy import integrate"):
                assert token not in src, (f.name, token)
        assert list(inspect.signature(_quad).parameters) == ["f", "edges", "q", "epsabs"]
        for mod in (sf, kernels):
            src = Path(mod.__file__).read_text()
            assert not re.search(r"def _\w*_array\(", src), mod.__name__
            assert "kernel_row" not in src, mod.__name__


def test_every_public_name_has_a_caller():
    # no dead public code: each public function and class of the package is
    # named by package code outside its own definition (in any module), is
    # exported in tfmotion.__all__, or is a pyproject.toml console script
    project = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = set(re.findall(r'"(tfmotion\.\w+):(\w+)"', project))
    stmts = []  # (module, top-level statement, the names it mentions)
    for f in Path(kernels.__file__).parent.glob("*.py"):
        if f.stem != "__init__":
            for node in ast.parse(f.read_text()).body:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                stmts.append((f.stem, node, names))
    unused = [f"{mod}.{node.name}" for mod, node, _ in stmts
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in tfmotion.__all__
              and (f"tfmotion.{mod}", node.name) not in scripts
              and not any(node.name in names for _, other, names in stmts
                          if other is not node)]
    assert not unused
