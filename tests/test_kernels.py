import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import tfmotion
from tfmotion import cli, gaussian, kernels, specfun as sf
from tfmotion import dependence
from tfmotion.dependence import codifference, decay_diagnostic
from tfmotion.errors import QuadratureError
from tfmotion.gaussian import (PathEnsemble, SampleGrid, tfgn1_spectral_density,
                               tfgn2_acvf, tfgn2_spectral_density,
                               variance_fbm_limit, variance_tfbm2)
from tfmotion.stable import DiscretizationPlan, kernel_node_table, sample_stable
from tfmotion.kernels import (DEFAULT_QUAD, ProcessParams, QuadratureConfig,
                              _kernel_step, _quad, kernel, kernel_alpha_norm,
                              kernel_g, kernel_h)

import oracles


P_HI = ProcessParams(H=0.7, alpha=2.0, lam=0.15)           # H > 1/alpha
P_LO = ProcessParams(H=0.3, alpha=2.0, lam=0.4)            # H < 1/alpha
P_STABLE = ProcessParams(H=0.75, alpha=1.5, lam=0.4)
P_STABLE_LO = ProcessParams(H=0.55, alpha=1.5, lam=0.8)

GRID_T = np.linspace(0.07, 4.0, 12)
GRID_Y = np.linspace(-6.3, 4.7, 17)  # avoids y = 0 and y = t


@pytest.fixture
def sweeps(monkeypatch):
    """One entry per quadrature sweep (_qk15 call) made during the test."""
    calls = []
    qk15 = kernels._qk15
    monkeypatch.setattr(kernels, "_qk15", lambda *a: calls.append(1) or qk15(*a))
    return calls


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
        # at lam = 0 both kinds have the kernel (t-y)_+^kappa - (-y)_+^kappa,
        # whose alpha-norm diverges for H >= 1
        for H in (1.0, 1.0001, 1.2, 1.7):
            with pytest.raises(ValueError, match="H in \\(0, 1\\)"):
                ProcessParams(H=H, alpha=1.5, lam=0.0, kind="II")

    @pytest.mark.parametrize("make", [
        lambda alpha, beta: ProcessParams(H=0.7, alpha=alpha, beta=beta),
        lambda alpha, beta: sample_stable(alpha, beta, 1.0, (0.3, 0.6))])
    def test_alpha_beta_messages(self, make):
        # one check words both ranges for both entry points, NaN included
        for alpha in (1.0, 2.5, math.nan):
            with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\]"):
                make(alpha, 0.0)
        for beta in (-1.5, 2.0, math.nan):
            with pytest.raises(ValueError, match=r"beta must lie in \[-1, 1\]"):
                make(1.5, beta)

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
    "gamma_fn_nan": lambda: sf.gamma_fn(math.nan),
    "gamma_fn_inf": lambda: sf.gamma_fn(math.inf),
    "fbm_limit_t_nan": lambda: variance_fbm_limit(0.7, math.nan),
    "stable_sigma_nan": lambda: sample_stable(1.5, 0.0, math.nan, (0.3, 0.6)),
    "stable_sigma_inf": lambda: sample_stable(1.5, 0.0, math.inf, (0.3, 0.6)),
    "plan_y_min_nan": lambda: DiscretizationPlan(y_min=math.nan, dy=0.1, n_nodes=10),
    "plan_y_min_inf": lambda: DiscretizationPlan(y_min=-math.inf, dy=0.1, n_nodes=10),
    "plan_dy_nan": lambda: DiscretizationPlan(y_min=-1.0, dy=math.nan, n_nodes=10),
    "plan_dy_inf": lambda: DiscretizationPlan(y_min=-1.0, dy=math.inf, n_nodes=10),
    "plan_cutoff_inf": lambda: DiscretizationPlan.for_grid(
        SampleGrid.regular(1.0, 5), P_STABLE, 0.1, cutoff=math.inf),
    "codifference_theta1_nan": lambda: codifference(P_STABLE, 3, math.nan, 1.0),
    "codifference_theta2_inf": lambda: codifference(P_STABLE, 3, 1.0, math.inf),
    "decay_theta1_nan": lambda: decay_diagnostic(P_STABLE, [2, 3], math.nan, 1.0),
    "decay_theta2_inf": lambda: decay_diagnostic(P_STABLE, [2, 3], 1.0, math.inf),
    "ensemble_paths_nan": lambda: PathEnsemble(
        P_HI, SampleGrid.regular(1.0, 3), np.array([[0.0, math.nan, 1.0]]), 0),
}

# calls with finite input outside its domain that no CLI option builds, held
# to the same rule
OUT_OF_DOMAIN = {
    "params_kind_III": lambda: ProcessParams(H=0.7, kind="III"),
    "ensemble_paths_shape": lambda: PathEnsemble(
        P_HI, SampleGrid.regular(1.0, 3), np.zeros((1, 4)), 0),
}


@pytest.mark.parametrize("name", [*NON_FINITE, *OUT_OF_DOMAIN])
@pytest.mark.filterwarnings("error")
def test_non_finite_input_is_value_error(name):
    with pytest.raises(ValueError):
        {**NON_FINITE, **OUT_OF_DOMAIN}[name]()


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
    # (H, alpha, rel); the last two have kappa = H - 1/alpha = +-1e-3, where
    # long cells are differences of upper gammas at a = kappa that would
    # cancel were each Gamma(a) minus a series: what is left is the rounding
    # of kappa itself, about 4e-17 / |kappa| relative
    SWEEP = [(0.8, 1.5, 2e-11), (1.3, 2.0, 2e-11), (0.4, 1.5, 2e-11),
             (0.55, 2.0, 2e-11), (0.9, 1.2, 2e-11),
             (1.0 / 1.5 + 1e-3, 1.5, 1e-13), (1.0 / 1.5 - 1e-3, 1.5, 1e-13)]

    def test_far_tail(self):
        for H, alpha, lam, t, y in self.FAR_TAIL:
            p = ProcessParams(H=H, alpha=alpha, lam=lam)
            ref = oracles.mp_kernel_h(H, alpha, lam, t, y)
            assert kernel_h(p, t, y) == pytest.approx(ref, rel=1e-12, abs=0.0), \
                (H, alpha, t, y)

    def test_sweep(self):
        for H, alpha, rel in self.SWEEP:
            for lam in (0.05, 0.3, 2.0):
                p = ProcessParams(H=H, alpha=alpha, lam=lam)
                for t in (0.01, 1.0, 7.0):
                    ys = [-float(u) for u in np.geomspace(1e-3, 60.0 / lam, 30)]
                    ys += [t * f for f in (1e-6, 0.3, 0.7, 1.0 - 1e-6)]
                    for y, v in zip(ys, kernel_h(p, t, np.array(ys))):
                        ref = oracles.mp_kernel_h(H, alpha, lam, t, y)
                        assert v == pytest.approx(
                            ref, rel=rel, abs=0.0), (H, alpha, lam, t, y)


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


class TestFarKernel:
    # kernels._far_kernel: the far-field series at the leading nodes
    # a >= 8 max(t) of a descending node array, its block coef @ powers *
    # scale against _kernel_step within TOL of each value's term scale
    # (_ref); this class checks the second kind, TestFarKernelFirstKind the
    # first
    KIND = "II"
    TOL = 2.5e-14  # the Gauss-Legendre band of _kernel_step
    T = np.linspace(0.0, 1.0, 9)

    @staticmethod
    def _nodes(lam, n=400):
        # descending a = -y over the stable plan's span [-1, cutoff(lam)]
        return np.linspace(DEFAULT_QUAD.cutoff(lam), -1.0, n) + 1.0 / 3.0

    def _params(self, H, alpha, lam):
        return ProcessParams(H=H, alpha=alpha, lam=lam, kind=self.KIND)

    def _kappa(self, k, lam):
        # a process with kappa near k: alpha = 1.1 lets k reach -0.9
        return self._params(k + 1.0 / 1.1, 1.1, lam)

    @staticmethod
    def _far(p, a, t):
        coef, powers, scale = kernels._far_kernel(p, a, t)
        assert coef.shape[0] == t.size and powers.shape[1] == scale.size
        return scale.size, coef @ powers * scale

    def _ref(self, p, a, t):
        # _kernel_step's rows at the times t, and the term scale of each
        # value: |h| for the second kind
        ref = np.array([_kernel_step(p.kind, p.kappa, p.lam, a, ti) for ti in t.tolist()])
        return ref, np.abs(ref)

    @pytest.mark.parametrize("H", [0.3, 0.8, 1.3, 1.9])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("lam", [1e-3, 0.3, 2.0, 25.0])
    def test_matches_kernel_step(self, H, alpha, lam):
        # within TOL of the term scale wherever it is >= 1e-290; the far
        # block is the prefix a >= 8 max(t)
        p = self._params(H, alpha, lam)
        a = self._nodes(lam)
        m, block = self._far(p, a, self.T)
        assert m == np.count_nonzero(a >= 8.0) > 0
        ref, scale = self._ref(p, a[:m], self.T)
        big = scale >= 1e-290
        assert big[1:].any()
        assert np.all(np.abs(block - ref)[big] <= self.TOL * scale[big])
        assert np.all(np.abs(block[~big]) < 1e-289)

    @pytest.mark.parametrize("H,alpha,lam", [
        (0.3, 1.5, 0.3), (0.3, 1.2, 2.0),     # kappa < 0
        (1.9, 1.2, 0.3), (1.9, 1.5, 2.0),     # kappa > 1
    ])
    def test_against_mpmath(self, H, alpha, lam):
        a = np.array([40.0, 12.3, 10.0, 8.01, 8.0])
        t = np.array([0.37, 1.0])
        m, block = self._far(self._params(H, alpha, lam), a, t)
        assert m == a.size
        for i, ti in enumerate(t.tolist()):
            for j, aj in enumerate(a.tolist()):
                ref = oracles.mp_kernel_h(H, alpha, lam, ti, -aj)
                assert block[i, j] == pytest.approx(ref, rel=4e-15, abs=0.0), (ti, aj)

    @pytest.mark.parametrize("H", [0.3, 1.3])
    def test_continuous_across_boundary(self, H):
        # a table whose nodes step through y = -8 t_max: the far block ends
        # there, and both sides agree with _kernel_step, so the table has no
        # jump at the seam
        p = self._params(H, 1.5, 0.3)
        grid = SampleGrid.regular(1.0, 5)
        plan = DiscretizationPlan(y_min=-8.02, dy=1e-3, n_nodes=9030)
        ys = plan.nodes()
        m, _ = self._far(p, -ys, grid.times)
        assert m == 20 and ys[m - 1] < -8.0 < ys[m]
        table = oracles.dense_table(kernel_node_table(p, grid, plan))
        seam = slice(m - 10, m + 10)
        ref, scale = self._ref(p, -ys[seam], grid.times)
        assert np.all(np.abs(table[:, seam] - ref) <= self.TOL * scale)

    def test_zero_time_row_is_zero(self):
        for k in (-0.5, 0.4, 1.3):
            m, block = self._far(self._kappa(k, 0.3), self._nodes(0.3), self.T)
            assert m > 0 and block[0].tolist() == [0.0] * m

    def test_kappa_zero(self):
        # the second kind is then the indicator, whose block is zeros, and
        # the first kind e^-x expm1(-w)
        p = self._params(2.0 / 3.0, 1.5, 0.3)
        assert p.kappa == 0.0
        a = self._nodes(0.3)
        m, block = self._far(p, a, self.T)
        ref, scale = self._ref(p, a[:m], self.T)
        assert m > 0 and np.all(np.abs(block - ref) <= self.TOL * scale)

    @pytest.mark.parametrize("lam,t_max", [
        (1e-12, 1e-6), (1e-14, 1.0), (1e-3, 1e-12), (0.3, 1.0), (25.0, 40.0),
        (1e8, 1.0), (1e3, 1e3)])
    def test_coefficients_finite(self, lam, t_max):
        # the row coefficients, node powers and node prefactors are finite
        # for tiny and huge lam t_max, and so is every value
        t = np.linspace(0.0, t_max, 7)
        a = np.geomspace(1e4 * t_max + 50.0 / lam, 1e-3 * t_max, 300)
        for k in (-0.9, 0.4, 1.9):
            p = self._kappa(k, lam)
            assert all(np.isfinite(f).all() for f in kernels._far_kernel(p, a, t)), k
            m, block = self._far(p, a, t)
            assert m > 0 and np.isfinite(block).all(), k
            ref, scale = self._ref(p, a[:m], t)
            big = scale >= 1e-290
            assert np.all(np.abs(block - ref)[big] <= self.TOL * scale[big]), k

    def test_outside_series_domain_fills_nothing(self):
        # kappa >= 2, lam = 0 or no node far enough gives no far node
        a = self._nodes(0.3)
        assert self._far(self._kappa(2.0, 0.3), a, self.T)[0] == 0
        assert self._far(self._params(0.8, 1.5, 0.0), a, self.T)[0] == 0
        p = self._params(0.8, 1.5, 0.3)
        assert self._far(p, a[-5:], self.T)[0] == 0
        with pytest.raises(ValueError, match="t >= 0"):
            self._far(p, a, np.array([-0.5, 1.0]))


class TestFarKernelFirstKind(TestFarKernel):
    # the first kind's series; near its sign change a ~ kappa/lam the two
    # terms of g = phi(t - y) - phi(-y) cancel, so each value's term scale
    # is |g| + |expm1(-lam t)| phi(a)
    KIND = "I"
    TOL = 4e-15

    def _ref(self, p, a, t):
        ref, _ = super()._ref(p, a, t)
        phi = kernels._phi(p.kappa, p.lam, a)
        return ref, np.abs(ref) + np.abs(np.expm1(-p.lam * t))[:, None] * phi

    @pytest.mark.parametrize("H,alpha,lam,a", [
        (0.3, 1.5, 0.3, [40.0, 12.3, 10.0, 8.01, 8.0]),     # kappa < 0
        (1.9, 1.2, 2.0, [40.0, 12.3, 10.0, 8.01, 8.0]),     # kappa > 1
        # g changes sign at a = 13.1487 for t = 0.37 and 12.8395 for t = 1
        (0.8, 1.5, 0.01, [30.0, 13.1487, 13.0, 12.8395, 8.0]),
    ])
    def test_against_mpmath(self, H, alpha, lam, a):
        a = np.array(a)
        t = np.array([0.37, 1.0])
        p = self._params(H, alpha, lam)
        m, block = self._far(p, a, t)
        assert m == a.size
        _, scale = self._ref(p, a, t)
        for i, ti in enumerate(t.tolist()):
            for j, aj in enumerate(a.tolist()):
                ref = oracles.mp_kernel_g(H, alpha, lam, ti, -aj)
                assert abs(block[i, j] - ref) <= 4e-15 * scale[i, j], (ti, aj)


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("H,lam", [(0.8, 0.3), (0.5, 0.3), (0.8, 0.0), (0.8, 25.0)])
def test_kernel_takes_one_time_per_element(kind, H, lam):
    # kernel(p, t_array, y_array) equals the per-element calls bit for bit,
    # singular points and zero times included
    p = ProcessParams(H=H, alpha=1.5, lam=lam, kind=kind)
    t, y = (g.ravel() for g in np.meshgrid([0.0, 0.25, 1.0, 3.0],
                                           [-300.0, -9.0, -1.0, 0.0, 0.1, 0.25, 1.0, 2.0]))
    v = kernel(p, t, y)
    assert v.tolist() == [kernel(p, ti, yi) for ti, yi in zip(t.tolist(), y.tolist())]


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


@pytest.mark.parametrize("lam", [0.3, 0.0])
def test_left_tail_is_one_infinite_panel(monkeypatch, lam):
    # for every lambda, each integral over y of the kernel norms and the
    # codifferences starts with the one panel (-inf, -cutoff(lam))
    rows = []
    real = kernels._quad

    def spy(f, edges, *args, **kwargs):
        rows.extend([edges] if np.ndim(edges[0]) == 0 else edges)
        return real(f, edges, *args, **kwargs)

    monkeypatch.setattr(kernels, "_quad", spy)
    monkeypatch.setattr(dependence, "_quad", spy)
    p = ProcessParams(H=0.8, alpha=1.5, lam=lam)
    kernel_alpha_norm(p, np.array([1e-3, 1.0, 70.0]))
    if lam > 0.0:
        decay_diagnostic(p, [2, 3, 4], 1.0, 1.0)
    else:  # the decay theory needs lambda > 0; codifference is its one-lag case
        codifference(p, 3, 1.0, 1.0)
    assert len(rows) == (6 if lam > 0.0 else 4)
    cut = DEFAULT_QUAD.cutoff(lam)
    assert all(list(r[:2]) == [-math.inf, -cut] for r in rows), rows


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
    "bessel_k": (lambda x: sf.bessel_k(0.3, x), [1e-20, 1e-3, 0.4, 2.0, 30.0, 700.0],
                 [(lambda x: sf.bessel_k(0.3, x), 0.0),
                  (lambda x: sf.bessel_k(0.3, x), math.nan)]),
    "kernel_alpha_norm": (lambda t: kernel_alpha_norm(P_STABLE, t),
                          [0.0, 1e-3, 0.4, 1.0, 2.5, 7.0],
                          [(lambda t: kernel_alpha_norm(P_STABLE, t), -1.0)]),
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
        q = QuadratureConfig(rel_tol=1e-10)
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

    @pytest.mark.parametrize("q", [DEFAULT_QUAD, QuadratureConfig(rel_tol=1e-11)])
    def test_gaussian_norm_at_limit_scales(self, q):
        # the limits command's default scales at alpha = 2 (at its default
        # tolerance, DEFAULT_QUAD's, and a tighter one): kappa = 0.2 puts
        # kinks |y|^0.4 at y = 0 and y = t, which _quad extrapolates; the
        # norm is Gamma(H + 1/2)^2 C_b^2 (mpmath's 2F3 form)
        bs = [25.0, 50.0, 100.0, 200.0, 0.1, 0.01, 0.001]
        g2 = oracles.mp_gamma(1.2) ** 2
        for b, v in zip(bs, kernel_alpha_norm(P_HI, np.array(bs), q)):
            ref = g2 * float(oracles.mp_variance_tfbm2(0.7, 0.15, b))
            assert v == pytest.approx(ref, rel=1e-10), b

    @pytest.mark.parametrize("H", [0.3, 0.7, 1.3, 1.8699])
    @pytest.mark.parametrize("lt", [2.0 ** -14, 1e-3, 1.0])
    def test_gaussian_norm_keeps_its_digits_at_small_times(self, H, lt):
        # the norm shrinks like t^(2H), and each integral stops on rel_tol
        # alone: it is Gamma(H + 1/2)^2 C_t^2 within 1e-10 relative, and
        # within 1e-12 at H = lam = 1.8699, lam t = 2^-14, which was 7.8e-8
        # off when the norms stopped on an absolute floor
        lam = 1.8699
        p = ProcessParams(H=H, alpha=2.0, lam=lam, kind="II")
        v = kernel_alpha_norm(p, lt / lam)
        ref = sf.gamma_fn(H + 0.5) ** 2 * variance_tfbm2(H, lam, lt / lam)
        rel = 1e-12 if (H, lt) == (lam, 2.0 ** -14) else 1e-10
        assert v == pytest.approx(ref, rel=rel, abs=0.0)

    @pytest.mark.parametrize("H,alpha,lam,t", [(0.8, 1.5, 0.3, 1.0), (0.9, 1.2, 2.0, 0.01),
                                               (1.5, 1.8, 0.05, 30.0), (0.7, 1.9, 0.01, 1.0)])
    def test_sign_change_is_an_edge(self, H, alpha, lam, t):
        # the first kind's kernel changes sign once, from - to +, at
        # y0 = -t / expm1(lam t / kappa), a kink of |g|^alpha for alpha < 2:
        # y0 is a panel edge of the alpha-norm integral
        p = ProcessParams(H=H, alpha=alpha, lam=lam, kind="I")
        (y0,) = kernels._kinks(p, t)
        assert y0 == -t / math.expm1(lam * t / p.kappa)
        assert -DEFAULT_QUAD.cutoff(lam) < y0 < 0.0
        edges = kernels._norm_edges(p, t, DEFAULT_QUAD)
        assert y0 in edges and edges == sorted(set(edges))
        d = 1e-6 * abs(y0)
        assert kernel_g(p, t, y0 - d) < 0.0 < kernel_g(p, t, y0 + d)

    @pytest.mark.parametrize("p,t", [
        (ProcessParams(H=0.8, alpha=2.0, lam=0.3, kind="I"), 1.0),   # |g|^2 smooth
        (ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II"), 1.0),  # h > 0
        (ProcessParams(H=0.6, alpha=1.5, lam=0.3, kind="I"), 1.0),   # kappa < 0
        (ProcessParams(H=0.8, alpha=1.5, lam=0.0, kind="I"), 1.0),   # untempered
        (ProcessParams(H=0.8, alpha=1.5, lam=1.0, kind="I"), 200.0),  # expm1 overflows
    ])
    def test_no_kink_edge(self, p, t):
        # no sign change, or no kink, or a root within t e^-700 of 0: the
        # edges are the graded ones alone
        assert kernels._kinks(p, t) == []
        graded = {-math.inf, -DEFAULT_QUAD.cutoff(p.lam), 0.0, t, -t, -10 * t, -100 * t}
        assert set(kernels._norm_edges(p, t, DEFAULT_QUAD)) <= graded


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
        # the map takes one infinite end: a panel with two is refused
        with pytest.raises(ValueError, match="at most one infinite edge"):
            _quad(lambda x, rows: np.exp(-x * x), (-math.inf, math.inf))

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

    @pytest.mark.parametrize("p,edges", [(-0.5, (1.0, math.inf)), (-0.9, (1.0, math.inf)),
                                         (-1.2, (0.0, 1.0))])
    def test_divergent_integral_raises(self, p, edges):
        # the sweep totals of a divergent integral grow without bound, and
        # their epsilon extrapolation is finite and of the other sign (-2,
        # -10 and -5 here): QAGS's divergence test refuses it, and the
        # integral ends over budget
        with pytest.raises(QuadratureError):
            _quad(lambda x, rows: x ** p, edges)

    def test_divergence_test_keeps_convergent_singular_integrals(self, sweeps):
        # integrable x^p on (0, 1) still extrapolates, however slow its
        # decay; so does a sign-changing integrand whose value, 1e-6, is far
        # below the integral of its absolute value (dqagse's ksgn case): its
        # plain totals, still far from 1e-6, fail the factor-100 test, and
        # without that exception it would take 29 sweeps.  Its rel_tol of
        # 1e-5 is a budget of 2.5e-12; the default's, 2.5e-16, is below the
        # least error qk15 reports, 50 eps times the integral of |f| (2.9)
        assert _quad(lambda x, rows: x ** -0.9, (0.0, 1.0))[0] == pytest.approx(10.0, rel=1e-9)
        assert _quad(lambda x, rows: x ** -0.999, (0.0, 1.0))[0] == pytest.approx(
            1000.0, rel=1e-8)
        sweeps.clear()
        v, _ = _quad(lambda x, rows: x ** -0.5 * (2.0 + np.log(x)) + 1e-6, (0.0, 1.0),
                     QuadratureConfig(rel_tol=1e-5))
        assert v == pytest.approx(1e-6, abs=1e-11) and len(sweeps) <= 16

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
    def test_endpoint_singular_integrals_extrapolate(self, case, parent, sweeps,
                                                     monkeypatch):
        # integrable endpoint singularities: |kernel|^alpha at y = 0 and
        # y = t for kappa < 0, and the Matern integrand w^(2H - 2) at w = 0
        # for H near 1/2.  Bisection alone would halve the singular panel
        # once per sweep for about 50 sweeps (300 for Matern); the epsilon
        # extrapolation finishes in a few sweeps without SciPy.  The
        # reference values are those of the per-panel SciPy quadrature that
        # served every integral before the batched rule.
        calls = []
        monkeypatch.setattr(integrate, "quad", lambda *a, **k: calls.append(a))
        if case == "matern":  # C_1^2 = c int_0^1 2 (1 - w) M(w) dw at H = 0.55
            m, c = gaussian._matern(0.55, 0.5)
            v = c * _quad(lambda w, rows: 2.0 * (1.0 - w) * m(w), [0.0, 1.0])[0]
        else:
            p = ProcessParams(H=0.3, alpha=1.5, lam=0.4, kind=case[0])
            v = kernel_alpha_norm(p, case[1])
        assert v == pytest.approx(parent, rel=1e-9)
        assert len(sweeps) <= 16 and not calls

    @pytest.mark.parametrize("s", [0.1, 0.133, 0.3])
    @pytest.mark.parametrize("edges,value", [((0.0, 1.0), 1.0), ((-1.0, 0.0, 1.0), 2.0)],
                             ids=["one_side", "both_sides"])
    def test_edge_kinks_extrapolate(self, s, edges, value, sweeps):
        # |x|^s with s > 0 has a kink at the edge 0: each sweep halves the
        # panel there, whose error falls only by 2^-(1+s) (0.46 at
        # s = 0.133), so the summed error never halves per sweep.  The
        # integral extrapolates once its panels below the deepest level are
        # within budget: 8 sweeps, where bisection alone takes 24-27
        v, _ = _quad(lambda x, rows: np.abs(x) ** s, edges)
        assert v == pytest.approx(value / (1.0 + s), rel=0.0, abs=1e-12)
        assert len(sweeps) <= 12

    def test_decay_sweeps(self, sweeps):
        # decay --kind II as the benchmark runs it: the kernels' |y|^kappa
        # kinks at the edges 0 and 1 (kappa = 0.133) extrapolate, and the
        # graded edges -100, -10, -1 spare the halving of one (-cutoff, 0)
        # panel down to scale 1: 9 sweeps (14 on that one panel, 30 while
        # the summed error had to stop halving per sweep first)
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")
        decay_diagnostic(p, range(2, 61), 1.0, 1.0, QuadratureConfig(rel_tol=1e-8))
        assert len(sweeps) <= 11

    def test_first_kind_decay_sweeps(self, sweeps):
        # decay --kind I as the benchmark runs it, on the graded edges and
        # the |.|^alpha kinks where its kernels change sign: 22 sweeps (23
        # with those kinks inside panels, 27 with one (-cutoff, 0) panel too)
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")
        decay_diagnostic(p, range(2, 61), 1.0, 1.0, QuadratureConfig(rel_tol=1e-8))
        assert len(sweeps) <= 24

    def test_first_kind_norm_sweeps(self, sweeps):
        # the kink of |g|^alpha at the first kind's sign change is an edge:
        # the norms at five times from 0.01 to 50 take 11 sweeps (15 with
        # the kink inside a panel)
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")
        kernel_alpha_norm(p, np.array([0.01, 0.1, 1.0, 10.0, 50.0]))
        assert len(sweeps) <= 13

    def test_limits_sweeps(self, sweeps, tmp_path):
        # the limits command at the benchmark's settings: 37 sweeps over
        # its three batches (69 before the level test)
        argv = ["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15"]
        assert cli.main(argv + ["--out", str(tmp_path / "limits.csv")]) == 0
        assert len(sweeps) <= 40

    @pytest.mark.parametrize("edges", [(0.0, 0.005, 1.0, 2.0), (0.0, 1.0, 2.0)])
    def test_singular_panel_beside_a_steep_one(self, edges):
        # tfgn2_acvf's lag-1 triangle at H = 0.05, lam = 200: w M(w) ~ w^-0.9
        # at w = 0, beside a panel where e^(-lam w) falls steeply.  The part
        # beyond w = 1 is of order e^-200, so the value is
        # int_0^inf w M(w) dw = 2^(H-1) lam^(-H-1) Gamma(H).  The weight is
        # min(w, 2 - w): as 1 - |w - 1| it has no correct digit at the
        # deepest nodes (w ~ 1e-11), and no rule converged on (0, 0.005, 1, 2)
        H, lam = 0.05, 200.0
        m, _ = gaussian._matern(H, lam)
        v, _ = _quad(lambda w, rows: np.minimum(w, 2.0 - w) * m(w), edges)
        ref = 2.0 ** (H - 1.0) * lam ** (-H - 1.0) * oracles.mp_gamma(H)
        assert v == pytest.approx(ref, rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=QuadratureError,
                       reason="the nodes next to y = t leave t - y few digits")
    def test_norm_of_a_strongly_singular_kernel(self):
        # kind II, alpha kappa = -0.875: |h|^2 ~ |t - y|^-0.875 at y = t
        # (and at y = 0).  A node y a distance 1e-13 left of t = 1 holds
        # t - y to about 1e-3 relative, and the extrapolation's error
        # estimates stall between 1.5e-8 and 4e-7, over the budget of
        # 3.6e-9; the error estimate ends at 0.19 on a value of 14.4
        p = ProcessParams(H=0.0625, alpha=2.0, lam=1.0, kind="II")
        ref = oracles.mp_gamma(0.5625) ** 2 * float(oracles.mp_variance_tfbm2(0.0625, 1.0, 1.0))
        assert kernel_alpha_norm(p, 1.0) == pytest.approx(ref, rel=1e-9)

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
        assert list(inspect.signature(_quad).parameters) == ["f", "edges", "q"]
        for mod in (sf, kernels):
            src = Path(mod.__file__).read_text()
            assert not re.search(r"def _\w*_array\(", src), mod.__name__
            assert "kernel_row" not in src, mod.__name__


def _package_statements():
    """(module, top-level statement, the names it mentions) for every
    top-level statement of the package's modules but __init__."""
    stmts = []
    for f in Path(kernels.__file__).parent.glob("*.py"):
        if f.stem != "__init__":
            for node in ast.parse(f.read_text()).body:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                stmts.append((f.stem, node, names))
    return stmts


# exported names that no package code calls: the paper's quantities and
# limit checks, and the validated entry to the CMS transform
UNCALLED_EXPORTS = {"sample_stable", "variance_fbm_limit", "tfgn2_acvf",
                    "codifference", "global_limit_check", "local_limit_check"}


def test_every_public_name_has_a_caller():
    # no dead public code: each public function and class of the package is
    # named by package code outside its own definition (in any module) or
    # is a pyproject.toml console script, but for UNCALLED_EXPORTS, exactly
    # the exported names the scan finds without a caller: a new public name
    # that nothing calls, or a caller for one of them, needs an edit there.
    # A special function must be called from another module, directly or
    # through a specfun function that is, even when it is exported
    project = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = set(re.findall(r'"(tfmotion\.\w+):(\w+)"', project))
    stmts = _package_statements()
    uncalled = {node.name for mod, node, _ in stmts
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and (f"tfmotion.{mod}", node.name) not in scripts
                and not any(node.name in names for _, other, names in stmts
                            if other is not node)}
    assert uncalled == UNCALLED_EXPORTS
    assert UNCALLED_EXPORTS <= set(tfmotion.__all__)
    special = {node.name: names for mod, node, names in stmts if mod == "specfun"
               and isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    reached = {name for name in special
               if any(name in names for mod, _, names in stmts if mod != "specfun")}
    while True:  # and what a reached special function calls
        more = {name for name in special if any(name in special[r] for r in reached)}
        if more <= reached:
            break
        reached |= more
    assert reached == special.keys(), sorted(special.keys() - reached)


def test_every_private_name_has_a_caller():
    # no dead private code: each private top-level function, class and
    # assigned constant of a module is named by another top-level statement
    # of the package (tests do not count)
    stmts = _package_statements()
    unused = []
    for mod, node, _ in stmts:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = {n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name)}
        else:
            continue
        unused += [f"{mod}.{name}" for name in sorted(defined)
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in names for _, other, names in stmts
                               if other is not node)]
    assert not unused


def test_one_quadrature_helper():
    # _quad is the package's one quadrature entry point: no module but
    # kernels names its rule (_qk15), its adaptive loop (_kronrod) or its
    # extrapolation (_epsilon), in code or in an import
    inner = {"_kronrod", "_qk15", "_epsilon"}
    named = {}
    for f in Path(kernels.__file__).parent.glob("*.py"):
        if f.stem != "kernels":
            tree = ast.parse(f.read_text())
            names = {n.id if isinstance(n, ast.Name) else
                     n.attr if isinstance(n, ast.Attribute) else n.name
                     for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            named[f.stem] = sorted(inner & names)
    assert named and not any(named.values()), named


def test_one_covariance_evaluator():
    # C_t^2 enters the package's covariances through covariance_tfbm2 and the
    # circulant embedding's row alone: no other top-level statement of any
    # module names variance_tfbm2, in code or in an import
    named = set()
    for f in Path(kernels.__file__).parent.glob("*.py"):
        for node in ast.parse(f.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else
                     n.attr if isinstance(n, ast.Attribute) else n.name
                     for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            if "variance_tfbm2" in names:
                named.add(getattr(node, "name", f.stem))
    assert named == {"covariance_tfbm2", "_circulant_eigenvalues", "__init__"}


def test_one_lattice_sum():
    # both spectral densities are one lattice sum: only _spectral_density
    # names the tail (_lattice_tail_zeta), and only that tail names
    # hurwitz_zeta outside specfun, in code or in an import
    named = {"_lattice_tail_zeta": set(), "hurwitz_zeta": set()}
    for f in Path(kernels.__file__).parent.glob("*.py"):
        for node in ast.parse(f.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else
                     n.attr if isinstance(n, ast.Attribute) else n.name
                     for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            for target in named.keys() & names:
                if not (target == "hurwitz_zeta" and f.stem == "specfun"):
                    named[target].add(f"{f.stem}.{getattr(node, 'name', '')}")
    assert named == {"_lattice_tail_zeta": {"gaussian._spectral_density"},
                     "hurwitz_zeta": {"gaussian._lattice_tail_zeta"}}


def test_one_kernel_table():
    # both kinds' stable kernel tables are one algorithm: kernel_node_table
    # names no kind, neither an attribute .kind nor the string "I" or "II"
    tree = ast.parse((Path(kernels.__file__).parent / "stable.py").read_text())
    table = next(n for n in tree.body if getattr(n, "name", "") == "kernel_node_table")
    kinds = [n for n in ast.walk(table)
             if isinstance(n, ast.Attribute) and n.attr == "kind"
             or isinstance(n, ast.Constant) and n.value in ("I", "II")]
    assert not kinds
