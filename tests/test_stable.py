import math

import numpy as np
import pytest
from scipy import integrate

from tfmotion.dependence import global_limit_constant
from tfmotion.errors import PlanError
from tfmotion.gaussian import SampleGrid
from tfmotion.kernels import ProcessParams, kernel_alpha_norm, kernel_h
from tfmotion.rng import philox_generator
from tfmotion.stable import (DiscretizationPlan, kernel_node_table,
                             path_increments, sample_stable,
                             simulate_tfsm_paths)

import oracles

P15 = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")


def _uniforms(n, seed=0):
    u = philox_generator(seed, 0).random((n, 2))
    u[u == 0.0] = 0.5 ** 53
    return u[:, 0], u[:, 1]


class TestSampleStable:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_stable(1.0, 0.0, 1.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            sample_stable(1.5, 2.0, 1.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            sample_stable(1.5, 0.0, 0.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            sample_stable(1.5, 0.0, 1.0, (0.0, 0.5))

    def test_deterministic_transform(self):
        assert sample_stable(1.5, 0.3, 2.0, (0.4, 0.7)) == sample_stable(
            1.5, 0.3, 2.0, (0.4, 0.7))

    def test_gaussian_case_variance(self):
        n = 1_000_000
        u1, u2 = _uniforms(n, seed=11)
        x = sample_stable(2.0, 0.0, 1.0, (u1, u2))
        se = 2.0 * math.sqrt(2.0 / n)
        assert abs(float(x.var()) - 2.0) <= 5.0 * se

    def test_symmetric_median(self):
        n = 1_000_000
        u1, u2 = _uniforms(n, seed=12)
        x = sample_stable(1.5, 0.0, 1.0, (u1, u2))
        # density at the median of S_1.5(1,0,0) is ~0.28; 4 sigma band
        assert abs(float(np.median(x))) <= 4.0 / (2.0 * 0.28 * math.sqrt(n))

    def test_empirical_char_fn(self):
        n = 1_000_000
        u1, u2 = _uniforms(n, seed=13)
        x = sample_stable(1.5, 0.0, 1.0, (u1, u2))
        for th in (0.5, 1.0, 2.0):
            emp = complex(np.mean(np.exp(1j * th * x)))
            tgt = math.exp(-abs(th) ** 1.5)
            assert abs(emp - tgt) <= 4.0 / math.sqrt(n), th

    def test_skewed_char_fn(self):
        n = 1_000_000
        u1, u2 = _uniforms(n, seed=14)
        x = sample_stable(1.5, 0.7, 1.0, (u1, u2))
        for th in (0.5, 1.0):
            emp = complex(np.mean(np.exp(1j * th * x)))
            tgt = np.exp(-abs(th) ** 1.5
                         * (1.0 - 1j * 0.7 * math.tan(0.75 * math.pi)))
            assert abs(emp - tgt) <= 4.0 / math.sqrt(n), th


class TestIntegralCharFn:
    """oracles.plan_char_fn of a kernel on plan nodes against its limit."""

    def test_indicator_kernel_levy_marginal(self):
        p = ProcessParams(H=2.0 / 3.0, alpha=1.5, lam=0.4, kind="II")
        grid = SampleGrid(np.array([1.0]))
        plan = DiscretizationPlan.for_grid(grid, p, dy=1.0 / 512)
        f = kernel_h(p, 1.0, plan.nodes())
        for th in (0.5, 1.0, 2.0):
            v = oracles.plan_char_fn(f, plan.dy, p, th)
            assert abs(v) == pytest.approx(math.exp(-abs(th) ** 1.5 * 1.0),
                                           rel=1e-2), th

    def test_against_kernel_norm(self):
        grid = SampleGrid(np.array([1.0]))
        plan = DiscretizationPlan.for_grid(grid, P15, dy=1.0 / 256)
        f = kernel_h(P15, 1.0, plan.nodes())
        v = oracles.plan_char_fn(f, plan.dy, P15, 1.0)
        tgt = math.exp(-kernel_alpha_norm(P15, 1.0))
        assert abs(v - tgt) < 5e-4
        assert abs(v.imag) == 0.0  # beta = 0 gives a real value


class TestC0Scale:
    """First kind: global_limit_constant / 2 is the drift integrand's norm."""

    def test_closed_form_levy_point(self):
        p = ProcessParams(H=0.5, alpha=2.0, lam=1.0, kind="I")
        assert global_limit_constant(p) / 2.0 == pytest.approx(0.5, rel=1e-14)

    def test_quadrature(self):
        p = ProcessParams(H=0.75, alpha=1.5, lam=0.4, kind="I")
        f = lambda y: y ** (p.alpha * p.H - 1.0) * math.exp(-p.alpha * p.lam * y)
        ref = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
        assert global_limit_constant(p) / 2.0 == pytest.approx(ref, rel=1e-10)

    def test_requires_tempering(self):
        with pytest.raises(ValueError):
            global_limit_constant(ProcessParams(H=0.5, alpha=1.5, lam=0.0, kind="I"))


class TestSimulate:
    def test_reproducible(self):
        grid = SampleGrid(np.linspace(0.0, 1.0, 5))
        plan = DiscretizationPlan.for_grid(grid, P15, dy=0.05, cutoff=30.0)
        a = simulate_tfsm_paths(P15, grid, plan, 4, seed=5)
        b = simulate_tfsm_paths(P15, grid, plan, 4, seed=5, n_workers=3)
        assert np.array_equal(a.paths, b.paths)
        assert np.all(a.paths[:, 0] == 0.0)  # kernel vanishes at t = 0

    def test_alpha_two_rejected(self):
        grid = SampleGrid(np.array([1.0]))
        p = ProcessParams(H=0.7, alpha=2.0, lam=0.3)
        plan = DiscretizationPlan(y_min=-40.0, dy=0.05, n_nodes=900)
        with pytest.raises(ValueError):
            simulate_tfsm_paths(p, grid, plan, 1, seed=0)

    def test_plan_coverage_enforced(self):
        grid = SampleGrid(np.array([2.0]))
        plan = DiscretizationPlan(y_min=-5.0, dy=0.1, n_nodes=30)  # ends at -2
        with pytest.raises(PlanError):
            simulate_tfsm_paths(P15, grid, plan, 1, seed=0)

    def test_levy_case_independent_increments(self):
        p = ProcessParams(H=2.0 / 3.0, alpha=1.5, lam=0.4, kind="II")
        grid = SampleGrid(np.array([1.0, 2.0, 3.0]))
        plan = DiscretizationPlan.for_grid(grid, p, dy=1.0 / 64, cutoff=30.0)
        n = 4000
        ens = simulate_tfsm_paths(p, grid, plan, n, seed=21)
        inc1 = np.abs(ens.paths[:, 1] - ens.paths[:, 0])
        inc2 = np.abs(ens.paths[:, 2] - ens.paths[:, 1])
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)

    def test_marginal_char_fn_against_target(self):
        grid = SampleGrid(np.array([1.0]))
        plan = DiscretizationPlan.for_grid(grid, P15, dy=1.0 / 64)
        n = 4000
        ens = simulate_tfsm_paths(P15, grid, plan, n, seed=9)
        f = kernel_h(P15, 1.0, plan.nodes())
        for th in (0.5, 1.0):
            emp = complex(np.mean(np.exp(1j * th * ens.paths[:, 0])))
            tgt = oracles.plan_char_fn(f, plan.dy, P15, th)
            assert abs(emp - tgt) <= 5.0 / math.sqrt(n), th

    def test_refinement_shrinks_allowance(self):
        grid = SampleGrid(np.array([1.0]))
        exact = math.exp(-kernel_alpha_norm(P15, 1.0))
        allowances = []
        for dy in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            plan = DiscretizationPlan.for_grid(grid, P15, dy=dy)
            f = kernel_h(P15, 1.0, plan.nodes())
            disc = oracles.plan_char_fn(f, plan.dy, P15, 1.0)
            allowances.append(abs(disc - exact))
        assert allowances[0] > allowances[1] > allowances[2]

    @pytest.mark.parametrize("H,alpha,lam", [(0.8, 1.5, 0.3), (0.75, 1.7, 0.5),
                                             (0.6, 1.4, 0.8)])
    def test_kind_coupling_identity(self, H, alpha, lam):
        # common noise: Z_II - Z_I = lam (int_0^t Z_I ds + t C0), checked at
        # t = 1 with the path integral done by trapezoid on the time grid;
        # the third parameter set has H < 1/alpha (singular kernel)
        pII = ProcessParams(H=H, alpha=alpha, lam=lam, kind="II")
        pI = ProcessParams(H=H, alpha=alpha, lam=lam, kind="I")
        grid = SampleGrid(np.linspace(0.0, 1.0, 65))
        plan = DiscretizationPlan.for_grid(grid, pII, dy=1.0 / 64, cutoff=60.0)
        eII = simulate_tfsm_paths(pII, grid, plan, 3, seed=5)
        eI = simulate_tfsm_paths(pI, grid, plan, 3, seed=5)
        ys = plan.nodes()
        drift = np.array([oracles.plus_pow(-y, pII.kappa) * math.exp(-pII.lam * max(-y, 0.0))
                          for y in ys])
        for i in range(3):
            dm = path_increments(pII, plan, 5, i)
            c0 = float(drift @ dm)
            lhs = eII.paths[i, -1] - eI.paths[i, -1]
            rhs = pII.lam * (np.trapezoid(eI.paths[i], grid.times) + 1.0 * c0)
            assert abs(lhs - rhs) < 1e-2, i

    def test_large_time_first_kind_limit_char_fn(self):
        # at large b the first-kind marginal approaches the difference of two
        # independent copies of the drift variable; for beta = 0 that limit
        # has char fn exp(-|theta|^alpha global_limit_constant).  The
        # finite-b allowance is the explicit norm gap, the MC part gets its
        # 5/sqrt(N).
        pI = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")
        b = 30.0
        grid = SampleGrid(np.array([b]))
        plan = DiscretizationPlan.for_grid(grid, pI, dy=1.0 / 16, cutoff=40.0)
        n = 4000
        ens = simulate_tfsm_paths(pI, grid, plan, n, seed=17)
        norm_b = kernel_alpha_norm(pI, b)
        limit = global_limit_constant(pI)
        for th in (0.1, 0.2):
            emp = complex(np.mean(np.exp(1j * th * ens.paths[:, 0])))
            tgt = math.exp(-abs(th) ** 1.5 * limit)
            allowance = abs(math.exp(-abs(th) ** 1.5 * norm_b) - tgt)
            assert abs(emp - tgt) <= 5.0 / math.sqrt(n) + allowance + 5e-3, th

    def test_hill_estimator_band(self):
        # tail-index sanity for alpha = 1.5 marginals
        grid = SampleGrid(np.array([1.0]))
        plan = DiscretizationPlan.for_grid(grid, P15, dy=1.0 / 8, cutoff=40.0)
        n = 100_000
        ens = simulate_tfsm_paths(P15, grid, plan, n, seed=31)
        z = np.sort(np.abs(ens.paths[:, 0]))[::-1]
        k = 2000
        hill = 1.0 / (np.mean(np.log(z[:k])) - math.log(z[k]))
        assert 1.3 <= hill <= 1.7


class TestPlan:
    @pytest.mark.parametrize("dy", [0.0, -0.1, math.nan])
    def test_for_grid_rejects_nonpositive_dy(self, dy):
        grid = SampleGrid.regular(1.0, 5)
        with pytest.raises(ValueError):
            DiscretizationPlan.for_grid(grid, P15, dy)


class TestNodeTable:
    def test_singular_node_rejected(self):
        p = ProcessParams(H=0.3, alpha=2.0, lam=0.4, kind="II")
        grid = SampleGrid(np.array([1.0]))
        # midpoints land exactly on y = 0 and y = t
        plan = DiscretizationPlan(y_min=-10.25, dy=0.5, n_nodes=23)
        assert 0.0 in plan.nodes() and 1.0 in plan.nodes()
        with pytest.raises(PlanError):
            kernel_node_table(p, grid, plan)

    def test_singular_node_rejected_first_kind(self):
        p = ProcessParams(H=0.3, alpha=2.0, lam=0.4, kind="I")
        grid = SampleGrid(np.array([1.0]))
        plan = DiscretizationPlan(y_min=-10.25, dy=0.5, n_nodes=23)
        with pytest.raises(PlanError):
            kernel_node_table(p, grid, plan)

    def test_negative_time_rejected(self):
        grid = SampleGrid(np.array([-0.5, 1.0]))
        plan = DiscretizationPlan.for_grid(grid, P15, dy=0.05, cutoff=5.0)
        with pytest.raises(ValueError):
            kernel_node_table(P15, grid, plan)

    @pytest.mark.parametrize("kind,H,lam", [
        ("II", 0.8, 0.3), ("I", 0.8, 0.3),        # kappa > 0
        ("II", 0.5, 0.3), ("I", 0.5, 0.3),        # kappa < 0
        ("II", 2.0 / 3.0, 0.3),                   # kappa = 0: indicator
        ("II", 0.8, 0.0), ("I", 0.5, 0.0),        # untempered
        ("II", 0.8, 25.0), ("II", 0.5, 25.0), ("I", 0.8, 25.0),
    ])
    @pytest.mark.parametrize("grid_kind", ["aligned", "readme"])
    def test_matches_scalar_kernel(self, kind, H, lam, grid_kind):
        # aligned: grid step 5 dy, full default left cutoff; readme: step 1/64,
        # not a multiple of dy, with a shorter cutoff (1/3 keeps every
        # midpoint off 0 and the grid times).  Rows at four times against the
        # extended-precision kernels on a fixed subsample of nodes: evenly
        # spread, plus the four nodes nearest y = 0 and the four nearest y = t.
        p = ProcessParams(H=H, alpha=1.5, lam=lam, kind=kind)
        if grid_kind == "aligned":
            grid = SampleGrid.regular(1.0, 11)
            plan = DiscretizationPlan.for_grid(grid, p, dy=0.02)
        else:
            grid = SampleGrid.regular(1.0, 65)
            plan = DiscretizationPlan.for_grid(grid, p, dy=0.02,
                                               cutoff=20.0 + 1.0 / 3.0)
        table = kernel_node_table(p, grid, plan)
        ys = plan.nodes()
        mp_kernel = oracles.mp_kernel_g if kind == "I" else oracles.mp_kernel_h
        for i in (0, 1, grid.n // 2, grid.n - 1):
            t = float(grid.times[i])
            cols = np.unique(np.concatenate([
                np.linspace(0, ys.size - 1, 16).astype(int),
                np.argsort(np.abs(ys))[:4], np.argsort(np.abs(ys - t))[:4]]))
            ref = np.array([mp_kernel(H, 1.5, lam, t, float(ys[j])) for j in cols])
            diff = np.abs(table[i, cols] - ref)
            assert np.all((diff <= 1e-15) | (diff <= 1e-12 * np.abs(ref))), t
