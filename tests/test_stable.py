import ast
import inspect
import math
import re
import textwrap
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from tfmotion.dependence import global_limit_constant
from tfmotion.errors import PlanError
from tfmotion.gaussian import SampleGrid
from tfmotion.kernels import ProcessParams, kernel, kernel_alpha_norm, kernel_h
from tfmotion import kernels, stable
from tfmotion.rng import philox_streams
from tfmotion.stable import (DiscretizationPlan, kernel_node_table,
                             path_increments, sample_stable,
                             simulate_tfsm_paths)

import oracles

P15 = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")


def _uniforms(n, seed=0):
    u = next(philox_streams(seed, [0])).random((n, 2))
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


class TestDraw:
    """The sampler's draw: uniforms from raw Philox words (stable._uniforms)
    and the in-place CMS transform (stable._cms), each bitwise the NumPy
    expression it replaces."""

    ALPHAS = (1.01, 1.5, 1.9, 2.0)
    BETAS = (-1.0, 0.0, 0.7, 1.0)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (4, 3), (2 ** 64 - 1, 2 ** 40)])
    @pytest.mark.parametrize("n", [1, 2, 7, 4096])
    @pytest.mark.parametrize("first", [0, 2, 100])
    def test_uniforms_are_the_generator_doubles(self, seed, stream, n, first):
        # NumPy makes a Philox double of one word as (word >> 11) 2^-53, so
        # 2n raw words are, bit for bit, Generator.random((n, 2)) transposed,
        # after the same advance
        raw, ref = (next(philox_streams(seed, [stream])) for _ in range(2))
        for g in (raw, ref):
            g.bit_generator.advance(first // 2)
        u = stable._uniforms(raw.bit_generator.random_raw(2 * n))
        want = ref.random((n, 2)).T
        want[want == 0.0] = 0.5 ** 53
        assert u.shape == (2, n) and u.flags.c_contiguous
        assert u.tobytes() == np.ascontiguousarray(want).tobytes()
        # both generators stand at the same word afterwards
        assert raw.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_smallest_words_map_to_two_to_the_minus_53(self):
        # words below 2^11 would give the uniform 0, which the CMS transform
        # cannot take: they become 2^-53, as the generator's next word does
        words = np.array([0, 2 ** 11 - 1, 2 ** 11, 2 ** 12, 2 ** 64 - 1, 2 ** 63],
                         dtype=np.uint64)
        u = stable._uniforms(words)
        tiny = 0.5 ** 53
        # node k takes words 2k and 2k + 1
        assert u.tolist() == [[tiny, tiny, 1.0 - tiny], [tiny, 2.0 * tiny, 0.5]]

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_cms_is_the_expression_bit_for_bit(self, alpha, beta):
        ends = [2.0 ** -53, 1e-10, 0.5, 1.0 - 1e-10, 1.0 - 2.0 ** -53]
        pts = np.concatenate([ends, next(philox_streams(21, [0])).random(40)])
        u1, u2 = (g.ravel() for g in np.meshgrid(pts, pts, indexing="ij"))
        want = oracles.expression_cms(alpha, beta, u1, u2)
        assert stable._cms(alpha, beta, u1, u2).tobytes() == want.tobytes()
        out = np.empty(u1.size)
        got = stable._cms(alpha, beta, u1, u2, 0.37, out)
        assert got is out and out.tobytes() == (0.37 * want).tobytes()
        assert sample_stable(alpha, beta, 0.37, (u1, u2)).tobytes() == out.tobytes()

    @pytest.mark.parametrize("alpha,beta", [(1.1, -0.5), (1.5, 0.3), (1.9, 1.0)])
    @pytest.mark.parametrize("first", [0, 2, 100])
    def test_path_increments_are_the_expression_of_generator_doubles(
            self, alpha, beta, first):
        # the whole draw against the generator's doubles through the
        # expression, scaled by the cell scale sigma dy^(1/alpha)
        p = ProcessParams(H=0.8, alpha=alpha, lam=0.3, sigma=1.7, beta=beta)
        plan = DiscretizationPlan(y_min=-10.0, dy=0.01, n_nodes=1010)
        ref = next(philox_streams(9, [5]))
        ref.bit_generator.advance(first // 2)
        u = ref.random((plan.n_nodes - first, 2))
        u[u == 0.0] = 0.5 ** 53
        want = (p.sigma * plan.dy ** (1.0 / alpha)
                * oracles.expression_cms(alpha, beta, u[:, 0], u[:, 1]))
        got = path_increments(p, plan, next(philox_streams(9, [5])), first)
        assert got.tobytes() == want.tobytes()
        out = np.empty(plan.n_nodes - first)
        assert path_increments(p, plan, next(philox_streams(9, [5])), first, out) is out
        assert out.tobytes() == want.tobytes()

    def test_sample_stable_shapes(self):
        # scalars give a float, arrays their shape, through 1-D _cms calls
        x = sample_stable(1.5, 0.3, 2.0, (0.4, 0.7))
        assert isinstance(x, float)
        u1 = np.array([[0.1, 0.4, 0.9], [0.2, 0.5, 0.6]])
        y = sample_stable(1.5, 0.3, 2.0, (u1, 0.7))
        assert y.shape == (2, 3) and y[0, 1] == x


class TestCmsAccuracy:
    """sample_stable against mp_cms at 40 digits, over uniforms at both ends
    of (0, 1) (2^-53 up to 1e-3 and their mirror images), 1/2 and Philox
    points, for skews up to the totally skewed beta = +-1."""

    ENDS = (2.0 ** -53, 2.0 ** -40, 1e-10, 1e-6, 1e-3)

    @staticmethod
    def _rel_err(x, ref):
        return np.array([0.0 if r == 0 and xi == 0 else
                         float(abs(mpmath.mpf(xi) - r) / abs(r)) if r != 0 else math.inf
                         for xi, r in zip(x.tolist(), ref)])

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("beta", [0.0, 0.7, -0.7, 0.99, -0.99, 1.0, -1.0])
    def test_against_mpmath(self, alpha, beta):
        pts = [*self.ENDS, 0.5, *(1.0 - e for e in self.ENDS),
               *next(philox_streams(19, [0])).random(5).tolist()]
        u1, u2 = (g.ravel() for g in np.meshgrid(pts, pts, indexing="ij"))
        ref = [oracles.mp_cms(alpha, beta, a, b) for a, b in zip(u1.tolist(), u2.tolist())]
        err = self._rel_err(sample_stable(alpha, beta, 1.0, (u1, u2)), ref)
        # never worse than the formula evaluated term by term, nor than 1e-13
        base = self._rel_err(oracles.float_cms(alpha, beta, u1, u2), ref)
        worst = int(np.argmax(err - np.maximum(base, 1e-13)))
        assert np.all(err <= np.maximum(base, 1e-13)), (u1[worst], u2[worst], err[worst])
        if beta == 0.0:
            assert err.max() <= 1e-13


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
        b = simulate_tfsm_paths(P15, grid, plan, 4, seed=5)
        c = simulate_tfsm_paths(P15, grid, plan, 4, seed=5, n_workers=3)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.paths, c.paths)  # n_workers is ignored
        assert np.all(a.paths[:, 0] == 0.0)  # kernel vanishes at t = 0

    def test_blocks_are_one_product_of_path_increments(self):
        # 4,100 plan nodes: blocks of 31 paths, so 40 paths make a full block
        # and a partial one; each block's paths are bitwise the factored
        # product of that block's path_increments rows, from the table's
        # first kept node on, with the kernel table's kept factors, and
        # within rounding of the product with its dense form
        grid = SampleGrid.regular(1.0, 9)
        plan = DiscretizationPlan.for_grid(grid, P15, dy=0.01, cutoff=40.0)
        rows = stable._BLOCK_VALUES // plan.n_nodes
        n = 40
        assert rows < n < 2 * rows
        ens = simulate_tfsm_paths(P15, grid, plan, n, seed=7)
        table = kernel_node_table(P15, grid, plan)
        f, m = table.first, table.scale.size
        assert 0 < m < plan.n_nodes
        dm = np.array([path_increments(P15, plan, rng)
                       for rng in philox_streams(7, range(n))])
        kept = np.array([path_increments(P15, plan, rng, f)
                         for rng in philox_streams(7, range(n))])
        for i0 in (0, rows):
            d = kept[i0:i0 + rows]
            paths = (d[:, m - f:] @ table.near.T
                     + ((d[:, :m - f] * table.scale[f:]) @ table.powers[:, f:].T)
                     @ table.coef.T)
            assert np.array_equal(ens.paths[i0:i0 + rows], paths)
        dense = oracles.dense_table(table)
        bound = 1e-13 * (np.abs(dm) @ np.abs(dense).T)
        assert np.all(np.abs(ens.paths - dm @ dense.T) <= bound)

    @pytest.mark.parametrize("kind,H,alpha,lam,t,far", [
        ("I", 0.8, 1.5, 1.0, [0.0], "all"),          # far-only plan
        ("II", 0.8, 1.5, 1.0, [0.0], "all"),
        ("I", 2.7, 1.5, 0.3, [0.5, 1.0], "none"),    # kappa >= 2
        ("II", 2.7, 1.5, 0.3, [0.5, 1.0], "none"),
        ("I", 0.8, 1.5, 0.01, [0.37, 1.0], "some"),  # g changes sign
        ("II", 2.0 / 3.0, 1.5, 0.3, [0.5, 1.0], "some"),  # kappa = 0
    ])
    def test_factored_paths_match_dense_table(self, kind, H, alpha, lam, t, far):
        # the factored product of the sampler against the dense table, within
        # rounding of each value's sum of |k_ik dM_k|, on plans whose far
        # block is every node, no node, or a prefix
        p = ProcessParams(H=H, alpha=alpha, lam=lam, kind=kind)
        grid = SampleGrid(np.array(t))
        plan = DiscretizationPlan.for_grid(grid, p, dy=0.05)
        table = kernel_node_table(p, grid, plan)
        m = table.scale.size
        assert {"all": m == plan.n_nodes, "none": m == 0,
                "some": 0 < m < plan.n_nodes}[far]
        ens = simulate_tfsm_paths(p, grid, plan, 3, seed=2)
        dm = np.array([path_increments(p, plan, rng)
                       for rng in philox_streams(2, range(3))])
        dense = oracles.dense_table(table)
        bound = 1e-13 * (np.abs(dm) @ np.abs(dense).T)
        assert np.all(np.abs(ens.paths - dm @ dense.T) <= bound)
        if t == [0.0] or p.kappa == 0.0 and kind == "II":
            assert not dense[:, :m].any()

    @pytest.mark.parametrize("first", [0, 2, 6, 100, 1000, 1010])
    def test_path_increments_from_first_are_the_tail(self, first):
        # advancing the Philox stream by first // 2 counter steps skips
        # exactly the uniform pairs of the first nodes
        plan = DiscretizationPlan(y_min=-10.0, dy=0.01, n_nodes=1010)
        full = path_increments(P15, plan, next(philox_streams(4, [3])))
        tail = path_increments(P15, plan, next(philox_streams(4, [3])), first)
        assert np.array_equal(tail, full[first:])

    @pytest.mark.parametrize("first", [1, -2, 1012])
    def test_path_increments_first_checked(self, first):
        plan = DiscretizationPlan(y_min=-10.0, dy=0.01, n_nodes=1010)
        with pytest.raises(ValueError, match="first must be even"):
            path_increments(P15, plan, next(philox_streams(4, [3])), first)

    @pytest.mark.parametrize("kind,lam,t_max,n,cutoff,first", [
        ("I", 0.3, 1.0, 65, None, 2288),     # README plan
        ("II", 0.3, 1.0, 65, None, 3232),
        ("I", 10.0, 1.0, 65, None, "far"),   # every far node negligible
        ("II", 10.0, 1.0, 65, None, "far"),
        ("I", 0.3, 1.0, 65, 20.0, 0),        # short cutoff: nothing skipped
        ("II", 0.3, 1.0, 65, 20.0, 0),
        ("I", 1.0, 0.0, 1, None, 0),         # t = 0: every value 0, no near block
        ("II", 1.0, 0.0, 1, None, 0),
    ])
    def test_skipped_prefix_within_dense_bound(self, kind, lam, t_max, n, cutoff,
                                               first):
        # the skipped far nodes' values are below 2^-53 of the table's
        # largest, so the sampler stays within rounding of the full dense
        # product, and is bitwise the product of the kept factors
        p = ProcessParams(H=0.8, alpha=1.5, lam=lam, kind=kind)
        grid = SampleGrid(np.linspace(0.0, t_max, n))
        plan = DiscretizationPlan.for_grid(grid, p, dy=0.02, cutoff=cutoff)
        table = kernel_node_table(p, grid, plan)
        f, m = table.first, table.scale.size
        assert f == (m if first == "far" else first)
        assert m == 2100 if first == "far" else f < m
        assert (table.near.size == 0) == (t_max == 0.0)
        dense = oracles.dense_table(table)
        assert np.abs(dense[:, :f]).max(initial=0.0) <= 2.0 ** -53 * np.abs(dense).max()
        ens = simulate_tfsm_paths(p, grid, plan, 3, seed=2)
        dm = np.array([path_increments(p, plan, rng)
                       for rng in philox_streams(2, range(3))])
        bound = 1e-13 * (np.abs(dm) @ np.abs(dense).T)
        assert np.all(np.abs(ens.paths - dm @ dense.T) <= bound)
        d = dm[:, f:]
        paths = (d[:, m - f:] @ table.near.T
                 + ((d[:, :m - f] * table.scale[f:]) @ table.powers[:, f:].T)
                 @ table.coef.T)
        assert np.array_equal(ens.paths, paths)

    def test_plan_errors_reach_simulate(self, monkeypatch):
        # a singular node and an unallocatable plan raise PlanError through
        # simulate_tfsm_paths, for either kind
        grid = SampleGrid(np.array([1.0]))
        plan = DiscretizationPlan(y_min=-10.25, dy=0.5, n_nodes=23)
        for kind in ("I", "II"):
            p = ProcessParams(H=0.3, alpha=1.5, lam=0.4, kind=kind)
            with pytest.raises(PlanError, match="singular node"):
                simulate_tfsm_paths(p, grid, plan, 2, seed=0)

        def no_memory(plan):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(DiscretizationPlan, "nodes", no_memory)
        plan = DiscretizationPlan.for_grid(grid, P15, dy=1e-9)
        n = f"{plan.n_nodes:.3g}"
        with pytest.raises(PlanError, match=re.escape(f"{n} nodes needs a 1 x {n} kernel table")):
            simulate_tfsm_paths(P15, grid, plan, 2, seed=0)

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
        for i, rng in enumerate(philox_streams(5, range(3))):
            dm = path_increments(pII, plan, rng)
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

    @pytest.mark.parametrize("cutoff", [0.0, -0.5, math.nan])
    def test_for_grid_rejects_nonpositive_cutoff(self, cutoff):
        # a plan from y >= 0 would drop the kernel mass left of 0
        grid = SampleGrid.regular(1.0, 5)
        with pytest.raises(ValueError, match="cutoff must be > 0"):
            DiscretizationPlan.for_grid(grid, P15, 0.01, cutoff=cutoff)

    def test_sampler_requires_tempering(self):
        # untempered kernels leave mass beyond any left cutoff
        p = replace(P15, lam=0.0)
        grid = SampleGrid.regular(1.0, 5)
        plan = DiscretizationPlan.for_grid(grid, P15, 0.05)
        with pytest.raises(ValueError, match="lambda > 0"):
            simulate_tfsm_paths(p, grid, plan, 1, seed=0)


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

    def test_non_finite_far_factor_rejected(self, monkeypatch):
        # the finiteness check covers the far block's factors too
        def bad_far(*args):
            coef, powers, scale = real(*args)
            scale[0] = math.inf
            return coef, powers, scale

        real = stable._far_kernel
        monkeypatch.setattr(stable, "_far_kernel", bad_far)
        grid = SampleGrid.regular(1.0, 5)
        with pytest.raises(PlanError, match="singular node"):
            kernel_node_table(P15, grid, DiscretizationPlan.for_grid(grid, P15, dy=0.05))

    def test_unallocatable_plan_raises_plan_error(self, monkeypatch):
        # the allocation is made to fail here rather than attempted
        def no_memory(plan):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(DiscretizationPlan, "nodes", no_memory)
        grid = SampleGrid.regular(1.0, 3)
        plan = DiscretizationPlan.for_grid(grid, P15, dy=1e-9)
        n = f"{plan.n_nodes:.3g}"
        with pytest.raises(PlanError, match=re.escape(f"{n} nodes needs a 3 x {n} kernel table")):
            kernel_node_table(P15, grid, plan)

    def test_negative_time_rejected(self):
        grid = SampleGrid(np.array([-0.5, 1.0]))
        plan = DiscretizationPlan.for_grid(grid, P15, dy=0.05, cutoff=5.0)
        with pytest.raises(ValueError):
            kernel_node_table(P15, grid, plan)

    def test_near_block_calls_cover_whole_rows(self, monkeypatch):
        # README plan: the 7,933 nodes at y <= -8 are the far block of either
        # kind, and every kernel call of the 65 x 451 near block takes whole
        # time rows, in order, of at most _NEAR_VALUES values
        calls = []
        real = stable.kernel

        def spy(p, t, y):
            calls.append((np.asarray(t), np.asarray(y)))
            return real(p, t, y)

        monkeypatch.setattr(stable, "kernel", spy)
        grid = SampleGrid.regular(1.0, 65)
        plan = DiscretizationPlan.for_grid(grid, P15, dy=0.02)
        assert plan.n_nodes == 8384
        near = plan.nodes()[7933:]
        for kind in ("I", "II"):
            calls.clear()
            kernel_node_table(replace(P15, kind=kind), grid, plan)
            rows = []
            for t, y in calls:
                assert t.size == y.size <= stable._NEAR_VALUES
                t, y = t.reshape(-1, near.size), y.reshape(-1, near.size)
                assert (t == t[:, :1]).all() and (y == near).all()
                rows += t[:, 0].tolist()
            assert rows == grid.times.tolist(), kind

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_every_node_far(self, kind):
        # a one-point grid at t = 0 puts every node in the far block, so the
        # near block is empty; the table is the zero row
        p = ProcessParams(H=0.8, alpha=1.5, lam=1.0, kind=kind)
        grid = SampleGrid(np.array([0.0]))
        plan = DiscretizationPlan.for_grid(grid, p, dy=0.5)
        table = kernel_node_table(p, grid, plan)
        assert table.scale.size == plan.n_nodes and table.near.shape == (1, 0)
        assert oracles.dense_table(table).tolist() == [[0.0] * plan.n_nodes]

    def test_dense_is_the_einsum_table(self):
        # README plan: the dense table the tests compare with
        # (oracles.dense_table) is the far block np.einsum(coef, powers) times
        # the node prefactor, then the near block, whose rows are bitwise
        # kernel calls with one time; size counts the stored values
        grid = SampleGrid.regular(1.0, 65)
        for kind in ("I", "II"):
            p = replace(P15, kind=kind)
            plan = DiscretizationPlan.for_grid(grid, p, dy=0.02)
            table = kernel_node_table(p, grid, plan)
            assert (table.coef.shape, table.powers.shape, table.near.shape) == (
                (65, 21), (21, 7933), (65, 451))
            assert table.size == 65 * 21 + 21 * 7933 + 7933 + 65 * 451
            dense = oracles.dense_table(table)
            far = np.einsum("in,nk->ik", table.coef, table.powers)
            far *= table.scale
            assert dense[:, :7933].tobytes() == far.tobytes()
            ys = plan.nodes()[7933:]
            for i in (0, 1, 40, 64):
                row = kernel(p, grid.times[i], ys)
                assert dense[i, 7933:].tobytes() == row.tobytes()

    def test_large_near_block_is_one_call_per_row(self, monkeypatch):
        # a smaller _NEAR_VALUES, down to one time row per kernel call,
        # gives the same table bytes, for either kind
        grid = SampleGrid.regular(1.0, 11)
        for kind in ("I", "II"):
            p = replace(P15, kind=kind)
            plan = DiscretizationPlan.for_grid(grid, p, dy=0.02)
            one_call = oracles.dense_table(kernel_node_table(p, grid, plan))
            for values in (1000, 1):
                monkeypatch.setattr(stable, "_NEAR_VALUES", values)
                table = oracles.dense_table(kernel_node_table(p, grid, plan))
                assert table.tobytes() == one_call.tobytes()
            monkeypatch.undo()

    def test_no_blas_product(self, monkeypatch):
        # the far block is an np.einsum, which sums over n in order; no BLAS
        # product (whose bytes may follow the thread count) runs in the table
        def banned(*args, **kwargs):
            raise AssertionError("BLAS product in kernel_node_table")

        for name in ("matmul", "dot", "tensordot", "inner", "vdot"):
            monkeypatch.setattr(np, name, banned)
        grid = SampleGrid.regular(1.0, 65)
        for kind in ("I", "II"):
            p = replace(P15, kind=kind)
            kernel_node_table(p, grid, DiscretizationPlan.for_grid(grid, p, dy=0.02))
        for f in (kernel_node_table, kernels._far_kernel):
            tree = ast.parse(textwrap.dedent(inspect.getsource(f)))
            assert not any(isinstance(n, ast.MatMult) for n in ast.walk(tree))
            assert not any(isinstance(n, ast.keyword) and n.arg == "optimize"
                           for n in ast.walk(tree))

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
        table = oracles.dense_table(kernel_node_table(p, grid, plan))
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
