import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tfmotion import cli, dependence, specfun as sf
from tfmotion.dependence import (_limit_rows, codifference, decay_diagnostic,
                                 fsm_norm_limit, global_limit_check,
                                 global_limit_constant, local_limit_check)
from tfmotion.gaussian import tfgn2_acvf, variance_fbm_limit
from tfmotion.kernels import (ProcessParams, QuadratureConfig, _quad, kernel,
                              kernel_g, kernel_h)

import oracles

P_II = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")
P_I = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")
P_G = ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="II")


class TestIncrementKernel:
    """Y(t) has kernel(p, 1.0, x - t) by stationary increments."""

    def test_matches_raw_difference(self):
        for p in (P_II, P_G):
            for t in (0.0, 1.0, 3.0):
                for x in (-2.0, -0.3, 0.5, 0.99):
                    ref = kernel_h(p, t + 1.0, x) - kernel_h(p, t, x)
                    assert kernel(p, 1.0, x - t) == pytest.approx(
                        ref, rel=1e-10, abs=1e-13)

    def test_matches_raw_difference_first_kind(self):
        for t in (0.0, 2.0):
            for x in (-2.0, 0.5):
                ref = kernel_g(P_I, t + 1.0, x) - kernel_g(P_I, t, x)
                assert kernel(P_I, 1.0, x - t) == pytest.approx(ref, rel=1e-12)

    def test_singular_marker_is_left_limit(self):
        # kappa < 0: Y(t) = h(t+1; .) - h(t; .) and h(t; x) -> +inf as x -> t-
        p = ProcessParams(H=0.4, alpha=1.5, lam=0.3)
        assert kernel(p, 1.0, 3.0 - 3.0) == -math.inf
        assert kernel(p, 1.0, 3.0 - 1e-9 - 3.0) < -100.0

    def test_matches_primitive_oracle(self):
        for H, alpha in [(0.8, 1.5), (1.3, 2.0), (0.4, 1.5), (0.55, 2.0), (0.9, 1.2)]:
            for lam in (0.05, 0.3, 2.0):
                p = ProcessParams(H=H, alpha=alpha, lam=lam)
                for t in (0.0, 3.0, 60.0):
                    xs = [t - float(u) for u in np.geomspace(1e-3, 60.0 / lam, 20)]
                    xs += [t + f for f in (1e-6, 0.3, 0.7, 1.0 - 1e-6)]
                    for x, v in zip(xs, kernel(p, 1.0, np.array(xs) - t)):
                        ref = oracles.mp_increment_kernel(H, alpha, lam, t, x)
                        assert v == pytest.approx(
                            ref, rel=2e-11, abs=0.0), (H, alpha, lam, t, x)

    def test_stable_at_large_lag(self):
        # the raw difference of plateau values would cancel; the dedicated
        # form must stay meaningful down to e^{-lam t} scale
        v = kernel(P_II, 1.0, 0.5 - 60.0)
        assert 0.0 < v < 1e-6


class TestCodifference:
    def test_zero_weights(self):
        # no shortcut: every bracket of the quadrature is +0.0
        for p in (P_II, P_I):
            for theta in ((0.0, 1.0), (1.0, 0.0), (-0.0, 2.0)):
                v = codifference(p, 3, *theta)
                assert v == 0.0 and math.copysign(1.0, v) == 1.0, (p.kind, theta)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_bracket_matches_two_formula_form(self, alpha):
        # one formula, |large|^alpha expm1(alpha log1p(r)) - |small|^alpha,
        # gives bit for bit the two-formula bracket it replaced, also at
        # r = -1 (expm1(-inf) = -1) and at zero weights of either sign
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 200_000)) * 10.0 ** rng.uniform(-8, 8, (2, 200_000))
        a[:1000] = -b[:1000]  # r = -1
        a[1000:1100], a[1100:1200] = 0.0, -0.0
        b[1200:1300], b[1300:1400] = 0.0, -0.0
        with np.errstate(divide="ignore"):
            ref = oracles.two_formula_bracket(a, b, alpha)
        got = dependence._stable_bracket(a, b, alpha)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(got[:1000], -2.0 * np.abs(b[:1000]) ** alpha)
        zero = got[1000:1400]
        assert np.all(zero == 0.0) and not np.signbit(zero).any()

    def test_lag_domain(self):
        # _codifferences checks the lags of both callers
        for t in (0, 2.5, -1, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="integer lags >= 1"):
                codifference(P_II, t, 1.0, 1.0)
        for lags in ([0, 2], [2.5, 3], [2, math.inf], [2, -math.inf], [math.nan, 3]):
            with pytest.raises(ValueError, match="integer lags >= 1"):
                decay_diagnostic(P_II, lags, 1.0, 1.0)

    def test_gaussian_case_ties_to_acvf(self):
        # alpha = 2: I(t) = 2 th1 th2 Gamma(H+1/2)^2 r(t)
        g2 = sf.gamma_fn(1.2) ** 2
        for t in (1, 3, 10):
            tie = 2.0 * 0.7 * 1.3 * g2 * tfgn2_acvf(0.7, 0.15, t)
            assert codifference(P_G, t, 0.7, 1.3) == pytest.approx(
                tie, rel=1e-7), t

    def test_untempered_tail_to_infinity(self):
        # lam = 0: the kernels decay only polynomially and 39% of this value
        # lies left of -50, so the quadrature must run to -infinity
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.0, kind="II")
        ref = oracles.mp_codifference_untempered(0.8, 1.5, 5, 1.0, 1.0)
        assert codifference(p, 5, 1.0, 1.0) == pytest.approx(ref, rel=1e-8)

    def test_tolerance_halving_stability(self):
        a = codifference(P_II, 10, 1.0, 1.0, QuadratureConfig(rel_tol=1e-8))
        b = codifference(P_II, 10, 1.0, 1.0, QuadratureConfig(rel_tol=5e-9))
        assert a == pytest.approx(b, rel=1e-8)


class TestDecayDiagnostic:
    def test_exponents(self):
        d2 = decay_diagnostic(P_II, range(4, 13, 4), 1.0, 1.0)
        assert d2.p_used == pytest.approx(0.8 - 2.0 / 3.0 - 1.0)
        d1 = decay_diagnostic(P_I, range(4, 13, 4), 1.0, 1.0)
        assert d1.p_used == pytest.approx(0.8 - 2.0 / 3.0)
        assert d1.p_used - d2.p_used == pytest.approx(1.0)

    def test_second_kind_band_and_slope(self):
        d = decay_diagnostic(P_II, range(10, 41, 5), 1.0, 1.0)
        assert d.band_ok
        assert abs(d.slope - d.p_used) <= 0.15

    @pytest.mark.parametrize("p", [P_II, P_I])
    def test_batch_matches_per_lag(self, p):
        # all lags run as one quadrature batch; each lag's bisections depend
        # on its own panels only
        lags = [2, 7, 30]
        d = decay_diagnostic(p, lags, 0.7, 1.3)
        for t, v in zip(lags, d.i_values):
            assert v == pytest.approx(codifference(p, t, 0.7, 1.3), rel=1e-14, abs=0.0)

    @staticmethod
    def _kernel_calls(p, monkeypatch):
        # the node arrays of decay_diagnostic's kernel calls, lag-t and lag-0
        calls = []

        def spy(p_, t, y):
            calls.append(np.array(y))
            return kernel(p_, t, y)

        monkeypatch.setattr(dependence, "kernel", spy)
        decay_diagnostic(p, [2, 7, 30], 0.7, 1.3)
        lag_t, lag_0 = calls[::2], calls[1::2]
        assert len(lag_0) == len(lag_t) >= 1
        return lag_t, lag_0

    @pytest.mark.parametrize("p", [P_II])
    def test_lag0_kernel_takes_distinct_nodes(self, p, monkeypatch):
        # each sweep makes one kernel call for the lag-t kernels of all lags
        # and one for the lag-0 kernel, which depends on the node alone: for
        # the second kind that call receives each distinct node of the sweep
        # once
        lag_t, lag_0 = self._kernel_calls(p, monkeypatch)
        for x, y in zip(lag_t, lag_0):
            assert np.all(np.diff(y) > 0.0) and y.size <= x.size
        assert sum(y.size for y in lag_0) < sum(x.size for x in lag_t)

    def test_first_kind_lag0_kernel_takes_every_node(self, monkeypatch):
        # the first kind's kernel costs less than the sort that would dedup
        # its nodes, so its lag-0 call receives every node of the sweep
        lag_t, lag_0 = self._kernel_calls(P_I, monkeypatch)
        for x, y in zip(lag_t, lag_0):
            assert y.size == x.size
        assert any(np.unique(y).size < y.size for y in lag_0)

    @pytest.mark.parametrize("p", [P_II, P_I])
    def test_values_equal_lag0_kernel_at_every_node(self, p):
        # kernel is elementwise, so gathering the lag-0 kernel from the
        # distinct nodes gives, bit for bit, the values of an integrand that
        # evaluates it at every node
        lags = np.arange(2.0, 16.0)
        q = QuadratureConfig(rel_tol=1e-8)
        edges = [dependence._codifference_edges(p, lag, q) for lag in lags]

        def every_node(x, rows):
            a = 0.7 * kernel(p, 1.0, x - lags[rows])
            b = 1.3 * kernel(p, 1.0, x)
            return dependence._stable_bracket(a, b, p.alpha)

        ref = _quad(every_node, edges, q)[0]
        d = decay_diagnostic(p, lags, 0.7, 1.3, q)
        assert np.array_equal(d.i_values, ref)

    def test_first_kind_within_1e8_of_a_tighter_run(self):
        # decay --kind I at the benchmark's settings (rel_tol 1e-8) against
        # rel_tol 1e-10: the sign changes of the kernels are panel edges, so
        # the extrapolated integrals hold their tolerance (2.1e-9; 7.7e-9
        # with the kinks inside panels)
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")
        lags = range(2, 61)
        d = decay_diagnostic(p, lags, 1.0, 1.0, QuadratureConfig(rel_tol=1e-8))
        ref = decay_diagnostic(p, lags, 1.0, 1.0, QuadratureConfig(rel_tol=1e-10))
        assert np.all(np.abs(d.i_values - ref.i_values) <= 1e-8 * np.abs(ref.i_values))

    def test_ratio_positive_and_finite(self):
        d = decay_diagnostic(P_II, range(5, 21, 5), 1.0, 1.0)
        assert np.all(np.isfinite(d.ratio)) and np.all(d.ratio > 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            decay_diagnostic(P_II, range(5, 20), 1.0, -1.0)
        with pytest.raises(ValueError):
            decay_diagnostic(ProcessParams(H=0.5, alpha=1.5, lam=0.3), range(5, 20),
                             1.0, 1.0)


class TestLimitChecks:
    def test_levy_point_global_gap_zero(self):
        p = ProcessParams(H=0.5, alpha=2.0, lam=0.6, kind="II")
        rows = global_limit_check(p, [10.0, 50.0])
        for r in rows:
            assert r["normalized"] == 1.0 and r["limit"] == 1.0
            assert r["rel_gap"] == 0.0

    def test_global_constants(self):
        assert global_limit_constant(P_G) == pytest.approx(
            (0.15 ** (-0.2) * sf.gamma_fn(1.2)) ** 2, rel=1e-14)
        pI = ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="I")
        assert global_limit_constant(pI) == pytest.approx(
            2.0 * sf.gamma_fn(1.4) / 0.3 ** 1.4, rel=1e-14)

    def test_local_alpha2_limit_identity(self):
        c2 = fsm_norm_limit(P_G)
        ref = sf.gamma_fn(1.2) ** 2 * variance_fbm_limit(0.7, 1.0)
        assert c2 == pytest.approx(ref, rel=1e-8)
        # the untempered process exists for 0 < H < 1 alone (ProcessParams)
        for H in (1.0, 1.3):
            with pytest.raises(ValueError, match="requires H in"):
                fsm_norm_limit(replace(P_G, H=H))

    def test_local_rows_share_limit_across_kinds(self):
        q = QuadratureConfig(rel_tol=1e-9)
        rII = local_limit_check(P_G, [0.01], q)
        rI = local_limit_check(
            ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="I"), [0.01], q)
        assert rII[0]["limit"] == rI[0]["limit"]
        assert rII[0]["in_theorem_range"] and rI[0]["in_theorem_range"]

    def test_local_gaps_monotone(self):
        q = QuadratureConfig(rel_tol=1e-9)
        rows = local_limit_check(P_G, [0.1, 0.01, 0.001], q)
        gaps = [r["rel_gap"] for r in rows]  # rows sorted by decreasing b
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("kind", ["II", "I"])
    def test_local_gaps_monotone_to_small_b(self, kind, alpha):
        # the paper's small-time limit: the gap keeps shrinking down to
        # b = 1e-6, where the mass on [-b, 0] sits far inside the cutoff
        p = ProcessParams(H=0.7, alpha=alpha, lam=0.15, kind=kind)
        rows = local_limit_check(p, [10.0 ** -k for k in range(1, 7)])
        gaps = [r["rel_gap"] for r in rows]  # rows sorted by decreasing b
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-3

    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
    def test_scales_must_be_positive(self, b):
        for check in (global_limit_check, local_limit_check):
            with pytest.raises(ValueError):
                check(P_G, [10.0, b])

    @pytest.mark.parametrize("H", [0.7, 1.3])
    @pytest.mark.parametrize("kind", ["II", "I"])
    def test_one_batch_rows_match_checks(self, H, kind):
        # the global and local scales of one kind are one kernel_alpha_norm
        # batch; its integrals are independent, so the rows are those of
        # the two checks bit for bit (repr: NaN gaps outside 0 < H < 1)
        p = ProcessParams(H=H, alpha=1.5, lam=0.3, kind=kind)
        q = QuadratureConfig(rel_tol=1e-9)
        bg, bl = [50.0, 25.0], [0.01, 0.1]
        rows_g, rows_l = _limit_rows([p], bg, bl, q)
        assert repr(rows_g) == repr(global_limit_check(p, bg, q))
        assert repr(rows_l) == repr(local_limit_check(p, bl, q))
        # both kinds in one call, sharing the untempered limit, equal each
        # kind alone
        other = replace(p, kind="I" if kind == "II" else "II")
        alone_g, alone_l = _limit_rows([other], bg, bl, q)
        assert (repr(_limit_rows([p, other], bg, bl, q))
                == repr((rows_g + alone_g, rows_l + alone_l)))

    def test_cli_limits_rows_match_checks(self, tmp_path, monkeypatch):
        # limits makes one batch per kind and one untempered limit: three
        # kernel_alpha_norm calls, and its rows are the checks' rows
        norms = []
        real = dependence.kernel_alpha_norm

        def spy(p, t, q):
            norms.append((p.kind, p.lam, np.size(t)))
            return real(p, t, q)

        monkeypatch.setattr(dependence, "kernel_alpha_norm", spy)
        out = tmp_path / "limits.json"
        assert cli.main(["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15",
                         "--format", "json", "--out", str(out)]) == 0
        assert norms == [("I", 0.0, 1), ("II", 0.15, 7), ("I", 0.15, 7)]
        monkeypatch.setattr(dependence, "kernel_alpha_norm", real)
        q = QuadratureConfig(rel_tol=1e-9)
        want = []
        for check, bs in ((global_limit_check, [25, 50, 100, 200]),
                          (local_limit_check, [0.1, 0.01, 0.001])):
            for kind in ("II", "I"):
                p = ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind=kind)
                want += [[r["regime"], r["kind"], r["b"], r["normalized"], r["limit"],
                          r["rel_gap"], r["in_theorem_range"]] for r in check(p, bs, q)]
        assert json.loads(out.read_text())["rows"] == want

    def test_local_out_of_range_flagged(self):
        p = ProcessParams(H=1.2, alpha=2.0, lam=0.5, kind="II")
        rows = local_limit_check(p, [0.01])
        assert not rows[0]["in_theorem_range"]
        assert math.isnan(rows[0]["limit"])
        assert math.isfinite(rows[0]["normalized"])
