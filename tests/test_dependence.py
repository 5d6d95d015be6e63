import json
import math

import numpy as np
import pytest

from tfmotion import cli, dependence, specfun as sf
from tfmotion.dependence import (_limit_rows, codifference, decay_diagnostic,
                                 fsm_norm_limit, global_limit_check,
                                 global_limit_constant, local_limit_check,
                                 r_fn)
from tfmotion.gaussian import tfgn2_acvf, variance_fbm_limit
from tfmotion.kernels import (ProcessParams, QuadratureConfig, kernel,
                              kernel_alpha_norm, kernel_g, kernel_h)

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
        assert codifference(P_II, 3, 0.0, 1.0) == 0.0
        assert codifference(P_II, 3, 1.0, 0.0) == 0.0

    def test_lag_domain(self):
        with pytest.raises(ValueError):
            codifference(P_II, 0, 1.0, 1.0)

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


class TestRFn:
    def test_zero_weight(self):
        assert r_fn(P_II, 5, 0.0, 1.0) == 0.0

    def test_small_codifference_expansion(self):
        t = 20
        i_t = codifference(P_II, t, 1.0, 1.0)
        n0 = kernel_alpha_norm(P_II, 1.0)
        k = math.exp(-2.0 * n0)
        r = r_fn(P_II, t, 1.0, 1.0)
        assert abs(r + k * i_t) <= 0.5 * i_t * abs(k * i_t)

    def test_sign_survey_finite(self):
        # signs at finite lags are recorded, not asserted
        for t in (5, 10, 20, 40):
            assert math.isfinite(r_fn(P_II, t, 1.0, 1.0))

    def test_skewed_rejected(self):
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, beta=0.5, kind="II")
        with pytest.raises(ValueError):
            r_fn(p, 5, 1.0, 1.0)


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

    def test_local_rows_share_limit_across_kinds(self):
        q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-9)
        rII = local_limit_check(P_G, [0.01], q)
        rI = local_limit_check(
            ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="I"), [0.01], q)
        assert rII[0]["limit"] == rI[0]["limit"]
        assert rII[0]["in_theorem_range"] and rI[0]["in_theorem_range"]

    def test_local_gaps_monotone(self):
        q = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-9)
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
        q = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-9)
        bg, bl = [50.0, 25.0], [0.01, 0.1]
        rows_g, rows_l = _limit_rows(p, bg, bl, q)
        assert repr(rows_g) == repr(global_limit_check(p, bg, q))
        assert repr(rows_l) == repr(local_limit_check(p, bl, q))
        if H < 1.0:  # a given untempered limit is used as it is
            fsm = fsm_norm_limit(p, q)
            assert repr(_limit_rows(p, bg, bl, q, fsm)) == repr((rows_g, rows_l))

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
        q = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-9)
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
