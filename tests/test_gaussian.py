import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from tfmotion import gaussian, specfun
from tfmotion.dependence import DecayDiagnostic
from tfmotion.errors import NumericsError, PoleError
from tfmotion.kernels import ProcessParams
from tfmotion.gaussian import (EIGEN_ROUNDING, CovarianceMatrix, PathEnsemble,
                               SampleGrid, _circulant_eigenvalues, build_cov_matrix,
                               covariance_tfbm2, simulate_gaussian_paths,
                               tfgn1_spectral_density, tfgn2_spectral_density,
                               tfgn2_acvf, variance_fbm_limit, variance_tfbm2)
import oracles

TWO_PI = 2.0 * math.pi


class TestVariance:
    def test_brownian_case(self):
        for lam in (0.05, 1.0):
            for t in (0.3, 1.0, 7.0):
                assert variance_tfbm2(0.5, lam, t) == t

    def test_zero_time(self):
        assert variance_tfbm2(0.7, 0.15, 0.0) == 0.0
        # +0.0 at t = 0 for every H, integer H included
        v = variance_tfbm2(1.3, 0.15, np.array([0.0, 1.0]))
        assert v[0] == 0.0 and not np.signbit(v[0])
        assert variance_tfbm2(1.0, 0.5, np.zeros(2)).tolist() == [0.0, 0.0]

    def test_spectral_oracle_frozen(self):
        assert variance_tfbm2(0.7, 0.15, 1.0) == pytest.approx(
            0.9103973944185911, rel=1e-8)

    def test_spectral_oracle_live(self):
        for H in (0.3, 0.7, 1.2):
            for lam in (0.15, 1.0):
                for t in (0.5, 5.0):
                    ref = oracles.spectral_variance(H, lam, t)
                    assert variance_tfbm2(H, lam, t) == pytest.approx(
                        ref, rel=1e-8), (H, lam, t)

    def test_negative_time_symmetry(self):
        assert variance_tfbm2(0.7, 0.15, -2.0) == variance_tfbm2(0.7, 0.15, 2.0)

    def test_integer_H_pole(self):
        with pytest.raises(PoleError):
            variance_tfbm2(1.0, 0.5, 1.0)

    @pytest.mark.parametrize("H,lam,t", [(0.75, 0.5, 100.0), (0.7, 40.0, 1.0)])
    def test_negative_closed_form_raises(self, H, lam, t):
        # the two 2F3 terms cancel at large lam t: a numeric failure, never
        # a returned negative or wrong variance
        with pytest.raises(NumericsError):
            variance_tfbm2(H, lam, t)

    @pytest.mark.parametrize("H,lam,t", [(0.99, 0.15, 1.04e-8), (1.01, 1e-3, 1e-9)])
    def test_tiny_lam_t_near_pole(self, H, lam, t):
        # 1 - F1 is summed from its first nonzero term, so at tiny lam t and H
        # near 1 nothing cancels (1 - F1 formed by subtraction had given a
        # negative C_t^2 at these points)
        with mp.workdps(60):
            ref = float(oracles.mp_variance_tfbm2(H, lam, t))
        assert variance_tfbm2(H, lam, t) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_against_mpmath_over_lam_t(self):
        # H across (0, 2) and lam t log-spaced over [1e-10, 1e3], mpmath at
        # 30 + lam t / 2.3 digits, and more as 1 - F1 ~ (lam t)^2 shrinks:
        # within 1e-13 up to lam t = 1 for H at least 0.003 from 1 and 2 (the
        # error grows like 1e-16 / |H - 1| nearer them, ROADMAP item 22);
        # above it within 1e-8 or NumericsError, and no error up to lam t = 12
        lam = 0.15
        for H in (0.05, 0.3, 0.5001, 0.7, 0.9, 0.99, 0.997, 1.003, 1.01, 1.3,
                  1.7, 1.9, 1.99, 1.997):
            for lt in np.logspace(-10.0, 3.0, 27).tolist():
                with mp.workdps(30 + int(lt / 2.3) + max(0, int(-2.0 * math.log10(lt)))):
                    ref = float(oracles.mp_variance_tfbm2(H, lam, lt / lam))
                try:
                    v = variance_tfbm2(H, lam, lt / lam)
                except NumericsError:
                    assert lt > 12.0, (H, lt)
                    continue
                assert v == pytest.approx(ref, rel=1e-13 if lt <= 1.0 else 1e-8, abs=0.0), (H, lt)

    @pytest.mark.parametrize("lam", [0.01, 1.0, 10.0])
    def test_no_cancellation_error_up_to_lam_t_12(self, lam):
        # H across (0, 2) at least 0.01 from the poles 1 and 2, lam t up to
        # 12: every C_t^2 is finite and positive (nearer the poles, H =
        # 0.9999 already raises at lam t = 12)
        Hs = [0.001, 0.005, *np.arange(0.01, 1.995, 0.01).round(2).tolist()]
        lt = np.append(np.logspace(-3.0, 1.0, 9), 12.0)
        for H in (H for H in Hs if H != 1.0):
            v = variance_tfbm2(H, lam, lt / lam)
            assert np.all(np.isfinite(v) & (v > 0.0)), H

    def test_array_names_first_negative_time(self):
        with pytest.raises(NumericsError, match=r"t = 100\.0:"):
            variance_tfbm2(0.75, 0.5, np.array([1.0, 100.0, 120.0]))

    def test_scaling_law(self):
        for b in (0.5, 2.0, 10.0):
            for (H, lam, t) in [(0.3, 0.15, 1.0), (0.7, 1.0, 0.5), (1.2, 0.5, 2.0)]:
                lhs = variance_tfbm2(H, lam, b * t)
                rhs = b ** (2.0 * H) * variance_tfbm2(H, b * lam, t)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_lambda_to_zero_monotone_approach(self):
        for H in (0.3, 0.7):
            lim = variance_fbm_limit(H, 1.0)
            gaps = [abs(variance_tfbm2(H, lam, 1.0) - lim) / lim
                    for lam in (1e-2, 1e-3, 1e-4)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 0.01


class TestFbmLimit:
    def test_brownian(self):
        assert variance_fbm_limit(0.5, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_time(self):
        assert variance_fbm_limit(0.7, 0.0) == 0.0

    def test_time_domain_oracle(self):
        assert variance_fbm_limit(0.7, 2.0) == pytest.approx(
            2.6260533344828447, rel=1e-9)
        assert variance_fbm_limit(0.3, 1.0) == pytest.approx(
            oracles.fbm_variance_timedomain(0.3, 1.0), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            variance_fbm_limit(1.2, 1.0)


class TestCovariance:
    def test_diagonal(self):
        assert covariance_tfbm2(0.7, 0.15, 2.0, 2.0) == pytest.approx(
            variance_tfbm2(0.7, 0.15, 2.0), rel=1e-14)

    def test_zero_time(self):
        assert covariance_tfbm2(0.7, 0.15, 0.0, 2.0) == 0.0

    def test_symmetry(self):
        assert covariance_tfbm2(0.75, 0.5, 1.0, 2.0) == covariance_tfbm2(
            0.75, 0.5, 2.0, 1.0)

    def test_empty_arrays(self):
        # no times, no values: an empty array of the broadcast shape
        for s, t in ((np.empty(0), np.empty(0)), (np.empty((0, 1)), np.empty(3)),
                     (np.empty((2, 0)), 1.0)):
            out = covariance_tfbm2(0.7, 0.15, s, t)
            assert out.shape == np.broadcast_shapes(np.shape(s), np.shape(t))

    def test_one_variance_call_per_array_call(self, monkeypatch):
        # C_t^2 at the distinct |s|, |t| and |t - s| of a call in one call
        calls = []
        real = gaussian.variance_tfbm2

        def spy(H, lam, t):
            calls.append(np.shape(t))
            return real(H, lam, t)

        monkeypatch.setattr(gaussian, "variance_tfbm2", spy)
        t = np.array([-0.4, 0.0, 0.05, 0.3, 1.2])
        for s in (t[:, None], t[::-1], 0.3):
            calls.clear()
            covariance_tfbm2(0.7, 0.15, s, t)
            assert len(calls) == 1


class TestMatern:
    @pytest.mark.parametrize("H", [0.75, 1.25])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("st", [(1.0, 1.0), (1.0, 2.0)])
    def test_matches_closed_form(self, H, lam, st):
        s, t = st
        m = oracles.matern_cov(H, lam, s, t)
        c = covariance_tfbm2(H, lam, s, t)
        assert m == pytest.approx(c, rel=1e-6)

    def test_one_bessel_call_per_sweep(self, monkeypatch):
        # tfgn2_acvf's Matern integrand evaluates K_{H-1} at all nodes of a
        # quadrature sweep in one array call, not once per node
        from tfmotion import kernels
        calls, sweeps = [], []
        bessel_k, qk15 = specfun.bessel_k, kernels._qk15
        monkeypatch.setattr(specfun, "bessel_k",
                            lambda *a: calls.append(1) or bessel_k(*a))
        monkeypatch.setattr(kernels, "_qk15", lambda *a: sweeps.append(1) or qk15(*a))
        tfgn2_acvf(0.75, 0.5, 2)
        assert len(calls) == len(sweeps) > 0


class TestAcvf:
    def test_white_noise(self):
        for lam in (0.15, 1.0):
            assert tfgn2_acvf(0.5, lam, 0) == pytest.approx(1.0, rel=1e-10)

    def test_symmetry_in_lag(self):
        assert tfgn2_acvf(0.7, 0.15, -3) == tfgn2_acvf(0.7, 0.15, 3)

    def test_non_integer_lag(self):
        # a fractional lag is an error, not the autocovariance at its
        # truncation; NumPy integers and integral floats are lags
        for j in (2.5, -2.9, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                tfgn2_acvf(0.7, 0.15, j)
        r2 = tfgn2_acvf(0.7, 0.15, 2)
        assert tfgn2_acvf(0.7, 0.15, np.int64(-2)) == r2
        assert tfgn2_acvf(0.7, 0.15, 2.0) == r2

    def test_second_difference_identity(self):
        c2 = lambda x: variance_tfbm2(0.7, 0.15, x) if x != 0 else 0.0
        for j in range(0, 21, 4):
            ref = 0.5 * (c2(j + 1) - 2.0 * c2(j) + c2(abs(j - 1)))
            assert tfgn2_acvf(0.7, 0.15, j) == pytest.approx(ref, rel=1e-7), j

    @pytest.mark.parametrize("H,lam,j,ref,rel", [
        # r(j) of order 1e-21 and 1e-15: an absolute error floor (1e-16 of
        # noise) would leave no correct digit here
        (0.7, 10.0, 5, 1.6106861765033201e-21, 1e-10),
        (0.7, 1.0, 30, 1.2708021503003318e-15, 1e-10),
        # lam = 200: a strongly singular, sharply decaying lag-1 triangle
        (0.2, 200.0, 1, -0.07190078344711691, 4e-8),
        # lag 0 at H < 1/2, from sum_j r(j) = lam^{1-2H}
        (0.3, 40.0, 0, 4.436851236757468, 4e-8),
        # small lam at lag 1, where mpmath's quadosc of the spectral form
        # (at omega = j) is 8% and 5e-7 off
        (0.2, 0.05, 1, -0.6500119102397648, 1e-10),
        (0.7, 0.15, 1, 0.23468315386286864, 1e-10),
        # lam (j - 1) above 745: r(j) ~ e^{-lam (j-1)} is 0 in floats, and
        # the lag's triangle needs no more panels than at j = 1
        (0.7, 3.0, 600, 0.0, 0.0),
        (0.7, 3.0, 1200, 0.0, 0.0),
    ])
    def test_oracle_table(self, H, lam, j, ref, rel):
        # ref: oracles.mp_tfgn2_acvf, the 2F3 second difference in mpmath
        assert tfgn2_acvf(H, lam, j) == pytest.approx(ref, rel=rel, abs=0.0)

    @pytest.mark.parametrize("H,lam", [(0.05, 200.0), (0.002, 5.0),
                                       (0.001953125, 1.0), (1e-4, 1.0)])
    def test_lag_one_near_zero_H(self, H, lam):
        # the lag-1 triangle's weight times M(w) ~ w^(2H-2) leaves w^(2H-1)
        # at w = 0; the weight, the distance to the nearer foot, keeps its
        # digits there (as 1 - |w - 1| it raised QuadratureError for
        # H <= 0.002 and was 1.5e-9 off at H = 0.05, lam = 200)
        assert tfgn2_acvf(H, lam, 1) == pytest.approx(
            oracles.mp_tfgn2_acvf(H, lam, 1), rel=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_continuous_across_H_one(self, j):
        # c and M have no pole at H = 1, where the 2F3 variance has one
        lo, mid, hi = (tfgn2_acvf(H, 0.15, j) for H in (1.0 - 1e-6, 1.0, 1.0 + 1e-6))
        assert min(lo, hi) <= mid <= max(lo, hi)

    @pytest.mark.parametrize("j", [126, 196])
    def test_large_lag_oracle(self, j):
        # H = 1.7, lam = 0.05: lags where r(j) is far below r(0)
        assert tfgn2_acvf(1.7, 0.05, j) == pytest.approx(
            oracles.mp_tfgn2_acvf(1.7, 0.05, j), rel=0.0, abs=1e-12)

    def test_brownian_increments_uncorrelated(self):
        # H = 1/2: the increments of Brownian motion are uncorrelated
        for j in (1, 5, 20, 60):
            assert abs(tfgn2_acvf(0.5, 1.0, j)) <= 1e-12, j


def _acvf_table(H, lam, jmax):
    return [tfgn2_acvf(H, lam, j) for j in range(jmax + 1)]


def _fourier_sum_density(r, omega):
    # (1/2pi) sum_j r(j) e^{-i omega j}; the omitted tail is below
    # e^{-lam jmax} * poly and negligible at jmax = 200, lam = 0.15
    s = r[0] + 2.0 * sum(rj * math.cos(omega * j) for j, rj in enumerate(r) if j > 0)
    return s / TWO_PI


class TestSpectralDensities:
    def test_second_kind_origin_exact(self):
        v, e = tfgn2_spectral_density(0.7, 0.15, 0.0)
        assert abs(v - 0.15 ** (-0.4) / TWO_PI) + e <= 1e-10
        assert e == 0.0

    def test_white_noise_flat(self):
        for w in (-3.0, -0.5, 0.4, 1.0, math.pi):
            v, e = tfgn2_spectral_density(0.5, 0.9, w)
            assert v == pytest.approx(1.0 / TWO_PI, rel=1e-13)
            assert v - e > 0.0

    def test_fourier_inversion_oracle(self):
        r = _acvf_table(0.7, 0.15, 200)
        for w in (math.pi, 1.0):
            v, _ = tfgn2_spectral_density(0.7, 0.15, w, tol=1e-11)
            ref = _fourier_sum_density(r, w)
            assert v == pytest.approx(ref, rel=3e-6), w

    def test_brute_lattice_sum(self):
        # lam = 60 and 600 take L = 16 and 256 lattice terms a side
        for (H, lam, w) in [(0.7, 0.15, 2.0), (4.0 / 3.0, 0.1, 1.0), (1.2, 1.0, 3.1),
                            (0.7, 60.0, 2.5), (0.3, 600.0, -0.5)]:
            v, bound = tfgn2_spectral_density(H, lam, w, tol=1e-12)
            ref, ref_tail = oracles.lattice_density_brute(H, lam, w, True)
            assert abs(v - ref) <= ref_tail + bound + 1e-12 * abs(ref), (H, lam, w)

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_direct_terms_add_in_order_of_l(self, kind, monkeypatch):
        # the terms 0 < |l| <= L are added one at a time in the order
        # l = +1, -1, +2, -2, .., bit for bit; the tail is set to 0 here, so
        # lam = 600 stops at L = 256, the first L whose tail expansion
        # converges
        def no_tail(power, expo, lam, w, L, tol):
            return np.zeros(w.shape), np.zeros(w.shape)

        monkeypatch.setattr(gaussian, "_lattice_tail_zeta", no_tail)
        H, lam, w, L = 0.3, 600.0, np.array([1.0]), 256
        d = 0.0 if kind == "II" else lam * lam
        ell = np.repeat(np.arange(1.0, L + 1.0), 2) * np.tile([1.0, -1.0], L)
        x = w + TWO_PI * ell
        acc = 0.0
        for term in ((lam * lam + x * x) ** (0.5 - H) / (x * x + d)).tolist():
            acc += term
        half = np.sin(0.5 * w)
        w2 = 4.0 * half ** 2
        sinc = 2.0 * half / w
        head = sinc * sinc * (lam * lam + w * w) ** (0.5 - H) * (
            w * w / (w * w + d) if d else 1.0)
        ref = (head + w2 * (acc + 0.0)) / TWO_PI
        assert gaussian._spectral_density(kind, H, lam, w, 1e-10)[0].tolist() == ref.tolist()

    def test_first_kind_origin(self):
        v, e = tfgn1_spectral_density(0.7, 0.15, 0.0)
        assert v == 0.0 and e == 0.0

    def test_first_kind_positive_off_origin(self):
        for w in (0.05, 0.5, 2.0, math.pi):
            v, e = tfgn1_spectral_density(0.3, 0.15, w)
            assert v > 0.0 and v - e > 0.0

    def test_first_kind_brute(self):
        for (H, lam, w) in [(0.3, 0.15, 0.5), (0.7, 0.15, 2.0), (4.0 / 3.0, 0.1, 1.0),
                            (0.3, 60.0, -1.0), (1.2, 600.0, 3.0)]:
            v, bound = tfgn1_spectral_density(H, lam, w, tol=1e-12)
            ref, ref_tail = oracles.lattice_density_brute(H, lam, w, False)
            assert abs(v - ref) <= ref_tail + bound + 1e-12 * abs(ref), (H, lam, w)

    @pytest.mark.parametrize("H", [0.3, 1.3])
    def test_small_omega_against_mpmath(self, H):
        # no cancellation as omega nears 0: within 1e-13 of mpmath for omega
        # in [1e-300, 1e-2], with the truncation held to 1e-14 of the value;
        # the first kind's value is of order omega^2 and is taken where that
        # is a normal float
        for w in np.logspace(-300.0, -2.0, 9).tolist():
            ref = oracles.mp_lattice_density(H, 0.15, w, True)
            v, _ = tfgn2_spectral_density(H, 0.15, w, tol=1e-14 * ref)
            assert v == pytest.approx(ref, rel=1e-13, abs=0.0), w
        for w in np.logspace(-140.0, -2.0, 7).tolist():
            ref = oracles.mp_lattice_density(H, 0.15, w, False)
            v, _ = tfgn1_spectral_density(H, 0.15, w, tol=1e-14 * ref)
            assert v == pytest.approx(ref, rel=1e-13, abs=0.0), w

    def test_lattice_refinement_self_consistency(self):
        a, ea = tfgn1_spectral_density(0.3, 0.15, 0.5, tol=1e-8)
        b, eb = tfgn1_spectral_density(0.3, 0.15, 0.5, tol=1e-14)
        assert abs(a - b) <= ea + eb
        assert eb < ea

    @pytest.mark.parametrize("density", [tfgn1_spectral_density,
                                         tfgn2_spectral_density])
    def test_lattice_cap_raises(self, density):
        # below lam ~ 1.8e4 the tail expansion converges within L = 4096
        v, e = density(0.7, 1e4, 0.5)
        assert v > 0.0 and e <= 1e-10
        # beyond it the lattice would need L > 4096: an error, not a
        # doubling of L without end, that names the expansion's condition
        with pytest.raises(NumericsError, match="L = 4096") as err:
            density(0.7, 1e8, 0.5)
        assert "tail expansion needs" in str(err.value)
        # a bound still above tol at L = 4096 is an error, not a result
        with pytest.raises(NumericsError, match="above tol"):
            density(0.3, 0.15, 0.5, tol=1e-30)
        # in an array call, one such element fails the call
        with pytest.raises(NumericsError, match="L = 4096"):
            density(0.7, 1e8, np.array([0.0, 0.5, 3.0]))
        with pytest.raises(NumericsError, match="above tol"):
            density(0.3, 0.15, np.array([0.0, 0.5]), tol=1e-30)

    def test_lattice_tail_terms_stay_finite(self):
        # each tail term is binom(expo, i) (2 pi c)^-power r^(2i) times zeta
        # sums scaled by c^s, c = L + 1, r = lam / (2 pi c): lam^(2i) and the
        # unscaled zeta sums would leave the float range at lam = 1.8e4,
        # L = 4096 (i = 37), where the expansion converges.  The values are
        # those of a looser tol within both bounds (at lam = 9000), and of
        # mpmath within the bound and the rounding of the sum, which the
        # bound does not cover (a few units in the last place)
        w = np.array([0.0, 0.5, 3.0])
        v, e = tfgn1_spectral_density(0.1, 9000.0, w, tol=1e-16)
        ref, e_ref = tfgn1_spectral_density(0.1, 9000.0, w, tol=1e-12)
        assert np.all(e <= 1e-16) and np.all(np.abs(v - ref) <= e + e_ref)
        v, e = tfgn1_spectral_density(0.1, 18000.0, 3.0, tol=1e-16)
        ref = oracles.mp_lattice_density_far(0.1, 18000.0, 3.0, False, 8192)
        assert e <= 1e-16
        assert abs(v - ref) <= e + 8 * np.finfo(float).eps * abs(v), (v, ref, e)

    @pytest.mark.parametrize("density", [tfgn1_spectral_density,
                                         tfgn2_spectral_density])
    @pytest.mark.parametrize("lam,w", [(0.15, 0.5), (1.0, 2.0), (100.0, 3.0),
                                       (100.0, 1.0), (600.0, math.pi)])
    def test_even_in_omega(self, density, lam, w):
        # h is even: h(-w) equals h(w) bit for bit, bound included, in a
        # float call and in an array call
        assert density(0.7, lam, -w) == density(0.7, lam, w)
        v, e = density(0.7, lam, np.array([w, -w]))
        assert v[0] == v[1] and e[0] == e[1]

    @pytest.mark.parametrize("density", [tfgn1_spectral_density,
                                         tfgn2_spectral_density])
    @pytest.mark.parametrize("H,lam,tol", [(0.7, 0.15, 1e-10), (0.3, 600.0, 1e-10),
                                           (1.3, 0.15, 1e-15), (0.3, 37.0, 1e-20)])
    def test_array_elements_equal_one_element_calls(self, density, H, lam, tol):
        # an array call gives each element its own L, binomial stop and
        # bound: the values of a call with that element alone (at lam = 37,
        # tol = 1e-20 the elements of one call end at L = 8 to 64)
        w = np.concatenate([np.linspace(-math.pi, math.pi, 41),
                            [0.0, 1e-300, -1e-8, 1e-3, 3.0]])
        v, e = density(H, lam, w, tol)
        assert v.shape == e.shape == w.shape
        for x, vi, ei in zip(w.tolist(), v.tolist(), e.tolist()):
            one = density(H, lam, x, tol)
            assert type(one[0]) is float and type(one[1]) is float
            assert one == (vi, ei), x
        v2, e2 = density(H, lam, w[:40].reshape(5, 8), tol)
        assert np.array_equal(v2.ravel(), v[:40]) and np.array_equal(e2.ravel(), e[:40])

    def test_array_rows_at_origin_pi_and_tiny(self):
        # omega = 0 gives the exact limits with zero bound, +-pi and 1e-300
        # the lattice sums, within 1e-13 of mpmath
        H, lam = 0.7, 0.15
        w = np.array([0.0, math.pi, -math.pi, 1e-300])
        v1, e1 = tfgn1_spectral_density(H, lam, w, 1e-16)
        v2, e2 = tfgn2_spectral_density(H, lam, w, 1e-16)
        assert (v1[0], e1[0]) == (0.0, 0.0)
        assert (v2[0], e2[0]) == (lam ** (1.0 - 2.0 * H) / TWO_PI, 0.0)
        ref1 = oracles.mp_lattice_density(H, lam, math.pi, False)
        ref2 = oracles.mp_lattice_density(H, lam, math.pi, True)
        for i in (1, 2):
            assert v1[i] == pytest.approx(ref1, rel=1e-13, abs=0.0)
            assert v2[i] == pytest.approx(ref2, rel=1e-13, abs=0.0)
        assert v1[1] == v1[2] and v2[1] == v2[2]
        # the first kind's value there is of order omega^2 and underflows
        assert (v1[3], e1[3]) == (0.0, 0.0)
        ref = oracles.mp_lattice_density(H, lam, 1e-300, True)
        assert v2[3] == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_low_frequency_contrast(self):
        # second kind plateaus at lam^{1-2H}/2pi, first kind dies at 0
        h2_0, _ = tfgn2_spectral_density(0.7, 0.15, 0.0)
        assert h2_0 > 0.0
        small = [tfgn1_spectral_density(0.7, 0.15, w)[0] for w in (0.1, 0.01, 0.001)]
        assert small[0] > small[1] > small[2]
        assert small[2] < 1e-4

    def test_parseval(self):
        val, _ = integrate.quad(
            lambda w: tfgn2_spectral_density(0.7, 0.15, w, 1e-11)[0],
            -math.pi, math.pi, limit=200)
        assert val == pytest.approx(tfgn2_acvf(0.7, 0.15, 0), rel=1e-5)

    @pytest.mark.parametrize("H,lam,w", [(0.7, 0.15, 0.5), (0.3, 2.5, -2.0)])
    def test_lattice_tail_evaluates_each_zeta_once(self, H, lam, w, monkeypatch):
        # the remainder term's zeta sum is the next term's: each (s, q) is
        # evaluated once per tail (w != 0, so that q+ != q-); one call of
        # hurwitz_zeta takes the q of every element and sign
        calls = []
        real = specfun.hurwitz_zeta

        def spy(s, q, c=1.0):
            calls.extend((s, x) for x in np.ravel(q).tolist())
            return real(s, q, c)

        monkeypatch.setattr(specfun, "hurwitz_zeta", spy)
        total, rem = gaussian._lattice_tail_zeta(1.0 + 2.0 * H, -H, lam, w, 8, 1e-14)
        assert len(calls) >= 4 and len(set(calls)) == len(calls)
        assert rem < 1e-14 and total > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tfgn2_spectral_density(0.7, 0.15, 4.0)
        with pytest.raises(ValueError):
            tfgn1_spectral_density(0.7, 0.15, -4.0)
        with pytest.raises(ValueError, match="got 4.0"):
            tfgn2_spectral_density(0.7, 0.15, np.array([0.5, 4.0]))


class TestSampleGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            SampleGrid(np.array([[1.0, 2.0]]))

    def test_uniform_detection(self):
        g = SampleGrid.regular(2.0, 5)
        assert g.uniform and g.dt == pytest.approx(0.5)
        g2 = SampleGrid(np.array([0.0, 0.1, 0.5]))
        assert not g2.uniform and g2.dt is None
        g1 = SampleGrid(np.array([3.0]))
        assert g1.uniform and g1.dt is None
        with pytest.raises(AttributeError):  # read from the times
            g.dt = 1.0

    def test_array_records_compare_by_identity(self):
        # the generated == would compare arrays, which have no truth value
        grid = SampleGrid.regular(1.0, 3)
        p = ProcessParams(H=0.7, alpha=2.0, lam=0.15)
        one = np.ones(2)
        records = [
            (grid, SampleGrid.regular(1.0, 3)),
            (PathEnsemble(p, grid, np.zeros((1, 3)), 0),
             PathEnsemble(p, grid, np.zeros((1, 3)), 0)),
            (CovarianceMatrix(grid, np.eye(3)), CovarianceMatrix(grid, np.eye(3))),
            (DecayDiagnostic(one, one, one, 0.0, 0.0, 3.0, True),
             DecayDiagnostic(one, one, one, 0.0, 0.0, 3.0, True)),
        ]
        for a, b in records:
            assert a == a and a != b and len({a, b}) == 2, type(a).__name__


class TestCovMatrix:
    def test_single_point_brownian(self):
        m = build_cov_matrix(0.5, 0.7, SampleGrid(np.array([1.0])))
        assert m.values == pytest.approx(np.array([[1.0]]))

    def test_increment_toeplitz_on_uniform_grid(self):
        grid = SampleGrid.regular(2.0, 9)
        m = build_cov_matrix(0.7, 0.15, grid)
        d = np.diff(np.diff(m.values, axis=0), axis=1)  # increment covariances
        for k in range(d.shape[0]):
            diag = np.diagonal(d, offset=k)
            assert np.max(np.abs(diag - diag[0])) < 1e-12

    def test_positive_semidefinite(self):
        grid = SampleGrid.regular(2.0, 8)
        m = build_cov_matrix(0.7, 0.15, grid)
        w = np.linalg.eigvalsh(m.values)
        assert w.min() >= -1e-10 * np.trace(m.values)

    def test_cholesky_reproduces_matrix(self):
        grid = SampleGrid.regular(1.0, 6)  # includes t = 0
        m = build_cov_matrix(0.7, 0.15, grid)
        L = m.cholesky()
        assert np.allclose(L @ L.T, m.values, atol=1e-9)

    @pytest.mark.parametrize("grid", [
        SampleGrid.regular(1.0, 65),
        SampleGrid.regular(2.0, 9, include_zero=False),
        SampleGrid(np.array([-0.4, 0.0, 0.05, 0.3, 0.31, 1.2, 2.75])),
        SampleGrid(np.array([-1.5, -0.7, -0.4, 0.3, 1.2])),
    ], ids=["regular", "no_zero", "non_uniform", "negative"])
    def test_bit_identical_to_loop_build(self, grid):
        # and to covariance_tfbm2 called on each pair of times alone
        m = build_cov_matrix(0.7, 0.15, grid)
        assert np.array_equal(m.values, oracles.loop_cov_matrix(0.7, 0.15, grid.times))
        ts = grid.times.tolist()
        pairs = [[covariance_tfbm2(0.7, 0.15, s, t) for t in ts] for s in ts]
        assert np.array_equal(m.values, np.array(pairs))

    def test_one_variance_call_per_build(self, monkeypatch):
        # the matrix and the circulant embedding each evaluate C_t^2 over
        # all their arguments in one array call
        calls = []
        real = gaussian.variance_tfbm2

        def spy(H, lam, t):
            calls.append(np.shape(t))
            return real(H, lam, t)

        monkeypatch.setattr(gaussian, "variance_tfbm2", spy)
        build_cov_matrix(0.7, 0.15, SampleGrid(np.array([-0.4, 0.0, 0.05, 0.3, 1.2])))
        assert len(calls) == 1
        calls.clear()
        simulate_gaussian_paths(0.7, 0.15, SampleGrid.regular(1.0, 2049), 2, seed=1)
        assert calls == [(2050,)]

    def test_jitter_recorded_zero_when_not_needed(self):
        m = build_cov_matrix(0.7, 0.15, SampleGrid.regular(1.0, 101))
        assert m.jitter is None
        m.cholesky()
        assert m.jitter == 0.0

    def test_jitter_recorded_when_applied(self):
        m = CovarianceMatrix(SampleGrid(np.array([1.0, 2.0, 3.0])), np.ones((3, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m.values)
        L = m.cholesky()
        assert m.jitter > 0.0
        assert np.max(np.abs(L @ L.T - m.values)) <= 1e-13


class TestSimulation:
    def test_deterministic_and_zero_start(self):
        grid = SampleGrid.regular(1.0, 5)
        a = simulate_gaussian_paths(0.7, 0.15, grid, 3, seed=42)
        b = simulate_gaussian_paths(0.7, 0.15, grid, 3, seed=42)
        assert np.array_equal(a.paths, b.paths)
        assert np.all(a.paths[:, 0] == 0.0)

    def test_worker_count_invariance(self):
        # n_workers is accepted and ignored: the paths are made in the
        # calling thread
        grid = SampleGrid.regular(1.0, 4)
        a = simulate_gaussian_paths(0.7, 0.15, grid, 16, seed=1, n_workers=1)
        b = simulate_gaussian_paths(0.7, 0.15, grid, 16, seed=1, n_workers=4)
        assert np.array_equal(a.paths, b.paths)

    def test_brownian_sample_variance(self):
        n = 20000
        ens = simulate_gaussian_paths(0.5, 0.3, SampleGrid(np.array([1.0])), n, seed=2)
        sv = float(ens.paths[:, 0].var())
        assert abs(sv - 1.0) <= 4.0 * math.sqrt(2.0 / n)

    def test_tempered_sample_variance(self):
        n = 20000
        ens = simulate_gaussian_paths(0.7, 0.15, SampleGrid(np.array([1.0])), n, seed=3)
        sv = float(ens.paths[:, 0].var())
        tv = variance_tfbm2(0.7, 0.15, 1.0)
        assert abs(sv - tv) <= 4.0 * tv * math.sqrt(2.0 / n)


class TestCirculantSampler:
    @pytest.mark.parametrize("n", [5, 65, 2049])
    @pytest.mark.parametrize("H", [0.3, 0.7, 1.3])
    def test_embedding_reproduces_cov_matrix(self, H, n):
        # the increment covariance the eigenvalues encode, cumulatively
        # summed over both times, is the covariance matrix of the motion
        grid = SampleGrid.regular(1.0, n)
        m = n - 1
        g = np.fft.irfft(_circulant_eigenvalues(H, 0.15, m, grid.dt), 2 * m)[:m]
        j = np.arange(m)
        cov = np.zeros((n, n))
        cov[1:, 1:] = g[np.abs(j[:, None] - j[None, :])].cumsum(0).cumsum(1)
        ref = build_cov_matrix(H, 0.15, grid).values
        assert np.max(np.abs(cov - ref)) <= 1e-12 * np.max(np.diag(ref))

    def test_sample_covariance(self):
        n_paths = 20000
        grid = SampleGrid.regular(1.0, 17)
        ens = simulate_gaussian_paths(0.7, 0.15, grid, n_paths, seed=8)
        c = build_cov_matrix(0.7, 0.15, grid).values
        s = ens.paths.T @ ens.paths / n_paths
        # mean-zero products: Var[X_i X_j] = C_ii C_jj + C_ij^2
        d = np.diag(c)
        se = np.sqrt((np.outer(d, d) + c * c) / n_paths)
        assert np.all(np.abs(s - c) <= 5.0 * se)

    def test_regular_grid_builds_and_factors_no_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("regular grids must not reach Cholesky")

        monkeypatch.setattr(gaussian, "build_cov_matrix", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        for n in (2, 3, 33):
            ens = simulate_gaussian_paths(0.7, 0.15, SampleGrid.regular(1.0, n), 4, seed=1)
            assert np.all(ens.paths[:, 0] == 0.0) and np.all(ens.paths[:, 1:] != 0.0)

    @pytest.mark.parametrize("n,n_paths", [(2, 3), (65, 5), (2049, 130)])
    def test_paths_equal_circulant_reference(self, n, n_paths):
        # bitwise the path-by-path reference, across batches of paths
        # (2049 points: 64 paths per batch)
        grid = SampleGrid.regular(1.0, n)
        ens = simulate_gaussian_paths(0.7, 0.15, grid, n_paths, seed=4)
        ev = np.maximum(_circulant_eigenvalues(0.7, 0.15, n - 1, grid.dt), 0.0)
        assert np.array_equal(ens.paths, oracles.circulant_paths(ev, n_paths, 4))

    def test_long_grid(self):
        ens = simulate_gaussian_paths(0.7, 0.15, SampleGrid.regular(1.0, 65537), 2, seed=1)
        assert ens.paths.shape == (2, 65537)

    def test_two_point_grid_variance(self):
        # one increment: M = 2 normals, eigenvalues g(0) + g(1) and g(0) - g(1)
        n = 20000
        ens = simulate_gaussian_paths(0.7, 0.15, SampleGrid.regular(1.0, 2), n, seed=3)
        tv = variance_tfbm2(0.7, 0.15, 1.0)
        assert abs(float(np.mean(ens.paths[:, 1] ** 2)) - tv) <= 4.0 * tv * math.sqrt(2.0 / n)


class TestCholeskyFallback:
    def test_indefinite_embedding(self):
        ev = _circulant_eigenvalues(1.7, 0.5, 32, 1.0 / 32)
        assert ev.min() / ev.max() == pytest.approx(-1.8e-3, rel=0.01)
        assert ev.min() < -EIGEN_ROUNDING * ev.max()

    @pytest.mark.parametrize("H, lam, times", [
        (1.7, 0.5, np.linspace(0.0, 1.0, 33)),
        (0.7, 0.15, np.array([0.0, 0.05, 0.3, 0.31, 1.2])),
        (0.7, 0.15, np.array([1.0])),
    ], ids=["indefinite_embedding", "non_uniform", "one_point"])
    def test_paths_equal_cholesky_reference(self, H, lam, times, monkeypatch):
        calls = []
        real = CovarianceMatrix.cholesky

        def spy(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(CovarianceMatrix, "cholesky", spy)
        ens = simulate_gaussian_paths(H, lam, SampleGrid(times), 5, seed=9, n_workers=2)
        assert len(calls) == 1 and calls[0].jitter == 0.0
        assert np.array_equal(ens.paths, oracles.cholesky_paths(H, lam, times, 5, 9))
