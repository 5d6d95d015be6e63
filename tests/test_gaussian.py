import math

import numpy as np
import pytest
from scipy import integrate

from tfmotion import gaussian, specfun
from tfmotion.errors import NumericsError, PoleError
from tfmotion.gaussian import (EIGEN_ROUNDING, CovarianceMatrix, SampleGrid,
                               _circulant_eigenvalues, build_cov_matrix,
                               covariance_tfbm2,
                               matern_cov_integral, simulate_gaussian_paths,
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

    @pytest.mark.parametrize("H,lam,t", [
        (0.75, 0.5, 100.0), (0.7, 40.0, 1.0),      # large lam t
        (0.99, 0.15, 1.04e-8), (1.01, 1e-3, 1e-9),  # tiny lam t, H near 1
    ])
    def test_negative_closed_form_raises(self, H, lam, t):
        # the two 2F3 terms cancel to C_t^2 < 0 here: a numeric failure,
        # never a returned negative variance
        with pytest.raises(NumericsError):
            variance_tfbm2(H, lam, t)

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


class TestMatern:
    def test_zero_range(self):
        assert matern_cov_integral(0.75, 0.5, 0.0, 2.0) == 0.0
        assert matern_cov_integral(0.75, 0.5, 1.0, 0.0) == 0.0

    def test_symmetry(self):
        a = matern_cov_integral(0.75, 0.5, 1.0, 2.0)
        b = matern_cov_integral(0.75, 0.5, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("H", [0.75, 1.25])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("st", [(1.0, 1.0), (1.0, 2.0)])
    def test_matches_closed_form(self, H, lam, st):
        s, t = st
        m = matern_cov_integral(H, lam, s, t)
        c = covariance_tfbm2(H, lam, s, t)
        assert m == pytest.approx(c, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            matern_cov_integral(0.4, 0.5, 1.0, 1.0)

    def test_one_bessel_call_per_sweep(self, monkeypatch):
        # the integrand evaluates K_{H-1} at all nodes of a quadrature sweep
        # in one array call, not once per node
        from tfmotion import kernels
        calls, sweeps = [], []
        bessel_k, qk15 = specfun.bessel_k, kernels._qk15
        monkeypatch.setattr(specfun, "bessel_k",
                            lambda *a: calls.append(1) or bessel_k(*a))
        monkeypatch.setattr(kernels, "_qk15", lambda *a: sweeps.append(1) or qk15(*a))
        matern_cov_integral(0.75, 0.5, 1.0, 2.0)
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

    @pytest.mark.parametrize("H,lam", [(0.2, 0.05), (0.7, 0.15), (1.7, 3.0)])
    def test_cosine_tail_matches_qawf(self, H, lam):
        # the zero-to-zero panels with epsilon extrapolation against
        # QUADPACK's QAWF on the same tail
        g = lambda w, rows=None: (lam * lam + w * w) ** (0.5 - H) / (w * w)
        omega = max(1.0, 2.0 * lam)
        for m in (1, 2, 37, 201):
            ref = integrate.quad(g, omega, math.inf, weight="cos", wvar=m,
                                 epsabs=1e-15, limlst=100)[0]
            v = gaussian._cosine_tail(g, m, omega, gaussian.DEFAULT_QUAD)
            assert v == pytest.approx(ref, rel=1e-10, abs=1e-14), m

    @pytest.mark.parametrize("j", [600, 1200])
    def test_lags_past_one_integral_panel_limit(self, j):
        # at lam = 3 the head [0, 6] holds 570 or more periods of cos(j w),
        # more than one integral of at most 400 panels resolves; r(j) decays
        # like e^{-lam j}, so it is 0 to far below the tolerance
        assert abs(tfgn2_acvf(0.7, 3.0, j)) <= 1e-13

    @pytest.mark.parametrize("j", [126, 196])
    def test_large_lag_oracle(self, j):
        # H = 1.7, lam = 0.05: the lags where the cancelling head 2 - 2 cos w
        # sent every integral over budget; the oracle is mpmath's quadosc of
        # the whole integral, whose integrand vanishes at the zeros of cos(j w)
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
        for (H, lam, w) in [(0.7, 0.15, 2.0), (4.0 / 3.0, 0.1, 1.0), (1.2, 1.0, 3.1)]:
            v, bound = tfgn2_spectral_density(H, lam, w, tol=1e-12)
            ref, ref_tail = oracles.lattice_density_brute(H, lam, w, True)
            assert abs(v - ref) <= ref_tail + bound + 1e-12 * abs(ref), (H, lam, w)

    def test_first_kind_origin(self):
        v, e = tfgn1_spectral_density(0.7, 0.15, 0.0)
        assert v == 0.0 and e == 0.0

    def test_first_kind_positive_off_origin(self):
        for w in (0.05, 0.5, 2.0, math.pi):
            v, e = tfgn1_spectral_density(0.3, 0.15, w)
            assert v > 0.0 and v - e > 0.0

    def test_first_kind_brute(self):
        for (H, lam, w) in [(0.3, 0.15, 0.5), (0.7, 0.15, 2.0), (4.0 / 3.0, 0.1, 1.0)]:
            v, bound = tfgn1_spectral_density(H, lam, w, tol=1e-12)
            ref, ref_tail = oracles.lattice_density_brute(H, lam, w, False)
            assert abs(v - ref) <= ref_tail + bound + 1e-12 * abs(ref), (H, lam, w)

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
        # doubling of L without end
        with pytest.raises(NumericsError, match="L = 4096"):
            density(0.7, 1e8, 0.5)
        # a bound still above tol at L = 4096 is an error, not a result
        with pytest.raises(NumericsError, match="above tol"):
            density(0.3, 0.15, 0.5, tol=1e-30)

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
        # evaluated once per tail (w != 0, so that q+ != q-)
        calls = []
        real = specfun.hurwitz_zeta

        def spy(s, q):
            calls.append((s, q))
            return real(s, q)

        monkeypatch.setattr(specfun, "hurwitz_zeta", spy)
        total, rem = gaussian._lattice_tail_zeta(1.0 + 2.0 * H, -H, lam, w, 8, 1e-14)
        assert len(calls) >= 4 and len(set(calls)) == len(calls)
        assert rem < 1e-14 and total > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tfgn2_spectral_density(0.7, 0.15, 4.0)
        with pytest.raises(ValueError):
            tfgn1_spectral_density(0.7, 0.15, -4.0)


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
    ], ids=["regular", "no_zero", "non_uniform"])
    def test_bit_identical_to_loop_build(self, grid):
        m = build_cov_matrix(0.7, 0.15, grid)
        assert np.array_equal(m.values, oracles.loop_cov_matrix(0.7, 0.15, grid.times))

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
