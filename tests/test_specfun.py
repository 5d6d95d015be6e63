import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from tfmotion import specfun as sf
from tfmotion.errors import PoleError, SeriesConvergenceError

import oracles


SQRT_PI = 1.7724538509055159


class TestGamma:
    def test_half_integer(self):
        assert sf.gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_factorial(self):
        assert sf.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_against_independent_reference(self):
        # frozen from a 50-digit evaluation of an independent algorithm
        assert sf.gamma_fn(0.3) == pytest.approx(2.9915689876875907, rel=1e-12)

    def test_reflection_region(self):
        assert sf.gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)
        assert sf.gamma_fn(-2.5) == pytest.approx(oracles.mp_gamma(-2.5), rel=1e-13)

    def test_accuracy_band(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(0.05, 50.0, 150),
                             rng.uniform(-10.0, -0.05, 150)])
        for x in xs:
            x = float(x)
            if x <= 0 and abs(x - round(x)) < 1e-2:
                continue
            assert sf.gamma_fn(x) == pytest.approx(oracles.mp_gamma(x), rel=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.1, 20.0, 200):
            x = float(x)
            assert sf.gamma_fn(x + 1.0) == pytest.approx(x * sf.gamma_fn(x), rel=1e-12)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                sf.gamma_fn(x)

    def test_log_gamma_domain(self):
        with pytest.raises(PoleError):
            sf.log_gamma(-1.5)
        assert sf.log_gamma(12.3) == pytest.approx(
            math.log(oracles.mp_gamma(12.3)), rel=1e-14)


class TestBesselK:
    def test_half_order_closed_form(self):
        assert sf.bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-13)

    def test_negative_order_symmetry(self):
        assert sf.bessel_k(-0.7, 2.0) == sf.bessel_k(0.7, 2.0)

    def test_quadrature_oracle_frozen(self):
        # int_0^inf exp(-x cosh t) cosh(nu t) dt at nu = 1, x = 1
        assert sf.bessel_k(1.0, 1.0) == pytest.approx(0.6019072301972347, rel=1e-10)

    def test_quadrature_oracle_grid(self):
        for nu in (0.0, 0.3, 1.0, 2.2, 3.0):
            for x in (1e-6, 0.05, 1.0, 1.9, 2.1, 8.0, 50.0):
                ref = oracles.besselk_quadrature(nu, x)
                assert sf.bessel_k(nu, x) == pytest.approx(ref, rel=1e-10), (nu, x)

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            nu = float(rng.uniform(0.5, 2.5))
            x = float(rng.uniform(0.1, 20.0))
            lhs = sf.bessel_k(nu + 1.0, x)
            rhs = sf.bessel_k(nu - 1.0, x) + (2.0 * nu / x) * sf.bessel_k(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            sf.bessel_k(1.0, -3.0)

    def test_non_finite_argument(self):
        # inf raises for a float and for an array alike (NaN: CONTRACT in
        # test_kernels.py)
        for x in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                sf.bessel_k(0.3, x)
            with pytest.raises(ValueError):
                sf.bessel_k(0.3, np.array([1.0, x]))

    def test_against_mpmath_grid(self):
        # 31 orders by 210 log-spaced arguments from 1e-20 to 700, one
        # array call per order
        xs = np.logspace(-20.0, math.log10(700.0), 210)
        for nu in np.linspace(0.0, 3.0, 31).tolist():
            got = sf.bessel_k(nu, xs)
            for x, v in zip(xs.tolist(), got.tolist()):
                assert v == pytest.approx(oracles.mp_besselk(nu, x), rel=1e-14), (nu, x)

    @pytest.mark.filterwarnings("error")
    def test_out_of_float_range(self):
        # K_3(1e-300) ~ 8e900 overflows and K_0.7(800) ~ 1e-349 underflows,
        # silently; K_0 stays finite down to the smallest subnormal, where
        # its 3,745 terms are summed in order (hence 1e-13)
        assert sf.bessel_k(3.0, 1e-300) == math.inf
        assert sf.bessel_k(0.7, 800.0) == 0.0
        x = np.array([1e-300, 800.0, 5e-324])
        assert sf.bessel_k(3.0, x).tolist() == [math.inf, 0.0, math.inf]
        assert sf.bessel_k(0.0, 5e-324) == pytest.approx(
            oracles.mp_besselk(0.0, 5e-324), rel=1e-13)

    def test_one_method(self):
        # one trapezoidal rule for every argument: no series, continued
        # fraction or crossover between them
        for f in Path(sf.__file__).parent.glob("*.py"):
            src = f.read_text()
            for token in ("_RGAMMA_C", "_temme_gam12", "_bessel_k_temme",
                          "_bessel_k_steed", "BESSEL_K_CROSSOVER"):
                assert token not in src, (f.name, token)


# the (a, b) parameter sets of the 2F3 tests below
HYP_SETS = [((0.7, -1.3), (0.4, 2.0, 1.1)), ((0.0, 1.4), (0.9, 2.0, 1.1)),
            ((1.0, -0.5), (0.3, 0.5, 1.0)), ((1.0, 0.2), (1.0, 1.7, 1.2)),
            ((1.0, -0.5), (-0.2, 0.5, 1.0)),
            ((1.0, 5.0 / 6.0), (1.0, 7.0 / 3.0, 11.0 / 6.0))]


class TestHyp2F3:
    def test_z_zero(self):
        assert sf.hyp2f3((0.7, -1.3), (0.4, 2.0, 1.1), 0.0) == 1.0

    def test_terminating_numerator(self):
        for z in (0.5, 10.0, 300.0):
            assert sf.hyp2f3((0.0, 1.4), (0.9, 2.0, 1.1), z) == 1.0

    def test_variance_parameter_sets_frozen(self):
        # the two series entering the H = 0.7, lam = 0.15, t = 1 variance,
        # frozen from a 50-digit 200-term reference sum
        z = 0.005625
        assert sf.hyp2f3((1.0, -0.5), (0.3, 0.5, 1.0), z) == pytest.approx(
            0.981236471749528045, rel=1e-12)
        assert sf.hyp2f3((1.0, 0.2), (1.0, 1.7, 1.2), z) == pytest.approx(
            1.0005517840329863, rel=1e-12)

    def test_against_extended_precision(self):
        cases = [
            ((1.0, -0.5), (0.3, 0.5, 1.0), 6.25),
            ((1.0, 0.2), (1.0, 1.7, 1.2), 25.0),
            ((1.0, -0.5), (-0.2, 0.5, 1.0), 25.0),
            ((1.0, 5.0 / 6.0), (1.0, 7.0 / 3.0, 11.0 / 6.0), 100.0),
        ]
        for a, b, z in cases:
            assert sf.hyp2f3(a, b, z) == pytest.approx(
                oracles.mp_hyp2f3(a, b, z), rel=1e-11), (a, b, z)

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            sf.hyp2f3((1.0, 0.5), (0.5, -2.0, 1.0), 0.3)

    def test_non_convergence(self):
        # at z = 1.28e5 the term ratio z / ((k+1)(k+2)) falls below 1/2 only
        # near k = 505, after the 500-term cap, while every term and sum
        # stays finite; at z = 1e6 the terms leave the float range first,
        # which ends in the same error and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1.28e5, 1e6):
                with pytest.raises(SeriesConvergenceError):
                    sf.hyp2f3((1.0, 0.5), (0.5, 2.0, 1.0), z)

    @pytest.mark.parametrize("a,b", HYP_SETS)
    def test_array_matches_scalar_loop(self, a, b):
        # one masked iteration does the arithmetic of the scalar series loop
        z = np.concatenate([[0.0, 0.005625, 6.25, 25.0, 100.0, 300.0, -50.0],
                            np.logspace(-12.0, 3.0, 40), -np.logspace(-3.0, 3.0, 20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sf.hyp2f3(a, b, z)
        assert got.tolist() == [oracles.loop_hyp2f3(a, b, x) for x in z.tolist()]

    def test_no_series_control(self):
        # the tolerance and the term cap are module constants, not options
        for f in Path(sf.__file__).parent.glob("*.py"):
            src = f.read_text()
            for token in ("SeriesControl", "DEFAULT_SERIES"):
                assert token not in src, (f.name, token)


class TestIncompleteGamma:
    def test_negative_parameter_upper(self):
        import mpmath as mp
        for a in (-0.93, -0.5, -0.2, -0.01):
            for x in (1e-3, 0.5, 1.0, 2.0, 12.0):
                ref = float(mp.gammainc(a, x, mp.inf))
                assert sf.upper_gamma(a, x) == pytest.approx(ref, rel=5e-13), (a, x)

    def test_domains(self):
        with pytest.raises(ValueError):
            sf.lower_gamma(-1.0, 2.0)
        with pytest.raises(ValueError):
            sf.upper_gamma(0.5, 0.0)
        with pytest.raises(ValueError):
            sf.upper_gamma(-1.5, 2.0)


def _seam_points(a):
    """x on both sides of the series / trapezoid seam max(1, a + 1)."""
    s = max(1.0, a + 1.0)
    return np.array([1e-4, 0.3, np.nextafter(s, 0.0), s, np.nextafter(s, np.inf),
                     1.7, 3.0, 12.0, 40.0, 200.0])


A_POS = (0.2, 0.7, 1.0, 1.3, 5.0)
A_NEG = (-0.93, -0.5, -0.2, -0.01)

# widths h and points x on both sides of the Gauss-Legendre seam
# h = min(x/2, 1) of gamma_interval (x = 2h, and h = 1 for x > 2), and for
# a > 1 of the seam x = a between the lower and upper gamma differences;
# x = 50 is the plan cutoff in units of lam
GI_WIDTHS = (0.0, 1e-4, 0.01, 0.125, 0.3, float(np.nextafter(1.0, 0.0)), 1.0,
             float(np.nextafter(1.0, 2.0)), 2.0)


def _interval_points(a, h):
    x = {1e-3, 0.05, 0.5, 1.0, 2.0, 7.5, 30.0, 50.0}
    if h > 0.0:
        s = 2.0 * h
        x |= {float(np.nextafter(s, 0.0)), s, float(np.nextafter(s, np.inf))}
    if a > 1.0:
        x |= {float(np.nextafter(a, 0.0)), a, float(np.nextafter(a, np.inf))}
    return np.array(sorted(x))


class TestIncompleteGammaArray:
    @pytest.mark.parametrize("a", A_POS)
    def test_lower_gamma(self, a):
        x = np.concatenate([[0.0], _seam_points(a)])
        v = sf.lower_gamma(a, x)
        assert v[0] == 0.0
        for xi, vi in zip(x[1:].tolist(), v[1:]):
            assert vi == pytest.approx(oracles.mp_gammainc(a, 0.0, xi), rel=1e-12), xi

    @pytest.mark.parametrize("a", A_NEG + A_POS)
    def test_upper_gamma(self, a):
        x = _seam_points(a)
        v = sf.upper_gamma(a, x)
        for xi, vi in zip(x.tolist(), v):
            assert vi == pytest.approx(oracles.mp_gammainc(a, xi, math.inf),
                                       rel=5e-13, abs=1e-300), xi

    @pytest.mark.parametrize("a", A_NEG + A_POS)
    @pytest.mark.parametrize("h", GI_WIDTHS)
    def test_gamma_interval(self, a, h):
        x = _interval_points(a, h)
        v = sf.gamma_interval(a, x, h)
        for xi, vi in zip(x.tolist(), v):
            ref = oracles.mp_gamma_interval(a, xi, h)
            assert vi == pytest.approx(ref, rel=1e-12, abs=1e-300), xi

    @pytest.mark.parametrize("a", [-0.5, 0.13, 0.5, 1.7, 5.0])
    def test_masked_iteration_matches_scalar_bits(self, a):
        # the series and the trapezoidal rule over many elements at once,
        # through the incomplete gammas, against the mpmath oracle: the
        # first grid crosses the series / trapezoid seam, the second lies
        # in the trapezoid's range
        x = np.geomspace(1e-3, 6.0, 64)
        if a > 0.0:
            for xi, vi in zip(x.tolist(), sf.lower_gamma(a, x)):
                assert vi == pytest.approx(oracles.mp_gammainc(a, 0.0, xi), rel=1e-12), xi
        x = np.concatenate([x, np.geomspace(1.0, 80.0, 64) + max(a, 0.0)])
        for xi, vi in zip(x.tolist(), sf.upper_gamma(a, x)):
            assert vi == pytest.approx(oracles.mp_gammainc(a, xi, math.inf),
                                       rel=5e-13, abs=1e-300), xi

    @pytest.mark.parametrize("a", A_NEG + A_POS)
    def test_gamma_interval_width_array(self, a):
        # one width per cell, every width of GI_WIDTHS at each of its points
        # (both sides of the Gauss-Legendre seam, and for a > 1 the lower
        # difference at x < a and the upper one past it), interleaved: each
        # value is bit for bit that of the call with its width alone
        x = np.concatenate([_interval_points(a, h) for h in GI_WIDTHS])
        h = np.concatenate([np.full(_interval_points(a, h).size, h)
                            for h in GI_WIDTHS])
        order = np.random.default_rng(1).permutation(x.size)
        x, h = x[order], h[order]
        v = sf.gamma_interval(a, x, h)
        for hi in GI_WIDTHS:
            at = h == hi
            assert v[at].tolist() == sf.gamma_interval(a, x[at], hi).tolist(), hi
        n = x.size // 2 * 2  # an array of widths shaped like x
        assert (sf.gamma_interval(a, x[:n].reshape(2, -1), h[:n].reshape(2, -1)).tolist()
                == v[:n].reshape(2, -1).tolist())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_gamma_interval_bad_width_element(self, bad):
        with pytest.raises(ValueError):
            sf.gamma_interval(0.5, np.array([1.0, 2.0, 3.0]), np.array([0.1, bad, 0.2]))
        with pytest.raises(ValueError):  # one width per point
            sf.gamma_interval(0.5, np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]))

    def test_empty_input(self):
        empty = np.empty(0)
        assert sf._lower_series(0.5, empty, 1.5).shape == (0,)
        assert sf._upper_scaled(0.5, empty).shape == (0,)

    @pytest.mark.parametrize("a", [-0.5, 0.5, 1.7])
    def test_no_loop_on_empty_branch(self, a, monkeypatch):
        # an all-series or all-trapezoid input skips the other side: no call
        # of either gets zero elements, and the values stay bit for bit
        sizes = []
        for name in ("_lower_series", "_upper_scaled"):
            def spy(a_, x, *rest, real=getattr(sf, name)):
                sizes.append(x.size)
                return real(a_, x, *rest)
            monkeypatch.setattr(sf, name, spy)
        seam = max(1.0, a + 1.0)
        for x in (np.array([0.01, 0.5]), np.array([seam, 40.0]),
                  np.array([0.5, seam, 40.0])):
            want = [oracles.mp_gammainc(a, xi, math.inf) for xi in x.tolist()]
            assert sf.upper_gamma(a, x).tolist() == [sf.upper_gamma(a, xi)
                                                      for xi in x.tolist()]
            assert sf.upper_gamma(a, x) == pytest.approx(want, rel=5e-13)
            if a > 0.0:
                assert sf.lower_gamma(a, x).tolist() == [sf.lower_gamma(a, xi)
                                                          for xi in x.tolist()]
            sf.gamma_interval(a, x, 3.0)
        assert sizes and 0 not in sizes

    def test_domains(self):
        with pytest.raises(ValueError):
            sf.lower_gamma(-1.0, np.array([2.0]))
        with pytest.raises(ValueError):
            sf.lower_gamma(0.5, np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            sf.upper_gamma(0.5, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            sf.upper_gamma(-1.5, np.array([2.0]))
        with pytest.raises(ValueError):
            sf.gamma_interval(0.5, np.array([0.0]), 0.1)
        with pytest.raises(ValueError):
            sf.gamma_interval(0.5, np.array([1.0]), -0.1)


@pytest.mark.parametrize("a", [-0.95, -0.5, -0.05, 0.05, 0.5, 1.0, 2.0, 5.0, 20.0,
                               30.0, 100.0, 160.0])
def test_incomplete_gamma_domain_slice(a):
    # a fixed slice of the error map over the incomplete gammas' domain: a
    # log grid in x from 1e-8 to 700 and the seam max(1, a + 1) with its
    # neighbours and multiples, against mpmath; an array gives the
    # per-element values
    s = max(1.0, a + 1.0)
    x = np.concatenate([np.geomspace(1e-8, 700.0, 41),
                        [0.9 * s, np.nextafter(s, 0.0), s, np.nextafter(s, np.inf),
                         1.01 * s, 1.1 * s, 2.0 * s]])
    cases = [(sf.upper_gamma, lambda xi: oracles.mp_gammainc(a, xi, math.inf))]
    if a > 0.0:
        cases.append((sf.lower_gamma, lambda xi: oracles.mp_gammainc(a, 0.0, xi)))
    for f, ref in cases:
        v = f(a, x)
        assert v.tolist() == [f(a, xi) for xi in x.tolist()]
        for xi, vi in zip(x.tolist(), v):
            assert vi == pytest.approx(ref(xi), rel=5e-13, abs=1e-300), (f.__name__, xi)


@pytest.mark.parametrize("a", [30.0, 100.0, 160.0])
def test_upper_scaled_step_shrinks_with_a(a):
    # the trapezoidal rule alone, next to the seam: G(a, x) = Gamma(a, x)
    # e^x x^-a to 1e-14 (the rounding of the prefactor's exponent a log x - x
    # adds up to about 1e-13 to Gamma(a, x) itself at a = 160)
    x = np.array([1.0, 1.01, 1.1, 2.0]) * (a + 1.0)
    for xi, gi in zip(x.tolist(), sf._upper_scaled(a, x)):
        ref = oracles.mp_gammainc(a, xi, math.inf, scaled=True)
        assert gi == pytest.approx(ref, rel=1e-14, abs=0.0), xi


def _no_recurrence(*args, **kwargs):
    raise AssertionError("short cell reached the series or the trapezoidal rule")


class TestGammaIntervalRule:
    """Cells with h <= min(x/2, 1) are the 8-point Gauss-Legendre rule alone."""

    def test_nodes_and_weights(self):
        u, w = np.polynomial.legendre.leggauss(8)
        assert sf._GL8_NODES == pytest.approx(u.tolist(), rel=1e-15, abs=1e-16)
        assert sf._GL8_WEIGHTS == pytest.approx(w.tolist(), rel=1e-15)

    @pytest.mark.parametrize("a", A_NEG + A_POS)
    def test_short_cells_need_no_recurrence(self, a, monkeypatch):
        monkeypatch.setattr(sf, "_upper_scaled", _no_recurrence)
        monkeypatch.setattr(sf, "_lower_series", _no_recurrence)
        x = np.geomspace(1e-3, 60.0, 19)
        for h in (0.0, 1e-6, 1e-3, 0.1, 1.0):
            xs = x[h <= np.minimum(x / 2.0, 1.0)]
            for xi, vi in zip(xs.tolist(), sf.gamma_interval(a, xs, h)):
                ref = oracles.mp_gamma_interval(a, xi, h)
                assert vi == pytest.approx(ref, rel=1e-12, abs=1e-300), (xi, h)

    @pytest.mark.parametrize("a", [-0.5, 0.2, 1.3, 5.0])
    @pytest.mark.parametrize("x", [1e-3, 0.3, 2.0, 7.5, 50.0])
    def test_seam_continuity(self, a, x):
        # one width just inside the rule's range, the seam itself, and one
        # just outside it, where a difference of incomplete gammas takes over
        h = min(x / 2.0, 1.0)
        hs = [float(np.nextafter(h, 0.0)), h, float(np.nextafter(h, np.inf))]
        v = [sf.gamma_interval(a, x, hi) for hi in hs]
        for hi, vi in zip(hs, v):
            assert vi == pytest.approx(oracles.mp_gamma_interval(a, x, hi),
                                       rel=1e-12, abs=1e-300), hi
        assert v[2] == pytest.approx(v[0], rel=1e-12)

    def test_far_tail_oracle(self):
        # the oracle's digits grow with x: at a fixed 40 digits mpmath's
        # difference of upper gammas returned 0.0 here
        import mpmath as mp
        a, x, h = 0.83, 120.7, 1e-3
        with mp.workdps(50):
            ref = float(mp.quad(lambda s: s ** (a - 1) * mp.exp(-s),
                                [mp.mpf(x), mp.mpf(x) + mp.mpf(h)]))
        assert oracles.mp_gamma_interval(a, x, h) == pytest.approx(ref, rel=1e-14)
        assert sf.gamma_interval(a, x, h) == pytest.approx(ref, rel=1e-12)


# (s, q) reached by the lattice tails: s = 1 + 2H + 2i for H in (0, 2) and
# i < 60, q = L + 1 +- omega / 2pi for L = 8 ... 4096 and |omega| <= pi
_ZETA_S = (1.0 + 2e-7, 1.002, 1.2, 1.4, 2.0, 3.7, 5.0, 10.3, 24.0, 40.0, 81.4, 124.9)
_ZETA_Q = tuple(L + 1.0 + w / (2.0 * math.pi)
                for L in (8, 32, 512, 4096) for w in (-math.pi, 0.3, math.pi))


class TestHurwitzZeta:
    @pytest.mark.parametrize("q", _ZETA_Q)
    def test_against_mpmath(self, q):
        for s in _ZETA_S:
            ref = oracles.mp_hurwitz_em(s, q, 60, 40)
            v, _ = sf.hurwitz_zeta(s, q)
            if ref < 1e-300:  # below the normal floats: the value underflows
                assert 0.0 <= v < 1e-300
                continue
            assert abs(v - ref) <= 2e-15 * ref, (s, q)

    @pytest.mark.parametrize("q", _ZETA_Q)
    def test_bound_covers_truncation_error(self, q):
        # the true truncation error of the 9-term, 12-Bernoulli formula,
        # evaluated at 120 digits (it falls to 1e-90 of the value at q = 4096),
        # against the reference sum
        for s in _ZETA_S:
            _, bound = sf.hurwitz_zeta(s, q)
            exact = oracles.mp_hurwitz_em(s, q, 60, 40)
            if exact < 1e-300:  # the value, and the bound with it, underflow
                continue
            # (up to the smallest subnormal, where the bound underflows)
            err = abs(oracles.mp_hurwitz_em(s, q, 9, 12) - exact)
            assert err <= bound + 5e-324, (s, q)
            assert bound <= 1e-19 * exact, (s, q)

    @pytest.mark.parametrize("s", (1.0 + 2e-7, 1.4, 10.3, 124.9))
    def test_reference_matches_integral_representation(self, s):
        # the reference sum against an independent method, at one q per L
        for q in _ZETA_Q[1::3]:
            ref = oracles.mp_hurwitz_em(s, q, 60, 40)
            if ref > 1e-300:
                assert abs(oracles.mp_hurwitz_zeta_integral(s, q) - ref) <= 1e-17 * ref

    def test_integer_s(self):
        # zeta(2, 1) = pi^2/6 and zeta(4, 1/2) = 15 zeta(4) = pi^4/6
        assert sf.hurwitz_zeta(2.0, 1.0)[0] == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
        assert sf.hurwitz_zeta(4.0, 0.5)[0] == pytest.approx(math.pi ** 4 / 6, rel=1e-15)

    def test_domain(self):
        for s, q in ((1.0, 9.0), (0.5, 9.0), (2.0, 0.0), (2.0, -1.0)):
            with pytest.raises(ValueError):
                sf.hurwitz_zeta(s, q)
