import ast
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from tfmotion import specfun as sf
from tfmotion.errors import NumericsError, PoleError
from tfmotion.gaussian import _variance_series, variance_tfbm2

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
            assert sf.gamma_fn(x) == pytest.approx(oracles.mp_gamma(x), rel=2e-15)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.1, 20.0, 200):
            x = float(x)
            assert sf.gamma_fn(x + 1.0) == pytest.approx(x * sf.gamma_fn(x), rel=1e-12)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                sf.gamma_fn(x)

    def test_overflow_is_numerics_error(self):
        # math.gamma's bare OverflowError ("math range error") becomes a
        # package error naming the function and x, also through a caller
        for x in (171.7, 5e-324, -5e-324):
            with pytest.raises(NumericsError, match=rf"gamma_fn overflows at x = {x!r}$"):
                sf.gamma_fn(x)
        with pytest.raises(NumericsError, match=r"gamma_fn overflows at x = 5e-324$"):
            variance_tfbm2(5e-324, 0.01, np.array([51.0, 50.0, 49.0]))


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


# (H, largest lam t) of the series tests below: lam t up to where
# variance_tfbm2 first raises on a grid of 10 points a decade
SERIES_H = [(0.05, 25.0), (0.3, 25.0), (0.5001, 31.6), (0.7, 25.0), (0.99, 20.0),
            (1.01, 20.0), (1.3, 20.0), (1.7, 20.0), (1.99, 15.8)]


class TestHyp2F3:
    """The variance's two series, gaussian._variance_series: its rows are
    1 - F1 and F2 with F1 = 2F3(1, -1/2; 1-H, 1/2, 1; z) and
    F2 = 2F3(1, H-1/2; 1, H+1, H+1/2; z)."""

    def test_z_zero(self):
        assert _variance_series(0.7, np.zeros(2)).tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_terminating_numerator(self):
        # at H = 1/2 the numerator H - 1/2 of F2 is 0 and F2 ends at its first term
        assert _variance_series(0.5, np.array([0.5, 10.0, 300.0]))[1].tolist() == [1.0] * 3

    def test_variance_parameter_sets_frozen(self):
        # the two series entering the H = 0.7, lam = 0.15, t = 1 variance,
        # frozen from a 50-digit 200-term reference sum
        u, f2 = _variance_series(0.7, np.array([0.005625]))[:, 0]
        assert u == pytest.approx(1.0 - 0.981236471749528045, rel=1e-12)
        assert f2 == pytest.approx(1.0005517840329863, rel=1e-12)

    def test_against_extended_precision(self):
        # both rows within 4e-15 of mpmath from z = 1e-40 up to the raise
        # boundary z = (lam t)^2 / 4; 1 - F1 relative to itself, although it
        # is of order z, and F2 relative to max(1, |F2|), since for H < 1/2
        # its terms after the first are negative
        for H, lt_max in SERIES_H:
            z = np.concatenate([[1e-40, 1e-21],
                                np.logspace(-12.0, math.log10(lt_max ** 2 / 4), 25)])
            u, f2 = _variance_series(H, z)
            for zi, ui, fi in zip(z.tolist(), u.tolist(), f2.tolist()):
                ref_u = oracles.mp_hyp2f3((1.0, -0.5), (1.0 - H, 0.5, 1.0), zi,
                                          complement=True)
                ref_f = oracles.mp_hyp2f3((1.0, H - 0.5), (1.0, H + 1.0, H + 0.5), zi)
                assert ui == pytest.approx(ref_u, rel=4e-15, abs=0.0), (H, zi)
                assert abs(fi - ref_f) <= 4e-15 * max(1.0, abs(ref_f)), (H, zi)

    def test_denominator_pole(self):
        # at integer H a denominator parameter of a series (1 - H, or H + 1/2
        # at H = 1/2 - k) is a pole: variance_tfbm2 raises before summing
        for H in (1.0, 2.0, 3.0):
            with pytest.raises(PoleError):
                variance_tfbm2(H, 0.5, 0.3)

    def test_non_convergence(self):
        # at z = 1.28e5 the terms grow to about e^(2 sqrt z) = e^716 and leave
        # the float range, and at z = 1e6 sooner: the sums turn inf, the loop
        # ends there, and variance_tfbm2 raises NumericsError with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1.28e5, 1e6):
                assert not np.isfinite(_variance_series(0.7, np.array([z]))).all()
                with pytest.raises(NumericsError, match="its terms cancel"):
                    variance_tfbm2(0.7, 1.0, 2.0 * math.sqrt(z))

    @pytest.mark.parametrize("H,lt_max", SERIES_H)
    def test_array_matches_per_element_calls(self, H, lt_max):
        # one masked loop does the arithmetic of per-element calls, bit for
        # bit, both through the series and through variance_tfbm2
        lam = 0.15
        lt = np.logspace(-10.0, math.log10(0.8 * lt_max), 40)
        t = np.concatenate([[0.0, 1.0, 1e-9], lt]) / lam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = 0.25 * (lam * t) ** 2
            assert _variance_series(H, z).T.tolist() == [
                _variance_series(H, z[i:i + 1])[:, 0].tolist() for i in range(z.size)]
            got = variance_tfbm2(H, lam, t)
        assert got.tolist() == [variance_tfbm2(H, lam, x) for x in t.tolist()]

    def test_no_series_control(self):
        # no series options, no generic 2F3 and no term cap anywhere in the
        # package, and variance_tfbm2 is the one caller of its series
        callers = set()
        for f in Path(sf.__file__).parent.glob("*.py"):
            src = f.read_text()
            for token in ("SeriesControl", "DEFAULT_SERIES", "hyp2f3", "_HYP_",
                          "SeriesConvergenceError"):
                assert token not in src, (f.name, token)
            callers |= {f"{f.stem}.{getattr(node, 'name', '')}" for node in ast.parse(src).body
                        if any(isinstance(n, ast.Name) and n.id == "_variance_series"
                               or isinstance(n, ast.Attribute) and n.attr == "_variance_series"
                               for n in ast.walk(node))}
        assert callers == {"gaussian.variance_tfbm2"}


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


def _seam(a):
    """The series / trapezoid seam of the incomplete gammas."""
    return a + 1.0 if a >= 1.0 else 0.3


def _seam_points(a):
    """x on both sides of the series / trapezoid seam."""
    s = _seam(a)
    return np.array([1e-4, 0.1, np.nextafter(s, 0.0), s, np.nextafter(s, np.inf),
                     1.0, 1.7, 3.0, 12.0, 40.0, 200.0])


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
        seam = _seam(a)
        for x in (np.array([0.01, 0.5 * seam]), np.array([seam, 40.0]),
                  np.array([0.5 * seam, seam, 40.0])):
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


@pytest.mark.parametrize("a", [-0.95, -0.5, -0.05, 0.01, 0.05, 0.5, 1.0, 2.0, 5.0,
                               20.0, 30.0, 100.0, 160.0])
def test_incomplete_gamma_domain_slice(a):
    # a fixed slice of the error map over the incomplete gammas' domain: a
    # log grid in x from 1e-8 to 700, the seam with its neighbours and
    # multiples, and points just below x = 1, where Gamma(a) minus the
    # series would cancel for small a, against mpmath; an array gives the
    # per-element values
    s = _seam(a)
    x = np.concatenate([np.geomspace(1e-8, 700.0, 41),
                        [0.9 * s, np.nextafter(s, 0.0), s, np.nextafter(s, np.inf),
                         1.01 * s, 1.1 * s, 2.0 * s],
                        [0.9, 0.99, 0.9999, np.nextafter(1.0, 0.0)]])
    rel = 5e-14 if a < 1.0 else 5e-13
    cases = [(sf.upper_gamma, lambda xi: oracles.mp_gammainc(a, xi, math.inf))]
    if a > 0.0:
        cases.append((sf.lower_gamma, lambda xi: oracles.mp_gammainc(a, 0.0, xi)))
    for f, ref in cases:
        v = f(a, x)
        assert v.tolist() == [f(a, xi) for xi in x.tolist()]
        for xi, vi in zip(x.tolist(), v):
            assert vi == pytest.approx(ref(xi), rel=rel, abs=1e-300), (f.__name__, xi)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_upper_gamma_near_zero_a(sign):
    # below the seam x = 0.3, Gamma(a) - gamma(a, x) would cancel as a nears
    # 0, both being near 1/a; the series form of _upper_near_zero holds
    # 2e-15 for every 0 < |a| < 0.1
    x = np.append(np.geomspace(1e-8, 0.3, 25, endpoint=False), np.nextafter(0.3, 0.0))
    for a in sign * np.append(np.geomspace(1e-12, 0.09, 12), np.nextafter(0.1, 0.0)):
        for xi, vi in zip(x.tolist(), sf.upper_gamma(float(a), x).tolist()):
            ref = oracles.mp_gammainc(float(a), xi, math.inf)
            assert abs(vi - ref) <= 2e-15 * abs(ref), (a, xi)


@pytest.mark.parametrize("a", [30.0, 100.0, 160.0])
def test_upper_scaled_step_shrinks_with_a(a):
    # the trapezoidal rule alone, next to the seam: G(a, x) = Gamma(a, x)
    # e^x x^-a to 1e-14 (the rounding of the prefactor's exponent a log x - x
    # adds up to about 1e-13 to Gamma(a, x) itself at a = 160)
    x = np.array([1.0, 1.01, 1.1, 2.0]) * (a + 1.0)
    for xi, gi in zip(x.tolist(), sf._upper_scaled(a, x)):
        ref = oracles.mp_gammainc(a, xi, math.inf, scaled=True)
        assert gi == pytest.approx(ref, rel=1e-14, abs=0.0), xi


@pytest.mark.parametrize("a", [-0.95, -0.7, -0.25, 0.05, 0.5, 1.5, 3.3, 10.0, 20.0])
def test_upper_gamma_far_tail(a):
    # x in [100, 700], where the prefactor exp(-x) x^a is formed as that
    # product: the exponent form exp(a log x - x) was up to 7.2e-14 off here
    # (5.5e-14 at a = -0.95), and the worst measured when this test was
    # written was 7.8e-16 (a = 3.3, x = 117.6): the bound holds it, and only
    # ever shrinks
    x = np.append(np.geomspace(100.0, 700.0, 37), 544.63)
    for xi, vi in zip(x.tolist(), sf.upper_gamma(a, x).tolist()):
        ref = oracles.mp_gammainc(a, xi, math.inf)
        assert abs(vi - ref) <= 1e-15 * ref, xi


@pytest.mark.parametrize("x", [100.0, 700.0, 800.0, 1000.0])
def test_upper_gamma_exponent_form(x):
    # at a = 160, x^a overflows from x = 85 on and e^-x underflows past
    # x = 745: the prefactor is exp(a log x - x) there, without a warning
    ref = oracles.mp_gammainc(160.0, x, math.inf)
    assert sf.upper_gamma(160.0, x) == pytest.approx(ref, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("a", [-0.95, -0.9, -0.75, -0.5, -0.25, -0.05, 0.05,
                                   0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 2.99])
    def test_accuracy_band(self, a):
        # the rule's cells on a fixed grid against mpmath: x log-spaced over
        # [1e-3, 60] and x = 2, where h = min(x/2, 1) = 1 reaches both limits
        # and s = 0 is nearest (four half-widths); widths at fractions of the
        # limit.  The worst relative errors measured when this test was
        # written were 2.49e-14 (a = -0.95) and 1.67e-15 (a = 0.05, both at
        # x = 2, h = 1): the bounds hold them, and only ever shrink
        x = np.append(np.geomspace(1e-3, 60.0, 41), 2.0)
        bound = 3e-14 if a < 0.0 else 2e-15
        for f in (1.0, 0.5, 0.1, 1e-3):
            h = f * np.minimum(x / 2.0, 1.0)
            v = sf.gamma_interval(a, x, h)
            for xi, hi, vi in zip(x.tolist(), h.tolist(), v.tolist()):
                ref = oracles.mp_gamma_interval(a, xi, hi)
                assert abs(vi - ref) <= bound * abs(ref), (xi, hi)

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

    @pytest.mark.parametrize("q", _ZETA_Q)
    def test_scaled_against_mpmath(self, q):
        # c^s zeta(s, q) at c = L + 1 stays in range where zeta(s, q)
        # underflows (s = 124.9 at L = 4096); rounding (q + k)/c costs about
        # s/2 units in the last place, as the rounding of q itself does
        c = math.floor(q + 0.5)
        for s in _ZETA_S:
            with mp.workdps(40):
                ref = float(mp.power(c, s) * oracles.mp_hurwitz_em(s, q, 60, 40))
            v, bound = sf.hurwitz_zeta(s, q, c)
            assert abs(v - ref) <= (2e-15 + 2e-16 * s) * ref, (s, q)
            assert bound <= 1e-19 * ref, (s, q)

    @pytest.mark.parametrize("s", (1.0 + 2e-7, 1.4, 10.3, 124.9))
    def test_reference_matches_integral_representation(self, s):
        # the reference sum against an independent method, at one q per L
        for q in _ZETA_Q[1::3]:
            ref = oracles.mp_hurwitz_em(s, q, 60, 40)
            if ref > 1e-300:
                assert abs(oracles.mp_hurwitz_zeta_integral(s, q) - ref) <= 1e-17 * ref

    def test_array_elements_equal_one_element_calls(self):
        # an array of q gives arrays of its shape, each element's values
        # those of a call with it alone (a float q gives two floats)
        q = np.array(_ZETA_Q).reshape(3, 4)
        for s in _ZETA_S:
            v, bound = sf.hurwitz_zeta(s, q)
            assert v.shape == bound.shape == q.shape
            for x, vi, bi in zip(q.ravel().tolist(), v.ravel().tolist(),
                                 bound.ravel().tolist()):
                one = sf.hurwitz_zeta(s, x)
                assert type(one[0]) is float and one == (vi, bi), (s, x)

    def test_integer_s(self):
        # zeta(2, 1) = pi^2/6 and zeta(4, 1/2) = 15 zeta(4) = pi^4/6
        assert sf.hurwitz_zeta(2.0, 1.0)[0] == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
        assert sf.hurwitz_zeta(4.0, 0.5)[0] == pytest.approx(math.pi ** 4 / 6, rel=1e-15)

    def test_domain(self):
        for s, q in ((1.0, 9.0), (0.5, 9.0), (2.0, 0.0), (2.0, -1.0)):
            with pytest.raises(ValueError):
                sf.hurwitz_zeta(s, q)
        with pytest.raises(ValueError, match="got -1.0"):  # the first bad q
            sf.hurwitz_zeta(2.0, np.array([9.0, -1.0, 0.0]))
