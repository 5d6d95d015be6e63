"""Dependence diagnostics: codifference decay of the increment noises and
numerical verification of the local/global self-similarity limits.

The codifference of the unit-lag noise Y(t) = Z(t+1) - Z(t) is

    I(t) = || th1 Y(t) + th2 Y(0) ||_alpha^alpha
           - || th1 Y(t) ||_alpha^alpha - || th2 Y(0) ||_alpha^alpha,

an integral over the increment kernels that decays like e^{-lam t} t^{p} with
p = H - 1/alpha - 1 for the second kind and p = H - 1/alpha for the first,
the measurable distinction between the two processes.  Every integral here
runs through kernels._quad, so an error estimate above the QuadratureConfig
tolerances raises QuadratureError instead of passing silently.  The lags of
decay_diagnostic run as one _quad batch, each sweep evaluating the kernels
of every lag in array calls of kernels.kernel; codifference is the one-lag
case of the decay batch.  The global and local scales b of one kind are one
kernel_alpha_norm batch (_limit_rows, the one place of the limit rows'
formulas, behind global_limit_check and local_limit_check), whose every
sweep is one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import (ProcessParams, QuadratureConfig, DEFAULT_QUAD, _check_params,
                      _quad, kernel, kernel_alpha_norm)
from . import specfun


def _stable_bracket(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """|a+b|^alpha - |a|^alpha - |b|^alpha elementwise, without losing the
    small term: with |small| <= |large| and r = small/large > -1 the bracket
    is |large|^alpha expm1(alpha log1p(r)) - |small|^alpha."""
    swap = np.abs(a) > np.abs(b)
    small = np.where(swap, b, a)
    large = np.where(swap, a, b)
    out = np.zeros(a.shape)
    nz = (small != 0.0) & (large != 0.0)
    small, large = small[nz], large[nz]
    r = small / large
    main = np.abs(small + large) ** alpha - np.abs(large) ** alpha
    near = r > -1.0
    main[near] = np.abs(large[near]) ** alpha * np.expm1(alpha * np.log1p(r[near]))
    out[nz] = main - np.abs(small) ** alpha
    return out


def _codifferences(p: ProcessParams, lags: np.ndarray, theta1: float,
                   theta2: float, q: QuadratureConfig) -> np.ndarray:
    """I(t) at every integer lag of lags as one _quad batch over
    x in (-cutoff, 1], or (-inf, 1] for lam = 0, to the relative tolerance
    alone (epsabs = 0).  Each sweep evaluates the lag-t kernels of all lags
    in one kernel call, and the lag-0 kernel in another."""
    lags = np.asarray(lags, dtype=float)
    left = -q.cutoff(p.lam) if p.lam > 0.0 else -math.inf

    def integrand(x, rows):
        a = theta1 * kernel(p, 1.0, x - lags[rows])
        b = theta2 * kernel(p, 1.0, x)
        return _stable_bracket(a, b, p.alpha)

    return _quad(integrand, [(left, 0.0, 1.0)] * lags.size, q, epsabs=0.0)[0]


def codifference(p: ProcessParams, t: int, theta1: float, theta2: float,
                 q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Codifference I(t) of the unit-lag noise at integer lag t >= 1.

    The one-lag case of the batch behind decay_diagnostic: quadrature of
    the bracket integrand over x in (-cutoff, 1], or to -infinity through
    QUADPACK's infinite map for lam = 0 (the untempered kernels decay only
    polynomially), to the relative tolerance alone, with the near-cancellation
    between the lag-t and lag-0 kernels evaluated through log1p/expm1.
    """
    _check_params(times=(t,))
    if t < 1 or not float(t).is_integer():
        raise ValueError(f"codifference is defined for integer t >= 1, got {t}")
    if theta1 == 0.0 or theta2 == 0.0:
        return 0.0
    return float(_codifferences(p, [int(t)], theta1, theta2, q)[0])


def r_fn(p: ProcessParams, t: int, theta1: float, theta2: float,
         q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Covariance surrogate r(t) = K (e^{-I(t)} - 1) of the bivariate
    characteristic function, for symmetric noise (beta = 0).

    K = E e^{i th1 Y(0)} E e^{i th2 Y(0)} > 0 comes from the marginal
    alpha-norm; the sign of r at finite t is reported, not asserted.
    """
    if p.beta != 0.0:
        raise ValueError("r_fn is defined for the symmetric case beta = 0")
    if theta1 == 0.0 or theta2 == 0.0:
        return 0.0
    n0 = kernel_alpha_norm(p, 1.0, q)  # ||Y(0)||_alpha^alpha
    k = math.exp(-p.sigma ** p.alpha * (abs(theta1) ** p.alpha
                                        + abs(theta2) ** p.alpha) * n0)
    return k * math.expm1(-codifference(p, t, theta1, theta2, q))


@dataclass(frozen=True)
class DecayDiagnostic:
    """Codifference decay against the theoretical envelope e^{-lam t} t^p."""

    t_values: np.ndarray
    i_values: np.ndarray
    ratio: np.ndarray
    p_used: float
    slope: float
    band_factor: float
    band_ok: bool


def decay_diagnostic(p: ProcessParams, t_range, theta1: float, theta2: float,
                     q: QuadratureConfig = DEFAULT_QUAD,
                     band_factor: float = 3.0) -> DecayDiagnostic:
    """Ratios |I(t)| / (e^{-lam t} t^p) and the fitted log-log slope.

    p = H - 1/alpha - 1 (second kind) or H - 1/alpha (first kind).  The
    envelope statement is two-sided in magnitude, so the ratio and slope use
    |I(t)|; the signed values are kept in i_values (the first kind turns
    negative at large lags, its anti-persistence signature).  Requires
    1/alpha < H < 1, lam > 0 and same-sign theta weights; the band flag
    reports whether max/min of the ratio over the top half of t_range stays
    within band_factor.
    """
    if not (1.0 / p.alpha < p.H < 1.0):
        raise ValueError("decay theory requires 1/alpha < H < 1")
    if p.lam <= 0.0:
        raise ValueError("decay theory requires lambda > 0")
    if theta1 * theta2 <= 0.0:
        raise ValueError("decay diagnostic requires theta1 * theta2 > 0")
    ts = np.asarray(sorted(t_range), dtype=float)
    if ts.size < 2:
        raise ValueError("need at least two lags")
    p_used = p.H - 1.0 / p.alpha - (1.0 if p.kind == "II" else 0.0)
    if np.any(ts != np.floor(ts)) or ts[0] < 1:
        raise ValueError("codifference is defined for integer lags t >= 1")
    ivals = _codifferences(p, ts, theta1, theta2, q)
    if np.any(ivals == 0.0):
        raise ValueError("codifference vanished over the requested lags; "
                         "the envelope ratio is undefined")
    # ratio computed in log space: e^{-lam t} underflows quickly
    log_ratio = np.log(np.abs(ivals)) + p.lam * ts - p_used * np.log(ts)
    ratio = np.exp(log_ratio)
    slope = float(np.polyfit(np.log(ts), np.log(np.abs(ivals)) + p.lam * ts, 1)[0])
    top = ratio[ts >= ts[ts.size // 2]]
    band_ok = bool(np.max(top) / np.min(top) <= band_factor)
    return DecayDiagnostic(t_values=ts, i_values=ivals, ratio=ratio,
                           p_used=p_used, slope=slope,
                           band_factor=band_factor, band_ok=band_ok)


def global_limit_constant(p: ProcessParams) -> float:
    """Large-time limit of the normalized kernel alpha-norm.

    Second kind: c^alpha with c = lam^{1/alpha - H} Gamma(1 + H - 1/alpha)
    (the norm grows linearly, norm(b)/b -> c^alpha).  First kind: the norm
    itself converges to 2 Gamma(H alpha) / (lam alpha)^{H alpha}.
    """
    if p.lam <= 0.0:
        raise ValueError("global limit requires lambda > 0")
    if p.kind == "II":
        c = p.lam ** (1.0 / p.alpha - p.H) * specfun.gamma_fn(1.0 + p.kappa)
        return c ** p.alpha
    return 2.0 * specfun.gamma_fn(p.H * p.alpha) / (
        p.lam * p.alpha) ** (p.H * p.alpha)


def fsm_norm_limit(p: ProcessParams, q: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Small-time limit constant: the untempered kernel norm at t = 1,
    shared by both kinds (0 < H < 1)."""
    if not 0.0 < p.H < 1.0:
        raise ValueError("the untempered limit requires H in (0, 1)")
    p0 = replace(p, lam=0.0, kind="I")
    return kernel_alpha_norm(p0, 1.0, q)


def _scales(b_values) -> list[float]:
    """The scales b of a limit check in increasing order; each must be > 0."""
    bs = sorted(float(b) for b in b_values)
    if not all(b > 0.0 for b in bs):
        raise ValueError(f"limit scales must be positive, got {bs}")
    return bs


def _limit_rows(p: ProcessParams, b_global, b_local,
                q: QuadratureConfig = DEFAULT_QUAD,
                fsm_limit: float | None = None) -> tuple[list[dict], list[dict]]:
    """The rows of global_limit_check(p, b_global, q) and of
    local_limit_check(p, b_local, q), from one kernel_alpha_norm batch over
    both lists of scales: the integrals of a batch are independent, so the
    values are those of the two checks.  fsm_limit, when given, is
    fsm_norm_limit(p, q), which is the same for both kinds and every
    lambda, so that a caller checking both kinds integrates it once.

    A global row normalizes the norm at b by b for the second kind and
    leaves it as it is for the first; a local row by b^{-alpha H}.  Outside
    0 < H < 1 the local limit constant does not exist; local rows are still
    emitted with the range flag cleared, and NaN as limit and gap.
    """
    bg, bl = _scales(b_global), _scales(b_local)[::-1]
    in_range = bool(0.0 < p.H < 1.0)
    limit_g = global_limit_constant(p) if bg else math.nan
    limit_l = math.nan
    if bl and in_range:
        limit_l = fsm_norm_limit(p, q) if fsm_limit is None else fsm_limit
    norms = kernel_alpha_norm(p, bg + bl, q).tolist()

    def row(regime, b, normalized, limit):
        return {"regime": regime, "kind": p.kind, "b": b,
                "normalized": normalized, "limit": limit,
                "rel_gap": abs(normalized - limit) / limit,
                "in_theorem_range": in_range}

    return ([row("global", b, norm / b if p.kind == "II" else norm, limit_g)
             for b, norm in zip(bg, norms)],
            [row("local", b, b ** (-p.alpha * p.H) * norm, limit_l)
             for b, norm in zip(bl, norms[len(bg):])])


def global_limit_check(p: ProcessParams, b_values,
                       q: QuadratureConfig = DEFAULT_QUAD) -> list[dict]:
    """Normalized alpha-norms against the large-b limit, one row per b
    (_limit_rows)."""
    return _limit_rows(p, b_values, (), q)[0]


def local_limit_check(p: ProcessParams, b_values,
                      q: QuadratureConfig = DEFAULT_QUAD) -> list[dict]:
    """b^{-alpha H}-scaled alpha-norms against the small-b limit, one row per
    b from the largest (_limit_rows).

    Outside 0 < H < 1 the limit constant does not exist; rows are still
    emitted with the range flag cleared and no limit value.
    """
    return _limit_rows(p, (), b_values, q)[1]
