"""Dependence diagnostics: codifference decay of the increment noises and
numerical verification of the local/global self-similarity limits.

The codifference of the unit-lag noise Y(t) = Z(t+1) - Z(t) is

    I(t) = || th1 Y(t) + th2 Y(0) ||_alpha^alpha
           - || th1 Y(t) ||_alpha^alpha - || th2 Y(0) ||_alpha^alpha,

an integral over the increment kernels that decays like e^{-lam t} t^{p} with
p = H - 1/alpha - 1 for the second kind and p = H - 1/alpha for the first,
the measurable distinction between the two processes.  Every integral here
runs through kernels._quad, so an error estimate above the relative
tolerance rel_tol, a float that every function here passes on to _quad,
raises QuadratureError instead of passing silently.  The lags of
decay_diagnostic run as one _quad batch, each sweep evaluating the kernels
of every lag in array calls of kernels.kernel, the second kind's lag-0
kernel once per distinct node; codifference is the one-lag case of the
decay batch, and the batch alone checks the lags.  The global and local
scales b of one kind are one kernel_alpha_norm batch, whose every sweep is
one kernel call, and the untempered limit of the local rows is integrated
once for both kinds (_limit_rows, the one place of the limit rows'
formulas, behind global_limit_check, local_limit_check and the CLI's
limits table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import (ProcessParams, _check_params, _cutoff, _kinks, _norm_edges,
                      _quad, kernel, kernel_alpha_norm)
from . import specfun
from .errors import NumericsError


def _stable_bracket(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """|a+b|^alpha - |a|^alpha - |b|^alpha elementwise, without losing the
    small term: with |small| <= |large| and r = small/large >= -1 the bracket
    is |large|^alpha expm1(alpha log1p(r)) - |small|^alpha, exact at r = -1
    too (expm1(-inf) = -1).  A zero weight gives +0.0."""
    swap = np.abs(a) > np.abs(b)
    small = np.where(swap, b, a)
    large = np.where(swap, a, b)
    out = np.zeros(a.shape)
    nz = small != 0.0  # large is then nonzero too
    small, large = small[nz], large[nz]
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf
        log1p = np.log1p(small / large)
    out[nz] = np.abs(large) ** alpha * np.expm1(alpha * log1p) - np.abs(small) ** alpha
    return out


def _codifference_edges(p: ProcessParams, lag: float) -> list[float]:
    """Panel edges of I(lag) over (-inf, 1]: those of the lag-0 kernel's
    alpha-norm at t = 1 (_norm_edges: -inf, -cutoff, the graded -100, -10,
    -1 that fit above it, the first kind's sign change -s with
    s = 1/expm1(lam/kappa) when alpha < 2, then 0 and 1), and the lag-t
    kernel's own sign change lag - s where it lies inside (-cutoff, 1): at
    lag 1 alone when s < 1.  The bracket's one remaining kink, where the
    two kernels sum to 0, lies inside a panel."""
    lo = -_cutoff(p.lam)
    own = [lag + y for y in _kinks(p, 1.0) if lo < lag + y < 1.0]
    return sorted({*_norm_edges(p, 1.0), *own})


def _codifferences(p: ProcessParams, lags: np.ndarray, theta1: float,
                   theta2: float, rel_tol: float) -> np.ndarray:
    """I(t) at every integer lag of lags as one _quad batch over the panels
    of _codifference_edges, to the relative tolerance rel_tol.
    Each sweep evaluates the lag-t kernels of all lags in one kernel call,
    and the lag-0 kernel in another.  The lag-0 kernel depends on the node
    alone, and the lags without a sign change of their
    own integrate over the same edges, so most nodes of a sweep repeat
    across lags: for the second kind that call takes each distinct node
    once (np.unique) and the values are gathered back to every row.  The
    first kind's kernel costs less than that sort, so it is evaluated at
    every node.  kernel is elementwise, so each value is the one an
    evaluation at every node would give.  Each lag must be a finite integer
    >= 1; a weight of 0 makes every bracket, and so I(t), +0.0."""
    lags = np.asarray(lags, dtype=float)
    if not np.all((lags >= 1) & (lags < math.inf) & (lags == np.floor(lags))):
        raise ValueError(f"codifference needs finite integer lags >= 1, got {lags.tolist()}")

    def integrand(x, rows):
        a = theta1 * kernel(p, 1.0, x - lags[rows])
        if p.kind == "I":
            b = theta2 * kernel(p, 1.0, x)
        else:
            nodes, at = np.unique(x, return_inverse=True)
            b = theta2 * kernel(p, 1.0, nodes)[at]
        return _stable_bracket(a, b, p.alpha)

    edges = [_codifference_edges(p, lag) for lag in lags.tolist()]
    return _quad(integrand, edges, rel_tol)[0]


def codifference(p: ProcessParams, t: int, theta1: float, theta2: float,
                 rel_tol: float = 1e-9) -> float:
    """Codifference I(t) of the unit-lag noise at integer lag t >= 1.

    The one-lag case of the batch behind decay_diagnostic: quadrature of
    the bracket integrand over x in (-inf, 1], with one panel through
    QUADPACK's infinite map below -cutoff, to the relative tolerance alone,
    with the near-cancellation between the lag-t and lag-0 kernels
    evaluated through log1p/expm1; a zero weight gives +0.0.
    """
    _check_params(weights=(theta1, theta2))
    return float(_codifferences(p, [t], theta1, theta2, rel_tol)[0])


@dataclass(frozen=True, eq=False)
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
                     rel_tol: float = 1e-9,
                     band_factor: float = 3.0) -> DecayDiagnostic:
    """Ratios |I(t)| / (e^{-lam t} t^p) and the fitted log-log slope.

    p = H - 1/alpha - 1 (second kind) or H - 1/alpha (first kind).  The
    envelope statement is two-sided in magnitude, so the ratio and slope use
    |I(t)|; the signed values are kept in i_values (the first kind turns
    negative at large lags, its anti-persistence signature).  Requires
    1/alpha < H < 1, lam > 0 and same-sign theta weights; the band flag
    reports whether max/min of the ratio over the top half of t_range stays
    within band_factor.  A codifference that underflows to 0 (e^{-lam t}
    below the least double) raises NumericsError.
    """
    _check_params(weights=(theta1, theta2))
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
    ivals = _codifferences(p, ts, theta1, theta2, rel_tol)
    if np.any(ivals == 0.0):
        raise NumericsError("codifference underflowed to 0 over the requested "
                            "lags; the envelope ratio is undefined")
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


def fsm_norm_limit(p: ProcessParams, rel_tol: float = 1e-9) -> float:
    """Small-time limit constant: the untempered kernel norm at t = 1,
    shared by both kinds and every lambda.  It exists for 0 < H < 1 alone,
    the range ProcessParams checks at lambda = 0 (ValueError outside it)."""
    p0 = replace(p, lam=0.0, kind="I")
    return kernel_alpha_norm(p0, 1.0, rel_tol)


def _scales(b_values) -> list[float]:
    """The scales b of a limit check in increasing order; each must be > 0."""
    bs = sorted(float(b) for b in b_values)
    if not all(b > 0.0 for b in bs):
        raise ValueError(f"limit scales must be positive, got {bs}")
    return bs


def _limit_rows(ps, b_global, b_local,
                rel_tol: float = 1e-9) -> tuple[list[dict], list[dict]]:
    """The rows of global_limit_check(p, b_global, rel_tol) and of
    local_limit_check(p, b_local, rel_tol) for each process p of ps in
    turn, as two lists: the global rows of every p, then their local rows.
    The ps are the processes of one table, which share H, alpha and lambda
    (the CLI's limits passes one per kind).  Each p's scales are one
    kernel_alpha_norm batch, and its integrals are independent, so the
    values are those of the two checks.  The local limit,
    fsm_norm_limit(ps[0], rel_tol), is the same for both kinds and every
    lambda, and is integrated once for all of ps.

    A global row normalizes the norm at b by b for the second kind and
    leaves it as it is for the first; a local row by b^{-alpha H}.  Outside
    0 < H < 1 the local limit constant does not exist; local rows are still
    emitted with the range flag cleared, and NaN as limit and gap.
    """
    bg, bl = _scales(b_global), _scales(b_local)[::-1]
    try:  # each local row's b^{-alpha H}, before any integral
        scale_l = [b ** (-ps[0].alpha * ps[0].H) for b in bl]
    except OverflowError:  # the least b, bl[-1], overflows first
        raise NumericsError(f"local limit: b^(-alpha H) overflows at b = {bl[-1]}") from None
    in_range = bool(0.0 < ps[0].H < 1.0)
    limit_l = fsm_norm_limit(ps[0], rel_tol) if bl and in_range else math.nan

    def row(p, regime, b, normalized, limit):
        return {"regime": regime, "kind": p.kind, "b": b,
                "normalized": normalized, "limit": limit,
                "rel_gap": abs(normalized - limit) / limit,
                "in_theorem_range": in_range}

    rows_g, rows_l = [], []
    for p in ps:
        limit_g = global_limit_constant(p) if bg else math.nan
        norms = kernel_alpha_norm(p, bg + bl, rel_tol).tolist()
        rows_g += [row(p, "global", b, norm / b if p.kind == "II" else norm, limit_g)
                   for b, norm in zip(bg, norms)]
        rows_l += [row(p, "local", b, scale * norm, limit_l)
                   for b, scale, norm in zip(bl, scale_l, norms[len(bg):])]
    return rows_g, rows_l


def global_limit_check(p: ProcessParams, b_values,
                       rel_tol: float = 1e-9) -> list[dict]:
    """Normalized alpha-norms against the large-b limit, one row per b
    (_limit_rows)."""
    return _limit_rows([p], b_values, (), rel_tol)[0]


def local_limit_check(p: ProcessParams, b_values,
                      rel_tol: float = 1e-9) -> list[dict]:
    """b^{-alpha H}-scaled alpha-norms against the small-b limit, one row per
    b from the largest (_limit_rows).

    Outside 0 < H < 1 the limit constant does not exist; rows are still
    emitted with the range flag cleared and no limit value.
    """
    return _limit_rows([p], (), b_values, rel_tol)[1]
