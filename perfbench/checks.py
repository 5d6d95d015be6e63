"""Output checks of the benchmark.

Every output file is parsed and compared, with the acceptance suite's
tolerances rather than byte equality:

- seed-free tables (spectrum, covariance, decay, limits) against the reference
  tables in ``ref/``, written by ``make_refs.py``;
- stable Monte Carlo paths against an independent recomputation: the kernel
  table from SciPy's regularized incomplete gamma and the stable cell noise
  from NumPy's Philox generator with the Chambers-Mallows-Stuck transform;
- exact Gaussian paths statistically, since another exact factorization
  draws other paths: the sample variance at every grid time against the
  closed-form C_t^2 of ``ref/gauss_var.json`` (mpmath), within
  standard-error bands.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

REF = Path(__file__).resolve().parent / "ref"

# kernel values to 1e-9 absolute (criterion 01); a path sum_k k_k dM_k then
# moves by at most 1e-9 * sum_k |dM_k|
KERNEL_ABS_TOL = 1e-9
# spectral density to 1e-10 plus the reported truncation bounds (criterion 07)
SPECTRUM_ABS_TOL = 1e-10
# closed-form and quadrature values to 1e-6 relative (criterion 04)
VALUE_REL_TOL = 1e-6
# codifference decay slope to +-0.15 (criterion 11)
SLOPE_TOL = 0.15
# sample variance within Z_BAND standard errors (criterion 12 uses 4 for one
# time point; 6 keeps the family-wise false-alarm rate of 2,048 correlated
# time points below 1e-5)
Z_BAND = 6.0
GRID_ABS_TOL = 1e-12

# (abs, rel, bound columns added to abs) per column; None compares as text
TABLE_TOLS = {
    "spectrum": {
        "omega": (GRID_ABS_TOL, 0.0, ()),
        "tfgn_density": (SPECTRUM_ABS_TOL, 0.0, ("err_bound_1",)),
        "tfgn2_density": (SPECTRUM_ABS_TOL, 0.0, ("err_bound_2",)),
        "err_bound_1": (SPECTRUM_ABS_TOL, 0.0, ()),
        "err_bound_2": (SPECTRUM_ABS_TOL, 0.0, ()),
    },
    "covariance": {
        "s": (GRID_ABS_TOL, 0.0, ()), "t": (GRID_ABS_TOL, 0.0, ()),
        "cov": (0.0, VALUE_REL_TOL, ()),
    },
    "decay": {
        "t": None, "p_used": (GRID_ABS_TOL, 0.0, ()),
        "codifference": (0.0, VALUE_REL_TOL, ()),
        "ratio": (0.0, VALUE_REL_TOL, ()),
    },
    "limits": {
        "regime": None, "kind": None, "in_theorem_range": None,
        "b": (0.0, GRID_ABS_TOL, ()),
        "normalized": (0.0, VALUE_REL_TOL, ()),
        "limit": (0.0, VALUE_REL_TOL, ()),
        "rel_gap": (VALUE_REL_TOL, 0.0, ()),
    },
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def flags(argv) -> dict[str, str]:
    """``--name value`` and ``--name=value`` pairs of a CLI argument list."""
    out = {}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a.startswith("--"):
            if "=" in a:
                k, v = a[2:].split("=", 1)
                out[k] = v
            elif i + 1 < len(argv):
                out[a[2:]] = argv[i + 1]
                i += 1
        i += 1
    return out


def read_table(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """Meta line, column names and rows of a CLI CSV output."""
    with open(path) as fh:
        head = fh.readline()
        columns = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not head.startswith("# tfmotion "):
        raise ValueError("missing '# tfmotion' header line")
    meta = dict(kv.split("=", 1) for kv in head.split()[3:])
    return meta, columns, rows


def read_numeric(path: Path, n_cols: int) -> np.ndarray:
    a = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if a.shape[1] != n_cols:
        raise ValueError(f"expected {n_cols} columns, got {a.shape[1]}")
    return a


# ---------------------------------------------------------------------------
# seed-free tables


def check_table(kind: str, ref_name: str, path: Path) -> list[str]:
    meta, columns, rows = read_table(path)
    rmeta, rcolumns, rrows = read_table(REF / f"{ref_name}.csv")
    if columns != rcolumns:
        return [f"columns {columns} != reference {rcolumns}"]
    if len(rows) != len(rrows):
        return [f"{len(rows)} rows != reference {len(rrows)}"]
    tols = TABLE_TOLS[kind]
    col = {c: i for i, c in enumerate(columns)}
    problems = []
    for r, (row, ref) in enumerate(zip(rows, rrows)):
        if len(row) != len(columns):
            problems.append(f"row {r}: {len(row)} fields")
            continue
        for c, tol in tols.items():
            a, b = row[col[c]], ref[col[c]]
            if tol is None:
                if a != b:
                    problems.append(f"row {r} {c}: {a!r} != {b!r}")
                continue
            abs_tol, rel_tol, bounds = tol
            x, y = float(a), float(b)
            if math.isnan(y) and math.isnan(x):
                continue
            allowed = abs_tol + rel_tol * abs(y) + sum(
                float(row[col[k]]) + float(ref[col[k]]) for k in bounds)
            if not abs(x - y) <= allowed:
                problems.append(f"row {r} {c}: {x!r} vs reference {y!r} "
                                f"(allowed {allowed:.3g})")
    if kind == "decay":
        slope, rslope = float(meta["slope"]), float(rmeta["slope"])
        if not abs(slope - rslope) <= SLOPE_TOL:
            problems.append(f"slope {slope} vs reference {rslope}")
    return problems[:10]


# ---------------------------------------------------------------------------
# stable Monte Carlo paths


def _phi(x: np.ndarray, kappa: float, lam: float) -> np.ndarray:
    out = np.zeros_like(x)
    m = x > 0.0
    out[m] = x[m] ** kappa * np.exp(-lam * x[m])
    return out


def oracle_kernel_table(H, alpha, lam, kind, times, ys) -> np.ndarray:
    """k(t_i; y_k) from the definitions, with SciPy's incomplete gamma:

        g = phi(t - y) - phi(-y),  phi(x) = x_+^kappa e^{-lam x}
        h = g + lam^-kappa Gamma(kappa+1) [P(kappa+1, lam (t-y)_+)
                                           - P(kappa+1, lam (-y)_+)]
    """
    kappa = H - 1.0 / alpha
    t = times[:, None]
    y = ys[None, :]
    g = _phi(t - y, kappa, lam) - _phi(-y, kappa, lam)
    if kind == "I":
        return g
    if kappa <= 0.0:
        raise ValueError("the stable oracle covers kind II only for H > 1/alpha")
    a = kappa + 1.0
    hi = special.gammainc(a, lam * np.maximum(t - y, 0.0))
    lo = special.gammainc(a, lam * np.maximum(-y, 0.0))
    return g + lam ** (-kappa) * special.gamma(a) * (hi - lo)


def oracle_increments(alpha: float, dy: float, n_nodes: int, seed: int,
                      path: int) -> np.ndarray:
    """Symmetric stable cell increments keyed by (seed, path)."""
    mask = 0xFFFFFFFFFFFFFFFF
    key = np.array([seed & mask, path & mask], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random((n_nodes, 2))
    u[u == 0.0] = 0.5 ** 53
    theta = math.pi * (u[:, 0] - 0.5)
    w = -np.log(u[:, 1])
    x = (np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
    return dy ** (1.0 / alpha) * x


def check_stable(argv, path: Path) -> list[str]:
    f = flags(argv)
    H, alpha, lam = float(f["H"]), float(f["alpha"]), float(f["lambda"])
    kind, seed = f.get("kind", "II"), int(f.get("seed", 0))
    t_max, n, n_paths = float(f["t-max"]), int(f["n"]), int(f["n-paths"])
    if float(f.get("sigma", 1.0)) != 1.0 or float(f.get("beta", 0.0)) != 0.0:
        raise ValueError("the stable oracle covers sigma = 1, beta = 0")
    dy = float(f.get("plan-dy", t_max / 256.0))
    cutoff = float(f["plan-cutoff"]) if "plan-cutoff" in f else max(50.0 / lam, 50.0)
    times = np.linspace(0.0, t_max, n)
    y_min = -cutoff
    n_nodes = int(math.ceil((t_max - y_min) / dy))
    ys = y_min + dy * (np.arange(n_nodes) + 0.5)

    a = read_numeric(path, 3)
    if a.shape[0] != n_paths * n:
        return [f"{a.shape[0]} rows, expected {n_paths * n}"]
    ids, ts, vals = a[:, 0], a[:, 1], a[:, 2].reshape(n_paths, n)
    if not (np.array_equal(ids, np.repeat(np.arange(n_paths), n))
            and np.allclose(ts, np.tile(times, n_paths), rtol=0.0,
                            atol=GRID_ABS_TOL)):
        return ["path_id/t columns do not match the grid"]
    table = oracle_kernel_table(H, alpha, lam, kind, times, ys)
    problems = []
    for i in range(n_paths):
        dm = oracle_increments(alpha, dy, n_nodes, seed, i)
        ref = table @ dm
        allowed = KERNEL_ABS_TOL * float(np.sum(np.abs(dm)))
        err = np.abs(vals[i] - ref)
        if not np.all(err <= allowed):
            j = int(np.argmax(err))
            problems.append(f"path {i} t={times[j]:g}: {vals[i, j]!r} vs oracle "
                            f"{ref[j]!r} (allowed {allowed:.3g})")
    return problems[:10]


# ---------------------------------------------------------------------------
# exact Gaussian paths


def check_gauss(argv, path: Path) -> list[str]:
    f = flags(argv)
    with open(REF / "gauss_var.json") as fh:
        ref = json.load(fh)
    key = {k: float(f[k]) for k in ("H", "lambda", "t-max", "n")}
    if key != {k: float(ref[k]) for k in key}:
        raise ValueError(f"no reference variances for {key}")
    n, n_paths = int(f["n"]), int(f["n-paths"])
    times = np.linspace(0.0, float(f["t-max"]), n)
    a = read_numeric(path, 3)
    if a.shape[0] != n_paths * n:
        return [f"{a.shape[0]} rows, expected {n_paths * n}"]
    ids, ts, vals = a[:, 0], a[:, 1], a[:, 2].reshape(n_paths, n)
    if not (np.array_equal(ids, np.repeat(np.arange(n_paths), n))
            and np.allclose(ts, np.tile(times, n_paths), rtol=0.0,
                            atol=GRID_ABS_TOL)):
        return ["path_id/t columns do not match the grid"]
    c2 = np.asarray(ref["c2"], dtype=float)
    live = c2 > 0.0
    problems = []
    if np.any(vals[:, ~live] != 0.0):
        problems.append("nonzero value at a zero-variance time")
    # mean-zero paths: mean of squares has standard error C_t^2 sqrt(2/N)
    var = np.mean(vals[:, live] ** 2, axis=0)
    z = np.abs(var - c2[live]) / (c2[live] * math.sqrt(2.0 / n_paths))
    if not np.all(z <= Z_BAND):
        j = int(np.argmax(z))
        problems.append(f"sample variance {var[j]:.6g} vs C_t^2 {c2[live][j]:.6g} "
                        f"at t={times[live][j]:g}: {z[j]:.2f} standard errors")
    return problems


def check_output(inv, argv, path: Path) -> list[str]:
    """Problems of one invocation's output file (empty list: passed)."""
    if not path.exists():
        return ["no output file"]
    try:
        if inv.check == "stable":
            return check_stable(argv, path)
        if inv.check == "gauss":
            return check_gauss(argv, path)
        return check_table(inv.argv[0], inv.name, path)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]
