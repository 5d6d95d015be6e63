"""Command-line front end: spectrum | simulate | covariance | decay | limits.

One table, ``_COMMANDS``, lists each command's own options with their
defaults; every command also takes the run-wide options of ``_RUN_WIDE``.
A value comes from its flag, else from the JSON ``--config`` file, else
from the table.  --H and --lambda have no default, and an unset
process option keeps its ``ProcessParams`` default.  The library checks the
parameter ranges and that H, lambda, sigma, times and lags are finite; the
CLI's float type ``finite`` also rejects NaN and inf in the numbers the
library does not check (tolerances, weights, grid specs, value lists), and
the CLI adds simulate's lambda > 0 and its refusal of first-kind Gaussian
paths.  Every command computes through the library modules and emits one
table as CSV or JSON.  Runs are deterministic given the flags and seed,
and every command computes in the calling thread.  Gaussian paths are made
in batches that share one inverse FFT, stable paths in blocks whose bounds
depend on the plan alone, each block one matrix product with the kernel
table.  limits integrates each kind's global and local scales as one
quadrature batch, and the untempered limit constant once for both kinds.
simulate's CSV is formatted in NumPy, one block of paths at a time, as the
bytes Python's %.17g gives.  Exit codes: 0 ok, 2 invalid usage/parameters,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

import numpy as np

from .errors import NumericsError
from .kernels import ProcessParams, QuadratureConfig
from .gaussian import (SampleGrid, build_cov_matrix, simulate_gaussian_paths,
                       tfgn1_spectral_density, tfgn2_spectral_density)
from .stable import DiscretizationPlan, simulate_tfsm_paths
from .dependence import _limit_rows, decay_diagnostic, fsm_norm_limit

_FLOAT_FMT = "%.17g"  # round-trip exact for binary64


def _spec(v) -> str:
    """%-conversion of one cell: %.17g floats, %d ints, %s anything else."""
    if isinstance(v, float):
        return _FLOAT_FMT
    return "%d" if isinstance(v, int) and not isinstance(v, bool) else "%s"


def _cell(v):
    return ("true" if v else "false") if isinstance(v, bool) else v


# simulate's CSV is built in NumPy, one block of paths at a time, as rows of
# 4-byte words of ASCII padded with NULs, which are then dropped: the "id,"
# cell right-aligned, the "t," cell left-aligned, the value and a newline.
# A value with 1e-4 <= |x| < 1e16 prints in %.17g's fixed notation with the
# exponent k of its 17-digit rounding, and its digits are the integer
# D = round-half-even(|x| 10^(16-k)).  The value is right-aligned up to its
# point (the sign, the integer part and the point, dropped when no fraction
# digit is nonzero) and left-aligned after it (the fraction in 20 digits
# without trailing zeros).  Python formats every other value (0, |x| < 1e-4
# or >= 1e16, and non-finite ones) and the t cells.
_BLOCK_VALUES = 1 << 15  # values per block, rounded up to whole paths
_POW10 = np.array([float(10 ** p) for p in range(22)])  # exact in binary64
_IPOW10 = 10 ** np.arange(19, dtype=np.int64)


def _split(a):
    """Veltkamp's split: a = hi + lo, each of at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _digits17(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(v 10^(16-k)) as int64, exact when it is >= 1e16.
    Dekker's product (1971) gives v 10^p = h + e exactly; h >= 1e16 > 2^53
    is an even integer, so h + rint(e) is the rounding."""
    s = np.take(_POW10, 16 - k)
    h = v * s
    vh, vl = _split(v)
    sh, sl = _split(s)
    e = ((vh * sh - h) + vh * sl + vl * sh) + vl * sl
    return h.astype(np.int64) + np.rint(e).astype(np.int64)


def _word_table() -> np.ndarray:
    """The ASCII words of 0..9999 with NUL for a dropped digit, in runs of
    10,000: all four digits, without leading zeros, without trailing zeros;
    then those of 0..999 as three digits and a point, all and without
    leading zeros but the units digit."""
    dig = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T.copy()
    nz = dig > 0
    asc = dig + np.uint8(48)
    lead = asc * np.logical_or.accumulate(nz, axis=1)
    trail = asc * np.logical_or.accumulate(nz[:, ::-1], axis=1)[:, ::-1]
    point = np.concatenate([asc[:1000, 1:], np.full((1000, 1), 46, np.uint8)], axis=1)
    keep = np.logical_or.accumulate(nz[:1000, 1:], axis=1)
    keep[:, 2] = True
    point_lead = point * np.concatenate([keep, keep[:, 2:]], axis=1)
    return np.concatenate([asc, lead, trail, point, point_lead]).view(np.uint32).ravel()


_WORDS = _word_table()
_LEAD, _TRAIL, _POINT, _POINT_LEAD = 10000, 20000, 30000, 31000  # runs of _WORDS


def _cells(texts: list[bytes], right: bool = False) -> np.ndarray:
    """The texts as rows of 4-byte words padded with NULs, left-aligned or
    right-aligned."""
    width = -(-max(map(len, texts)) // 4) * 4
    if right:
        texts = [t.rjust(width, b"\0") for t in texts]
    return np.array(texts, f"S{width}").view(np.uint32).reshape(len(texts), -1)


def _value_words(x: np.ndarray):
    """The values x in %.17g's fixed notation as columns of indices into
    _WORDS, left to right: the integer words (the last ends in the point)
    and five fraction words.  Returns (ok, k, point, words): ok marks the
    values this covers, the integer part of x[i] has max(k[i], 0) + 1
    digits, and point[i] is false when the point must be dropped."""
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)
    v = np.where(ok, a, 1.0)
    k = np.floor(np.log10(v)).astype(np.int64)
    d = _digits17(v, k)
    ok &= (d >= 10 ** 16) & (d < 10 ** 17)  # else log10 put k one off, or D carried
    k = np.where(ok, k, 0)
    d = np.where(ok, d, 10 ** 16)
    e = np.take(_IPOW10, np.minimum(16 - k, 18))
    ip = d // e  # the integer part, 0 when k < 0
    f = d - ip * e  # the 16 - k fraction digits
    s = k + 4  # the fraction in 20 digits: f 10^s = hi 10^12 + lo
    e = np.take(_IPOW10, np.maximum(12 - s, 0))
    hi = f // e
    lo = (f - hi * e) * np.take(_IPOW10, np.minimum(s, 12))
    hi *= np.take(_IPOW10, np.maximum(s - 12, 0))
    n_int = (max(int(k.max()), 0) + 6) // 4  # words of sign, integer part, point
    words = []
    for j in range(n_int - 1, 0, -1):  # word j holds the digits 4j-1 .. 4j+2
        g = ip // 10 ** (4 * j - 1)
        words.append(g - g // 10000 * 10000 + (ip < 10 ** (4 * j + 3)) * _LEAD)
    words.append(ip - ip // 1000 * 1000 + np.where(ip < 1000, _POINT_LEAD, _POINT))
    g0 = hi // 10000
    g1 = hi - g0 * 10000
    g2 = lo // 10 ** 8
    rest = lo - g2 * 10 ** 8
    g3 = rest // 10000
    g4 = rest - g3 * 10000
    words += [g0 + ((g1 == 0) & (lo == 0)) * _TRAIL, g1 + (lo == 0) * _TRAIL,
              g2 + (rest == 0) * _TRAIL, g3 + (g4 == 0) * _TRAIL, g4 + _TRAIL]
    return ok, k, f != 0, words


def _csv_block(i0: int, tcells: np.ndarray, paths: np.ndarray) -> bytes:
    """ASCII CSV rows "id,t,value\\n" of the paths i0, i0 + 1, ...; tcells
    holds the "t," cells of the times (``_cells``)."""
    p, n = paths.shape
    x = paths.ravel()
    ok, k, point, words = _value_words(x)
    n_int = len(words) - 5
    ids = _cells([b"%d," % i for i in range(i0, i0 + p)], right=True)
    w0 = ids.shape[1] + tcells.shape[1]  # the value's first word
    cols = np.empty((w0 + len(words) + 1, p, n), np.uint32)  # the rows' columns
    cols[:ids.shape[1]] = ids.T[:, :, None]
    cols[ids.shape[1]:w0] = tcells.T[:, None, :]
    for c, w in enumerate(words, w0):
        np.take(_WORDS, w, out=cols[c].ravel(), mode="clip")
    cols[-1] = np.frombuffer(b"\n\0\0\0", np.uint32)
    cols = cols.reshape(len(cols), -1)
    cols[w0 + n_int - 1].view(np.uint8)[3::4] *= point
    neg = np.flatnonzero(ok & (x < 0))
    off = 4 * n_int - 3 - np.maximum(k[neg], 0)  # the sign's byte in the integer words
    sign = cols[w0:w0 + n_int].reshape(-1).view(np.uint8)
    sign[(off // 4 * x.size + neg) * 4 + off % 4] = 45  # "-"
    slow = np.flatnonzero(~ok)
    if slow.size:
        texts = np.array([b"%.17g" % y for y in x[slow].tolist()], f"S{4 * len(words)}")
        cols[w0:-1, slow] = texts.view(np.uint32).reshape(slow.size, -1).T
    return cols.T.tobytes().translate(None, b"\0")


class _PathRows(Sequence):
    """Rows [path_id, t, value] of an ensemble, read from its paths on demand."""

    def __init__(self, ens):
        self.paths = ens.paths
        self.times = ens.grid.times

    def __len__(self) -> int:
        return self.paths.size

    def __getitem__(self, k: int) -> list:
        i, j = divmod(k, self.times.size)
        return [i, float(self.times[j]), float(self.paths[i, j])]

    def csv_chunks(self):
        """ASCII CSV of each block of paths in turn (``_csv_block``).  A block
        holds _BLOCK_VALUES values rounded up to whole paths; the t cells are
        formatted once per table.  Each value's text is its %.17g whatever
        the block."""
        tcells = _cells([b"%.17g," % t for t in self.times.tolist()])
        per = -(-_BLOCK_VALUES // self.times.size)
        for i in range(0, len(self.paths), per):
            # held until the next block is made: freeing every block before
            # the next lets malloc return the heap top to the system, and
            # then each block faults its pages in anew (2,500 faults a block)
            chunk = _csv_block(i, tcells, self.paths[i:i + per])
            yield chunk


def _emit(path: str | None, fmt: str, command: str, meta: dict,
          columns: list[str], rows: Sequence) -> None:
    """Write one table.  CSV writes a path view one block of paths at a time
    (``_PathRows.csv_chunks``); any other table applies one %-format per row,
    built from the cell types of the first row (every row must share them).
    JSON materializes the rows."""
    meta = {k: meta[k] for k in sorted(meta)}
    fh = sys.stdout if path is None or path == "-" else open(path, "w", newline="\n")
    try:
        if fmt == "csv":
            fh.write("# tfmotion " + command + " "
                     + " ".join(f"{k}={_spec(v) % (_cell(v),)}" for k, v in meta.items())
                     + "\n" + ",".join(columns) + "\n")
            if isinstance(rows, _PathRows):
                fh.flush()  # the header goes first: the bytes bypass the text layer
                fh.buffer.writelines(rows.csv_chunks())
            elif rows:
                row_fmt = ",".join(_spec(v) for v in rows[0]) + "\n"
                fh.write(row_fmt * len(rows)
                         % tuple(_cell(v) for row in rows for v in row))
        else:
            payload = {"command": command, "meta": meta,
                       "columns": columns, "rows": list(rows)}
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


def finite(text) -> float:
    """float(text), which must be finite: the type of every float option and
    of each number of a grid spec or value list (NaN and inf are invalid)."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not a finite number")
    return v


def _parse_grid_spec(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = finite(lo), finite(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"grid spec must be finite 'min:max:count', got {spec!r}") from exc
    if n < 2 or hi <= lo:
        raise ValueError(f"grid spec needs max > min and count >= 2, got {spec!r}")
    return np.linspace(lo, hi, n)


def _parse_list(spec: str) -> list[float]:
    vals = [finite(x) for x in spec.split(",") if x.strip()]
    if not vals:
        raise ValueError(f"empty value list {spec!r}")
    return vals


def _dest(flag: str) -> str:
    """Namespace attribute of an option: --lambda is args.lam."""
    return "lam" if flag == "--lambda" else flag[2:].replace("-", "_")


def _read_config(args) -> dict:
    """The JSON object of --config keyed by option attribute, each value as
    the text of its flag (a number or boolean as its JSON text, which
    argparse converts like the flag's) and null values left out.  Each key
    must name one of the command's options other than --config, and the
    value of an option with choices must be one of them."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    kinds = {_dest(f): kind for f, (_, kind) in
             {**_RUN_WIDE, **_COMMANDS[args.command][2]}.items() if f != "--config"}
    for key, val in cfg.items():
        kind = kinds.get(_dest("--" + key))
        if kind is None:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(kind, tuple) and val not in kind:
            raise ValueError(f"config value {val!r} of {key!r} is not one of {kind}")
    return {_dest("--" + key): val if isinstance(val, str) else json.dumps(val)
            for key, val in cfg.items() if val is not None}


def _build_params(args, **fixed) -> ProcessParams:
    """ProcessParams of the flags; an unset --alpha, --sigma, --beta or
    --kind keeps its ProcessParams default."""
    given = {k: getattr(args, k) for k in ("alpha", "sigma", "beta", "kind")
             if getattr(args, k, None) is not None}
    return ProcessParams(H=args.H, lam=args.lam, **{**given, **fixed})


def cmd_spectrum(args) -> int:
    rows = []
    for w in _parse_grid_spec(args.omega_grid):
        v1, e1 = tfgn1_spectral_density(args.H, args.lam, float(w), args.tol)
        v2, e2 = tfgn2_spectral_density(args.H, args.lam, float(w), args.tol)
        rows.append([float(w), v1, v2, e1, e2])
    meta = {"H": args.H, "lambda": args.lam, "tol": args.tol}
    _emit(args.out, args.format, "spectrum", meta,
          ["omega", "tfgn_density", "tfgn2_density", "err_bound_1", "err_bound_2"],
          rows)
    return 0


def cmd_simulate(args) -> int:
    params = _build_params(args)
    if params.lam <= 0.0:
        raise ValueError("simulate requires lambda > 0")
    grid = SampleGrid.regular(args.t_max, args.n, include_zero=True)
    if params.alpha == 2.0:
        if params.kind != "II":
            raise ValueError("exact Gaussian simulation covers kind=II only; "
                             "use alpha < 2 for first-kind paths")
        ens = simulate_gaussian_paths(params.H, params.lam, grid,
                                      args.n_paths, args.seed)
    else:
        dy = args.plan_dy if args.plan_dy is not None else args.t_max / 256.0
        plan = DiscretizationPlan.for_grid(grid, params, dy,
                                           cutoff=args.plan_cutoff)
        ens = simulate_tfsm_paths(params, grid, plan, args.n_paths, args.seed)
    meta = {"H": params.H, "alpha": params.alpha, "lambda": params.lam,
            "sigma": params.sigma, "beta": params.beta, "kind": params.kind,
            "seed": args.seed, "t_max": args.t_max, "n": args.n,
            "n_paths": args.n_paths}
    _emit(args.out, args.format, "simulate", meta, ["path_id", "t", "value"],
          _PathRows(ens))
    return 0


def cmd_covariance(args) -> int:
    grid = SampleGrid.regular(args.t_max, args.n, include_zero=False)
    times = grid.times.tolist()
    cov = build_cov_matrix(args.H, args.lam, grid).values.tolist()
    rows = [[s, t, c] for s, cs in zip(times, cov) for t, c in zip(times, cs)]
    meta = {"H": args.H, "lambda": args.lam, "t_max": args.t_max, "n": args.n}
    _emit(args.out, args.format, "covariance", meta, ["s", "t", "cov"], rows)
    return 0


def cmd_decay(args) -> int:
    params = _build_params(args)
    q = QuadratureConfig(rel_tol=min(args.tol, 1e-2))
    lags = range(int(args.t_min), int(args.t_max) + 1, int(args.t_step))
    diag = decay_diagnostic(params, lags, args.theta1, args.theta2, q,
                            band_factor=args.band_factor)
    rows = [[int(t), float(i), float(r), diag.p_used]
            for t, i, r in zip(diag.t_values, diag.i_values, diag.ratio)]
    meta = {"H": params.H, "alpha": params.alpha, "lambda": params.lam,
            "kind": params.kind, "theta1": args.theta1, "theta2": args.theta2,
            "p_used": diag.p_used, "slope": diag.slope,
            "band_factor": diag.band_factor, "band_ok": diag.band_ok}
    _emit(args.out, args.format, "decay", meta,
          ["t", "codifference", "ratio", "p_used"], rows)
    return 0


def cmd_limits(args) -> int:
    q = QuadratureConfig(abs_tol=1e-12, rel_tol=min(args.tol, 1e-2))
    b_global, b_local = _parse_list(args.b_global), _parse_list(args.b_local)
    kinds = [_build_params(args, kind=kind) for kind in ("II", "I")]
    # the untempered limit of the local rows is the same for both kinds
    fsm = fsm_norm_limit(kinds[0], q) if 0.0 < args.H < 1.0 else None
    per_kind = [_limit_rows(p, b_global, b_local, q, fsm) for p in kinds]
    rows = [[r["regime"], r["kind"], r["b"], r["normalized"], r["limit"],
             r["rel_gap"], r["in_theorem_range"]]
            for regime in (0, 1) for kind_rows in per_kind for r in kind_rows[regime]]
    meta = {"H": args.H, "alpha": kinds[0].alpha, "lambda": args.lam}
    _emit(args.out, args.format, "limits", meta,
          ["regime", "kind", "b", "normalized", "limit", "rel_gap",
           "in_theorem_range"], rows)
    return 0


# The options: flag -> (default, type or tuple of choices).  None is unset:
# main checks that --H and --lambda are set, --out unset writes to stdout,
# and an unset --alpha, --sigma, --beta or --kind keeps its ProcessParams
# default.
# README's option table mirrors these (tests/test_cli.py compares them).
_KIND = ("I", "II")
_RUN_WIDE = {"--H": (None, finite), "--lambda": (None, finite), "--seed": (0, int),
             "--out": (None, str), "--format": ("csv", ("csv", "json")),
             "--config": (None, str)}
_COMMANDS = {  # command -> (function, help, its own options)
    "spectrum": (cmd_spectrum, "spectral densities of the increment noises", {
        "--tol": (1e-10, finite),
        "--omega-grid": ("-3.141592653589793:3.141592653589793:201", str)}),
    "simulate": (cmd_simulate, "sample process paths", {
        "--alpha": (None, finite), "--sigma": (None, finite),
        "--beta": (None, finite), "--kind": (None, _KIND),
        "--t-max": (1.0, finite), "--n": (17, int), "--n-paths": (1, int),
        "--plan-dy": (None, finite), "--plan-cutoff": (None, finite)}),
    "covariance": (cmd_covariance, "TFBM II covariance table", {
        "--t-max": (2.0, finite), "--n": (9, int)}),
    "decay": (cmd_decay, "codifference decay diagnostic", {
        "--alpha": (1.5, finite), "--kind": (None, _KIND), "--tol": (1e-8, finite),
        "--t-min": (10, int), "--t-max": (40, int), "--t-step": (2, int),
        "--theta1": (1.0, finite), "--theta2": (1.0, finite),
        "--band-factor": (3.0, finite)}),
    "limits": (cmd_limits, "global/local self-similarity limit tables", {
        "--alpha": (None, finite), "--tol": (1e-9, finite),
        "--b-global": ("25,50,100,200", str), "--b-local": ("0.1,0.01,0.001", str)}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tfmotion",
        description="Tempered fractional Brownian/stable motions: spectra, "
                    "covariances, simulation, and dependence diagnostics.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_, own) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag, (default, kind) in {**_RUN_WIDE, **own}.items():
            how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sp.add_argument(flag, dest=_dest(flag), default=default, **how)
        sp.set_defaults(func=func, parser=sp)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:  # flags > config > defaults: parse again over the config
            args.parser.set_defaults(**_read_config(args))
            args = ap.parse_args(argv)
        if args.H is None or args.lam is None:
            raise ValueError(f"{args.command} requires --H and --lambda")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"tfmotion: error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"tfmotion: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
