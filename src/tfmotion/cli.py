"""Command-line front end: spectrum | simulate | covariance | decay | limits.

One table, ``_COMMANDS``, lists each command's own options with their
defaults; every command also takes the run-wide options of ``_RUN_WIDE``.
A value comes from its flag, else from the JSON ``--config`` file, else
from the table.  The flag parser is the one checker of option text: a
config key is parsed as the token --key=value ahead of the command line,
so the flag, parsed last, wins.  --H and --lambda have no default, and an
unset process option keeps its ``ProcessParams`` default.  The library
checks the parameter ranges and that H, lambda, sigma, times and lags are
finite; the CLI's float type ``finite`` also rejects NaN and inf in the
numbers the library does not check (tolerances, weights, grid specs, value
lists), and the CLI adds simulate's refusal, at alpha = 2, of --kind I,
--sigma, --beta, --plan-dy and --plan-cutoff, which the Gaussian sampler
cannot honor.
Every command computes through the library modules and returns one table,
(meta, columns, rows), which main writes as CSV or JSON in one byte stream,
to the --out file or to stdout's bytes (CSV gives each small-table cell its
%.17g, true/false or str text; JSON writes a non-finite float as null);
spectrum makes one array call of each density for its whole grid.  Runs
are deterministic given the flags and seed, and every command computes in
the calling thread.
Gaussian paths are made in batches that share one inverse FFT, stable paths
in blocks whose bounds depend on the plan alone, each block one matrix
product with the kernel table.  limits integrates each kind's global and
local scales as one quadrature batch, and the untempered limit constant
once for both kinds.  simulate's CSV is formatted in NumPy, one block of
paths at a time, as the bytes Python's %.17g gives.  Exit codes: 0 ok, 2
invalid usage/parameters, 3 numeric failure (a NumericsError or a float
overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import NumericsError
from .kernels import ProcessParams
from .gaussian import (SampleGrid, build_cov_matrix, simulate_gaussian_paths,
                       tfgn1_spectral_density, tfgn2_spectral_density)
from .stable import DiscretizationPlan, simulate_tfsm_paths
from .dependence import _limit_rows, decay_diagnostic


def _text(v) -> str:
    """A header or small-table cell: %.17g for a float (round-trip exact for
    binary64), true or false for a bool, str for anything else."""
    if isinstance(v, float):
        return "%.17g" % v
    return ("true" if v else "false") if isinstance(v, bool) else str(v)


def _json_cell(v):
    """v, or None for a non-finite float: JSON has no NaN or infinity."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


# simulate's CSV is built in NumPy, one block of paths at a time, as rows of
# 4-byte words of ASCII padded with NULs, which are then dropped: the "id,"
# cell, the "t," cell, the value and a newline.
# A value with 1e-4 <= |x| < 1e16 prints in %.17g's fixed notation with the
# exponent k of its 17-digit rounding, and its digits are the integer
# D = round-half-even(|x| 10^(16-k)) = g0 10^16 + r, g0 its first digit.
# Only constant powers of ten split D.  Two words of _PREFIX hold the sign,
# g0 and, for k <= 0, the point and the zeros before g0.  For k >= 1 the
# other k integer digits follow in 4-digit words counted from the point (the
# leftmost holds k mod 4 of them, or 4), then a point word, empty when the
# fraction is 0; only a block holding such a value has these columns and
# divides by per-value powers of ten.  The fraction's digits come last,
# left-aligned to 16 digits, in four words without trailing zeros.  Python
# formats every other value (0, |x| < 1e-4 or >= 1e16, and non-finite ones)
# and the t cells.
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
    """The ASCII words of 0..9999 with NUL for a dropped digit, in runs: all
    four digits and without trailing zeros (10,000 each), then exactly the
    last 1, 2 and 3 digits of 0..9, 0..99 and 0..999, then a point."""
    asc = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + np.uint8(48)
    trail = asc * np.logical_or.accumulate(asc[:, ::-1] > 48, axis=1)[:, ::-1]
    exact = [np.pad(asc[:10 ** m, 4 - m:], ((0, 0), (0, 4 - m))) for m in (1, 2, 3)]
    point = np.array([[46, 0, 0, 0]], np.uint8)
    return np.concatenate([asc, trail, *exact, point]).view(np.uint32).ravel()


_WORDS = _word_table()
_TRAIL, _DOT = 10000, 21110  # runs of _WORDS; _TRAIL is also the empty word
_EXACT = np.array([_TRAIL, 20000, 20010, 20110, 0])  # words of m = 0..4 digits


def _prefix_table() -> np.ndarray:
    """The words of each value's text through its first digit: two rows of
    cells, indexed by 40 min(k, 1) + 20 sign + 2 g0 + (r == 0) + 160."""
    cells = [f"{sign}0.{'0' * (-k - 1)}{g0}" if k < 0 else
             f"{sign}{g0}{'' if k or rest_zero else '.'}"
             for k in range(-4, 2) for sign in ("", "-") for g0 in range(10)
             for rest_zero in (False, True)]
    return np.array(cells, "S8").view(np.uint32).reshape(-1, 2).T.copy()


_PREFIX = _prefix_table()


def _cells(texts: list[bytes]) -> np.ndarray:
    """The texts as rows of 4-byte words, each padded on the right with NULs
    (which the CSV drops wherever they sit)."""
    width = -(-max(map(len, texts)) // 4) * 4
    return np.array(texts, f"S{width}").view(np.uint32).reshape(len(texts), -1)


def _value_words(x: np.ndarray):
    """The values x in %.17g's fixed notation as columns of word indices,
    left to right: the prefix cell (a column of _PREFIX), then, when some
    value has k >= 1, the integer words and a point word, then four fraction
    words (these into _WORDS).  Returns (ok, cell, words), ok marking the
    values this covers."""
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)
    v = np.where(ok, a, 1.0)
    k = np.floor(np.log10(v)).astype(np.int64)
    d = _digits17(v, k)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))  # log10 put k one off
    if off.size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off] = _digits17(v[off], k[off])
        ok &= (d >= 10 ** 16) & (d < 10 ** 17)
    g0 = d // 10 ** 16
    r = d - g0 * 10 ** 16
    top = max(int(k.max()), 0)
    words = []
    if top:  # the k digits after g0, then the point; per-value powers only here
        kp = np.maximum(k, 0)
        e = np.take(_IPOW10, 16 - kp)
        ip = r // e
        r = (r - ip * e) * np.take(_IPOW10, kp)  # the fraction in 16 digits
        for j in range((top - 1) // 4, -1, -1):  # digits 4j..4j+3 from the right
            g = ip // 10 ** (4 * j)
            if 4 * j + 4 < top:
                g -= g // 10000 * 10000
            words.append(g + np.take(_EXACT, np.clip(kp - 4 * j, 0, 4)))
        words.append(np.where((k > 0) & (r != 0), _DOT, _TRAIL))
        np.minimum(k, 1, out=k)
    cell = k * 40
    cell += g0 * 2 + 160
    np.add(cell, 1, out=cell, where=r == 0)
    np.add(cell, 20, out=cell, where=x < 0)
    g1 = r // 10 ** 12
    t1 = r - g1 * 10 ** 12
    g2 = t1 // 10 ** 8
    t2 = t1 - g2 * 10 ** 8
    g3 = t2 // 10000
    g4 = t2 - g3 * 10000
    for g, rest in ((g1, t1), (g2, t2), (g3, g4)):  # trailing zeros dropped
        np.add(g, _TRAIL, out=g, where=rest == 0)
    g4 += _TRAIL
    return ok, cell, words + [g1, g2, g3, g4]


def _slow_texts(x: np.ndarray) -> list[bytes]:
    """Python's %.17g of the values _value_words does not cover."""
    return [b"%.17g" % y for y in x.tolist()]


def _csv_block(i0: int, tcells: np.ndarray, paths: np.ndarray) -> bytes:
    """ASCII CSV rows "id,t,value\\n" of the paths i0, i0 + 1, ...; tcells
    holds the "t," cells of the times (``_cells``)."""
    p, n = paths.shape
    x = paths.ravel()
    ok, cell, words = _value_words(x)
    ids = _cells([b"%d," % i for i in range(i0, i0 + p)])
    w0 = ids.shape[1] + tcells.shape[1]  # the value's first word
    cols = np.empty((w0 + 2 + len(words) + 1, p, n), np.uint32)  # the rows' columns
    cols[:ids.shape[1]] = ids.T[:, :, None]
    cols[ids.shape[1]:w0] = tcells.T[:, None, :]
    for c, table in enumerate(_PREFIX, w0):
        np.take(table, cell, out=cols[c].ravel(), mode="clip")
    for c, w in enumerate(words, w0 + 2):
        np.take(_WORDS, w, out=cols[c].ravel(), mode="clip")
    cols[-1] = np.frombuffer(b"\n\0\0\0", np.uint32)
    cols = cols.reshape(len(cols), -1)
    slow = np.flatnonzero(~ok)
    if slow.size:
        texts = np.array(_slow_texts(x[slow]), f"S{4 * (len(cols) - w0 - 1)}")
        cols[w0:-1, slow] = texts.view(np.uint32).reshape(slow.size, -1).T
    return cols.T.tobytes().translate(None, b"\0")


class _PathRows:
    """Rows [path_id, t, value] of an ensemble, read from its paths on demand."""

    def __init__(self, ens):
        self.paths = ens.paths
        self.times = ens.grid.times

    def __len__(self) -> int:
        return self.paths.size

    def __iter__(self):
        times = self.times.tolist()
        for i, path in enumerate(self.paths.tolist()):
            for t, x in zip(times, path):
                yield [i, t, x]

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
          columns: list[str], rows: list | _PathRows) -> None:
    """Write the table a command returns as bytes, to the file or to
    stdout's byte stream (``sys.stdout.buffer``, after flushing the text
    layer, so ``--out -`` needs a stdout with one); ``main`` is the one caller.  CSV writes a path view
    one block of paths at a time (``_PathRows.csv_chunks``) and every other
    cell, the header's too, as its ``_text``.  JSON materializes the rows,
    with each non-finite cell as null (``_json_cell``)."""
    sys.stdout.flush()  # text printed to stdout before the table goes first
    fh = sys.stdout.buffer if path in (None, "-") else open(path, "wb")
    try:
        if fmt == "csv":
            cells = " ".join(f"{k}={_text(v)}" for k, v in sorted(meta.items()))
            fh.write(f"# tfmotion {command} {cells}\n{','.join(columns)}\n".encode())
            if isinstance(rows, _PathRows):
                fh.writelines(rows.csv_chunks())
            else:
                fh.write("".join(",".join(map(_text, row)) + "\n"
                                 for row in rows).encode())
        else:
            payload = {"command": command, "meta": meta, "columns": columns,
                       "rows": [[_json_cell(v) for v in row] for row in rows]}
            fh.write((json.dumps(payload, sort_keys=True, indent=1) + "\n").encode())
    finally:
        if path in (None, "-"):
            fh.flush()
        else:
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


def _config_tokens(path: str) -> list[str]:
    """The JSON object of a --config file as ``--key=text`` tokens for the
    flag parser: a string as is, a number or boolean as its JSON text, and
    a null left out (the option keeps its default)."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return [f"--{key}={val if isinstance(val, str) else json.dumps(val)}"
            for key, val in cfg.items() if val is not None]


def _build_params(args, **fixed) -> ProcessParams:
    """ProcessParams of the flags; an unset --alpha, --sigma, --beta or
    --kind keeps its ProcessParams default."""
    given = {k: getattr(args, k) for k in ("alpha", "sigma", "beta", "kind")
             if getattr(args, k, None) is not None}
    return ProcessParams(H=args.H, lam=args.lam, **{**given, **fixed})


def cmd_spectrum(args):
    omega = _parse_grid_spec(args.omega_grid)
    h1, e1 = tfgn1_spectral_density(args.H, args.lam, omega, args.tol)
    h2, e2 = tfgn2_spectral_density(args.H, args.lam, omega, args.tol)
    rows = np.column_stack([omega, h1, h2, e1, e2]).tolist()
    meta = {"H": args.H, "lambda": args.lam, "tol": args.tol}
    return meta, ["omega", "tfgn_density", "tfgn2_density", "err_bound_1",
                  "err_bound_2"], rows


def cmd_simulate(args):
    params = _build_params(args)
    grid = SampleGrid.regular(args.t_max, args.n, include_zero=True)
    if params.alpha == 2.0:  # kind II, and every other option below unset
        unused = [flag for flag in ("--kind", "--sigma", "--beta", "--plan-dy", "--plan-cutoff")
                  if getattr(args, _dest(flag)) not in (None, "II")]
        if unused:
            raise ValueError("exact Gaussian simulation (alpha = 2) makes kind II paths "
                             f"and cannot honor {', '.join(unused)}; use alpha < 2 for them")
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
    return meta, ["path_id", "t", "value"], _PathRows(ens)


def cmd_covariance(args):
    grid = SampleGrid.regular(args.t_max, args.n, include_zero=False)
    times = grid.times.tolist()
    cov = build_cov_matrix(args.H, args.lam, grid).values.tolist()
    rows = [[s, t, c] for s, cs in zip(times, cov) for t, c in zip(times, cs)]
    meta = {"H": args.H, "lambda": args.lam, "t_max": args.t_max, "n": args.n}
    return meta, ["s", "t", "cov"], rows


def cmd_decay(args):
    params = _build_params(args)
    if args.t_step < 1:
        raise ValueError(f"--t-step must be >= 1, got {args.t_step}")
    lags = range(int(args.t_min), int(args.t_max) + 1, int(args.t_step))
    diag = decay_diagnostic(params, lags, args.theta1, args.theta2, args.tol,
                            band_factor=args.band_factor)
    rows = [[int(t), float(i), float(r), diag.p_used]
            for t, i, r in zip(diag.t_values, diag.i_values, diag.ratio)]
    meta = {"H": params.H, "alpha": params.alpha, "lambda": params.lam,
            "kind": params.kind, "theta1": args.theta1, "theta2": args.theta2,
            "p_used": diag.p_used, "slope": diag.slope,
            "band_factor": diag.band_factor, "band_ok": diag.band_ok}
    return meta, ["t", "codifference", "ratio", "p_used"], rows


def cmd_limits(args):
    b_global, b_local = _parse_list(args.b_global), _parse_list(args.b_local)
    kinds = [_build_params(args, kind=kind) for kind in ("II", "I")]
    rows_g, rows_l = _limit_rows(kinds, b_global, b_local, args.tol)
    columns = ["regime", "kind", "b", "normalized", "limit", "rel_gap",
               "in_theorem_range"]
    meta = {"H": args.H, "alpha": kinds[0].alpha, "lambda": args.lam}
    return meta, columns, [[r[c] for c in columns] for r in rows_g + rows_l]


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
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    try:
        if args.config:  # the file's options go first: argparse keeps the last
            tokens = _config_tokens(args.config)
            if ap.parse_args(argv[:1] + tokens).config is not None:
                raise ValueError("a config file cannot set --config")
            args = ap.parse_args(argv[:1] + tokens + argv[1:])
        if args.H is None or args.lam is None:
            raise ValueError(f"{args.command} requires --H and --lambda")
        _emit(args.out, args.format, args.command, *args.func(args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"tfmotion: error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OverflowError) as exc:
        print(f"tfmotion: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
