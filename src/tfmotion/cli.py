"""Command-line front end: spectrum | simulate | covariance | decay | limits.

One table, ``_COMMANDS``, lists each command's own options with their
defaults; every command also takes the run-wide options of ``_RUN_WIDE``.
A value comes from its flag, else from the JSON ``--config`` file, else
from the table.  --H and --lambda have no default, and an unset
process option keeps its ``ProcessParams`` default.  The library checks the
parameter ranges; the CLI adds only simulate's lambda > 0 and its refusal
of first-kind Gaussian paths.  Every command computes through the library
modules and emits one table as CSV or JSON.  Runs are deterministic given
the flags and seed; the worker count (--threads or TFMOTION_THREADS:
sampling threads, and the processes that format simulate's CSV in fixed
blocks of paths) never changes the output bytes.  Exit codes: 0 ok, 2
invalid usage/parameters, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from itertools import repeat

import numpy as np

from .errors import NumericsError
from .kernels import ProcessParams, QuadratureConfig
from .gaussian import (SampleGrid, build_cov_matrix, simulate_gaussian_paths,
                       tfgn1_spectral_density, tfgn2_spectral_density)
from .stable import DiscretizationPlan, simulate_tfsm_paths
from .dependence import decay_diagnostic, global_limit_check, local_limit_check

_FLOAT_FMT = "%.17g"  # round-trip exact for binary64


def _spec(v) -> str:
    """%-conversion of one cell: %.17g floats, %d ints, %s anything else."""
    if isinstance(v, float):
        return _FLOAT_FMT
    return "%d" if isinstance(v, int) and not isinstance(v, bool) else "%s"


def _cell(v):
    return ("true" if v else "false") if isinstance(v, bool) else v


_BLOCK_VALUES = 1 << 17  # values per simulate CSV block, whatever the worker count


def _csv_block(rows: list[str], i0: int, paths: np.ndarray) -> bytes:
    """ASCII CSV of the paths i0, i0 + 1, ... of one block: each joins the
    row template with its id and formats only its values."""
    return "".join(str(i).join(rows) % tuple(path)
                   for i, path in enumerate(paths.tolist(), i0)).encode("ascii")


class _PathRows(Sequence):
    """Rows [path_id, t, value] of an ensemble, read from its paths on demand."""

    def __init__(self, ens, workers: int):
        self.paths = ens.paths
        self.times = ens.grid.times
        self.workers = workers

    def __len__(self) -> int:
        return self.paths.size

    def __getitem__(self, k: int) -> list:
        i, j = divmod(k, self.times.size)
        return [i, float(self.times[j]), float(self.paths[i, j])]

    def csv_chunks(self):
        """ASCII CSV of each block of paths in turn.  The t cells are
        formatted once per table into rows ",<t>,%.17g" (any % in them
        escaped).  A block holds _BLOCK_VALUES values rounded up to whole
        paths, whatever the worker count; with two or more workers and
        blocks, worker processes format the blocks and pool.map returns
        them in path order, so the bytes never depend on the count."""
        rows = [""] + ["," + (_FLOAT_FMT % t).replace("%", "%%") + ","
                       + _FLOAT_FMT + "\n" for t in self.times.tolist()]
        per = -(-_BLOCK_VALUES // self.times.size)
        starts = range(0, len(self.paths), per)
        blocks = [self.paths[i:i + per] for i in starts]
        procs = min(self.workers, len(blocks), os.cpu_count() or 1)
        if procs < 2:
            yield from map(_csv_block, repeat(rows), starts, blocks)
            return
        # imported here: concurrent.futures.process would add about 8% to
        # the import time of every command.  The default start method (fork
        # on Linux) is kept: spawned workers re-import NumPy, which costs
        # more than half of what the pool saves on 1,000 paths at n = 2049
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(procs) as pool:
            yield from pool.map(_csv_block, repeat(rows), starts, blocks)


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


def _parse_grid_spec(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"grid spec must be 'min:max:count', got {spec!r}") from exc
    if n < 2 or hi <= lo:
        raise ValueError(f"grid spec needs max > min and count >= 2, got {spec!r}")
    return np.linspace(lo, hi, n)


def _parse_list(spec: str) -> list[float]:
    vals = [float(x) for x in spec.split(",") if x.strip()]
    if not vals:
        raise ValueError(f"empty value list {spec!r}")
    return vals


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("TFMOTION_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _dest(flag: str) -> str:
    """Namespace attribute of an option: --lambda is args.lam."""
    return "lam" if flag == "--lambda" else flag[2:].replace("-", "_")


def _read_config(args) -> dict:
    """The JSON object of --config keyed by option attribute.  Each key
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
    return {_dest("--" + key): val for key, val in cfg.items()}


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
    workers = _threads(args)
    if params.alpha == 2.0:
        if params.kind != "II":
            raise ValueError("exact Gaussian simulation covers kind=II only; "
                             "use alpha < 2 for first-kind paths")
        ens = simulate_gaussian_paths(params.H, params.lam, grid,
                                      args.n_paths, args.seed, n_workers=workers)
    else:
        dy = args.plan_dy if args.plan_dy is not None else args.t_max / 256.0
        plan = DiscretizationPlan.for_grid(grid, params, dy,
                                           cutoff=args.plan_cutoff)
        ens = simulate_tfsm_paths(params, grid, plan, args.n_paths, args.seed,
                                  n_workers=workers)
    meta = {"H": params.H, "alpha": params.alpha, "lambda": params.lam,
            "sigma": params.sigma, "beta": params.beta, "kind": params.kind,
            "seed": args.seed, "t_max": args.t_max, "n": args.n,
            "n_paths": args.n_paths}
    _emit(args.out, args.format, "simulate", meta, ["path_id", "t", "value"],
          _PathRows(ens, workers))
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
    rows = []
    for check, b_list in ((global_limit_check, args.b_global),
                          (local_limit_check, args.b_local)):
        for kind in ("II", "I"):
            params = _build_params(args, kind=kind)
            rows += [[r["regime"], r["kind"], r["b"], r["normalized"], r["limit"],
                      r["rel_gap"], r["in_theorem_range"]]
                     for r in check(params, _parse_list(b_list), q)]
    meta = {"H": args.H, "alpha": params.alpha, "lambda": args.lam}
    _emit(args.out, args.format, "limits", meta,
          ["regime", "kind", "b", "normalized", "limit", "rel_gap",
           "in_theorem_range"], rows)
    return 0


# The options: flag -> (default, type or tuple of choices).  None is unset:
# main checks that --H and --lambda are set, --out unset writes to stdout,
# --threads unset reads TFMOTION_THREADS or counts the CPUs, and an unset
# --alpha, --sigma, --beta or --kind keeps its ProcessParams default.
# README's option table mirrors these (tests/test_cli.py compares them).
_KIND = ("I", "II")
_RUN_WIDE = {"--H": (None, float), "--lambda": (None, float), "--seed": (0, int),
             "--out": (None, str), "--format": ("csv", ("csv", "json")),
             "--threads": (None, int), "--config": (None, str)}
_COMMANDS = {  # command -> (function, help, its own options)
    "spectrum": (cmd_spectrum, "spectral densities of the increment noises", {
        "--tol": (1e-10, float),
        "--omega-grid": ("-3.141592653589793:3.141592653589793:201", str)}),
    "simulate": (cmd_simulate, "sample process paths", {
        "--alpha": (None, float), "--sigma": (None, float),
        "--beta": (None, float), "--kind": (None, _KIND),
        "--t-max": (1.0, float), "--n": (17, int), "--n-paths": (1, int),
        "--plan-dy": (None, float), "--plan-cutoff": (None, float)}),
    "covariance": (cmd_covariance, "TFBM II covariance table", {
        "--t-max": (2.0, float), "--n": (9, int)}),
    "decay": (cmd_decay, "codifference decay diagnostic", {
        "--alpha": (1.5, float), "--kind": (None, _KIND), "--tol": (1e-8, float),
        "--t-min": (10, int), "--t-max": (40, int), "--t-step": (2, int),
        "--theta1": (1.0, float), "--theta2": (1.0, float),
        "--band-factor": (3.0, float)}),
    "limits": (cmd_limits, "global/local self-similarity limit tables", {
        "--alpha": (None, float), "--tol": (1e-9, float),
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
