"""End-to-end and per-layer benchmark of the tfmotion CLI.

    python3 perfbench/run.py --workload stable_diag --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.  Every
CLI command runs in a fresh interpreter through ``child.py``, one at a time
(a closed loop with one client, the CLI's default ``--threads``).  The parent
times each child's wall time and reads its peak RSS from ``os.wait4``; the
child times ``import tfmotion.cli`` and ``cli.main`` separately.

``--trace 0`` runs at least MIN_PASSES passes over the workload, and more
while another pass still fits in ``--seconds``, and reports the end-to-end
metrics as medians over the passes:

    wall_s       parent-side wall time of one pass
    setup_s      in-child time to import tfmotion.cli, median over every
                 import of the run (the passes' and IMPORT_PROBES extra ones)
    run_s        in-child time inside cli.main, summed over one pass
    peak_rss_mb  largest child max-RSS of one pass

The three times are in reference seconds: each child runs a speed probe
(speed.py) that rescales its times to a fixed interpreter speed, because
a shared machine's speed can drift by a fifth or more from minute to minute.
The report also prints the raw wall times and the speed factors.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass (sums over its invocations); see
README.md for which end-to-end metric each should move.

Every output is checked (checks.py); a non-zero exit code or a failed check
counts the invocation as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
from workloads import WHY, WORKLOADS

HERE = Path(__file__).resolve().parent
IMPORT_PROBES = 4       # import-only children per untraced run
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
MB = 1024.0             # ru_maxrss is in KiB on Linux


@dataclass
class Invoked:
    name: str
    rc: int
    wall_s: float
    maxrss_mb: float
    import_s: float | None = None
    main_s: float | None = None
    import_ref_s: float | None = None
    main_ref_s: float | None = None
    speed: float | None = None  # mean relative speed of the child
    problems: list[str] = field(default_factory=list)
    sha256: str | None = None
    bytes_changed: bool | None = None
    trace: dict | None = None
    import_times: dict | None = None

    @property
    def wall_ref_s(self) -> float:
        return self.wall_s * (self.speed or 1.0)


@dataclass
class Pass:
    invoked: list[Invoked]
    elapsed_s: float  # including the output checks

    @property
    def raw_wall_s(self) -> float:
        return sum(i.wall_s for i in self.invoked)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_ref_s for i in self.invoked)

    @property
    def run_s(self) -> float:
        return sum(i.main_ref_s or i.main_s or 0.0 for i in self.invoked)

    @property
    def peak_rss_mb(self) -> float:
        return max(i.maxrss_mb for i in self.invoked)

    @property
    def failed(self) -> int:
        return sum(1 for i in self.invoked if i.problems)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / workload
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "TFMOTION_THREADS")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.probe = True  # run the speed probe in untraced children
        self._n = 0

    def invoke(self, name: str, cli_argv: list[str], *, trace: bool = False,
               import_only: bool = False, inv: int = 0) -> Invoked:
        """Run one child to completion and collect its timings."""
        self._n += 1
        tag = f"{self._n:04d}-{name}"
        result = self.work / f"{tag}.result.json"
        errlog = self.work / f"{tag}.stderr"
        trace_path = self.work / f"{tag}.trace.json"
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), "--result", str(result), "--inv", str(inv)]
        if trace:
            cmd += ["--trace", str(trace_path)]
        elif self.probe:
            cmd += ["--probe"]
        if import_only:
            cmd += ["--import-only"]
        cmd += ["--", *cli_argv]
        with open(errlog, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        out = Invoked(name=name, rc=proc.returncode, wall_s=wall,
                      maxrss_mb=usage.ru_maxrss / MB)
        stderr = errlog.read_text(errors="replace")
        if result.exists():
            rec = json.loads(result.read_text())
            out.import_s, out.main_s = rec["import_s"], rec.get("main_s")
            out.import_ref_s = rec.get("import_ref_s")
            out.main_ref_s = rec.get("main_ref_s")
            out.speed = rec.get("speed")
            src = (self.root / "src").resolve()
            if not Path(rec["module"]).resolve().is_relative_to(src):
                out.problems.append(f"imported tfmotion from {rec['module']}")
        if out.rc != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            out.problems.append(f"exit code {out.rc}: {tail[0]}")
        if trace and trace_path.exists():
            out.trace = json.loads(trace_path.read_text())
            out.import_times = import_times(stderr)
        for p in (result, errlog, trace_path):
            p.unlink(missing_ok=True)
        return out

    def run_pass(self, trace: bool = False) -> Pass:
        t0 = time.perf_counter()
        invoked = []
        for k, inv in enumerate(WORKLOADS[self.workload]):
            out_path = self.work / f"{inv.name}.csv"
            out_path.unlink(missing_ok=True)
            argv = inv.full_argv(self.seed, str(out_path))
            r = self.invoke(inv.name, argv, trace=trace, inv=k)
            if r.rc == 0:
                r.problems += checks.check_output(inv, argv, out_path)
            if out_path.exists():
                r.sha256 = checks.sha256(out_path)
                ref = checks.REF / f"{inv.name}.csv"
                if inv.check == "table" and ref.exists():
                    r.bytes_changed = r.sha256 != checks.sha256(ref)
                out_path.unlink()
            invoked.append(r)
        return Pass(invoked, time.perf_counter() - t0)


def import_times(stderr: str) -> dict[str, float]:
    """Seconds of import self time per top-level package, from the
    ``-X importtime`` lines written before the child's import marker."""
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        if line.startswith("perfbench: import done"):
            break
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        top = parts[2].strip().split(".")[0]
        totals[top] = totals.get(top, 0.0) + int(parts[0]) * 1e-6
    return totals


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[Pass], imports: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(p.wall_s for p in passes), "s", len(passes)),
        "setup_s": (med(imports), "s", len(imports)),
        "run_s": (med(p.run_s for p in passes), "s", len(passes)),
        "peak_rss_mb": (med(p.peak_rss_mb for p in passes), "MB", len(passes)),
    }


def per_layer(traced: Pass, untraced: Pass) -> dict:
    agg: dict[str, list] = {}
    counters: dict[str, int] = {}
    for inv in traced.invoked:
        if inv.trace is None:
            continue
        for name, rec in inv.trace["agg"].items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        for name, v in inv.trace["counters"].items():
            counters[name] = counters.get(name, 0) + v

    def calls(*names):
        return sum(agg.get(n, [0])[0] for n in names)

    def self_s(*names):
        return sum(agg.get(n, [0, 0.0, 0.0])[2] for n in names)

    def imp(pkg):
        vals = [i.import_times.get(pkg, 0.0) for i in traced.invoked if i.import_times]
        return statistics.median(vals) if vals else 0.0

    factorizations = calls("gaussian.cholesky")
    m = {}
    for fn in ("specfun.upper_gamma", "specfun.lower_gamma", "specfun.hyp2f3",
               "gaussian.variance_tfbm2", "kernels.kernel_h", "kernels.kernel_g",
               "kernels.kernel_alpha_norm", "stable.path_increments",
               "gaussian.covariance_tfbm2", "dependence.codifference",
               "dependence.increment_kernel"):
        m[f"{fn}.calls"] = (calls(fn), "count")
        m[f"{fn}.self_s"] = (self_s(fn), "s")
    m["specfun.gamma_fn.calls"] = (calls("specfun.gamma_fn"), "count")
    m["stable.kernel_node_table.self_s"] = (self_s("stable.kernel_node_table"), "s")
    m["stable.kernel_node_table.entries"] = (
        counters.get("stable.kernel_node_table.entries", 0), "count")
    for fn in ("stable.simulate_tfsm_paths", "gaussian.simulate_gaussian_paths"):
        m[f"{fn}.self_s"] = (self_s(fn), "s")
        m[f"{fn}.self_s.w1"] = (self_s(fn + ".w1"), "s")
    m["gaussian.build_cov_matrix.self_s"] = (self_s("gaussian.build_cov_matrix"), "s")
    m["gaussian.cholesky.self_s"] = (self_s("gaussian.cholesky"), "s")
    m["gaussian.cholesky.attempts"] = (
        calls("numpy.linalg.cholesky") / factorizations if factorizations else 0.0,
        "count")
    spectral = ("gaussian.tfgn1_spectral_density", "gaussian.tfgn2_spectral_density")
    m["gaussian.spectral_density.calls"] = (calls(*spectral), "count")
    m["gaussian.spectral_density.self_s"] = (self_s(*spectral), "s")
    m["dependence.limit_check.self_s"] = (
        self_s("dependence.global_limit_check", "dependence.local_limit_check"), "s")
    m["quad.calls"] = (calls("quad"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.emit.self_s"] = (self_s("cli.emit"), "s")
    m["cli.rows"] = (counters.get("cli.rows", 0), "count")
    m["cli.out_bytes"] = (counters.get("cli.out_bytes", 0), "B")
    m["import.scipy_s"] = (imp("scipy"), "s")
    m["import.numpy_s"] = (imp("numpy"), "s")
    m["import.tfmotion_s"] = (imp("tfmotion"), "s")
    m["trace_overhead_s"] = (traced.raw_wall_s - untraced.raw_wall_s, "s")
    return {k: (v, unit, 1) for k, (v, unit) in m.items()}


# ---------------------------------------------------------------------------
# reporting


def machine_info(seed: int) -> dict:
    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(d / "level"), read(d / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = read(d / "size")
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "seed": seed}


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that NumPy loaded, if it is one."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def print_report(workload: str, metrics: dict, passes: list[Pass],
                 machine: dict, failed: int, attempted: int) -> None:
    print(f"== {workload}: {WHY[workload]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<5} (n={n})")
    print(f"  {'fail_frac':<48} {failed / attempted:>14.6g} "
          f"{'1':<5} (n={attempted})")
    untraced = [p for p in passes if not any(i.trace for i in p.invoked)]
    med = statistics.median
    speeds = [i.speed for p in untraced for i in p.invoked if i.speed]
    if speeds:
        print(f"  raw wall of a pass {med(p.raw_wall_s for p in untraced):.3f} s "
              f"(median); relative speed of the children median "
              f"{med(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    for k, inv in enumerate(untraced[0].invoked):
        runs = [p.invoked[k] for p in untraced]
        print(f"  {inv.name:<12} wall {med(i.wall_s for i in runs):8.3f} s, "
              f"main {med(i.main_s or 0.0 for i in runs):8.3f} s, "
              f"import {med(i.import_s or 0.0 for i in runs):6.3f} s, "
              f"max-RSS {max(i.maxrss_mb for i in runs):7.1f} MB "
              f"(medians, n={len(runs)})")
    last = passes[-1]
    for inv in last.invoked:
        if inv.trace:
            print(f"  {inv.name}: " + span_shares(inv.trace["spans"]))
    for inv in last.invoked:
        flag = "" if inv.bytes_changed is None else (
            " bytes_changed" if inv.bytes_changed else " bytes_same")
        print(f"  output {inv.name}: sha256={inv.sha256}{flag}")
    for p in passes:
        for inv in p.invoked:
            for problem in inv.problems:
                print(f"  FAIL {inv.name}: {problem}")


def span_shares(spans, least: float = 0.05) -> str:
    """Inclusive time of each span name as a share of cli.main, for the
    names that reach ``least``."""
    main = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    totals: dict[str, float] = {}
    for s in spans:
        if s["name"] != "cli.main" and not s["name"].endswith(".w1"):
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    shares = sorted(((t / main, n) for n, t in totals.items()
                     if main > 0 and t / main >= least), reverse=True)
    return f"cli.main {main:.3f} s; " + ", ".join(
        f"{n} {share:.0%}" for share, n in shares)


def run_workload(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[Pass]]:
    if trace:
        bench.probe = False  # both passes run as the user runs the CLI
        untraced = bench.run_pass()
        traced = bench.run_pass(trace=True)
        spans = [s for inv in traced.invoked if inv.trace
                 for s in inv.trace["spans"]]
        (bench.work / "spans.json").write_text(json.dumps(spans))
        return per_layer(traced, untraced), [untraced, traced]
    start = time.perf_counter()
    imports = []
    for _ in range(IMPORT_PROBES):
        probe = bench.invoke("import", [], import_only=True)
        if probe.import_ref_s is not None:
            imports.append(probe.import_ref_s)
    passes = [bench.run_pass() for _ in range(MIN_PASSES)]
    while (time.perf_counter() - start
           + statistics.median(p.elapsed_s for p in passes) <= seconds):
        passes.append(bench.run_pass())
    imports += [i.import_ref_s for p in passes for i in p.invoked
                if i.import_ref_s is not None]
    return end_to_end(passes, imports), passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="comma-separated names from: " + ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    names = args.workload.split(",")
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    if not (root / "src" / "tfmotion" / "cli.py").is_file():
        print("src/tfmotion/cli.py not found: run from the repository root",
              file=sys.stderr)
        return 2

    machine = machine_info(args.seed)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        bench = Bench(root, workload, args.seed)
        shutil.rmtree(bench.work, ignore_errors=True)
        bench.work.mkdir(parents=True)
        metrics, passes = run_workload(bench, args.seconds, bool(args.trace))
        attempted = sum(len(p.invoked) for p in passes)
        failed = sum(p.failed for p in passes)
        print_report(workload, metrics, passes, machine, failed, attempted)
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, (value, unit, _) in metrics.items():
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
