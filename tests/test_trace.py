"""The benchmark's traced runs stay runnable.

perfbench/tracing.py wraps the library from outside ``src/`` and needs some
of its source hooks: ``n_workers`` on both simulators (the ``.w1`` reruns),
``KernelTable.size``, ``CovarianceMatrix.cholesky`` and its cache,
``cli._emit``'s positional ``path`` and ``rows``, and no public non-span
function that calls a span.  Each case runs ``perfbench/child.py --trace`` in
a fresh interpreter, as ``perfbench/run.py --trace 1`` does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STABLE = ["simulate", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3",
          "--n", "9", "--plan-dy", "0.05", "--n-paths", "3"]
GAUSS = ["simulate", "--alpha", "2", "--lambda", "0.15", "--n", "17",
         "--n-paths", "2"]


@pytest.mark.parametrize("argv,agg,counters", [
    (STABLE, ["stable.simulate_tfsm_paths.w1"], ["stable.kernel_node_table.entries"]),
    (GAUSS + ["--H", "0.7"], ["gaussian.simulate_gaussian_paths.w1"], []),
    (GAUSS + ["--H", "1.7"],  # Cholesky: no circulant embedding for H > 1
     ["gaussian.simulate_gaussian_paths.w1", "gaussian.cholesky"], []),
    (["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15"],
     ["kernels.kernel_alpha_norm"], []),
    (["decay", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3", "--t-min", "2",
      "--t-max", "6", "--t-step", "2"], ["dependence.decay_diagnostic"], []),
], ids=["stable", "gauss_circulant", "gauss_cholesky", "limits", "decay"])
def test_traced_run(argv, agg, counters, tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TFMOTION_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, "-X", "importtime", str(ROOT / "perfbench" / "child.py"),
           "--result", str(tmp_path / "result.json"), "--trace", str(trace),
           "--", *argv, "--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.splitlines()[-5:]
    report = json.loads(trace.read_text())
    for name in agg:
        assert report["agg"][name][0] >= 1, name
    for name in ["cli.rows", "cli.out_bytes", *counters]:
        assert report["counters"][name] > 0, name
