"""Tests of the benchmark itself: output checks, failure counting, self-time
arithmetic and repeatable trace counts.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil

import numpy as np
import pytest

import checks
import speed
import tracing
from conftest import ROOT
from run import Bench
from workloads import DIAGNOSTICS, Invocation, WORKLOADS

DIAG = {inv.name: inv for inv in DIAGNOSTICS}
SMALL_STABLE = ["simulate", "--kind", "II", "--H", "0.8", "--alpha", "1.5",
                "--lambda", "0.3", "--t-max", "1", "--n", "5", "--n-paths", "4",
                "--plan-dy", "0.05", "--seed", "9"]


def _perturb(path, row, col, factor):
    lines = path.read_text().splitlines()
    fields = lines[row + 2].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[row + 2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def bench(tmp_path):
    b = Bench(ROOT, "test", 9)
    b.work = tmp_path
    return b


@pytest.mark.parametrize("name, col", [("covariance", 2), ("spectrum", 2),
                                        ("decay_II", 1), ("limits", 3)])
def test_table_perturbation_beyond_tolerance_fails(tmp_path, name, col):
    out = tmp_path / f"{name}.csv"
    shutil.copy(checks.REF / f"{name}.csv", out)
    inv = DIAG[name]
    assert checks.check_output(inv, list(inv.argv), out) == []
    _perturb(out, 3, col, 1.0 + 1e-12)  # inside every tolerance
    assert checks.check_output(inv, list(inv.argv), out) == []
    _perturb(out, 3, col, 1.0 + 1e-3)
    problems = checks.check_output(inv, list(inv.argv), out)
    assert len(problems) == 1 and "row 3" in problems[0]


def test_stable_paths_against_oracle(tmp_path):
    import tfmotion.cli
    out = tmp_path / "stable.csv"
    argv = SMALL_STABLE + ["--out", str(out)]
    assert tfmotion.cli.main(argv) == 0
    inv = Invocation("stable_II", tuple(SMALL_STABLE), "stable")
    assert checks.check_output(inv, argv, out) == []
    _perturb(out, 7, 2, 1.0 + 1e-13)
    assert checks.check_output(inv, argv, out) == []
    _perturb(out, 7, 2, 1.0 + 1e-4)
    problems = checks.check_output(inv, argv, out)
    assert len(problems) == 1 and problems[0].startswith("path 1 ")


def test_gauss_variance_bands(tmp_path):
    (inv,) = WORKLOADS["gauss_exact"]
    n, n_paths = 2049, 200
    argv = [*inv.argv, "--n-paths", str(n_paths)]  # the last flag wins
    c2 = np.asarray(json.loads((checks.REF / "gauss_var.json").read_text())["c2"])
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, n)

    def write(paths):
        rows = [f"{i},{t:.17g},{v:.17g}" for i in range(n_paths)
                for t, v in zip(times, paths[i])]
        out = tmp_path / "gauss.csv"
        out.write_text("# tfmotion simulate\npath_id,t,value\n" + "\n".join(rows) + "\n")
        return out

    paths = rng.standard_normal((n_paths, n)) * np.sqrt(c2)
    assert checks.check_output(inv, argv, write(paths)) == []
    problems = checks.check_output(inv, argv, write(paths * math.sqrt(1.5)))
    assert len(problems) == 1 and "standard errors" in problems[0]


def test_nonzero_exit_counts_as_failure(bench):
    # kernel_alpha_norm kind II at b = 1e-4 exceeds its error tolerance and
    # the CLI exits 3: a known defect, counted here and not hidden
    inv = Invocation("limits_bad", ("limits", "--H", "0.7", "--alpha", "1.5",
                                    "--lambda", "0.15", "--b-local",
                                    "0.1,0.01,0.001,0.0001"), "table")
    out = bench.work / "limits_bad.csv"
    r = bench.invoke(inv.name, inv.full_argv(9, str(out)))
    assert r.rc == 3
    assert r.problems and r.problems[0].startswith("exit code 3")


def test_self_times_on_synthetic_tree():
    def span(i, parent, start, end, hot_s=0.0, xint=()):
        return {"id": i, "parent": parent, "start": start, "end": end,
                "hot_s": hot_s, "xint": list(xint)}

    spans = [
        span(0, None, 0.0, 10.0, hot_s=1.0),                # root
        span(1, 0, 1.0, 3.0),                               # child
        span(2, 0, 2.0, 6.0, xint=[(2.5, 4.0), (3.0, 5.0)]),  # overlaps 1
        span(3, 2, 5.0, 5.5),
        span(4, None, 20.0, 21.0, xint=[(20.0, 20.5), (20.2, 20.7)]),
    ]
    st = tracing.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 1.0 - 5.0)  # union [1, 6]
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(4.0 - 3.0)         # union [2.5, 5.5]
    assert st[3] == pytest.approx(0.5)
    assert st[4] == pytest.approx(1.0 - 0.7)
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (1, 2), (3, 4)]) == pytest.approx(3.0)


def test_trace_counts_repeat_exactly(bench):
    counts = []
    for _ in range(2):
        out = bench.work / "stable.csv"
        r = bench.invoke("stable", SMALL_STABLE + ["--out", str(out)], trace=True)
        assert r.rc == 0 and r.trace is not None
        counts.append(({k: v[0] for k, v in r.trace["agg"].items()},
                       r.trace["counters"]))
    assert counts[0] == counts[1]
    calls, counters = counts[0]
    n_nodes = math.ceil((1.0 + max(50.0 / 0.3, 50.0)) / 0.05)
    assert counters["stable.kernel_node_table.entries"] == 5 * n_nodes
    assert calls["kernels.kernel_h"] == 5 * n_nodes
    assert calls["stable.path_increments"] == 4
    assert calls["stable.simulate_tfsm_paths.w1"] == 1
    assert counters["cli.rows"] == 4 * 5


def test_ref_seconds_integrates_relative_speed():
    samples = [(1.0, 2.0), (3.0, 0.5), (4.0, 1.0)]
    # [0, 1] at 2.0, [1, 3] at 0.5, [3, 4] at 1.0, then 1.0 after the last
    assert speed.ref_seconds(samples, 0.0, 5.0) == pytest.approx(2.0 + 1.0 + 1.0 + 1.0)
    assert speed.ref_seconds(samples, 2.0, 3.5) == pytest.approx(0.5 + 0.5)
    assert speed.ref_seconds(samples, 0.5, 0.75) == pytest.approx(0.5)
    assert speed.ref_seconds([], 0.0, 1.0) == 0.0


def test_probed_child_reports_reference_seconds(bench):
    r = bench.invoke("import", [], import_only=True)
    assert r.rc == 0 and r.import_ref_s > 0.0 and r.speed > 0.0
    assert r.wall_ref_s == pytest.approx(r.wall_s * r.speed)
