import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tfmotion import cli
from tfmotion.cli import main
import oracles


def run_cli(args, tmp_path, name="out.csv", fmt=None, env=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        rc = main(argv)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out


def read_csv(path):
    lines = path.read_text().splitlines()
    meta = lines[0]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


class TestExitCodes:
    def test_invalid_alpha(self, tmp_path, capsys):
        rc, _ = run_cli(["simulate", "--H", "0.7", "--lambda", "0.3",
                         "--alpha", "1.0", "--n-paths", "1"], tmp_path)
        assert rc == 2

    def test_negative_lambda(self, tmp_path):
        rc, _ = run_cli(["spectrum", "--H", "0.7", "--lambda", "-0.3"], tmp_path)
        assert rc == 2

    def test_missing_required(self, tmp_path):
        rc, _ = run_cli(["spectrum", "--lambda", "0.3"], tmp_path)
        assert rc == 2

    def test_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 2

    def test_gaussian_first_kind_rejected(self, tmp_path):
        rc, _ = run_cli(["simulate", "--H", "0.7", "--lambda", "0.3",
                         "--alpha", "2.0", "--kind", "I"], tmp_path)
        assert rc == 2

    @pytest.mark.parametrize("option", ["sigma", "beta"])
    @pytest.mark.parametrize("alpha", [["--alpha", "2"], []], ids=["alpha2", "default"])
    def test_gaussian_sigma_beta_rejected(self, option, alpha, tmp_path, capsys):
        # the Gaussian sampler has no use for them, so a header naming them
        # would describe rows they did not shape; unset --alpha is 2
        base = ["simulate", "--H", "0.7", "--lambda", "0.15", "--n", "5", *alpha]
        rc, out = run_cli(base + ["--" + option, "0.5"], tmp_path)
        assert rc == 2 and not out.exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: 0.5}))
        rc, out = run_cli(base + ["--config", str(cfg)], tmp_path)
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["tfmotion: error: exact Gaussian simulation (alpha = 2) "
                       "takes no --sigma or --beta; leave them unset"] * 2

    @pytest.mark.parametrize("args,message", [
        (["decay", "--H", "0.8", "--lambda", "0"], "decay theory requires lambda > 0"),
        (["decay", "--H", "0.8", "--lambda", "0.3", "--t-min", "5", "--t-max", "5"],
         "need at least two lags"),
        (["spectrum", "--H", "0.7", "--lambda", "0.15", "--tol", "0"],
         "tol must be positive"),
        (["spectrum", "--H", "0.7", "--lambda", "0.15", "--omega-grid=1:0:5"],
         "grid spec needs max > min and count >= 2, got '1:0:5'"),
        (["limits", "--H", "0.7", "--lambda", "0.15", "--b-local", ","],
         "empty value list ','"),
        (["spectrum", "--config", "LIST_CONFIG"], "config file must hold a JSON object"),
        (["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "2", "--n-paths", "0"],
         "n_paths must be >= 1"),
        (["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "1.5",
          "--n-paths", "0"], "n_paths must be >= 1"),
        (["simulate", "--H", "0.7", "--lambda", "0.15", "--n", "0"],
         "need n >= 1 points and t_max > 0"),
        (["covariance", "--H", "0.7", "--lambda", "0.15", "--n", "0"],
         "need n >= 1 points and t_max > 0"),
        (["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "1.5",
          "--plan-dy", "1000"], "need at least 2 nodes"),
    ])
    def test_invalid_input_exits_2_with_one_line(self, args, message, tmp_path, capsys):
        # LIST_CONFIG names a config file holding a JSON list, not an object
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        args = [str(cfg) if a == "LIST_CONFIG" else a for a in args]
        rc, out = run_cli(args, tmp_path)
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"tfmotion: error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["limits", "--H", "0.7", "--lambda", "0.15", "--b-global", "0"],
        ["limits", "--H", "0.7", "--lambda", "0.15", "--b-local", "0"],
        ["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "1.5",
         "--plan-dy", "0"],
    ])
    def test_zero_scale_exits_2(self, args, tmp_path):
        # a zero limit scale b or plan cell width dy is invalid input, not a
        # ZeroDivisionError
        rc, _ = run_cli(args, tmp_path)
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["covariance", "--H", "0.75", "--lambda", "0.5", "--t-max", "100", "--n", "3"],
        ["simulate", "--alpha", "2", "--H", "0.7", "--lambda", "40", "--n", "5"],
    ])
    def test_negative_variance_exits_3(self, args, tmp_path):
        # the TFBM II variance closed form cancels to C_t^2 < 0 at large
        # lam t: a numeric failure, not a negative covariance or a path
        # pinned at 0
        rc, _ = run_cli(args, tmp_path)
        assert rc == 3

    @pytest.mark.parametrize("args", [
        ["limits", "--H", "100", "--alpha", "2", "--lambda", "1"],
        ["covariance", "--H", "180.3", "--lambda", "1"],
    ])
    def test_float_overflow_exits_3(self, args, tmp_path, capsys):
        # a constant past the float range (c ** alpha in the global limit
        # constant, Gamma(H + 1/2) in the variance prefactor) is a numeric
        # failure with the one-line message, not a traceback
        rc, out = run_cli(args, tmp_path)
        assert rc == 3 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("tfmotion: numeric failure: ") and err.count("\n") == 1

    def test_gamma_overflow_names_function_and_x(self, tmp_path, capsys):
        # Gamma(H) past the float range at a subnormal H is the package's
        # numeric failure, not a bare "math range error"
        rc, out = run_cli(["covariance", "--H", "5e-324", "--lambda", "0.01",
                           "--t-max", "2", "--n", "3"], tmp_path)
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err == (
            "tfmotion: numeric failure: gamma_fn overflows at x = 5e-324\n")

    def test_spectrum_near_zero_frequency(self, tmp_path):
        # near omega = 0 the densities neither cancel nor divide by omega^2
        # (omega^2 is 0.0 here): the first kind's column is 0 and the
        # second's its limit lam^{1-2H}/2pi
        rc, out = run_cli(["spectrum", "--H", "0.7", "--lambda", "0.15",
                           "--omega-grid=1e-200:1e-199:2"], tmp_path)
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [float(r[1]) for r in rows] == [0.0, 0.0]
        for r in rows:
            assert float(r[2]) == pytest.approx(0.15 ** -0.4 / (2.0 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("args", [
        ["spectrum", "--H", "-1", "--lambda", "0.15"],
        ["spectrum", "--H", "0.7", "--lambda", "0"],
        ["spectrum", "--H", "0.7", "--lambda", "0.15", "--omega-grid=0:4:3"],
        ["covariance", "--H", "0", "--lambda", "0.5"],
        ["covariance", "--H", "0.7", "--lambda", "-1"],
        ["limits", "--H", "0.7", "--lambda", "0"],
        # the stable sampler and the Gaussian variance refuse lambda = 0
        ["simulate", "--H", "0.8", "--alpha", "1.5", "--lambda", "0", "--n", "5"],
        ["simulate", "--H", "0.8", "--alpha", "2", "--lambda", "0", "--n", "5"],
        # a plan from y >= 0 drops the kernels' mass left of 0
        ["simulate", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3", "--n", "5",
         "--plan-dy", "0.01", "--plan-cutoff", "-0.5"],
        ["simulate", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3", "--n", "5",
         "--plan-dy", "0.01", "--plan-cutoff", "0"],
    ])
    def test_library_range_checks_exit_2(self, args, tmp_path, capsys):
        # the library, not the CLI, checks these ranges; they stay usage errors
        rc, out = run_cli(args, tmp_path)
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("tfmotion: error: ")

    @pytest.mark.parametrize("command", ["spectrum", "simulate", "covariance",
                                         "decay", "limits"])
    def test_every_command_requires_h_and_lambda(self, command, tmp_path, capsys):
        for args in (["--H", "0.7"], ["--lambda", "0.15"]):
            rc, _ = run_cli([command, *args], tmp_path)
            assert rc == 2
            assert "requires --H and --lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["simulate", "--H", "nan", "--lambda", "0.15", "--alpha", "1.5", "--n", "3"],
        ["spectrum", "--H", "nan", "--lambda", "0.15"],
        ["spectrum", "--H", "0.7", "--lambda", "0.15", "--omega-grid=nan:1:3"],
        ["spectrum", "--H", "0.7", "--lambda", "0.15", "--omega-grid=-1:inf:3"],
        ["spectrum", "--H", "0.7", "--lambda", "0.15", "--tol", "nan"],
        ["decay", "--H", "0.8", "--lambda", "nan"],
        ["decay", "--H", "0.8", "--lambda", "0.15", "--theta1", "nan"],
        ["limits", "--H", "0.7", "--lambda", "0.15", "--b-global", "inf"],
        ["covariance", "--H", "0.7", "--lambda", "inf"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_number_exits_2(self, args, tmp_path):
        # NaN and inf are invalid input in a flag, a grid spec or a value
        # list: argparse or the command rejects them before any numerics
        try:
            rc, out = run_cli(args, tmp_path)
        except SystemExit as e:
            rc, out = e.code, tmp_path / "out.csv"
        assert rc == 2 and not out.exists()

    @pytest.mark.parametrize("command", ["decay", "limits"])
    def test_tol_above_quadrature_range_exits_2(self, command, tmp_path):
        # _quad's range of rel_tol, (0, 1e-2], is the one rule for --tol
        rc, out = run_cli([command, "--H", "0.7", "--lambda", "0.15",
                           "--tol", "0.5"], tmp_path)
        assert rc == 2 and not out.exists()

    def test_lattice_cap_exits_3(self, tmp_path, capsys):
        # the spectral lattice sum would need L > 4096 at this lambda
        rc, _ = run_cli(["spectrum", "--H", "0.7", "--lambda", "1e8",
                         "--omega-grid=-3:3:3"], tmp_path)
        assert rc == 3
        assert "L = 4096" in capsys.readouterr().err

    @pytest.mark.parametrize("warnings", [None, "error::RuntimeWarning"])
    def test_lattice_tail_at_large_lambda_exits_0(self, warnings, tmp_path):
        # lambda^(2i) of the lattice tail's terms would leave the float range
        # at this lambda and tol; the scaled terms stay finite: exit 0, every
        # bound within tol, and no warning, whether or not a RuntimeWarning
        # is an error
        env = package_env()
        env.pop("PYTHONWARNINGS", None)
        if warnings:
            env["PYTHONWARNINGS"] = warnings
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tfmotion.cli", "spectrum", "--H", "0.1",
             "--lambda", "18000", "--tol", "1e-16", "--omega-grid=-3:3:5",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stderr == ""
        _, header, rows = read_csv(out)
        bounds = [float(r[header.index(c)]) for r in rows
                  for c in ("err_bound_1", "err_bound_2")]
        assert len(rows) == 5 and max(bounds) <= 1e-16

    def test_local_scale_overflow_names_b(self, tmp_path, capsys):
        # b^(-alpha H) of a local row overflows at b = 1e-300: a numeric
        # failure that names b, raised before any integral
        rc, out = run_cli(["limits", "--H", "0.7", "--lambda", "0.15",
                           "--alpha", "1.5", "--b-local", "0.1,1e-300"], tmp_path)
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err == (
            "tfmotion: numeric failure: local limit: b^(-alpha H) overflows "
            "at b = 1e-300\n")

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_nonpositive_t_step_exits_2(self, step, tmp_path, capsys):
        rc, out = run_cli(["decay", "--H", "0.8", "--lambda", "0.3",
                           f"--t-step={step}"], tmp_path)
        assert rc == 2 and not out.exists()
        assert f"--t-step must be >= 1, got {step}" in capsys.readouterr().err

    def test_unallocatable_plan_exits_2(self, tmp_path, capsys, monkeypatch):
        # a plan of 3.3e11 nodes: its allocation is made to fail here, not
        # attempted, and the failure is a plan error naming both sizes
        def no_memory(plan):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(cli.DiscretizationPlan, "nodes", no_memory)
        rc, out = run_cli(["simulate", "--H", "0.7", "--lambda", "0.15",
                           "--alpha", "1.5", "--n", "3", "--plan-dy", "1e-9"],
                          tmp_path)
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("tfmotion: error: plan of 3.34e+11 nodes")
        assert "3 x 3.34e+11 kernel table" in err

    @pytest.mark.parametrize("flag,value,size", [
        ("--plan-dy", "1e-300", r"\d\.\d\de\+30\d"),
        ("--t-max", "1e-300", r"\d\.\d\de\+30\d"),
        ("--plan-dy", "5e-324", "inf"),
    ], ids=["--plan-dy", "--t-max", "--plan-dy=5e-324"])
    def test_unindexable_plan_exits_2(self, flag, value, size, tmp_path, capsys):
        # a plan of about 1e302 nodes (--plan-dy, or --t-max whose dy is
        # t_max / 256) is past what NumPy can index, and one at the least
        # subnormal dy has more nodes than a float holds: each is refused
        # before any allocation, with the plan error that names both sizes
        # and the bytes in %.3g
        rc, out = run_cli(["simulate", "--H", "0.7", "--lambda", "0.15",
                           "--alpha", "1.5", "--n", "3", flag, value], tmp_path)
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert re.fullmatch(rf"tfmotion: error: plan of {size} nodes needs a 3 x "
                            rf"{size} kernel table \({size} bytes\), more than "
                            rf"can be allocated; raise dy\n", err), err


class TestSpectrum:
    def test_columns_and_origin_values(self, tmp_path):
        rc, out = run_cli(["spectrum", "--H", "0.7", "--lambda", "0.15",
                           "--omega-grid", "0:3.1:4"], tmp_path)
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["omega", "tfgn_density", "tfgn2_density",
                          "err_bound_1", "err_bound_2"]
        first = [float(x) for x in rows[0]]
        assert first[0] == 0.0
        assert first[1] == 0.0  # first kind vanishes at the origin
        assert first[2] == pytest.approx(0.15 ** (-0.4) / (2 * math.pi), abs=1e-12)

    def test_one_density_call_per_kind(self, tmp_path, monkeypatch):
        # the grid is one array call of each density, and each row holds the
        # values of the one-element calls at its omega
        calls = []
        for name in ("tfgn1_spectral_density", "tfgn2_spectral_density"):
            def spy(*args, real=getattr(cli, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(cli, name, spy)
        rc, out = run_cli(["spectrum", "--H", "0.7", "--lambda", "0.15",
                           "--omega-grid=-3:3:13"], tmp_path)
        assert rc == 0
        assert sorted(calls) == ["tfgn1_spectral_density", "tfgn2_spectral_density"]
        monkeypatch.undo()
        _, _, rows = read_csv(out)
        assert len(rows) == 13
        for row in rows:
            w, h1, h2, e1, e2 = (float(x) for x in row)
            assert (h1, e1) == cli.tfgn1_spectral_density(0.7, 0.15, w, 1e-10)
            assert (h2, e2) == cli.tfgn2_spectral_density(0.7, 0.15, w, 1e-10)

    def test_white_noise_constant(self, tmp_path):
        rc, out = run_cli(["spectrum", "--H", "0.5", "--lambda", "0.7",
                           "--omega-grid=-3:3:7"], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert float(row[2]) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)


class TestSimulate:
    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "2",
                "--t-max", "1", "--n", "4", "--n-paths", "2", "--seed", "42"]
        rc1, o1 = run_cli(args, tmp_path, "a.csv")
        rc2, o2 = run_cli(args, tmp_path, "b.csv")
        assert rc1 == rc2 == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_thread_count_invariance(self, tmp_path):
        # nothing reads TFMOTION_THREADS any more: a leftover setting
        # changes no byte
        args = ["simulate", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3",
                "--t-max", "1", "--n", "3", "--n-paths", "6", "--seed", "1",
                "--plan-dy", "0.05", "--plan-cutoff", "30"]
        _, o1 = run_cli(args, tmp_path, "t1.csv", env={"TFMOTION_THREADS": "1"})
        _, o2 = run_cli(args, tmp_path, "t4.csv", env={"TFMOTION_THREADS": "4"})
        assert o1.read_bytes() == o2.read_bytes()

    def test_header_records_params_and_seed(self, tmp_path):
        rc, out = run_cli(["simulate", "--H", "0.7", "--lambda", "0.15",
                           "--alpha", "2", "--n", "3", "--n-paths", "1",
                           "--seed", "99"], tmp_path)
        meta, header, _ = read_csv(out)
        assert "seed=99" in meta and "H=0.69999999999999996" in meta
        assert header == ["path_id", "t", "value"]

    @pytest.mark.parametrize("alpha", ["2", "1.5"])
    def test_seed_outside_key_range_exits_2(self, alpha, tmp_path, capsys,
                                            monkeypatch):
        # a seed outside a Philox key word's [0, 2^64) is refused before any
        # table or path work, not folded onto another seed; the largest runs
        from tfmotion import gaussian, stable

        def banned(*args):
            raise AssertionError("table or path work before the seed check")

        args = ["simulate", "--H", "0.8", "--lambda", "0.3", "--alpha", alpha,
                "--t-max", "1", "--n", "3", "--n-paths", "2",
                "--plan-dy", "0.05", "--plan-cutoff", "30"]
        with monkeypatch.context() as m:
            for mod, name in ((stable, "kernel_node_table"),
                              (gaussian, "_circulant_eigenvalues"),
                              (gaussian, "build_cov_matrix")):
                m.setattr(mod, name, banned)
            for seed in ("-1", str(2 ** 64)):
                rc, out = run_cli(args + ["--seed", seed], tmp_path)
                assert rc == 2 and not out.exists()
                assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        rc, out = run_cli(args + ["--seed", str(2 ** 64 - 1)], tmp_path)
        assert rc == 0 and "seed=18446744073709551615" in read_csv(out)[0]

    def test_brownian_increment_variance(self, tmp_path):
        rc, out = run_cli(["simulate", "--H", "0.5", "--lambda", "0.2",
                           "--alpha", "2", "--t-max", "1", "--n", "5",
                           "--n-paths", "600", "--seed", "4"], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        vals = np.array([float(r[2]) for r in rows]).reshape(600, 5)
        inc = np.diff(vals, axis=1).ravel()  # each has variance dt = 0.25
        n = inc.size
        assert abs(inc.var() - 0.25) <= 4.0 * 0.25 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_one_point_grid(self, tmp_path, kind):
        # n = 1 samples t = 0 alone: every plan node is far left of it, the
        # kernel table's near block is empty, and the path is 0
        rc, out = run_cli(["simulate", "--H", "0.8", "--lambda", "1", "--alpha",
                           "1.5", "--n", "1", "--plan-dy", "0.5", "--kind", kind],
                          tmp_path)
        assert rc == 0
        assert read_csv(out)[2] == [["0", "0", "0"]]

    def test_coupled_kinds_identity(self, tmp_path):
        base = ["simulate", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3",
                "--t-max", "1", "--n", "33", "--n-paths", "2", "--seed", "11",
                "--plan-dy", "0.02", "--plan-cutoff", "40"]
        _, oII = run_cli(base + ["--kind", "II"], tmp_path, "k2.csv")
        _, oI = run_cli(base + ["--kind", "I"], tmp_path, "k1.csv")
        _, _, rII = read_csv(oII)
        _, _, rI = read_csv(oI)
        vII = np.array([float(r[2]) for r in rII]).reshape(2, 33)
        vI = np.array([float(r[2]) for r in rI]).reshape(2, 33)
        ts = np.array([float(r[1]) for r in rI]).reshape(2, 33)[0]
        # difference of coupled paths = lam * (path integral + t C0); with C0
        # unobservable here, check the difference-of-differences over time,
        # which eliminates it: d(t) - t d(1) has no C0 term error
        from tfmotion.kernels import ProcessParams
        from tfmotion.rng import philox_streams
        from tfmotion.stable import DiscretizationPlan, path_increments
        from tfmotion.gaussian import SampleGrid
        p = ProcessParams(H=0.8, alpha=1.5, lam=0.3, kind="II")
        plan = DiscretizationPlan.for_grid(SampleGrid(ts), p, dy=0.02, cutoff=40.0)
        drift = np.array([oracles.plus_pow(-y, p.kappa) * math.exp(-p.lam * max(-y, 0.0))
                          for y in plan.nodes()])
        for i, rng in enumerate(philox_streams(11, range(2))):
            c0 = float(drift @ path_increments(p, plan, rng))
            lhs = vII[i, -1] - vI[i, -1]
            rhs = p.lam * (np.trapezoid(vI[i], ts) + 1.0 * c0)
            assert abs(lhs - rhs) < 2e-2


class TestCovariance:
    def test_diagonal_equals_times_brownian(self, tmp_path):
        rc, out = run_cli(["covariance", "--H", "0.5", "--lambda", "0.4",
                           "--t-max", "2", "--n", "4"], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        for r in rows:
            s, t, c = (float(x) for x in r)
            if s == t:
                assert c == pytest.approx(t, rel=1e-12)


    def test_table_matches_pairwise_covariances(self, tmp_path):
        # the table is the covariance matrix of the grid, bit for bit the
        # pairwise covariance_tfbm2 values
        from tfmotion.gaussian import covariance_tfbm2
        rc, out = run_cli(["covariance", "--H", "0.7", "--lambda", "0.15",
                           "--t-max", "3", "--n", "7"], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 49
        for r in rows:
            s, t, c = (float(x) for x in r)
            assert c == covariance_tfbm2(0.7, 0.15, s, t)


class TestDecay:
    def test_exponent_contrast(self, tmp_path):
        base = ["decay", "--H", "0.8", "--alpha", "1.5", "--lambda", "0.3",
                "--t-min", "4", "--t-max", "10", "--t-step", "3"]
        _, oII = run_cli(base + ["--kind", "II"], tmp_path, "d2.csv")
        _, oI = run_cli(base + ["--kind", "I"], tmp_path, "d1.csv")
        _, _, rII = read_csv(oII)
        _, _, rI = read_csv(oI)
        pII = float(rII[0][3])
        pI = float(rI[0][3])
        assert pI - pII == pytest.approx(1.0)


class TestLimits:
    def test_levy_point_zero_gaps(self, tmp_path):
        rc, out = run_cli(["limits", "--H", "0.5", "--alpha", "2",
                           "--lambda", "0.3", "--b-global", "10,40",
                           "--b-local", "0.1"], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        for r in rows:
            if r[0] == "global" and r[1] == "II":
                assert float(r[5]) == 0.0

    def test_local_limit_at_tiny_scales(self, tmp_path):
        # kind II's kernel near y = 0 at b down to 1e-200 is a difference of
        # lower incomplete gammas (specfun.gamma_interval): both kinds reach
        # the FSM constant within 1e-11, where upper differences cancelled
        # (a QuadratureError at 1e-40, 10% off at 1e-100)
        rc, out = run_cli(["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15",
                           "--b-local", "1e-20,1e-40,1e-100,1e-200"], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        local = [r for r in rows if r[0] == "local"]
        assert sorted(r[1] for r in local) == ["I"] * 4 + ["II"] * 4
        assert all(float(r[5]) <= 1e-11 for r in local), local


class TestFormats:
    def test_json_csv_same_numeric_payload(self, tmp_path):
        args = ["spectrum", "--H", "0.7", "--lambda", "0.15",
                "--omega-grid", "0:3:5"]
        _, oc = run_cli(args, tmp_path, "x.csv", fmt="csv")
        _, oj = run_cli(args, tmp_path, "x.json", fmt="json")
        _, header, rows = read_csv(oc)
        payload = json.loads(oj.read_text())
        assert payload["columns"] == header
        for rc_, rj in zip(rows, payload["rows"]):
            for a, b in zip(rc_, rj):
                assert float(a) == float(b)

    def test_json_rerun_identical(self, tmp_path):
        args = ["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15",
                "--b-global", "25", "--b-local", "0.1"]
        _, o1 = run_cli(args, tmp_path, "l1.json", fmt="json")
        _, o2 = run_cli(args, tmp_path, "l2.json", fmt="json")
        assert o1.read_bytes() == o2.read_bytes()

    def test_json_writes_nan_as_null(self, tmp_path):
        # outside 0 < H < 1 the local rows have no limit: NaN in the CSV,
        # null in the JSON, which a strict parser accepts
        args = ["limits", "--H", "1.3", "--alpha", "1.5", "--lambda", "0.3",
                "--b-global", "25", "--b-local", "0.1"]
        _, oc = run_cli(args, tmp_path, "l.csv")
        _, oj = run_cli(args, tmp_path, "l.json", fmt="json")

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(oj.read_text(), parse_constant=no_constant)["rows"]
        _, _, csv_rows = read_csv(oc)
        assert [r[4:6] for r in rows if r[0] == "local"] == [[None, None]] * 2
        assert [r[4:6] for r in csv_rows if r[0] == "local"] == [["nan", "nan"]] * 2
        assert all(math.isfinite(v) for r in rows for v in r[2:6] if v is not None)


GAUSS_33 = ["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "2",
            "--n", "33", "--n-paths", "3", "--seed", "5"]


def spy_emit(monkeypatch):
    """Record the arguments of every table the CLI emits."""
    calls = []
    real = cli._emit

    def spy(*args):
        calls.append(args)
        real(*args)

    monkeypatch.setattr(cli, "_emit", spy)
    return calls


def legacy_rows(rows):
    """Rows of a simulate table built the way the per-value renderer got them."""
    if isinstance(rows, list):
        return rows
    n_paths, n = rows.paths.shape
    return [[i, float(t), float(rows.paths[i, j])]
            for i in range(n_paths) for j, t in enumerate(rows.times)]


class TestOutputBytes:
    """The CLI's output equals the per-value join renderer byte for byte."""

    @pytest.mark.parametrize("args", [
        GAUSS_33,
        ["simulate", "--kind", "II", "--H", "0.8", "--alpha", "1.5",
         "--lambda", "0.3", "--n", "17", "--n-paths", "3", "--seed", "7",
         "--plan-dy", "0.05"],
        ["limits", "--H", "0.7", "--alpha", "2", "--lambda", "0.15",
         "--b-global", "25", "--b-local", "0.1"],
    ], ids=["gauss", "stable", "limits"])
    def test_csv(self, args, tmp_path, monkeypatch):
        calls = spy_emit(monkeypatch)
        rc, out = run_cli(args, tmp_path)
        assert rc == 0
        _, fmt, command, meta, columns, rows = calls[0]
        text = oracles.render_table(fmt, command, meta, columns, legacy_rows(rows))
        assert out.read_bytes() == text.encode()
        assert out.read_text().count("\n") == len(rows) + 2

    def test_json(self, tmp_path, monkeypatch):
        calls = spy_emit(monkeypatch)
        rc, out = run_cli(GAUSS_33, tmp_path, "g.json", fmt="json")
        assert rc == 0
        _, fmt, command, meta, columns, rows = calls[0]
        text = oracles.render_table(fmt, command, meta, columns, legacy_rows(rows))
        assert out.read_bytes() == text.encode()

    def test_stdout(self, monkeypatch, capsys):
        calls = spy_emit(monkeypatch)
        assert main(GAUSS_33 + ["--out", "-"]) == 0
        _, fmt, command, meta, columns, rows = calls[0]
        text = oracles.render_table(fmt, command, meta, columns, legacy_rows(rows))
        assert capsys.readouterr().out == text

    def test_cells_need_not_share_types(self, tmp_path):
        # each cell is its own text, whatever the type of the cell above it
        out = tmp_path / "mixed.csv"
        cli._emit(str(out), "csv", "t", {"b": True, "f": 0.1, "i": 3}, ["u", "v"],
                  [[1, 0.5], [0.25, None], [False, "s"], [2 ** 70, math.nan]])
        assert out.read_bytes() == (
            b"# tfmotion t b=true f=0.10000000000000001 i=3\nu,v\n"
            b"1,0.5\n0.25,None\nfalse,s\n1180591620717411303424,nan\n")


def path_csv(x) -> bytes:
    """The CLI's CSV rows of the values x as path 0 with empty t cells,
    formatted in blocks of 2^16 values."""
    x = np.asarray(x, float)
    return b"".join(cli._csv_block(0, cli._cells([b","] * len(b)), b[None, :])
                    for b in np.array_split(x, -(-x.size // (1 << 16))))


@pytest.mark.filterwarnings("error")
class TestFloatText:
    """simulate's NumPy %.17g equals Python's '%.17g' % v byte for byte, for
    each value and its negative."""

    rng = np.random.default_rng(20261019)

    def check(self, x):
        x = np.concatenate([x, -np.asarray(x)])
        got = path_csv(x)
        want = b"".join(b"0,,%.17g\n" % v for v in x.tolist())
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.split(b"\n"),
                                                want.split(b"\n")) if g != w]
            pytest.fail(f"{len(bad)} values differ, the first: {bad[:3]}")

    def random_doubles(self, n, exponents):
        """n float64 of random bits whose biased exponent field is drawn
        from the range exponents."""
        bits = self.rng.integers(0, 2 ** 52, n, dtype=np.uint64)
        bits |= self.rng.integers(*exponents, n).astype(np.uint64) << np.uint64(52)
        return bits.view(np.float64)

    def test_random_bit_patterns(self):
        # with the negatives, 10^6 values between 2^-20 and 2^60 (the fixed
        # notation of %.17g and both of its seams) and 4x10^4 finite values
        # of any exponent, which Python takes about 2 us each to format
        self.check(self.random_doubles(500_000, (1003, 1083)))
        self.check(self.random_doubles(20_000, (0, 2047)))

    def test_powers_of_ten_and_seams(self):
        p = np.array([float(f"1e{j}") for j in range(-6, 18)])
        seams = np.array([1e-4, 1e16])
        for _ in range(2):
            seams = np.concatenate([seams, np.nextafter(seams, 0), np.nextafter(seams, np.inf)])
        self.check(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), seams]))

    def test_decimal_ties(self):
        k = np.arange(50_000)
        ties = [k * 2.0 ** -20 + 1e10, 2.0 ** 53 + k / 8]
        # N + r 2^-j with N of 18 - j digits and r odd has 18 significant
        # digits, the last a 5: a tie at 17 digits, broken to even
        for j in range(2, 18):
            lo, hi = 10 ** (17 - j), min(10 ** (18 - j), 2 ** (53 - j))
            n = self.rng.integers(lo, hi, 3_000)
            r = 2 * self.rng.integers(0, 2 ** (j - 1), 3_000) + 1
            ties.append((n * 2 ** j + r) / 2.0 ** j)
        self.check(np.concatenate(ties))

    def test_special_values(self):
        self.check([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5,
                    np.finfo(float).max, 1e300, np.inf, np.nan])

    def dyadic(self, k, j, n):
        """n values in [10^k, 10^(k+1)) with exactly j fraction digits (odd
        multiples of 2^-j below 2^53 2^-j, so each is exact), or none when
        that range holds too few."""
        lo = math.ceil(Fraction(10) ** k * 2 ** j)
        hi = min(math.ceil(Fraction(10) ** (k + 1) * 2 ** j), 2 ** 53)
        if hi - lo < 3:
            return np.empty(0)
        return (2 * self.rng.integers(lo // 2, (hi - 1) // 2, n) + 1) / 2.0 ** j

    def test_integers_drop_the_point(self):
        # k = 1..15: g0 in the prefix and the other k digits in the integer
        # words, whose leftmost holds k mod 4 of them; no fraction, no point
        for k in range(1, 16):
            n = self.rng.integers(10 ** k, min(10 ** (k + 1), 2 ** 53), 2_000)
            self.check(np.concatenate([n, n[:1] // 10 ** k * 10 ** k]).astype(float))

    def test_integer_part_fills_its_leftmost_word(self):
        # 1, 2, 3 and 4 digits after g0 in the leftmost integer word, with
        # fractions of every length, and in blocks whose values span k <= 0
        for k in range(1, 16):
            x = 10.0 ** k * (1 + 9 * self.rng.random(2_000))
            self.check(np.concatenate([x, self.rng.random(500) * 10]))

    def test_fraction_ends_at_each_group_edge(self):
        # the last nonzero digit is the last of a fraction word, or one
        # either side of it: for k <= 0 the words hold D's 16 digits after
        # g0, for k >= 1 the 16 - k fraction digits left-aligned
        x = []
        for k in range(-4, 16):
            for edge in (4, 8, 12, 16):
                for j in (edge - 1, edge, edge + 1):
                    frac = j - min(k, 0)  # fraction digits
                    if k + frac <= 16:
                        x.append(self.dyadic(k, frac, 300))
        x = np.concatenate(x)
        assert x.size > 20_000
        self.check(x)

    def test_python_formats_only_values_outside_the_layout(self, monkeypatch):
        # the NumPy layout covers every finite 1e-4 <= |x| < 1e16, the
        # values next to each power of ten included
        seen = []
        real = cli._slow_texts

        def spy(x):
            seen.append(x.copy())
            return real(x)

        monkeypatch.setattr(cli, "_slow_texts", spy)
        p = 10.0 ** np.arange(-5, 18)
        x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                            self.random_doubles(100_000, (1003, 1083)),
                            self.random_doubles(2_000, (0, 2047)),
                            [0.0, np.inf, np.nan]])
        self.check(x)
        a = np.abs(np.concatenate(seen))
        assert a.size >= 6
        assert not np.any((a >= 1e-4) & (a < 1e16))


# 34 paths at n = 2049 are three CSV blocks of 16, 16 and 2 paths
GAUSS_3_BLOCKS = ["simulate", "--H", "0.7", "--lambda", "0.15", "--alpha", "2",
                  "--n", "2049", "--n-paths", "34", "--seed", "3"]


@pytest.fixture
def csv_blocks(monkeypatch):
    """Record (first path, paths, formatting thread) of every CSV block."""
    blocks = []
    real = cli._csv_block

    def spy(i0, tcells, paths):
        blocks.append((i0, len(paths), threading.get_ident()))
        return real(i0, tcells, paths)

    monkeypatch.setattr(cli, "_csv_block", spy)
    return blocks


class TestCsvFanOut:
    """simulate formats fixed blocks of paths in the calling thread, one
    block at a time; the bytes are those of the %-formatted table."""

    def test_bytes_independent_of_workers(self, tmp_path, monkeypatch, csv_blocks):
        # reruns, one with a leftover TFMOTION_THREADS that nothing reads
        calls = spy_emit(monkeypatch)
        outs = [run_cli(GAUSS_3_BLOCKS, tmp_path, "a.csv"),
                run_cli(GAUSS_3_BLOCKS, tmp_path, "b.csv"),
                run_cli(GAUSS_3_BLOCKS, tmp_path, "env.csv",
                        env={"TFMOTION_THREADS": "2"})]
        assert [rc for rc, _ in outs] == [0] * 3
        data = [out.read_bytes() for _, out in outs]
        assert all(d == data[0] for d in data[1:])
        _, fmt, command, meta, columns, rows = calls[0]
        text = oracles.render_table(fmt, command, meta, columns, legacy_rows(rows))
        assert data[0] == text.encode()
        main_thread = threading.get_ident()
        assert csv_blocks == [(0, 16, main_thread), (16, 16, main_thread),
                              (32, 2, main_thread)] * 3

    def test_stdout_through_workers(self, tmp_path):
        # one interpreter writes every command's table, CSV and JSON, to a
        # buffered pipe, one after another, each after a line printed to the
        # text layer: each reaches the pipe whole and in order, after its line,
        # as the bytes of its --out file (simulate's in three blocks)
        tables = [[c, *a] for c, a in BASE_ARGV.items() if c != "simulate"]
        cases = [[*argv, "--format", fmt] for argv in tables + [GAUSS_3_BLOCKS]
                 for fmt in ("csv", "json")]
        want = []
        for i, argv in enumerate(cases):
            rc, out = run_cli(argv, tmp_path, f"{i}.out")
            assert rc == 0, argv
            want.append(b"%d\n" % i + out.read_bytes())
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        script = ("import json, sys\nfrom tfmotion.cli import main\n"
                  "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
                  "    print(i)\n"
                  "    assert main(argv + ['--out', '-']) == 0, argv\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(cases)],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"".join(want)

    def test_one_block_stays_serial(self, tmp_path, csv_blocks):
        rc, _ = run_cli(GAUSS_33, tmp_path)
        assert rc == 0
        assert csv_blocks == [(0, 3, threading.get_ident())]


class TestRemovedFlags:
    def test_threads_flag_rejected(self):
        # every command computes in the calling thread: --threads is gone
        for command, argv in BASE_ARGV.items():
            with pytest.raises(SystemExit) as e:
                main([command, *argv, "--threads", "2"])
            assert e.value.code == 2, command

    def test_simulate_tol_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(GAUSS_33 + ["--tol", "1e-3"])
        assert e.value.code == 2

    def test_covariance_tol_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15, "tol": 1e-3}))
        rc, _ = run_cli(["covariance", "--config", str(cfg)], tmp_path)
        assert rc == 2


    @pytest.mark.parametrize("command", ["decay", "limits"])
    @pytest.mark.parametrize("option", ["sigma", "beta"])
    def test_decay_limits_sigma_beta_rejected(self, command, option, tmp_path):
        # the codifference and the limit tables do not depend on them
        with pytest.raises(SystemExit) as e:
            main([command, "--H", "0.7", "--lambda", "0.15", "--" + option, "0.5"])
        assert e.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15, option: 0.5}))
        rc, _ = run_cli([command, "--config", str(cfg)], tmp_path)
        assert rc == 2


class TestConfigFile:
    def test_config_supplies_missing_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15,
                                   "omega-grid": "0:3:4", "format": "csv"}))
        rc, out = run_cli(["spectrum", "--config", str(cfg)], tmp_path)
        assert rc == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.3, "lambda": 0.15,
                                   "omega-grid": "0:3:4"}))
        rc, out = run_cli(["spectrum", "--config", str(cfg), "--H", "0.5"],
                          tmp_path)
        assert rc == 0
        meta, _, rows = read_csv(out)
        assert "H=0.5" in meta
        # H = 0.5 gives the flat 1/2pi density, H = 0.3 would not
        assert float(rows[1][2]) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("values", [{"n": 2.5}, {"H": True}, {"lambda": math.inf}],
                             ids=["float_n", "bool_H", "inf_lambda"])
    def test_config_value_through_option_type(self, values, tmp_path):
        # a config value is converted as the same text given as a flag:
        # --n 2.5, --H true and --lambda inf exit 2, and so do these
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15, **values}))
        with pytest.raises(SystemExit) as e:
            run_cli(["covariance", "--config", str(cfg)], tmp_path)
        assert e.value.code == 2 and not (tmp_path / "out.csv").exists()

    def test_config_typed_and_null_values(self, tmp_path):
        # an int is a valid float, and null leaves the option to its default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.5, "lambda": 1, "n": 3, "t-max": None}))
        rc, out = run_cli(["covariance", "--config", str(cfg)], tmp_path)
        assert rc == 0
        meta, _, rows = read_csv(out)
        assert meta.split()[3:] == ["H=0.5", "lambda=1", "n=3", "t_max=2"]
        assert len(rows) == 9

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15, "bogus": 1}))
        rc, _ = run_cli(["spectrum", "--config", str(cfg)], tmp_path)
        assert rc == 2

    @pytest.mark.parametrize("command,key,val", [
        ("spectrum", "format", "xml"), ("covariance", "format", "CSV"),
        ("decay", "kind", "III"),
    ])
    def test_config_value_outside_choices(self, command, key, val, tmp_path):
        # a config value is held to the option's choices, as a flag is
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15, key: val}))
        rc, out = run_cli([command, "--config", str(cfg)], tmp_path)
        assert rc == 2 and not out.exists()

    @pytest.mark.parametrize("command,key,val", [
        ("spectrum", "alpha", 1.5), ("spectrum", "kind", "I"),
        ("covariance", "alpha", 1.5), ("covariance", "kind", "I"),
        ("covariance", "sigma", 2.0), ("spectrum", "func", 0),
        ("simulate", "func", 0), ("limits", "command", "decay"),
    ])
    def test_config_key_outside_command_options(self, command, key, val, tmp_path):
        # only the command's own options are config keys, as for flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"H": 0.7, "lambda": 0.15, key: val}))
        rc, _ = run_cli([command, "--config", str(cfg)], tmp_path)
        assert rc == 2


def parser_options():
    """{command: {flag: default}} of every option build_parser() declares."""
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0]: a.default for a in sp._actions
                   if a.dest != "help"}
            for name, sp in sub.choices.items()}


RUN_WIDE = {"--H", "--lambda", "--seed", "--out", "--format", "--config"}

# a quick valid argv of each command, and a second valid value of each of
# its own options (and of simulate's --seed); simulate runs at alpha = 1.5,
# where --sigma, --beta and the plan options apply
BASE_ARGV = {
    "spectrum": ["--H", "0.7", "--lambda", "0.15", "--omega-grid", "0.5:3:3"],
    "simulate": ["--H", "0.7", "--lambda", "0.15", "--alpha", "1.5", "--n", "5",
                 "--plan-dy", "0.05"],
    "covariance": ["--H", "0.7", "--lambda", "0.15", "--n", "3"],
    "decay": ["--H", "0.8", "--lambda", "0.3", "--t-min", "4", "--t-max", "10",
              "--t-step", "3"],
    "limits": ["--H", "0.7", "--lambda", "0.15", "--b-global", "25",
               "--b-local", "0.1"],
}
OTHER_VALUE = {
    "spectrum": {"--tol": "1e-6", "--omega-grid": "0.5:3:4"},
    "simulate": {"--seed": "1", "--alpha": "1.7", "--sigma": "2", "--beta": "0.5",
                 "--kind": "I", "--t-max": "2", "--n": "4", "--n-paths": "2",
                 "--plan-dy": "0.1", "--plan-cutoff": "20"},
    "covariance": {"--t-max": "3", "--n": "4"},
    "decay": {"--alpha": "1.7", "--kind": "I", "--tol": "1e-4", "--t-min": "7",
              "--t-max": "13", "--t-step": "2", "--theta1": "2",
              "--theta2": "0.5", "--band-factor": "1.5"},
    "limits": {"--alpha": "1.5", "--tol": "1e-4", "--b-global": "50",
               "--b-local": "0.01"},
}


class TestOptionTable:
    def test_cases_cover_every_own_option(self):
        own = {cmd: set(opts) - RUN_WIDE | ({"--seed"} if cmd == "simulate" else set())
               for cmd, opts in parser_options().items()}
        assert own == {cmd: set(vals) for cmd, vals in OTHER_VALUE.items()}
        # 61 options until --threads left the five commands
        assert sum(map(len, parser_options().values())) == 56

    @pytest.mark.parametrize("command,option", [
        (cmd, opt) for cmd, vals in OTHER_VALUE.items() for opt in vals])
    def test_no_option_is_ignored(self, command, option, tmp_path):
        # every accepted option changes the output bytes or the exit code
        base = [command, *BASE_ARGV[command]]
        rc0, o0 = run_cli(base, tmp_path, "base.csv")
        rc1, o1 = run_cli(base + [option, OTHER_VALUE[command][option]],
                          tmp_path, "other.csv")
        assert rc0 == 0
        assert rc1 != rc0 or o1.read_bytes() != o0.read_bytes()

    def test_readme_table_matches_parser(self):
        # README's option table lists every option of every command with
        # its default ("unset" for None); a blank cell is an option the
        # command does not take
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            table = [[c.strip() for c in ln.strip().strip("|").split("|")]
                     for ln in fh if ln.startswith(("| option |", "| `--"))]
        commands = table[0][1:]
        documented = {cmd: {} for cmd in commands}
        for flag, *cells in table[1:]:
            for cmd, cell in zip(commands, cells):
                if cell:
                    documented[cmd][flag.strip("`")] = cell
        expected = {cmd: {flag: "unset" if d is None else f"`{d}`"
                          for flag, d in opts.items()}
                    for cmd, opts in parser_options().items()}
        assert documented == expected


def package_env():
    """Environment whose PYTHONPATH starts with the directory holding the
    imported tfmotion package, so a subprocess imports the same code."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tfmotion.cli", "spectrum", "--H", "0.5",
             "--lambda", "1.0", "--omega-grid", "0:1:3", "--out", str(out)],
            capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0
        assert out.exists()

    def test_import_leaves_scipy_unloaded(self):
        # the package never imports SciPy, a process or thread pool
        # (multiprocessing, concurrent.futures), or numpy.ma, neither on
        # import nor in limits
        lazy = ("scipy", "multiprocessing", "concurrent.futures", "numpy.ma")
        code = ("import sys, tfmotion.cli\n"
                f"lazy = {lazy!r}\n"
                "print(sorted(m for m in sys.modules\n"
                "             if any(m == p or m.startswith(p + '.') for p in lazy)))\n"
                "assert tfmotion.cli.main(['limits', '--H', '0.7', '--alpha', '2',\n"
                "                          '--lambda', '0.15', '--out', sys.argv[1]]) == 0\n"
                "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, os.devnull],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "False", "False"]

    def test_acvf_leaves_scipy_unloaded(self):
        # the TFGN II autocovariance integrates the Matern integrand on the
        # NumPy quadrature and specfun.bessel_k, at every lag of the 201-lag
        # table
        code = ("import sys\nfrom tfmotion.gaussian import tfgn2_acvf\n"
                "r = [tfgn2_acvf(0.7, 0.15, j) for j in range(201)]\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_source_names_no_scipy(self):
        # SciPy is an oracle of the tests only: no module of the package
        # imports it or names it
        pkg = Path(cli.__file__).parent
        assert [f.name for f in sorted(pkg.rglob("*.py")) if "scipy" in f.read_text()] == []

    def test_commands_leave_scipy_unloaded_and_repeat_exactly(self):
        # decay and limits at the benchmark's parameters run on the NumPy
        # quadrature alone, spectrum's lattice tails on specfun.hurwitz_zeta,
        # and Gaussian paths on a regular grid on NumPy's FFT; none uses
        # BLAS.  Stable paths of either kind are three BLAS matrix products
        # per block of paths, with the kernel table's factors (here 8,384
        # plan nodes, 15 paths per block, so 20 paths make two blocks), whose
        # bytes do not depend on the OpenBLAS thread count either
        commands = [
            "decay --kind II --H 0.8 --alpha 1.5 --lambda 0.3 --t-min 2 --t-max 12 --t-step 2",
            "decay --kind I --H 0.8 --alpha 1.5 --lambda 0.3 --t-min 2 --t-max 12 --t-step 2",
            "limits --H 0.7 --alpha 2 --lambda 0.15",
            "simulate --alpha 2 --H 0.7 --lambda 0.15 --t-max 1 --n 2049 --n-paths 2",
            "spectrum --H 0.7 --lambda 0.15 --omega-grid=-3.14159:3.14159:201",
            "simulate --kind II --H 0.8 --alpha 1.5 --lambda 0.3 --t-max 1 --n 65 "
            "--plan-dy 0.02 --n-paths 20",
            "simulate --kind I --H 0.8 --alpha 1.5 --lambda 0.3 --t-max 1 --n 65 "
            "--plan-dy 0.02 --n-paths 20",
        ]
        code = ("import sys\nfrom tfmotion import cli\n"
                "for a in sys.argv[1:]:\n"
                "    assert cli.main(a.split() + ['--seed', '1', '--out', '-']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
                " file=sys.stderr)")

        def run(blas_threads):
            env = package_env()
            if blas_threads:
                env["OPENBLAS_NUM_THREADS"] = blas_threads
            proc = subprocess.run([sys.executable, "-c", code, *commands],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.strip() == "[]"
            return proc.stdout

        outs = [run(None), run(None), run("1"), run("2")]
        assert outs[0].count("# tfmotion") == 7
        assert all(o == outs[0] for o in outs[1:])

    def test_blas_threads_leave_simulate_files_alone(self, tmp_path):
        # README's stable example of both kinds (50 paths, four blocks) and
        # circulant Gaussian paths at n = 2049 write the same files under one
        # and two OpenBLAS threads; Cholesky grids are the documented exception
        stable = ("--H 0.8 --alpha 1.5 --lambda 0.3 --t-max 1 --n 65 --n-paths 50 "
                  "--seed 7 --plan-dy 0.02")
        commands = {"stable_I": "simulate --kind I " + stable,
                    "stable_II": "simulate --kind II " + stable,
                    "gauss": "simulate --alpha 2 --H 0.7 --lambda 0.15 --t-max 1 "
                             "--n 2049 --n-paths 20 --seed 1"}
        code = ("import sys\nfrom tfmotion import cli\n"
                "for a, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                "    assert cli.main(a.split() + ['--out', out]) == 0")
        for threads in ("1", "2"):
            env = package_env()
            env["OPENBLAS_NUM_THREADS"] = threads
            args = [a for name, command in commands.items()
                    for a in (command, str(tmp_path / f"{name}_{threads}.csv"))]
            proc = subprocess.run([sys.executable, "-c", code, *args],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        for name in commands:
            one, two = (tmp_path / f"{name}_{t}.csv" for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), name
