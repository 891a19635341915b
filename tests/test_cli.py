import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasecs import cli
from phasecs.cli import (
    EXIT_SOLVER,
    SWEEP_COLUMNS,
    SweepConfig,
    parse_sweep_config,
    preset_sweep,
    read_sweep_csv,
    run_sweep,
    sweep_csv_lines,
)
from phasecs.linalg import EigNonConvergenceError, NotPositiveDefiniteError
from phasecs.solver import MAX_WEIGHT

TINY_CONFIG = """
# tiny smoke sweep
signal = sparse
n = 8
k = 1
rho = 1
alphas = 1.0
omegas = 0.5, 1.0
ms = 12
sigmas = 0
trials = 2
seed = 3
max_iter = 3000
"""


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, **kwargs):
    # the child imports phasecs from this checkout's src, which pytest's own
    # pythonpath setting puts on the path of this process only
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "phasecs", *args],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path}, **kwargs,
    )


def refusal(name: str, value: str) -> str:
    """The error line for a refused prior weight or noise level."""
    too_large = math.isfinite(float(value)) and float(value) > MAX_WEIGHT
    rule = f"at most {MAX_WEIGHT:g}" if too_large else "finite and nonnegative"
    return f"error: {name} must be {rule}, got {value}\n"


class TestConstantsCommand:
    def test_golden_row_in_default_grid(self, tmp_path):
        out = tmp_path / "constants.csv"
        res = run_cli("constants", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert lines[1] == "alpha,omega,t_omega,C1,C2,applicable"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 4 * 21  # default alpha and omega grids
        target = [r for r in rows if float(r[0]) == 0.9 and float(r[1]) == 0.6]
        assert len(target) == 1
        assert abs(float(target[0][2]) - 1.2022) <= 5e-5
        assert all(r[5] == "1" for r in rows)

    def test_unit_weight_columns_constant(self):
        res = run_cli("constants", "--omegas", "1.0")
        assert res.returncode == 0
        rows = [ln.split(",") for ln in res.stdout.splitlines()[2:]]
        t_values = {row[2] for row in rows}
        c1_values = {row[3] for row in rows}
        assert len(t_values) == 1 and len(c1_values) == 1
        assert abs(float(next(iter(t_values))) - 4.0 / 3.0) <= 1e-9

    def test_empty_grid_usage_error(self):
        res = run_cli("constants", "--alphas", "")
        assert res.returncode == 1

    def test_plot_emission(self, tmp_path):
        out = tmp_path / "c.csv"
        res = run_cli("constants", "--alphas", "0.5,0.9", "--omegas", "0,0.5,1",
                      "--out", str(out), "--plot")
        assert res.returncode == 0
        for name in ("c_t_omega.svg", "c_c1.svg", "c_c2.svg"):
            svg = (tmp_path / name).read_text()
            assert svg.startswith("<svg") and "polyline" in svg


class TestRecoverCommand:
    def test_noise_free_success(self):
        res = run_cli("recover", "--n", "16", "--k", "2", "--m", "40",
                      "--omega", "1", "--sigma", "0", "--seed", "7")
        assert res.returncode == 0, res.stderr
        report = dict(ln.split(": ", 1) for ln in res.stdout.strip().splitlines())
        assert report["status"] == "converged"
        assert float(report["snr_db"]) >= 40.0

    def test_noise_lowers_snr(self):
        clean = run_cli("recover", "--n", "8", "--k", "1", "--m", "14",
                        "--sigma", "0", "--seed", "7")
        noisy = run_cli("recover", "--n", "8", "--k", "1", "--m", "14",
                        "--sigma", "0.1", "--seed", "7")
        assert clean.returncode == 0
        snr_of = lambda r: float(dict(ln.split(": ", 1) for ln in r.stdout.strip().splitlines())["snr_db"])
        assert snr_of(noisy) < snr_of(clean)

    def test_infeasible_prior_usage_error(self):
        res = run_cli("recover", "--n", "8", "--k", "4", "--rho", "2", "--alpha", "0")
        assert res.returncode == 1

    @pytest.mark.parametrize("flag, value", [
        ("--omega", "-0.3"), ("--omega", "nan"), ("--omega", "inf"), ("--omega", "1e+200"),
        ("--sigma", "-0.1"), ("--sigma", "nan"), ("--sigma", "inf"),
    ])
    def test_refuses_bad_omega_or_sigma(self, capsys, flag, value):
        assert cli.main(["recover", flag, value, "--seed", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal(flag, value)

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "nan", "rho must be finite and nonnegative, got nan"),
        ("--rho", "-1", "rho must be finite and nonnegative, got -1"),
        ("--alpha", "nan", "alpha must be in [0, 1], got nan"),
        ("--alpha", "-0.5", "alpha must be in [0, 1], got -0.5"),
        ("--alpha", "1.1", "alpha must be in [0, 1], got 1.1"),
    ])
    def test_refuses_bad_rho_or_alpha(self, capsys, flag, value, message):
        assert cli.main(["recover", flag, value, "--seed", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unconverged_exit_code(self):
        res = run_cli("recover", "--n", "8", "--k", "1", "--m", "14",
                      "--seed", "7", "--max-iter", "5")
        assert res.returncode == 2
        assert "status: max-iter" in res.stdout
        assert "stop_reason: max-iter" in res.stdout
        assert "stop_reason=max-iter" in res.stderr


class TestSweepCommand:
    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--config", str(cfg_path), "--out", str(out), "--plot")
        assert res.returncode == 0, res.stderr
        rows = read_sweep_csv(out.read_text())
        assert len(rows) == 4  # 2 omegas x 2 trials
        assert all(row["status"] == "converged" for row in rows)
        assert all(row["snr_db"] > 30 for row in rows)
        svg = (tmp_path / "sweep_alpha1_sigma0.svg").read_text()
        assert svg.startswith("<svg")

    def test_verbose_ends_with_summary(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--config", str(cfg_path), "--out", str(out), "--verbose")
        assert res.returncode == 0, res.stderr
        rows = read_sweep_csv(out.read_text())
        stderr = res.stderr.splitlines()
        assert len(stderr) == len(rows) + 3  # one progress line per row, then the summary

        def p50_p90(column):
            values = sorted(row[column] for row in rows)  # 4 rows: nearest ranks 2 and 4
            return f"{column}: p50={values[1]} p90={values[3]}"

        assert stderr[-3:] == [
            "trials: 4 converged=4 max-iter=0 failed=0",
            p50_p90("iterations"),
            p50_p90("wall_ms"),
        ]

    def test_preset_requires_choice(self, tmp_path):
        assert run_cli("sweep").returncode == 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG)
        assert run_cli("sweep", "--preset", "fig2-sparse", "--config", str(cfg)).returncode == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("signal = sparse\nbogus = 3\n")
        assert run_cli("sweep", "--config", str(cfg)).returncode == 1

    @pytest.mark.parametrize("key, value", [
        ("omegas", "-0.5"), ("omegas", "nan"), ("omegas", "1e+290"),
        ("sigmas", "-0.1"), ("sigmas", "inf"),
    ])
    def test_refuses_bad_omega_or_sigma(self, monkeypatch, capsys, tmp_path, key, value):
        def no_trial(*_):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + f"{key} = 0.5, {value}\n")
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == refusal(key, value)


class TestSweepHarness:
    def tiny(self, seed=3):
        return SweepConfig(signal="sparse", n=8, k=1, alphas=(1.0,),
                           omegas=(0.5, 1.0), ms=(12,), sigmas=(0.0,),
                           trials=2, master_seed=seed, max_iter=3000)

    def test_deterministic_csv(self):
        lines_a = sweep_csv_lines(run_sweep(self.tiny()))
        lines_b = sweep_csv_lines(run_sweep(self.tiny()))
        strip = lambda lines: ["," .join(ln.split(",")[:-1]) for ln in lines]
        assert strip(lines_a) == strip(lines_b)  # wall_ms column excluded

    def test_rows_sorted_and_unique(self):
        recs = run_sweep(self.tiny())
        keys = [r.sort_key() for r in recs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_matched_noise_pairing(self):
        # sigma is excluded from the trial seed: same signal and matrix
        cfg = SweepConfig(signal="sparse", n=8, k=1, alphas=(1.0,), omegas=(1.0,),
                          ms=(12,), sigmas=(0.0, 0.1), trials=1, master_seed=5)
        recs = run_sweep(cfg)
        assert len(recs) == 2
        assert recs[0].seed == recs[1].seed

    def test_compressible_kind(self):
        cfg = SweepConfig(signal="compressible", n=8, k=2, theta=4.5,
                          alphas=(1.0,), omegas=(0.5,), ms=(14,), sigmas=(0.0,),
                          trials=1, master_seed=2)
        recs = run_sweep(cfg)
        assert recs[0].signal_kind == "compressible"
        assert recs[0].theta == 4.5

    def test_csv_round_trip(self):
        recs = run_sweep(self.tiny())
        rows = read_sweep_csv("\n".join(sweep_csv_lines(recs)))
        assert [row["seed"] for row in rows] == [r.seed for r in recs]
        assert set(SWEEP_COLUMNS) == set(rows[0].keys())

    def test_presets_validate(self):
        for name in ("fig2-sparse", "fig3-compressible"):
            preset_sweep(name).validate()

    def test_unconverged_trials_recorded_in_row(self):
        cfg = SweepConfig(signal="sparse", n=8, k=1, alphas=(1.0,), omegas=(1.0,),
                          ms=(12,), sigmas=(0.0,), trials=2, master_seed=3, max_iter=5)
        recs = run_sweep(cfg)
        assert len(recs) == 2
        assert all(r.status == "max-iter" for r in recs)
        assert read_sweep_csv("\n".join(sweep_csv_lines(recs)))  # still serializes

    @pytest.mark.parametrize("fields, message", [
        ({"k": 4, "rho": 2.0, "alphas": (0.5, 0.0)}, "alpha=0.0: infeasible"),
        ({"ms": (12, 0)}, "every m"),
        ({"k": 9}, "k <= N"),
        ({"omegas": (1.0, -0.5)}, "omegas must be finite and nonnegative"),
        ({"sigmas": (math.nan,)}, "sigmas must be finite and nonnegative"),
        ({"rho": math.nan}, r"^rho must be finite and nonnegative, got nan$"),
        ({"alphas": (1.0, math.nan)}, r"alpha must be in \[0, 1\], got nan$"),
        ({"theta": math.inf}, r"^theta must be finite, got inf$"),
        ({"theta": math.nan}, r"^theta must be finite, got nan$"),
        ({"signal": "compressible", "theta": -1.0}, r"^theta must be positive, got -1$"),
        ({"theta": 1e300}, r"^theta is too large for the seed hash, got 1e\+300$"),
        ({"omegas": (1e300,)}, r"^omegas is too large for the seed hash, got 1e\+300$"),
    ])
    def test_bad_grid_refused_before_any_trial(self, monkeypatch, fields, message):
        def no_trial(*_):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        cfg = SweepConfig(**{"signal": "sparse", "n": 8, "k": 1, "alphas": (1.0,),
                             "omegas": (1.0,), "ms": (12,), "sigmas": (0.0,),
                             "trials": 1, **fields})
        with pytest.raises(cli.UsageError, match=message):
            run_sweep(cfg)

    def test_row_seed_reproduces_with_recover(self, tmp_path):
        # a sparse row's grid point and seed, given to `phasecs recover` with
        # the sweep's max_iter, reproduce the row; at the default max_iter
        # the capped rows would run on and change
        cfg = SweepConfig(signal="sparse", n=8, k=2, alphas=(0.5,), omegas=(0.3, 1.0),
                          ms=(16,), sigmas=(0.0, 0.1), trials=2, master_seed=4, max_iter=250)
        rows = read_sweep_csv("\n".join(sweep_csv_lines(run_sweep(cfg))))
        assert len(rows) == 8
        assert any(row["status"] == "max-iter" for row in rows)
        out = tmp_path / "recover.txt"
        for row in rows:
            flags = {"n": row["N"], "k": row["k"], "m": row["m"], "omega": row["omega"],
                     "alpha": row["alpha"], "rho": row["rho"], "sigma": row["sigma"],
                     "seed": row["seed"], "max-iter": cfg.max_iter}
            argv = [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
            cli.main(["recover", *argv, "--out", str(out)])
            report = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
            assert float(report["snr_db"]) == row["snr_db"]
            assert int(report["iterations"]) == row["iterations"]
            assert report["status"] == row["status"]

    def test_parse_rejects_bad_line(self):
        with pytest.raises(Exception):
            parse_sweep_config("just some words\n")


@pytest.mark.parametrize("text", ["", f"# schema={cli.SWEEP_SCHEMA}\n"])
def test_read_sweep_csv_rejects_missing_header(text):
    with pytest.raises(ValueError):
        read_sweep_csv(text)


class TestCertifyCommand:
    def test_rip_identity(self):
        res = run_cli("certify", "--identity", "4", "--check", "rip", "--k", "1")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["delta"] == 0.0
        assert "caps_hit" not in report  # only a refusal names the cap it hit

    def test_failure_example_from_file(self, tmp_path):
        path = tmp_path / "failure-2x2.txt"
        path.write_text("2 2\n1 1\n1 -1\n")
        res = run_cli("certify", "--matrix", str(path), "--check", "pnsp", "--k", "2")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["status"] == "fails"
        assert set(report["witness"]) == {"u", "v", "rows"}

    def test_weighted_nsp_from_file(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("2 3\n1 0 1\n0 1 1\n")
        res = run_cli("certify", "--matrix", str(path), "--check", "nsp", "--k", "1",
                      "--omega", "0", "--estimate", "0")
        assert res.returncode == 0
        assert json.loads(res.stdout)["status"] == "fails"

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    @pytest.mark.parametrize("check, shape", [("nsp", ["2", "3"]), ("pnsp", ["4", "3"])])
    def test_refuses_non_finite_weight(self, capsys, check, shape, omega):
        code = cli.main(["certify", "--gaussian", *shape, "--check", check, "--k", "1",
                         "--omega", omega, "--estimate", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: w has non-finite entries\n"

    def test_cap_refusal_exit_code(self):
        res = run_cli("certify", "--gaussian", "16", "4", "--check", "srip", "--k", "1")
        assert res.returncode == 3
        assert "row subset cap" in res.stderr
        assert json.loads(res.stdout)["caps_hit"] == ["row subset cap"]

    def test_nsp_exact_at_kernel_dimension_4(self):
        exact = run_cli("certify", "--gaussian", "2", "6", "--seed", "4",
                        "--check", "nsp", "--k", "2")
        assert exact.returncode == 0
        report = json.loads(exact.stdout)
        assert report["status"] == "fails"
        assert report["enumerated_count"] == math.comb(6, 3)

    def test_pnsp_exact_in_the_compressive_regime(self):
        # 4 x 4 has split kernels of dimension 2 and 3
        res = run_cli("certify", "--gaussian", "4", "4", "--check", "pnsp", "--k", "2")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["status"] == "fails" and "caps_hit" not in report
        assert report["enumerated_count"] > 0

    def test_mode_is_no_option(self, capsys):
        # both null space checks are exact; there is no mode to choose
        code = cli.main(["certify", "--gaussian", "4", "3", "--check", "pnsp", "--k", "1",
                         "--mode", "exact"])
        assert code == 1
        assert "unrecognized arguments: --mode exact" in capsys.readouterr().err

    @pytest.mark.parametrize("check, shape", [("nsp", ["2", "3"]), ("pnsp", ["4", "3"])])
    def test_refuses_negative_weight(self, capsys, check, shape):
        code = cli.main(["certify", "--gaussian", *shape, "--seed", "1", "--check", check,
                         "--k", "1", "--omega", "-1", "--estimate", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: w has negative entries\n"

    def test_srip_two_rows(self, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("2 1\n1\n1\n")
        res = run_cli("certify", "--matrix", str(path), "--check", "srip", "--k", "1")
        report = json.loads(res.stdout)
        assert report["theta_minus"] == pytest.approx(1.0)
        assert report["theta_plus"] == pytest.approx(2.0)


class TestOracleCommand:
    def test_four_minimizer_example(self):
        res = run_cli("oracle", "--identity", "2", "--x", "1,-2", "--phaseless")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["signed_minimizer_count"] == 4
        assert report["recovered"] is False

    def test_linear_recovery(self):
        res = run_cli("oracle", "--identity", "3", "--x", "1,0,-2")
        report = json.loads(res.stdout)
        assert report["recovered"] is True
        assert report["minimizer_count"] == 1

    def test_requires_input(self):
        res = run_cli("oracle", "--identity", "2")
        assert res.returncode == 1

    def test_phaseless_refuses_y(self, capsys):
        code = cli.main(["oracle", "--identity", "3", "--x", "1,0,0", "--y", "5,5,5",
                         "--phaseless"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --y applies to the linear program only\n"

    @pytest.mark.parametrize("args, name", [
        (["--y", "nan,1,2"], "y"),
        (["--y", "inf,1,2"], "y"),
        (["--x", "nan,0,1", "--phaseless"], "--x"),
        (["--x", "inf,0,1"], "--x"),
    ])
    def test_refuses_non_finite_input(self, capsys, args, name):
        assert cli.main(["oracle", "--identity", "3", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} ")

    @pytest.mark.parametrize("args", [["--y", "1,0,2"], ["--x", "1,0,2", "--phaseless"]])
    def test_refuses_negative_weight(self, capsys, args):
        code = cli.main(["oracle", "--identity", "3", "--omega", "-0.5", "--estimate", "1",
                         *args])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: w has negative entries\n"


def test_eigensolver_failure_is_solver_exit(monkeypatch, capsys, tmp_path):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = cli.main(["certify", "--identity", "4", "--check", "rip", "--k", "1"])
    assert code == EXIT_SOLVER == 2
    assert "numerical failure" in capsys.readouterr().err
    # recover names the stop reason and the error, each on one report line
    out = tmp_path / "recover.txt"
    code = cli.main(["recover", "--n", "6", "--k", "1", "--m", "12", "--out", str(out)])
    assert code == EXIT_SOLVER
    report = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    assert (report["status"], report["stop_reason"]) == ("failed", "eig-failure")
    assert report["error"] == "Eigenvalues did not converge"
    err = capsys.readouterr().err
    assert "stop_reason=eig-failure" in err and "Eigenvalues did not converge" in err


@pytest.mark.parametrize("error", [
    NotPositiveDefiniteError, EigNonConvergenceError, np.linalg.LinAlgError,
])
def test_factorization_failure_is_solver_exit(monkeypatch, error):
    def fail(*_, **__):
        raise error("not positive definite")

    monkeypatch.setattr(cli, "rip_constant", fail)
    assert cli.main(["certify", "--identity", "4", "--check", "rip", "--k", "1"]) == 2


@pytest.mark.parametrize("argv, config", [
    (["recover", "--lam", "1"], None),
    (["recover", "--penalty", "1"], None),
    (["recover", "--tol-abs", "1e-6"], None),
    (["recover", "--tol-rel", "1e-4"], None),
    (["sweep", "--config"], "lam = 1"),
    (["sweep", "--config"], "penalty = 1"),
    (["sweep", "--config"], "tol_abs = 1e-6"),
    (["sweep", "--config"], "tol_rel = 1e-4"),
    (["constants", "--preset", "fig1"], None),
])
def test_removed_settings_are_unknown(monkeypatch, tmp_path, argv, config):
    # the solver's lam, penalty and tolerances are constants, and the
    # constants grid has no preset: each fails as an unknown flag or key
    def no_trial(*_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    if config is not None:
        path = tmp_path / "removed.cfg"
        path.write_text(TINY_CONFIG + config + "\n")
        argv = [*argv, str(path)]
    assert cli.main([*argv, "--out", str(tmp_path / "out.txt")]) == 1
    assert not (tmp_path / "out.txt").exists()


def test_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n")
    res = run_cli("certify", "--matrix", str(bad), "--check", "rip", "--k", "1")
    assert res.returncode == 1


def test_unknown_subcommand():
    assert run_cli("frobnicate").returncode == 1


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # the parser is built once per process; a second call must not see the first's state
    argvs = [["recover", "--n", "6", "--k", "1", "--m", m] for m in ("12", "20")]
    codes = []
    for i, argv in enumerate(argvs):
        codes.append(cli.main([*argv, "--out", str(tmp_path / f"same-{i}.txt")]))
        fresh = run_cli(*argv, "--out", str(tmp_path / f"fresh-{i}.txt"))
        assert fresh.returncode == codes[-1]
    for i in range(len(argvs)):
        assert (tmp_path / f"same-{i}.txt").read_text() == (tmp_path / f"fresh-{i}.txt").read_text()
    assert "m: 12" in (tmp_path / "same-0.txt").read_text()
    assert "m: 20" in (tmp_path / "same-1.txt").read_text()
