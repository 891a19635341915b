import argparse
import dataclasses
import importlib
import json
import math
import os
import re
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
    SweepRecord,
    parse_sweep_config,
    preset_sweep,
    read_sweep_csv,
    run_sweep,
    sweep_csv_lines,
)
from phasecs.linalg import MAX_WEIGHT, EigNonConvergenceError, NotPositiveDefiniteError

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


# the config key of each SweepConfig field that is not named by it
CONFIG_KEYS = {"master_seed": "seed"}

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
    too_large = MAX_WEIGHT < float(value) < math.inf
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

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "-1", "--rho must be finite and nonnegative, got -1"),
        ("--rho", "nan", "--rho must be finite and nonnegative, got nan"),
        ("--omegas", "-1", "--omegas must be finite and nonnegative, got -1"),
        ("--omegas", "0.5,nan", "--omegas must be finite and nonnegative, got nan"),
        ("--alphas", "-0.5", "--alphas must be in [0, 1], got -0.5"),
        ("--alphas", "0.5,1.5", "--alphas must be in [0, 1], got 1.5"),
        ("--alphas", "nan", "--alphas must be in [0, 1], got nan"),
        ("--t", "nan", "--t must be finite, got nan"),
        ("--t", "inf", "--t must be finite, got inf"),
        ("--delta", "nan", "--delta must be finite and nonnegative, got nan"),
        ("--delta", "-1", "--delta must be finite and nonnegative, got -1"),
        ("--theta-minus", "nan", "--theta-minus must lie in (0, 2), got nan"),
        ("--theta-minus", "0", "--theta-minus must lie in (0, 2), got 0"),
        ("--theta-plus", "inf", "--theta-plus must lie in (0, 2), got inf"),
        ("--theta-plus", "2", "--theta-plus must lie in (0, 2), got 2"),
    ])
    def test_refuses_bad_numbers_before_any_row(self, capsys, flag, value, message):
        assert cli.main(["constants", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [["--t", "0.5"], ["--delta", "0.99"]])
    def test_inapplicable_bound_gives_nan_rows(self, capsys, args):
        # t <= d or delta at or above the threshold: rows kept, marked 0
        assert cli.main(["constants", "--alphas", "0.5", "--omegas", "1", *args]) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[3:] == ["nan", "nan", "0"]

    def test_plot_emission(self, tmp_path):
        out = tmp_path / "c.csv"
        res = run_cli("constants", "--alphas", "0.5,0.9", "--omegas", "0,0.5,1",
                      "--out", str(out), "--plot")
        assert res.returncode == 0
        for name in ("c_t_omega.svg", "c_c1.svg", "c_c2.svg"):
            svg = (tmp_path / name).read_text()
            assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("omega", ["1e17", "1e300"])
    def test_plot_of_one_large_omega(self, tmp_path, omega):
        # one x value at or above 2**53 once made a range of width 0, and
        # the chart divided by it
        out = tmp_path / "c.csv"
        assert cli.main(["constants", "--alphas", "0.5", "--omegas", omega,
                         "--out", str(out), "--plot"]) == 0
        for name in ("c_t_omega.svg", "c_c1.svg", "c_c2.svg"):
            svg = (tmp_path / name).read_text()
            coords = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', svg)
            for points in re.findall(r'points="([^"]*)"', svg):
                coords += points.replace(",", " ").split()
            assert coords and all(math.isfinite(float(c)) for c in coords)


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

    def test_refuses_sigma_whose_noise_norm_overflows(self, capsys):
        # the noise norm epsilon once overflowed with a numpy warning, and the
        # solve then refused b, a name the command line does not have
        assert cli.main(["recover", "--n", "8", "--k", "1", "--m", "12", "--sigma", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sigma is too large for a finite squared norm\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "nan", "rho must be finite and nonnegative, got nan"),
        ("--rho", "-1", "rho must be finite and nonnegative, got -1"),
        # round(rho*k) overflowed into a traceback, or printed 300-digit integers
        ("--rho", "1e308", "rho 1e+308 is infeasible at k=2: more than N=16 indices requested"),
        ("--rho", "8e307", "rho 8e+307 is infeasible at k=2: more than N=16 indices requested"),
        ("--alpha", "nan", "alpha must be in [0, 1], got nan"),
        ("--alpha", "-0.5", "alpha must be in [0, 1], got -0.5"),
        ("--alpha", "1.1", "alpha must be in [0, 1], got 1.1"),
        ("--alpha", "2", "alpha must be in [0, 1], got 2"),
    ])
    def test_refuses_bad_rho_or_alpha(self, capsys, flag, value, message):
        # the library's message, with the flag in place of its parameter
        assert cli.main(["recover", flag, value, "--seed", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --{message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed must be at least 0, got -1"),
        ("--m", "0", "--m must be at least 1, got 0"),
        ("--m", "-3", "--m must be at least 1, got -3"),
    ])
    def test_refuses_bad_seed_or_m(self, capsys, flag, value, message):
        assert cli.main(["recover", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "0", "--n must be at least 1, got 0"),
        ("--k", "0", "--k must be between 1 and n = 16, got 0"),
        ("--max-iter", "0", "--max-iter must be at least 1, got 0"),
    ])
    def test_refuses_bad_size_or_sweep_cap(self, capsys, flag, value, message):
        # refused by model.gen_sparse_signal and solve_sdp, named by the flag
        assert cli.main(["recover", flag, value]) == 1
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

    def test_refuses_rho_beyond_n_indices(self, monkeypatch, capsys, tmp_path):
        def no_trial(*_):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        cfg = tmp_path / "rho.cfg"
        # at k = 2, rho*k overflows; round(rho*k) once raised OverflowError
        cfg.write_text(TINY_CONFIG + "k = 2\nrho = 1e308\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: rho 1e+308 is infeasible at k=2: "
                                "more than N=8 indices requested\n")

    @pytest.mark.parametrize("flags, line, message", [
        (["--seed", "-1"], "", "--seed must be in [0, 2**64), got -1"),
        (["--seed", str(2**64)], "", f"--seed must be in [0, 2**64), got {2**64}"),
        ([], f"seed = {2**64}", f"seed must be in [0, 2**64), got {2**64}"),
    ])
    def test_refuses_master_seed_outside_64_bits(self, monkeypatch, capsys, tmp_path, flags,
                                                 line, message):
        # the derived seeds keep 64 bits of the master seed, so --seed -1
        # and --seed 2**64 once wrote the rows of 2**64 - 1 and of 0
        def no_trial(*_):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(TINY_CONFIG + line + "\n")
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), *flags, "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


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
        # the rest of a row is the config's, so the grid point and the trial
        # order the rows, whatever the order of the grid lists
        recs = run_sweep(dataclasses.replace(self.tiny(), omegas=(1.0, 0.5)))
        keys = [(r.alpha, r.omega, r.m, r.sigma, r.trial) for r in recs]
        assert keys == sorted(keys) == [r.sort_key() for r in recs]
        assert len(set(keys)) == len(keys) == 4
        assert {(r.signal_kind, r.N, r.k, r.theta, r.rho) for r in recs} == {
            ("sparse", 8, 1, None, 1.0)}

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
        # a preset is checked when it is built, and --preset offers each one
        assert preset_sweep("fig2-sparse") == SweepConfig(signal="sparse")
        assert preset_sweep("fig3-compressible") == SweepConfig(signal="compressible", theta=4.5)
        with pytest.raises(ValueError, match="^unknown sweep preset 'fig4'$"):
            preset_sweep("fig4")
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        preset = next(a for a in sub.choices["sweep"]._actions if a.dest == "preset")
        assert list(preset.choices) == ["fig2-sparse", "fig3-compressible"]

    def test_unconverged_trials_recorded_in_row(self):
        cfg = SweepConfig(signal="sparse", n=8, k=1, alphas=(1.0,), omegas=(1.0,),
                          ms=(12,), sigmas=(0.0,), trials=2, master_seed=3, max_iter=5)
        recs = run_sweep(cfg)
        assert len(recs) == 2
        assert all(r.status == "max-iter" for r in recs)
        assert read_sweep_csv("\n".join(sweep_csv_lines(recs)))  # still serializes

    @pytest.mark.parametrize("fields, message", [
        ({"k": 4, "rho": 2.0, "alphas": (0.5, 0.0)}, "^alphas 0 at rho 2 is infeasible"),
        ({"ms": (12, 0)}, r"^ms must be at least 1, got 0$"),
        ({"k": 9}, r"^k must be between 1 and n = 8, got 9$"),
        ({"omegas": (1.0, -0.5)}, "omegas must be finite and nonnegative"),
        ({"sigmas": (math.nan,)}, "sigmas must be finite and nonnegative"),
        ({"rho": math.nan}, r"^rho must be finite and nonnegative, got nan$"),
        ({"alphas": (1.0, math.nan)}, r"^alphas must be in \[0, 1\], got nan$"),
        ({"theta": math.inf}, r"^theta must be finite, got inf$"),
        ({"theta": math.nan}, r"^theta must be finite, got nan$"),
        ({"signal": "compressible", "theta": -1.0}, r"^theta must be positive, got -1.0$"),
        ({"theta": 1e300}, r"^theta is too large for the seed hash, got 1e\+300$"),
        ({"omegas": (1e300,)}, r"^omegas must be at most 1e\+50, got 1e\+300$"),
        ({"max_iter": 0}, r"^max_iter must be at least 1, got 0$"),
        ({"max_iter": -3}, r"^max_iter must be at least 1, got -3$"),
        ({"sigmas": (1e200,)}, r"^sigmas is too large for a finite squared norm$"),
        # outside the 64 bits of a master seed that the derived seeds keep
        ({"master_seed": -1}, r"^seed must be in \[0, 2\*\*64\), got -1$"),
        ({"master_seed": 2**64}, r"^seed must be in \[0, 2\*\*64\), got 18446744073709551616$"),
        # a sparse signal ignores theta, which would still move every trial's seed
        ({"theta": 2.0}, r"^theta applies to compressible signals only, got 2$"),
    ])
    def test_bad_grid_refused_before_any_trial(self, monkeypatch, fields, message):
        # a config is checked when it is built, so no sweep gets one
        def no_trial(*_):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{"signal": "sparse", "n": 8, "k": 1, "alphas": (1.0,),
                           "omegas": (1.0,), "ms": (12,), "sigmas": (0.0,),
                           "trials": 1, **fields})

    def test_master_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert dataclasses.replace(self.tiny(), master_seed=seed).master_seed == seed

    @pytest.mark.parametrize("line, message", [
        ("n = abc", "n: expected comma-separated integers"),
        ("n = 3, 4", "n: expected one value, got 2"),
        ("theta =", "theta: no value given"),
        ("omegas = 0.3, x", "omegas: expected comma-separated numbers"),
        ("ms = 4.5", "ms: expected comma-separated integers"),
        ("sigmas = , ", "sigmas: no value given"),
    ])
    def test_config_value_that_does_not_parse_names_line_and_key(
            self, monkeypatch, capsys, tmp_path, line, message):
        def no_trial(*_):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + line + "\n")  # line 14 of the file
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: config line 14: {message}\n"

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


def test_sweep_columns_are_the_record_fields():
    assert SWEEP_COLUMNS == [field.name for field in dataclasses.fields(SweepRecord)]
    assert ",".join(SWEEP_COLUMNS) == (  # the header of schema v7
        "signal_kind,N,k,theta,rho,alpha,omega,m,sigma,trial,seed,snr_db,iterations,status,wall_ms")


@pytest.mark.parametrize("fields", [
    {"signal": "sparse", "n": 8, "k": 1, "alphas": (1.0,), "omegas": (0.5, 1.0), "ms": (12,),
     "sigmas": (0.0,), "trials": 2, "master_seed": 3, "max_iter": 40},
    # unsorted grid lists, and a theta in every row
    {"signal": "compressible", "n": 8, "k": 2, "theta": 4.5, "alphas": (1.0, 0.5),
     "omegas": (1.0, 0.3), "ms": (14, 12), "sigmas": (0.1, 0.0), "trials": 1,
     "master_seed": 2, "max_iter": 40},
])
def test_csv_rows_read_back_as_typed_fields(fields):
    recs = run_sweep(SweepConfig(**fields))
    rows = read_sweep_csv("\n".join(sweep_csv_lines(recs)))
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        assert list(row) == SWEEP_COLUMNS
        for name, value in dataclasses.asdict(rec).items():
            assert type(row[name]) is type(value), name
            if isinstance(value, float):  # the CSV keeps 10 significant digits
                assert format(row[name], ".10g") == format(value, ".10g"), name
            else:
                assert row[name] == value, name


def config_text(cfg: SweepConfig) -> str:
    """``cfg`` in the config format: one line per field that is not None."""
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if value is not None:
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{CONFIG_KEYS.get(field.name, field.name)} = {text}")
    return "\n".join(lines)


@pytest.mark.parametrize("fields", [
    {},
    # every field away from its default
    {"signal": "compressible", "n": 8, "k": 2, "theta": 4.5, "rho": 0.5, "alphas": (0.75, 0.25),
     "omegas": (1.0, 0.1), "ms": (14, 12), "sigmas": (0.1, 0.0), "trials": 3,
     "master_seed": 2**64 - 1, "max_iter": 250},
])
def test_every_config_field_is_a_key_that_reads_back(fields):
    cfg = SweepConfig(**fields)
    text = config_text(cfg)
    assert len(text.splitlines()) == len(dataclasses.fields(cfg)) - (cfg.theta is None)
    assert parse_sweep_config(text) == cfg


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
        assert captured.err == refusal("--omega", omega)

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
        assert captured.err == refusal("--omega", "-1")

    @pytest.mark.parametrize("source, message", [
        (["--gaussian", "3", "3", "--seed", "-5"], "--seed must be at least 0, got -5"),
        (["--gaussian", "0", "3"], "--gaussian must be at least 1, got 0"),
        (["--gaussian", "3", "-1"], "--gaussian must be at least 1, got -1"),
        (["--identity", "0"], "--identity must be at least 1, got 0"),
        (["--identity", "-2"], "--identity must be at least 1, got -2"),
    ])
    def test_refuses_bad_matrix_source(self, capsys, source, message):
        assert cli.main(["certify", *source, "--check", "rip", "--k", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
        (["--y", "nan,1,2"], "--y"),
        (["--y", "inf,1,2"], "--y"),
        (["--x", "nan,0,1", "--phaseless"], "--x"),
        (["--x", "inf,0,1"], "--x"),
    ])
    def test_refuses_non_finite_input(self, capsys, args, name):
        assert cli.main(["oracle", "--identity", "3", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} ")

    @pytest.mark.parametrize("args, message", [
        (["--x", "a,0,0"], "--x: expected comma-separated numbers"),
        (["--y", "1,b,0"], "--y: expected comma-separated numbers"),
        (["--x", "1,0,0", "--estimate", "a"], "--estimate: expected comma-separated integers"),
        (["--x", "1,0,0", "--estimate", "1.5"], "--estimate: expected comma-separated integers"),
    ])
    def test_list_parse_error_names_the_flag(self, capsys, args, message):
        assert cli.main(["oracle", "--identity", "3", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("program, flags", [("minimizers", []),
                                                ("minimizers_up_to_sign", ["--phaseless"])])
    def test_answer_scales_with_x(self, capsys, program, flags):
        # both programs are homogeneous in x: at 1e-9 x the oracles once
        # answered with a point that is neither x nor feasible, and called
        # it recovered
        reports = []
        for x in ("1,0,0,-2", "1e-9,0,0,-2e-9"):
            assert cli.main(["oracle", "--gaussian", "2", "4", "--seed", "0", "--x", x,
                             *flags]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        one, small = reports
        assert one["recovered"] is small["recovered"] is True
        assert one["value"] == pytest.approx(3.0, rel=1e-12)
        assert small["value"] == pytest.approx(1e-9 * one["value"], rel=1e-12)
        assert len(small[program]) == len(one[program]) == 1
        assert np.allclose(small[program], 1e-9 * np.array(one[program]), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("args", [["--y", "1,0,2"], ["--x", "1,0,2", "--phaseless"]])
    def test_refuses_negative_weight(self, capsys, args):
        code = cli.main(["oracle", "--identity", "3", "--omega", "-0.5", "--estimate", "1",
                         *args])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal("--omega", "-0.5")


def numeric_flags(command: str) -> list[tuple[str, type]]:
    """Each option of ``command`` that takes numbers, with the type of one: an
    ``int`` or ``float`` option, or a comma list of numbers by its default."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = []
    for action in sub.choices[command]._actions:
        default = action.default
        if action.type in (int, float):
            flags.append((action.option_strings[0], action.type))
        elif isinstance(default, str) and default and all(
                v.replace(".", "", 1).isdigit() for v in default.split(",")):
            flags.append((action.option_strings[0], float))
    return flags


# values that every numeric input of its type refuses
BAD_VALUES = {int: ["-1"], float: ["nan", "inf"]}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command in ("recover", "constants")
    for flag, kind in numeric_flags(command)
    for value in BAD_VALUES[kind]
])
def test_every_numeric_flag_is_refused_by_name(capsys, command, flag, value):
    # the library refuses, and the error line names the flag, not the
    # library's parameter: a flag missing from cli's table fails here
    assert cli.main([command, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and captured.err.count("\n") == 1


# (command, matrix and check arguments, flag, value, error line after the flag)
CERTIFIER_REFUSALS = [
    ("certify", "--check rip", "--k", "0", "must be between 1 and n = 4, got 0"),
    ("certify", "--check srip", "--k", "5", "must be between 1 and n = 4, got 5"),
    ("certify", "--check nsp --k 1 --estimate 0", "--omega", "-1",
     "must be finite and nonnegative, got -1"),
    ("certify", "--check pnsp --k 1 --estimate 0", "--omega", "nan",
     "must be finite and nonnegative, got nan"),
    ("certify", "--check rip --k 1", "--gaussian", "0 4", "must be at least 1, got 0"),
    ("oracle", "--y 1,0,2 --estimate 0", "--omega", "-1", "must be finite and nonnegative, got -1"),
    ("oracle", "--y 1,0,2 --estimate 0", "--omega", "nan",
     "must be finite and nonnegative, got nan"),
    # weights whose weighted sums once overflowed: pnsp certified at margin
    # inf, nsp failed at margin 0, and both oracles tied every candidate
    ("certify", "--check nsp --k 2 --estimate 0,1,2,3", "--omega", "1e51",
     "must be at most 1e+50, got 1e+51"),
    ("certify", "--check pnsp --k 2 --estimate 0,1,2,3", "--omega", "1e51",
     "must be at most 1e+50, got 1e+51"),
    ("oracle", "--y 1,0,2 --estimate 0,1,2,3", "--omega", "1e51",
     "must be at most 1e+50, got 1e+51"),
    ("oracle", "--x 1,0,0,-2 --phaseless --estimate 0,1,2,3", "--omega", "1e51",
     "must be at most 1e+50, got 1e+51"),
    ("oracle", "", "--y", "nan,1,2", "has non-finite entries"),
    ("oracle", "", "--y", "1e200,1e200,0", "is too large for a finite squared norm"),
    ("oracle", "", "--x", "nan,1,2,0", "has non-finite entries"),
    ("oracle", "", "--x", "1,2", "must have shape (4,), got (2,)"),
    ("oracle", "--phaseless", "--x", "1e200,1e200,0,0", "is too large for a finite squared norm"),
    ("oracle", "", "--x", "1e200,1e200,0,0", "is too large for a finite squared norm"),
    ("oracle", "--y 1,0", "--gaussian", "0 4", "must be at least 1, got 0"),
    # a nonzero right-hand side whose squared norm is no normal float: at
    # 1e-160 and 1e-200 the phaseless oracle once returned 0, recovered
    ("oracle", "--phaseless", "--x", "1e-160,0,0,0",
     "must be 0 or have a squared norm in the normal float range, got 2.66301e-321"),
    ("oracle", "--phaseless", "--x", "1e-200,0,0,-2e-200",
     "must be 0 or have a squared norm in the normal float range, got 0"),
    ("oracle", "", "--x", "1e-200,0,0,-2e-200",
     "must be 0 or have a squared norm in the normal float range, got 0"),
    ("oracle", "", "--y", "1e-170,0,0",
     "must be 0 or have a squared norm in the normal float range, got 0"),
]


@pytest.mark.parametrize("command, args, flag, value, rule", CERTIFIER_REFUSALS)
def test_every_certifier_flag_is_refused_by_name(capsys, command, args, flag, value, rule):
    # the certifiers and oracles refuse by parameter name (k, w, y, x,
    # b_abs, m), and the error line names the flag that was given
    source = [] if flag == "--gaussian" else ["--gaussian", "3", "4"]
    argv = [command, *source, *args.split(), flag, *value.split()]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {rule}\n"


@pytest.mark.parametrize("key, value", [
    (CONFIG_KEYS.get(field.name, field.name), value)
    for field in dataclasses.fields(SweepConfig)
    if field.name != "signal"
    for value in BAD_VALUES[int if "int" in field.type else float]
])
def test_every_numeric_config_key_is_refused_by_name(monkeypatch, capsys, tmp_path, key, value):
    def no_trial(*_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CONFIG + f"{key} = {value}\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} ") and captured.err.count("\n") == 1


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


def test_matrix_file_errors(capsys, tmp_path):
    # too few rows, a header that is no size, an empty file, a ragged row and
    # an entry that is no finite number: each is one error line naming the flag
    bad = tmp_path / "bad.txt"
    for text in ["2 2\n1 2\n", "0 2\n", "2 0\n", "", "1\n1\n", "1 x\n1\n",
                 "2 2\n1 x\n3 4\n", "2 2\n1 2\n3\n", "1 2\nnan 1\n", "1 2\n1e400 1\n"]:
        bad.write_text(text)
        for command, *rest in (["certify", "--check", "rip", "--k", "1"],
                               ["oracle", "--y", "1,0"]):
            assert cli.main([command, "--matrix", str(bad), *rest]) == 1, text
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: --matrix "), text
            assert captured.err.count("\n") == 1, text


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["sweep", "--preset", "fig2-sparse"],
    ["sweep", "--config", "tiny.cfg"],
])
def test_plot_without_out_is_refused_before_any_work(monkeypatch, capsys, tmp_path, argv):
    def no_trial(*_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trial", no_trial)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
    assert cli.main([*argv, "--plot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --plot needs --out to derive the SVG paths\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "tiny.cfg"]


@pytest.mark.parametrize("command", cli._FLAGS)
def test_flag_tables_name_each_parameter_once(command):
    # a refusal may be named twice (a sweep config, then main), which must
    # leave it as it was: no flag or key that a table gives is a name it maps
    table = cli._FLAGS[command]
    assert not set(table.values()) & set(table)


def test_console_script_runs_main(capsys):
    # pyproject.toml installs `phasecs` as this entry point; every other CLI
    # test runs `python -m phasecs`
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text())["project"]
    module, _, attr = project["scripts"]["phasecs"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main(["constants", "--alphas", "0.5", "--omegas", "1"]) == 0
    assert capsys.readouterr().out.startswith("# schema=phasecs.constants.v1\n")


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
