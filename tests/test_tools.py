"""The timing loop and row printer that the scripts in ``tools/`` share, and
the self-time clock of ``certify_cost``, driven by stub passes and a fake
clock, and one pass of each solver script on a tiny cell."""

import importlib
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from phasecs import cli, model

TOOLS = Path(__file__).resolve().parents[1] / "tools"
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def tools(monkeypatch):
    """Imports from ``tools/``, undone after the test: the BLAS variables
    the import pins, the import path and the modules imported."""
    for var in BLAS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(TOOLS))
    for name in ("common", "sweep_cost", "solver_census", "certify_cost", "certify_digest"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module


def stub(label, log, values):
    """A pass that logs its side and returns the next of ``values``."""
    values = iter(values)

    def one_pass():
        log.append(label)
        return {"row": next(values)}
    return one_pass


def test_import_pins_blas(tools):
    tools("common")
    assert all(os.environ[var] == "1" for var in BLAS)


def test_first_side_swaps_every_repetition(tools):
    common = tools("common")
    log = []
    common.alternate({"this": stub("this", log, range(5)),
                      "parent": stub("parent", log, range(5))}, 4)
    firsts = log[2::2]  # after one warm-up pass per side
    assert firsts == ["this", "parent", "this", "parent"]
    assert log[2:] == ["this", "parent", "parent", "this", "this", "parent", "parent", "this"]


def test_warm_up_pass_is_not_counted(tools):
    common = tools("common")
    log = []
    figures = common.alternate({"this": stub("this", log, [99.0, 1.0, 2.0, 3.0])}, 3)
    assert log == ["this"] * 4
    assert figures["this"]["row"] == [1.0, 2.0, 3.0]


def test_one_side_run_goes_through_the_same_loop(tools, monkeypatch, capsys):
    sweep_cost = tools("sweep_cost")
    common = tools("common")
    seen = {}

    def alternate(passes, reps):
        seen["sides"], seen["reps"] = list(passes), reps
        return {"this": {"n16-m40 us/sweep": [1.0, 2.0, 3.0], "n16-m40 sweeps": [5, 5, 5]}}

    monkeypatch.setattr(common, "alternate", alternate)
    assert sweep_cost.main([]) == 0
    assert seen == {"sides": ["this"], "reps": sweep_cost.REPS}
    assert capsys.readouterr().out.splitlines()[1:] == [
        "n16-m40 us/sweep  this 2 (1.5-2.5)",
        "n16-m40 sweeps    this 5",
    ]


def test_ratios_are_taken_per_repetition(tools, capsys):
    common = tools("common")
    log = []
    # per repetition parent/this is 5, 0.5 and 3, median 3; the ratio of
    # the medians would be 5 / 2 = 2.5
    figures = common.alternate({"this": stub("this", log, [0.0, 1.0, 2.0, 3.0]),
                                "parent": stub("parent", log, [0.0, 5.0, 1.0, 9.0])}, 3)
    common.report(figures, 3)
    assert capsys.readouterr().out.splitlines() == [
        "3 repetitions of one pass per side after a warm-up pass; median (quartiles)",
        "row  parent 5 (3-7)  this 2 (1.5-2.5)  parent/this 3 (1.75-4)",
    ]


def test_trial_sets_are_drawn_as_recover_draws_them(tools):
    common = tools("common")
    drawn = list(common.draw_trials(8, 1, (12, 14), (0.3, 1.0), (0.0,), range(3, 5)))
    assert [key for key, _, _ in drawn] == [
        (seed, m, omega, 0.0) for seed in (3, 4) for m in (12, 14) for omega in (0.3, 1.0)]
    (seed, m, omega, sigma), inst, est = drawn[-1]
    ref, ref_est = model.draw_trial(np.random.default_rng(seed), "sparse", 8, 1, m, 1.0,
                                    0.75, omega, sigma)
    assert inst.A.tobytes() == ref.A.tobytes() and inst.b.tobytes() == ref.b.tobytes()
    assert est == ref_est


def test_clock_self_time_leaves_out_wrapped_children(tools, monkeypatch):
    certify_cost = tools("certify_cost")
    now = [0.0]
    monkeypatch.setattr(certify_cost.time, "perf_counter", lambda: now[0])
    clock = certify_cost.Clock()

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        timed_inner()
        now[0] += 4.0
        timed_inner()

    timed_inner = clock.wrap("inner", inner)
    clock.wrap("outer", outer)()
    # outer takes 9 s, 4 of them in its two inner calls: the 9 s are split
    # between the names and counted once
    assert clock.self_s == {"outer": 5.0, "inner": 4.0}
    timed_inner()
    assert clock.self_s == {"outer": 5.0, "inner": 6.0}


def test_solver_scripts_run_a_tiny_cell(tools, monkeypatch):
    # N=6, k=1, m=12, omega in {0.3, 1}, sigma 0 and two seeds: both scripts
    # solve the same four trials through cli.solve_trial, so they count the
    # same sweeps
    sweep_cost = tools("sweep_cost")
    solver_census = tools("solver_census")
    monkeypatch.setattr(sweep_cost, "SEEDS", range(3, 5))
    figures = sweep_cost.solve_pass(cli, {"tiny": sweep_cost.draw(6, 1, 12, 5000)})()
    census = solver_census.census(6, 1, (12,), sweep_cost.OMEGAS, (0.0,), range(3, 5))
    assert (census["trials"], census["capped"], census["failed"]) == (4, 0, 0)
    assert figures["tiny sweeps"] == census["sweeps"] > 0
    assert 0 < figures["tiny us/sweep"] < math.inf
    assert census["snr_min"] >= 40.0
