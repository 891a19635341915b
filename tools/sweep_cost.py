#!/usr/bin/env python3
"""Microseconds per ADMM sweep of ``solve_sdp`` on three fixed trial sets.

    python3 tools/sweep_cost.py [PARENT]

Run from anywhere; the package is imported from ``src/`` of this checkout,
and BLAS is pinned to one thread.  Each set is 16 trials drawn as
``phasecs recover`` draws them (``common.draw_trials``: sparse signal,
alpha 0.75, rho 1) at seeds 7000-7007, omega in {0.3, 1} and sigma 0, and
solved with the default solver settings:

- ``n16-m40``: N=16, k=2, m=40, the default ``recover`` size;
- ``n16-m80``: N=16, k=2, m=80, the other half of the recover-small mix;
- ``n32-m36``: N=32, k=4, m=36, with ``max_iter`` 300 so that trials which
  would run to the default cap of 5000 do not dominate the run time.

The trials are drawn before timing.  One pass solves every trial of every
set once, each by one ``cli.solve_trial(instance, estimate, max_iter)``
call, the solve of ``phasecs recover`` and of a sweep trial, and gives two
rows per set: the summed wall time of those calls over the summed sweep
count, and that sweep count, which is the same in every pass (quartiles
after it would mean it was not).  The time of a call is that of the whole
solve (building the lifted operator and the normal system, the sweeps and
the rank-1 extraction) plus the weights built from the estimate and the
SNR of the result.

Given the path of another checkout (``PARENT``), the script imports its
``cli`` as well and times both in one process on the same trials (drawn
by this checkout's ``model``), so that host load falls on both alike.  The
passes are timed by the loop of ``tools/common.py``: one warm-up pass per
side that is not counted, then 7 repetitions of one pass per side, the side
that goes first swapping on every repetition.  Each row gives each side's
median and quartiles and, with ``PARENT``, those of the per-repetition
ratios parent/this (above 1: this checkout is faster; 1 on a sweep row:
the two sides take the same sweeps).
"""

import common  # first: it pins BLAS before numpy loads

import sys
import time

# name -> (n, k, m, max_iter)
SETS = {
    "n16-m40": (16, 2, 40, 5000),
    "n16-m80": (16, 2, 80, 5000),
    "n32-m36": (32, 4, 36, 300),
}
SEEDS = range(7000, 7008)
REPS = 7
OMEGAS = (0.3, 1.0)


def draw(n, k, m, max_iter) -> list:
    """``(instance, estimate, max_iter)`` per trial of a set."""
    return [(inst, est, max_iter)
            for _, inst, est in common.draw_trials(n, k, (m,), OMEGAS, (0.0,), SEEDS)]


def solve_pass(cli, drawn: dict):
    """A pass of the ``cli`` module over the drawn sets that returns
    microseconds per sweep and sweeps per set."""

    def run() -> dict:
        figures = {}
        for name, trials in drawn.items():
            seconds, sweeps = 0.0, 0
            for inst, est, max_iter in trials:
                start = time.perf_counter()
                result, _ = cli.solve_trial(inst, est, max_iter)
                seconds += time.perf_counter() - start
                sweeps += result.iterations
            figures[f"{name} us/sweep"] = 1e6 * seconds / sweeps
            figures[f"{name} sweeps"] = sweeps
        return figures
    return run


def main(argv=None) -> int:
    modules = common.side_modules(__doc__, "cli", argv)
    drawn = {name: draw(*params) for name, params in SETS.items()}
    figures = common.alternate(
        {label: solve_pass(module, drawn) for label, module in modules.items()}, REPS)
    common.report(figures, REPS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
