#!/usr/bin/env python3
"""Microseconds per ADMM sweep of ``solve_sdp`` on three fixed trial sets.

    python3 tools/sweep_cost.py [PARENT]

Run from anywhere; the package is imported from ``src/`` of this checkout,
and BLAS is pinned to one thread.  Each set is 16 trials drawn as
``phasecs recover`` draws them (``model.draw_trial`` on
``numpy.random.default_rng(seed)``, sparse signal, alpha 0.75, rho 1,
sigma 0) at seeds 7000-7007 and omega in {0.3, 1}, and solved with the
default solver settings:

- ``n16-m40``: N=16, k=2, m=40, the default ``recover`` size;
- ``n16-m80``: N=16, k=2, m=80, the other half of the recover-small mix;
- ``n32-m36``: N=32, k=4, m=36, with ``max_iter`` 300 so that trials which
  would run to the default cap of 5000 do not dominate the run time.

The trials are drawn before timing.  One repetition solves every trial of
a set once and gives one figure: the summed wall time of the ``solve_sdp``
calls (setup, sweeps and the rank-1 extraction) over the summed sweep
count.  The first repetition warms caches and is not counted.  One line
per set gives the median of 7 figures, their quartiles and the sweeps of
one repetition, which are the same in every repetition (a second number
after a slash would mean they were not).

Given the path of another checkout (``PARENT``), the script imports its
package as well and times both in one process on the same trials (drawn
by this checkout's ``model``), so that host load falls on both alike: each
repetition solves the set once on each side, and the side that goes first
swaps on every repetition.  Each line then gives the median and quartiles
of each side, the median and quartiles of the per-repetition ratios
parent/this (above 1: this checkout is faster) and each side's sweeps.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from phasecs import model, solver  # noqa: E402

from certify_cost import load_module  # noqa: E402

# name -> (n, k, m, max_iter)
SETS = {
    "n16-m40": (16, 2, 40, 5000),
    "n16-m80": (16, 2, 80, 5000),
    "n32-m36": (32, 4, 36, 300),
}
SEEDS = range(7000, 7008)
REPS = 7
OMEGAS = (0.3, 1.0)
ALPHA = 0.75


def draw(n, k, m, max_iter) -> list:
    """``(A, b, w, epsilon, max_iter)`` per trial of a set."""
    trials = []
    for seed in SEEDS:
        for omega in OMEGAS:
            inst, est = model.draw_trial(np.random.default_rng(seed), "sparse", n, k, m, 1.0,
                                         ALPHA, omega, 0.0)
            trials.append((inst.A, inst.b, est.weights(n), inst.epsilon, max_iter))
    return trials


def prepare(side, drawn) -> list:
    """The drawn trials as ``solve_sdp`` arguments of the ``solver`` module ``side``."""
    return [(side.solve_sdp, side.LiftedOperator.from_matrix(a), b, w,
             side.SolverConfig(epsilon=epsilon, max_iter=max_iter))
            for a, b, w, epsilon, max_iter in drawn]


def one_rep(trials) -> tuple[float, int]:
    """Seconds spent in ``solve_sdp`` and sweeps taken over one pass of the trials."""
    seconds, sweeps = 0.0, 0
    for solve, op, b, w, cfg in trials:
        start = time.perf_counter()
        result = solve(op, b, w, cfg)
        seconds += time.perf_counter() - start
        sweeps += result.iterations
    return seconds, sweeps


def timed(sides: dict) -> tuple[dict, dict]:
    """Microseconds per sweep of each side per repetition, and the sweep
    counts seen; the side that goes first swaps on every repetition."""
    for trials in sides.values():
        one_rep(trials)
    figures = {label: [] for label in sides}
    counts = {label: set() for label in sides}
    for rep in range(REPS):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for label in order:
            seconds, sweeps = one_rep(sides[label])
            figures[label].append(1e6 * seconds / sweeps)
            counts[label].add(sweeps)
    return figures, counts


def sweeps_text(counts) -> str:
    return "/".join(map(str, sorted(counts)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path,
                        help="another checkout to time against this one, in the same process")
    args = parser.parse_args(argv)
    parent = None if args.parent is None else load_module(args.parent.resolve(), "solver")
    if parent is not None:
        print(f"{REPS} repetitions, one pass per side each; medians (quartiles) in us/sweep")
    for name, params in SETS.items():
        drawn = draw(*params)
        if parent is None:
            figures, counts = timed({"this": prepare(solver, drawn)})
            q1, med, q3 = np.percentile(figures["this"], [25, 50, 75])
            print(f"{name}: {med:.1f} us/sweep (quartiles {q1:.1f}-{q3:.1f}, {REPS} reps)  "
                  f"sweeps {sweeps_text(counts['this'])}", flush=True)
            continue
        figures, counts = timed({"this": prepare(solver, drawn),
                                 "parent": prepare(parent, drawn)})
        old, new = np.array(figures["parent"]), np.array(figures["this"])
        cells = []
        for label, values in (("parent", old), ("this", new), ("parent/this", old / new)):
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            cells.append(f"{label} {med:.2f} ({q1:.2f}-{q3:.2f})")
        print(f"{name}: " + "  ".join(cells) + f"  sweeps parent {sweeps_text(counts['parent'])}"
              f" this {sweeps_text(counts['this'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
