#!/usr/bin/env python3
"""Microseconds per ADMM sweep of ``solve_sdp`` on three fixed trial sets.

    python3 tools/sweep_cost.py

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

from phasecs import model  # noqa: E402
from phasecs.solver import LiftedOperator, SolverConfig, solve_sdp  # noqa: E402

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
    trials = []
    for seed in SEEDS:
        for omega in OMEGAS:
            inst, est = model.draw_trial(np.random.default_rng(seed), "sparse", n, k, m, 1.0,
                                         ALPHA, omega, 0.0)
            trials.append((LiftedOperator.from_matrix(inst.A), inst.b, est.weights(n),
                           SolverConfig(epsilon=inst.epsilon, max_iter=max_iter)))
    return trials


def one_rep(trials) -> tuple[float, int]:
    """Seconds spent in ``solve_sdp`` and sweeps taken over one pass of the trials."""
    seconds, sweeps = 0.0, 0
    for op, b, w, cfg in trials:
        start = time.perf_counter()
        result = solve_sdp(op, b, w, cfg)
        seconds += time.perf_counter() - start
        sweeps += result.iterations
    return seconds, sweeps


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for name, params in SETS.items():
        trials = draw(*params)
        one_rep(trials)
        figures, counts = [], set()
        for _ in range(REPS):
            seconds, sweeps = one_rep(trials)
            figures.append(1e6 * seconds / sweeps)
            counts.add(sweeps)
        q1, med, q3 = np.percentile(figures, [25, 50, 75])
        print(f"{name}: {med:.1f} us/sweep (quartiles {q1:.1f}-{q3:.1f}, {REPS} reps)  "
              f"sweeps {'/'.join(map(str, sorted(counts)))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
