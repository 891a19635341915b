#!/usr/bin/env python3
"""Sweep counts and SNR of ``solve_sdp`` on two fixed trial cells.

    python3 tools/solver_census.py              # both cells
    python3 tools/solver_census.py --cell n16   # one cell

Run from anywhere; the package is imported from ``src/`` of this checkout,
and BLAS is pinned to one thread so the trajectories are reproducible.  Each
trial is drawn as ``phasecs recover`` draws it (``common.draw_trials``:
sparse signal, rho 1, alpha 0.75) and solved with the default solver
settings through ``cli.solve_trial``.  The cells:

- ``n16``: N=16, k=2, alpha 0.75, sigma 0, m in {40, 80}, omega in {0.3, 1},
  seeds 5000-5024: 100 trials, the regime of the recover-small benchmark.
- ``n32``: N=32, k=4, alpha 0.75, m in {24, 36}, omega in {0.3, 1},
  sigma in {0, 0.1}, seeds 5000-5002: 24 trials, where many solves run to
  the iteration cap.

One line per cell gives the trial count, total sweeps, the p50/p90/max of
sweeps per trial, the count that stopped at ``max_iter``, the count that
failed, mean and min SNR in dB over the trials that did not fail, mean
penalty updates per trial and the median of ||b||.  After it comes one line
per trial that stopped at ``max_iter``: seed, m, omega, sigma, sweeps and
SNR.  A cell's mean SNR moves with rounding through these trials, so they
are listed one by one.
"""

import common  # first: it pins BLAS before numpy loads

import argparse
import sys

import numpy as np

from phasecs import cli

# name -> (n, k, ms, omegas, sigmas, seeds)
CELLS = {
    "n16": (16, 2, (40, 80), (0.3, 1.0), (0.0,), range(5000, 5025)),
    "n32": (32, 4, (24, 36), (0.3, 1.0), (0.0, 0.1), range(5000, 5003)),
}


def census(n, k, ms, omegas, sigmas, seeds) -> dict:
    iters, snrs, updates, norms, capped = [], [], [], [], []
    failed = 0
    for (seed, m, omega, sigma), inst, est in common.draw_trials(n, k, ms, omegas, sigmas,
                                                                 seeds):
        result, snr = cli.solve_trial(inst, est)
        iters.append(result.iterations)
        norms.append(float(np.linalg.norm(inst.b)))
        if result.status == "failed":
            failed += 1
            continue
        if result.status == "max-iter":
            capped.append((seed, m, omega, sigma, result.iterations, snr))
        snrs.append(snr)
        updates.append(result.diagnostics["penalty_updates"])
    return {
        "trials": len(iters),
        "sweeps": int(sum(iters)),
        "p50": float(np.percentile(iters, 50)),
        "p90": float(np.percentile(iters, 90)),
        "max": int(max(iters)),
        "capped": len(capped),
        "failed": failed,
        "snr_mean": float(np.mean(snrs)) if snrs else float("nan"),
        "snr_min": float(min(snrs)) if snrs else float("nan"),
        "updates_mean": float(np.mean(updates)) if updates else float("nan"),
        "b_norm_median": float(np.median(norms)),
        "capped_trials": capped,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cell", choices=sorted(CELLS), action="append",
                        help="cell to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    for name in args.cell or CELLS:
        r = census(*CELLS[name])
        print(f"{name}: trials {r['trials']}  sweeps {r['sweeps']}  "
              f"p50 {r['p50']:g}  p90 {r['p90']:g}  max {r['max']}  "
              f"capped {r['capped']}  failed {r['failed']}  "
              f"snr mean {r['snr_mean']:.1f} dB  min {r['snr_min']:.1f} dB  "
              f"penalty updates {r['updates_mean']:.2f}/trial  "
              f"median |b| {r['b_norm_median']:.3g}", flush=True)
        for seed, m, omega, sigma, sweeps, snr in r["capped_trials"]:
            print(f"  capped: seed {seed}  m {m}  omega {omega:g}  sigma {sigma:g}  "
                  f"sweeps {sweeps}  snr {snr:.1f} dB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
