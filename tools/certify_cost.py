#!/usr/bin/env python3
"""Seconds per pass in each certifier, and the memory one pass's results keep.

    python3 tools/certify_cost.py

Run from anywhere; the package is imported from ``src/`` of this checkout,
and BLAS is pinned to one thread.  One pass makes the certify-batch calls of
``tools/certify_digest.py`` (its ``batch_shapes`` at seeds 1, 2 and 3: the
weighted NSP checks on 4x6 matrices with an l1 oracle per case and its
solves, ``rip_constant`` on 12x12 at k=6, ``srip_bounds`` on 10x8 at k=2,
exact ``phaseless_nsp_check`` on 12x7 at k=7 and ``brute_force_phaseless``
on 6x12).  The first pass warms caches and is not counted.

One line per row gives the median of 7 passes and their quartiles, in
seconds.  The times are self times: ``brute_force_phaseless`` excludes the
oracle it builds and solves, which count under ``oracle build`` and
``oracle solve``; ``pass`` is the wall time of the whole pass, the seeded
draws and ``recovers_uniquely`` included.  The last line is the memory that
the results of one pass keep (their ``tracemalloc`` size, oracles left
out): the benchmark holds every op's results until its window ends, so this
is what a faster pass adds to its peak RSS.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from certify_digest import batch_shapes, certify  # noqa: E402

SEEDS = (1, 2, 3)
PASSES = 7
PUBLIC = ("weighted_nsp_check", "rip_constant", "srip_bounds", "phaseless_nsp_check",
          "brute_force_phaseless")
ROWS = PUBLIC + ("oracle build", "oracle solve", "pass")


class Clock:
    """Self time per name of the wrapped calls: a call's time less that of
    the wrapped calls it makes."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self._children = [0.0]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._children.pop()
                self._children[-1] += elapsed
        return timed


class Runner:
    """Stands in for the digest: makes each call and keeps its result."""

    def __init__(self):
        self.kept: list = []

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if not isinstance(out, certify.ExhaustiveL1Oracle):
            self.kept.append(out)
        return out


def one_pass() -> list:
    runner = Runner()
    for seed in SEEDS:
        batch_shapes(runner, np.random.default_rng(seed))
    return runner.kept


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    clock = Clock()
    for name in PUBLIC:
        setattr(certify, name, clock.wrap(name, getattr(certify, name)))
    oracle = certify.ExhaustiveL1Oracle
    oracle.__init__ = clock.wrap("oracle build", oracle.__init__)
    oracle.solve = clock.wrap("oracle solve", oracle.solve)

    one_pass()
    figures = defaultdict(list)
    for _ in range(PASSES):
        clock.self_s.clear()
        start = time.perf_counter()
        one_pass()
        clock.self_s["pass"] = time.perf_counter() - start
        for row in ROWS:
            figures[row].append(clock.self_s[row])
    for row in ROWS:
        q1, med, q3 = np.percentile(figures[row], [25, 50, 75])
        print(f"{row:22s} {med:8.4f} s/pass (quartiles {q1:.4f}-{q3:.4f}, {PASSES} passes)")

    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = one_pass()
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"{'results kept':22s} {(after - before) / 1024:8.1f} KiB/pass ({len(kept)} results)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
