#!/usr/bin/env python3
"""Seconds per pass in each certifier, and the memory one pass's results keep.

    python3 tools/certify_cost.py [PARENT]

Run from anywhere; the package is imported from ``src/`` of this checkout,
and BLAS is pinned to one thread.  One pass makes the certify-batch calls of
``tools/certify_digest.py`` (its ``batch_shapes`` at seeds 1, 2 and 3: the
weighted NSP checks on 4x6 matrices with an l1 oracle per case and its
solves, ``rip_constant`` on 12x12 at k=6, ``srip_bounds`` on 10x8 at k=2,
``phaseless_nsp_check`` on 12x7 at k=7 and ``brute_force_phaseless`` on
6x12).

Given the path of another checkout (``PARENT``), the script imports its
package as well and times both in one process, so that host load falls on
both alike; both sides make the same calls, those of this checkout's
``tools/certify_digest.py``.  The passes are timed by the loop of
``tools/common.py``: one warm-up pass per side that is not counted, then 7
repetitions of one pass per side, the side that goes first swapping on
every repetition.  Each row gives each side's median and quartiles in
seconds per pass and, with ``PARENT``, those of the per-repetition ratios
parent/this (above 1: this checkout is faster).

The times are self times: ``brute_force_phaseless`` excludes the oracle it
builds and solves, which count under ``oracle build`` and ``oracle solve``;
``whole pass`` is the wall time of the whole pass, the seeded draws and
``recovers_uniquely`` included.  The last two rows are the memory that the
results of one pass keep (their ``tracemalloc`` size, oracles left out) and
their count: the benchmark holds every op's results until its window ends,
so this is what a faster pass adds to its peak RSS.
"""

import common  # first: it pins BLAS before numpy loads

import functools
import gc
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import certify_digest

SEEDS = (1, 2, 3)
REPS = 7
PUBLIC = ("weighted_nsp_check", "rip_constant", "srip_bounds", "phaseless_nsp_check",
          "brute_force_phaseless")
ROWS = PUBLIC + ("oracle build", "oracle solve", "whole pass")


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

    def __init__(self, oracle_type):
        self.oracle_type = oracle_type
        self.kept: list = []

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if not isinstance(out, self.oracle_type):
            self.kept.append(out)
        return out


def one_pass(certify) -> list:
    """The results of one pass of the certify-batch calls on ``certify``."""
    runner = Runner(certify.ExhaustiveL1Oracle)
    for seed in SEEDS:
        certify_digest.batch_shapes(runner, np.random.default_rng(seed), certify)
    return runner.kept


def timed_pass(certify):
    """A pass of ``certify`` that returns its self seconds per row; the
    certifiers of ``certify`` are wrapped in place to time them."""
    clock = Clock()
    for name in PUBLIC:
        setattr(certify, name, clock.wrap(name, getattr(certify, name)))
    oracle = certify.ExhaustiveL1Oracle
    oracle.__init__ = clock.wrap("oracle build", oracle.__init__)
    oracle.solve = clock.wrap("oracle solve", oracle.solve)

    def run() -> dict[str, float]:
        clock.self_s.clear()
        start = time.perf_counter()
        one_pass(certify)
        clock.self_s["whole pass"] = time.perf_counter() - start
        return {f"{row} s/pass": clock.self_s[row] for row in ROWS}
    return run


def results_kept(certify) -> dict[str, list]:
    """KiB that one pass's results keep, and their count."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = one_pass(certify)
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"results kept KiB/pass": [(after - before) / 1024], "results kept": [len(kept)]}


def main(argv=None) -> int:
    modules = common.side_modules(__doc__, "certify", argv)
    figures = common.alternate(
        {label: timed_pass(module) for label, module in modules.items()}, REPS)
    for label, certify in modules.items():
        figures[label].update(results_kept(certify))
    common.report(figures, REPS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
