#!/usr/bin/env python3
"""Seconds per pass in each certifier, and the memory one pass's results keep.

    python3 tools/certify_cost.py [PARENT]

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

Given the path of another checkout (``PARENT``), the script imports its
package as well and times both in one process, so that host load falls on
both alike: each repetition runs one pass of each side, and the side that
goes first swaps on every repetition.  Both sides make the same calls, those
of this checkout's ``tools/certify_digest.py``.  Each row then gives the
median and quartiles of each side and the median and quartiles of the
per-repetition ratios parent/this (above 1: this checkout is faster), and
the last line gives each side's results memory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import certify_digest  # noqa: E402

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

    def __init__(self, oracle_type):
        self.oracle_type = oracle_type
        self.kept: list = []

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if not isinstance(out, self.oracle_type):
            self.kept.append(out)
        return out


class Side:
    """One checkout's ``certify`` module, its certifiers timed by a Clock."""

    def __init__(self, certify):
        self.certify = certify
        self.clock = Clock()
        for name in PUBLIC:
            setattr(certify, name, self.clock.wrap(name, getattr(certify, name)))
        oracle = certify.ExhaustiveL1Oracle
        oracle.__init__ = self.clock.wrap("oracle build", oracle.__init__)
        oracle.solve = self.clock.wrap("oracle solve", oracle.solve)

    def one_pass(self) -> list:
        certify_digest.certify = self.certify  # the module batch_shapes calls
        runner = Runner(self.certify.ExhaustiveL1Oracle)
        for seed in SEEDS:
            certify_digest.batch_shapes(runner, np.random.default_rng(seed))
        return runner.kept

    def timed_pass(self) -> dict[str, float]:
        self.clock.self_s.clear()
        start = time.perf_counter()
        self.one_pass()
        self.clock.self_s["pass"] = time.perf_counter() - start
        return {row: self.clock.self_s[row] for row in ROWS}

    def results_kib(self) -> tuple[float, int]:
        """KiB that one pass's results keep, and their count."""
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        kept = self.one_pass()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return (after - before) / 1024, len(kept)


def load_module(checkout: Path, name: str):
    """Module ``name`` of the package under ``checkout/src``, imported under
    a package name of its own so that it sits beside this checkout's."""
    init = checkout / "src" / "phasecs" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package at {init}")
    spec = importlib.util.spec_from_file_location(
        "parent_phasecs", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{spec.name}.{name}")


def quartiles(values) -> tuple[float, float, float]:
    return tuple(np.percentile(values, [25, 50, 75]))


def report_one(side: Side) -> None:
    side.one_pass()
    figures = defaultdict(list)
    for _ in range(PASSES):
        for row, value in side.timed_pass().items():
            figures[row].append(value)
    for row in ROWS:
        q1, med, q3 = quartiles(figures[row])
        print(f"{row:22s} {med:8.4f} s/pass (quartiles {q1:.4f}-{q3:.4f}, {PASSES} passes)")
    kib, count = side.results_kib()
    print(f"{'results kept':22s} {kib:8.1f} KiB/pass ({count} results)")


def report_pair(this: Side, parent: Side) -> None:
    this.one_pass()
    parent.one_pass()
    figures = {"this": defaultdict(list), "parent": defaultdict(list)}
    for rep in range(PASSES):
        order = [("this", this), ("parent", parent)]
        for label, side in order if rep % 2 == 0 else order[::-1]:
            for row, value in side.timed_pass().items():
                figures[label][row].append(value)
    print(f"{PASSES} repetitions, one pass per side each; medians (quartiles) in s/pass")
    for row in ROWS:
        old, new = np.array(figures["parent"][row]), np.array(figures["this"][row])
        cells = []
        for label, values in (("parent", old), ("this", new),
                              ("parent/this", old / new)):
            q1, med, q3 = quartiles(values)
            cells.append(f"{label} {med:.4f} ({q1:.4f}-{q3:.4f})")
        print(f"{row:22s} " + "  ".join(cells))
    kept = [(label, *side.results_kib()) for label, side in (("parent", parent), ("this", this))]
    print(f"{'results kept':22s} " + "  ".join(
        f"{label} {kib:.1f} KiB/pass ({count} results)" for label, kib, count in kept))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path,
                        help="another checkout to time against this one, in the same process")
    args = parser.parse_args(argv)
    this = Side(certify_digest.certify)
    if args.parent is None:
        report_one(this)
    else:
        report_pair(this, Side(load_module(args.parent.resolve(), "certify")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
