"""What the scripts in ``tools/`` share.

Importing this module pins BLAS to one thread, so it comes before numpy
in every script, and puts ``src/`` of this checkout first on the import
path.  It also holds the import of another checkout's package, the
drawer of the trial sets that the solver scripts solve, and the one loop
that times the passes of one or two checkouts in one process:

- ``draw_trials(n, k, ms, omegas, sigmas, seeds)`` draws every trial of a
  set, seed by seed, as ``phasecs recover`` draws it;
- ``side_modules(doc, name, argv)`` parses the optional ``PARENT``
  argument of a cost script and returns module ``phasecs.<name>`` of this
  checkout (``"this"``) and, given ``PARENT``, that of the other checkout
  (``"parent"``);
- ``alternate(passes, reps)`` runs one uncounted warm-up pass of each side,
  then ``reps`` repetitions of one pass per side, and the side that goes
  first swaps on every repetition; a pass returns ``{row: figure}``;
- ``report(figures, reps)`` prints one line per row: each side's median
  and quartiles and, with two sides, those of the per-repetition ratios
  parent/this (above 1: this checkout is faster).  A figure that is the
  same on every repetition is printed once, without quartiles.

A run without ``PARENT`` is the one-side case of the same loop and lines.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from phasecs import model  # noqa: E402


def draw_trials(n, k, ms, omegas, sigmas, seeds):
    """``((seed, m, omega, sigma), instance, estimate)`` per trial of a set, drawn
    as ``phasecs recover`` draws it: sparse signal, rho 1, alpha 0.75."""
    for seed, m, omega, sigma in itertools.product(seeds, ms, omegas, sigmas):
        instance, estimate = model.draw_trial(np.random.default_rng(seed), "sparse", n, k, m,
                                              1.0, 0.75, omega, sigma)
        yield (seed, m, omega, sigma), instance, estimate


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


def side_modules(doc: str, name: str, argv=None) -> dict:
    """Module ``phasecs.<name>`` of this checkout and, given ``PARENT`` on
    the command line, of the checkout there."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path,
                        help="another checkout to time against this one, in the same process")
    args = parser.parse_args(argv)
    modules = {"this": importlib.import_module(f"phasecs.{name}")}
    if args.parent is not None:
        modules["parent"] = load_module(args.parent.resolve(), name)
    return modules


def alternate(passes: dict, reps: int) -> dict:
    """``{side: {row: [figure per repetition]}}`` of the one-pass callables
    ``passes``, after one warm-up pass each that is not counted."""
    for one_pass in passes.values():
        one_pass()
    figures = {label: defaultdict(list) for label in passes}
    order = list(passes)
    for rep in range(reps):
        for label in order if rep % 2 == 0 else order[::-1]:
            for row, value in passes[label]().items():
                figures[label][row].append(value)
    return figures


def _spread(values) -> str:
    if np.all(values == values[0]):
        return f"{values[0]:.5g}"
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.5g} ({q1:.5g}-{q3:.5g})"


def report(figures: dict, reps: int) -> None:
    """One line per row of ``figures``, in the order of this checkout's rows."""
    print(f"{reps} repetitions of one pass per side after a warm-up pass; "
          f"median (quartiles)", flush=True)
    labels = [label for label in ("parent", "this") if label in figures]
    rows = list(figures["this"])
    width = max(map(len, rows))
    for row in rows:
        cells = {label: np.array(figures[label][row], dtype=float) for label in labels}
        if len(cells) == 2:
            cells["parent/this"] = cells["parent"] / cells["this"]
        print(f"{row:{width}s}  " + "  ".join(
            f"{label} {_spread(values)}" for label, values in cells.items()), flush=True)
