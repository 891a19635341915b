"""Span tracing of phasecs from outside the package.

The tracer replaces module and class bindings of public phasecs functions
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Spans live in flat arrays while the pass
runs and are written out when the run ends.  Self time of a span is its
duration minus the durations of its direct children.

Bindings are patched where the workloads look them up, not only where the
functions are defined:

- ``certify`` imports ``eig_sym``, ``kernel_basis`` and ``weighted_l1`` by
  name, so its copies are patched next to the ``linalg``/``model`` ones;
- ``cli`` imports ``solve_sdp`` by name;
- ``solve_sdp`` reaches ``rank1_extract``, ``weighted_shrink`` and
  ``ball_project`` through ``phasecs.solver`` globals and ``forward`` and
  ``adjoint`` through the ``LiftedOperator`` class;
- ``brute_force_phaseless`` builds ``ExhaustiveL1Oracle`` through a
  ``phasecs.certify`` global, so the class methods are patched.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

MODEL_FUNCTIONS = (
    "substream", "derived_seed", "gen_sparse_signal", "gen_compressible_signal",
    "best_k_support", "gen_support_estimate", "gen_gaussian_matrix",
    "make_instance", "snr_db", "weighted_l1", "tail_norms",
)

# (span name, owner attribute path, attribute).  The owner path is resolved
# inside the imported ``phasecs`` package.
PATCHES = (
    ("solver.forward", "solver.LiftedOperator", "forward"),
    ("solver.adjoint", "solver.LiftedOperator", "adjoint"),
    ("solver.solve_sdp", "solver", "solve_sdp"),
    ("solver.solve_sdp", "cli", "solve_sdp"),
    ("solver.rank1_extract", "solver", "rank1_extract"),
    ("solver.weighted_shrink", "solver", "weighted_shrink"),
    ("solver.ball_project", "solver", "ball_project"),
    ("linalg.eig_sym", "linalg", "eig_sym"),
    ("linalg.eig_sym", "certify", "eig_sym"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.kernel_basis", "certify", "kernel_basis"),
    ("linalg.solve_spd", "linalg", "solve_spd"),
    ("certify.rip_constant", "certify", "rip_constant"),
    ("certify.srip_bounds", "certify", "srip_bounds"),
    ("certify.weighted_nsp_check", "certify", "weighted_nsp_check"),
    ("certify.phaseless_nsp_check", "certify", "phaseless_nsp_check"),
    ("certify.brute_force_phaseless", "certify", "brute_force_phaseless"),
    ("certify.oracle_build", "certify.ExhaustiveL1Oracle", "__init__"),
    ("certify.oracle_solve", "certify.ExhaustiveL1Oracle", "solve"),
    ("cli.run_sweep", "cli", "run_sweep"),
    ("cli.run_trial", "cli", "run_trial"),
    ("cli.main", "cli", "main"),
    ("model.SupportEstimate.weights", "model.SupportEstimate", "weights"),
    ("model.weighted_l1", "certify", "weighted_l1"),
    *((f"model.{fn}", "model", fn) for fn in MODEL_FUNCTIONS),
)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records nested call spans of patched phasecs functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Patch every binding in ``PATCHES``; ``uninstall`` restores them."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, owner_path, attr in PATCHES:
            owner = _resolve(package, owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self):
        """(names, name_id, start, end, parent) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    def save(self, path: Path) -> None:
        names, name_id, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(names), name_id=name_id, start=start,
                     end=end, parent=parent)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        names, name_id, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for nid, name in enumerate(names):
            sel = name_id == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

