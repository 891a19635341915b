#!/usr/bin/env python3
"""One SHA-256 per certifier over its serialised outputs on fixed inputs.

    python3 tools/certify_digest.py

Run from anywhere; the package is imported from ``src/`` of this checkout,
and BLAS is pinned to one thread.  To compare two checkouts, run the script
in each (copy it into a checkout that lacks it) and compare the printed
lines: equal digests mean that every verdict, margin, witness, count,
minimiser set and refusal is bitwise equal.  The script only calls the
certifiers with their required arguments.

Inputs, all drawn from fixed seeds:

- the certify-batch shapes of ``bench/workloads.py``: weighted NSP checks on
  4x6 matrices at k in {1, 2} and omega in {0, 0.5, 1}, each with the l1
  oracle on planted signals and on the witness; ``rip_constant`` on 12x12 at
  k=6; ``srip_bounds`` on 10x8 at k=2; ``phaseless_nsp_check`` on 12x7 at
  k=7; ``brute_force_phaseless`` on 6x12 with a planted 2-sparse signal;
- random small cases of every certifier;
- weighted NSP checks at kernel dimensions 3 to 5 (5x8, 6x10 and 7x12 at k
  up to 3, omega in {0, 0.5, 1}), from a generator of their own;
- phaseless NSP checks in the compressive regime m < 2N - 2 (4x4, 5x6 and
  6x8 at k up to 3, omega in {0, 0.5, 1}), from a generator of their own;
- inputs that each certifier refuses (every cap of the certifiers' table,
  the vertex enumeration cap by both NSP checks, on a 13x26 and a 12x24
  matrix; bad orders, weight lengths and entries), recorded as the
  exception type and message.

Serialisation: floats via ``float.hex``, arrays via dtype, shape and
``tobytes``, dataclasses field by field, sequences element by element, an
``ExhaustiveL1Oracle`` by its public state ``(m, n, degenerate)`` (its
internal support table is left out, so a new layout of that table changes no
digest; every ``solve`` output is digested).
Each output line is the certifier, the number of calls digested and the
hex digest.
"""

import common  # noqa: F401  first: it pins BLAS before numpy loads

import dataclasses
import hashlib
from itertools import combinations

import numpy as np

from phasecs import certify, model


def serialise(obj) -> bytes:
    if obj is None or isinstance(obj, (bool, str)):
        return repr(obj).encode()
    if isinstance(obj, (int, np.integer)):
        return b"i" + str(int(obj)).encode()
    if isinstance(obj, (float, np.floating)):
        return b"f" + float(obj).hex().encode()
    if isinstance(obj, np.ndarray):
        return b"a" + repr((obj.dtype.str, obj.shape)).encode() + obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(serialise(v) for v in obj) + b"]"
    if dataclasses.is_dataclass(obj):
        fields = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        return type(obj).__name__.encode() + serialise(fields)
    if isinstance(obj, certify.ExhaustiveL1Oracle):
        return b"oracle" + serialise((obj.m, obj.n, obj.degenerate))
    raise TypeError(f"cannot serialise {type(obj).__name__}")


class Digest:
    """SHA-256 of the serialised outcome of each call, one per certifier."""

    def __init__(self):
        self.hashes: dict = {}
        self.calls: dict[str, int] = {}

    def call(self, name: str, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
            record = serialise(("ok", out))
        except (certify.CapExceededError, ValueError) as exc:
            out = None
            record = serialise(("refused", type(exc).__name__, str(exc)))
        self.hashes.setdefault(name, hashlib.sha256()).update(record + b"\n")
        self.calls[name] = self.calls.get(name, 0) + 1
        return out

    def report(self) -> str:
        return "\n".join(f"{name:24s} {self.calls[name]:5d}  {h.hexdigest()}"
                         for name, h in self.hashes.items())


def planted(rng, n, support):
    x = np.zeros(n)
    k = len(support)
    x[list(support)] = rng.standard_normal(k) + np.copysign(0.5, rng.standard_normal(k))
    return x


def oracle_cases(d: Digest, a, w, signals, certify=certify):
    oracle = d.call("ExhaustiveL1Oracle", certify.ExhaustiveL1Oracle, a)
    if oracle is None:
        return
    for x in signals:
        res = d.call("ExhaustiveL1Oracle", oracle.solve, a @ x, w)
        d.call("ExhaustiveL1Oracle", certify.recovers_uniquely, res, x)


def batch_shapes(d: Digest, rng, certify=certify):
    """The certify-batch calls, made on the module ``certify``."""
    for _ in range(12):
        a = model.gen_gaussian_matrix(rng, 4, 6)
        for k in (1, 2):
            for omega in (0.0, 0.5, 1.0):
                w = np.ones(6)
                w[rng.choice(6, size=k, replace=False)] = omega
                v = d.call("weighted_nsp_check", certify.weighted_nsp_check, a, k, w)
                signals = [planted(rng, 6, t) for t in combinations(range(6), k)]
                if v.witness is not None:
                    t = list(v.witness.support)
                    xw = np.zeros(6)
                    xw[t] = v.witness.kernel_vector[t]
                    signals.append(xw)
                oracle_cases(d, a, w, signals, certify)
    d.call("rip_constant", certify.rip_constant, model.gen_gaussian_matrix(rng, 12, 12), 6)
    d.call("srip_bounds", certify.srip_bounds, model.gen_gaussian_matrix(rng, 10, 8), 2)
    a = model.gen_gaussian_matrix(rng, 12, 7)
    d.call("phaseless_nsp_check", certify.phaseless_nsp_check, a, 7, np.ones(7))
    a = model.gen_gaussian_matrix(rng, 6, 12)
    x = planted(rng, 12, sorted(rng.choice(12, 2, replace=False)))
    w = np.ones(12)
    w[np.flatnonzero(x)[:1]] = 0.5
    w[rng.choice(np.flatnonzero(x == 0), 1)] = 0.5
    res = d.call("brute_force_phaseless", certify.brute_force_phaseless, a, np.abs(a @ x), w)
    d.call("brute_force_phaseless", certify.recovers_uniquely, res, x, up_to_sign=True)


def random_small(d: Digest, rng):
    for _ in range(20):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        a = model.gen_gaussian_matrix(rng, m, n)
        k = int(rng.integers(1, n + 1))
        d.call("rip_constant", certify.rip_constant, a, k)
        d.call("srip_bounds", certify.srip_bounds, a, k)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = max(1, n - int(rng.integers(0, 4)))
        a = model.gen_gaussian_matrix(rng, m, n)
        k = int(rng.integers(1, n + 1))
        w = rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 else np.ones(n)
        d.call("weighted_nsp_check", certify.weighted_nsp_check, a, k, w)
        oracle_cases(d, a, w, [planted(rng, n, sorted(rng.choice(n, k, replace=False)))])
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 2 * n + 1))
        a = model.gen_gaussian_matrix(rng, m, n)
        k = int(rng.integers(1, n + 1))
        w = rng.uniform(0.05, 1.0, n)
        d.call("phaseless_nsp_check", certify.phaseless_nsp_check, a, k, w)
        x = planted(rng, n, sorted(rng.choice(n, k, replace=False)))
        res = d.call("brute_force_phaseless", certify.brute_force_phaseless,
                     a, np.abs(a @ x), w)
        d.call("brute_force_phaseless", certify.recovers_uniquely, res, x, up_to_sign=True)


def weighted_kernels(d: Digest, rng):
    for m, n in 3 * [(5, 8), (6, 10), (7, 12)]:
        a = model.gen_gaussian_matrix(rng, m, n)
        for k in (1, 2, 3):
            for omega in (0.0, 0.5, 1.0):
                w = np.ones(n)
                w[rng.choice(n, size=k, replace=False)] = omega
                d.call("weighted_nsp_check", certify.weighted_nsp_check, a, k, w)


def phaseless_kernels(d: Digest, rng):
    for m, n in 2 * [(4, 4), (5, 6), (6, 8)]:
        a = model.gen_gaussian_matrix(rng, m, n)
        for k in (1, 2, 3):
            for omega in (0.0, 0.5, 1.0):
                w = np.ones(n)
                w[rng.choice(n, size=k, replace=False)] = omega
                d.call("phaseless_nsp_check", certify.phaseless_nsp_check, a, k, w)


def edge_cases(d: Digest):
    fail, spark = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    # past the vertex enumeration cap: C(26, 12) subsets at kernel dimension
    # 13; the pair spaces of 12 rows and 24 columns at k=1 sum past it
    wide = model.gen_gaussian_matrix(np.random.default_rng(72), 13, 26)
    split = model.gen_gaussian_matrix(np.random.default_rng(71), 12, 24)
    d.call("rip_constant", certify.rip_constant, np.ones((2, 40)), 20)
    d.call("rip_constant", certify.rip_constant, np.eye(3), 0)
    d.call("rip_constant", certify.rip_constant, np.eye(3), 4)
    d.call("rip_constant", certify.rip_constant, np.diag([1.0, 0.5]), 1)
    d.call("srip_bounds", certify.srip_bounds, np.ones((15, 2)), 1)
    d.call("srip_bounds", certify.srip_bounds, np.ones((2, 40)), 20)
    d.call("srip_bounds", certify.srip_bounds, np.eye(3), 0)
    d.call("srip_bounds", certify.srip_bounds, np.vstack([np.eye(2), np.eye(2)]), 1)
    for a, k, w in ((np.ones((1, 4)), 1, np.ones(4)), (np.eye(3), 1, np.ones(3)),
                    (np.array([[1.0, 1.0]]), 1, np.ones(2)),
                    (np.array([[1.0, 1.0, 1.0]]), 1, np.ones(3)),
                    (np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.4 + 1e-10]]), 1, np.ones(3)),
                    (np.eye(3), 1, np.ones(2)), (np.eye(3), 0, np.ones(3)),
                    (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), 1, [-1.0, 1.0, 1.0]),
                    (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1, [0.0, 1.0, 1.0]),
                    (wide, 1, np.ones(26))):
        d.call("weighted_nsp_check", certify.weighted_nsp_check, a, k, w)
    for a, k, w in ((spark, 1, np.ones(2)), (fail, 2, np.ones(2)), (np.eye(2), 1, np.ones(2)),
                    (np.eye(2), 2, np.ones(2)), (np.ones((13, 2)), 1, np.ones(2)),
                    (np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]]), 1, np.ones(4)),
                    (fail, 2, np.ones(3)), (fail, 3, np.ones(2)), (split, 1, np.ones(24))):
        d.call("phaseless_nsp_check", certify.phaseless_nsp_check, a, k, w)
    d.call("ExhaustiveL1Oracle", certify.ExhaustiveL1Oracle, np.ones((2, 13)))
    for a, y, w in ((np.eye(2), [3.0, -4.0], np.ones(2)), (np.ones((1, 2)), [1.0], np.ones(2)),
                    (np.ones((1, 2)), [1.0], np.array([0.5, 1.0])),
                    (np.ones((1, 2)), [0.0], np.ones(2)),
                    (np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, -1.0], np.ones(2)),
                    (np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]]), [1.0, 2.0], np.ones(3))):
        d.call("ExhaustiveL1Oracle", certify.ExhaustiveL1Oracle(a).solve, np.array(y), w)
    for a, b in ((np.eye(2), [1.0, 2.0]), (spark, np.zeros(4)),
                 (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), [1.0, 2.0, 1.0]),
                 (np.ones((15, 2)), np.ones(15)), (np.ones((2, 13)), np.ones(2))):
        d.call("brute_force_phaseless", certify.brute_force_phaseless,
               a, np.array(b), np.ones(a.shape[1]))


def main() -> None:
    d = Digest()
    for seed in (1, 2, 3):
        batch_shapes(d, np.random.default_rng(seed))
    random_small(d, np.random.default_rng(11))
    weighted_kernels(d, np.random.default_rng(12))
    phaseless_kernels(d, np.random.default_rng(13))
    edge_cases(d)
    print(d.report())


if __name__ == "__main__":
    main()
