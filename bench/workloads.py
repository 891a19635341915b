"""The three benchmark workloads: their inputs, operations and correctness gates.

An operation ("op") is one timed call into phasecs.  It returns one or more
``Outcome`` records; each record is one recovery (solver workloads) or one
exact check (``certify-batch``).  Gates run after the timed region and only
read what the op stored, so reference computations are never timed.

The program receives only generated inputs: a master seed for
``cli.run_sweep``, an argument vector for ``cli.main``, or matrices and
weights drawn here with numpy for the certifiers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

SNR_CAP = 300.0  # dB; same cap as the acceptance suite, keeps means finite
MAX_ITER = 5000  # the sweep and recover default
STATUSES = ("converged", "max-iter")


@dataclass
class Outcome:
    """One recovery or exact check, as the gates and metrics see it."""

    key: tuple                 # identifies the input, for determinism checks
    seconds: float = 0.0
    signature: tuple = ()      # values that must repeat bit-for-bit
    snr_db: float | None = None  # recoveries only, capped at SNR_CAP
    definite: bool = True      # converged / definite verdict
    iterations: int | None = None
    status: str | None = None
    enumerated: int = 0
    errors: list = field(default_factory=list)
    data: dict = field(default_factory=dict)  # inputs and results for the gates


def sub_seed(*keys: int) -> int:
    """31-bit seed derived from integer keys."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0] >> 1)


def array_digest(a) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


class ResultCapture:
    """Wraps ``phasecs.cli.solve_sdp`` to keep each ``SolverResult`` for the gates."""

    def __init__(self, cli):
        self.results = []
        original = cli.solve_sdp

        def capture(*args, **kwargs):
            res = original(*args, **kwargs)
            self.results.append(res)
            return res

        cli.solve_sdp = capture

    def take(self) -> list:
        out, self.results = self.results, []
        return out


def solver_errors(res, status: str, iterations: int, max_iter: int) -> list[str]:
    """Gates shared by both solver workloads."""
    errors = []
    if status not in STATUSES:
        errors.append(f"status {status!r}")
    if res is None:
        return errors + ["no solver result captured"]
    if res.status != status or res.iterations != iterations:
        errors.append("reported status/iterations differ from the solver result")
    if not np.isfinite(res.xhat).all():
        errors.append("xhat is not finite")
    if not 1 <= iterations <= max_iter:
        errors.append(f"iterations {iterations} outside [1, {max_iter}]")
    return errors


# ---------------------------------------------------------------------------
# sweep-slice
# ---------------------------------------------------------------------------


class SweepSlice:
    """``cli.run_sweep`` on a fig2-sparse slice, one grid point per op.

    A pass covers the 12 (omega, alpha, m) points with both sigmas under one
    master seed; each pass draws a fresh master seed so a run samples more
    instances.  Sigma stays inside each ``run_sweep`` call because the sigma
    pair shares signal and matrix.
    """

    name = "sweep-slice"
    whole_passes = False

    def __init__(self, seed: int, n: int = 32, k: int = 4, ms=(24, 36),
                 omegas=(0.0, 0.3, 1.0), alphas=(0.25, 0.75), sigmas=(0.0, 0.1),
                 max_iter: int = MAX_ITER):
        self.seed = seed
        self.n, self.k, self.max_iter = n, k, max_iter
        self.sigmas = tuple(sigmas)
        grid = [((alpha, omega, m), ai + oi + mi)
                for oi, omega in enumerate(omegas) for ai, alpha in enumerate(alphas)
                for mi, m in enumerate(ms)]
        self.points = [pt for pt, _ in grid]
        # half fraction of the grid (even index sum): every alpha, omega and m
        # still appears, so the traced pass sees max-iter trials at m=24
        self.trace_points = [pt for pt, parity in grid if parity % 2 == 0]

    def prepare(self, phasecs) -> None:
        self.cli = phasecs.cli
        self.capture = ResultCapture(self.cli)
        self.cli.run_sweep(self._config(*self.points[0], 1, max_iter=5))
        self.capture.take()

    def _config(self, alpha, omega, m, master, max_iter=None):
        return self.cli.SweepConfig(
            signal="sparse", n=self.n, k=self.k, rho=1.0, alphas=(alpha,),
            omegas=(omega,), ms=(m,), sigmas=self.sigmas, trials=1,
            master_seed=master, max_iter=max_iter or self.max_iter,
        )

    def pass_ops(self, p: int) -> list:
        master = sub_seed(self.seed, p)
        return [self._op(master, *point) for point in self.points]

    def trace_ops(self) -> list:
        master = sub_seed(self.seed, 0)
        return [self._op(master, *pt) for pt in self.trace_points]

    def _op(self, master, alpha, omega, m):
        def op():
            stamps = []
            cfg = self._config(alpha, omega, m, master)
            start = time.perf_counter()
            self.cli.run_sweep(cfg, progress=lambda rec: stamps.append(
                (rec, time.perf_counter())))
            results = self.capture.take()
            outs, last = [], start
            for i, (rec, t) in enumerate(stamps):
                res = results[i] if i < len(results) else None
                snr = min(rec.snr_db, SNR_CAP)
                outs.append(Outcome(
                    key=("sweep", master, alpha, omega, m, rec.sigma),
                    seconds=t - last,
                    signature=(rec.seed, rec.iterations, rec.status, float(snr).hex(),
                               array_digest(res.xhat) if res is not None else ""),
                    snr_db=snr, definite=rec.status == "converged",
                    iterations=rec.iterations, status=rec.status,
                    data={"res": res},
                ))
                last = t
            if len(stamps) != len(self.sigmas):
                outs.append(Outcome(key=("sweep", master, alpha, omega, m),
                                    errors=[f"{len(stamps)} trials reported"]))
            return outs
        return op

    def check(self, out: Outcome) -> list[str]:
        return solver_errors(out.data["res"], out.status, out.iterations, self.max_iter)


# ---------------------------------------------------------------------------
# recover-small
# ---------------------------------------------------------------------------


class RecoverSmall:
    """``phasecs recover`` through ``cli.main`` on both normal-solve paths.

    m=40 is the command's default (Woodbury path); m=80 is past the
    ``m > 4N`` switch, so the normal system goes through conjugate gradient.
    A pass runs, per omega, two m=40 trials and one m=80 trial, interleaved
    so a partial pass keeps the mix.  Two thirds of the ops sit on the fast
    path, so the median falls inside one path's times rather than between
    them, while m=80 still takes most of the time.  Each pass draws fresh
    trial seeds.
    """

    name = "recover-small"
    whole_passes = False

    def __init__(self, seed: int, n: int = 16, k: int = 2, mix=((40, 2), (80, 1)),
                 omegas=(0.3, 1.0), max_iter: int = MAX_ITER,
                 out_dir: Path | None = None):
        self.seed = seed
        self.n, self.k, self.omegas, self.max_iter = n, k, tuple(omegas), max_iter
        self.order = [(m, rep) for rep in range(max(c for _, c in mix))
                      for m, c in mix if rep < c]  # (m, rep), paths interleaved
        self.out_path = (out_dir or Path(".")) / f"recover-{seed}.txt"

    def prepare(self, phasecs) -> None:
        self.cli = phasecs.cli
        self.capture = ResultCapture(self.cli)
        self.out_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):  # warm-up stops at max-iter
            self.cli.main(self._argv(self.order[0][0], self.omegas[0], 1, max_iter=5))
        self.capture.take()

    def _argv(self, m, omega, trial_seed, max_iter=None):
        return [
            "recover", "--n", str(self.n), "--k", str(self.k), "--m", str(m),
            "--omega", repr(omega), "--alpha", "0.75", "--sigma", "0",
            "--seed", str(trial_seed), "--max-iter", str(max_iter or self.max_iter),
            "--out", str(self.out_path),
        ]

    def pass_ops(self, p: int) -> list:
        return [self._op(m, omega, sub_seed(self.seed, p, rep, oi, m))
                for oi, omega in enumerate(self.omegas) for m, rep in self.order]

    def trace_ops(self) -> list:
        return [op for p in range(3) for op in self.pass_ops(p)]

    def _op(self, m, omega, trial_seed):
        argv = self._argv(m, omega, trial_seed)

        def op():
            self.out_path.unlink(missing_ok=True)
            rc = self.cli.main(argv)
            report = dict(line.split(": ", 1)
                          for line in self.out_path.read_text().splitlines())
            results = self.capture.take()
            res = results[0] if len(results) == 1 else None
            status, iterations = report.get("status"), int(report.get("iterations", -1))
            snr = min(float(report.get("snr_db", "nan")), SNR_CAP)
            return [Outcome(
                key=("recover", m, omega, trial_seed),
                signature=(rc, iterations, status, report.get("snr_db"),
                           array_digest(res.xhat) if res is not None else ""),
                snr_db=snr, definite=status == "converged",
                iterations=iterations, status=status,
                data={"res": res, "rc": rc},
            )]
        return op

    def check(self, out: Outcome) -> list[str]:
        errors = solver_errors(out.data["res"], out.status, out.iterations,
                               self.max_iter)
        expected_rc = 0 if out.status == "converged" else 2
        if out.data["rc"] != expected_rc:
            errors.append(f"exit code {out.data['rc']} for status {out.status!r}")
        if not math.isfinite(out.snr_db) and out.status in STATUSES:
            errors.append("snr_db is not a number")
        return errors


# ---------------------------------------------------------------------------
# certify-batch
# ---------------------------------------------------------------------------


def _gaussian(rng, m, n):
    return rng.standard_normal((m, n)) / math.sqrt(m)


def _planted(rng, n, support):
    x = np.zeros(n)
    k = len(support)
    x[list(support)] = rng.standard_normal(k) + np.copysign(0.5, rng.standard_normal(k))
    return x


class CertifyBatch:
    """A fixed batch of exact checks; every pass repeats the same inputs.

    Ops: one weighted-NSP check per 4x6 matrix (all k, omega, with exhaustive
    l1-oracle ground truth), ``rip_constant`` on 12x12 at k=6,
    ``srip_bounds`` on 10x8 at k=2, exact ``phaseless_nsp_check`` on 12x7 at
    k=7 and ``brute_force_phaseless`` on 6x12 with a planted 2-sparse signal.
    """

    name = "certify-batch"
    whole_passes = True

    def __init__(self, seed: int, nsp_matrices: int = 50, nsp_shape=(4, 6),
                 rip_shape=(12, 12), rip_k: int = 6, srip_shape=(10, 8),
                 srip_k: int = 2, pnsp_shape=(12, 7), pnsp_k: int = 7,
                 bfp_shape=(6, 12), bfp_k: int = 2):
        rng = np.random.default_rng(sub_seed(seed, 3))
        m, n = nsp_shape
        self.nsp = []
        for _ in range(nsp_matrices):
            a = _gaussian(rng, m, n)
            cases = []
            for k in (1, 2):
                for omega in (0.0, 0.5, 1.0):
                    w = np.ones(n)
                    w[rng.choice(n, size=k, replace=False)] = omega
                    planted = [_planted(rng, n, t) for t in combinations(range(n), k)
                               for _ in range(5)]
                    cases.append((k, omega, w, planted))
            self.nsp.append((a, cases))
        self.rip = (_gaussian(rng, *rip_shape), rip_k)
        self.srip = (_gaussian(rng, *srip_shape), srip_k)
        self.pnsp = (_gaussian(rng, *pnsp_shape), pnsp_k)
        a = _gaussian(rng, *bfp_shape)
        w = np.ones(bfp_shape[1])
        x = _planted(rng, bfp_shape[1], sorted(rng.choice(bfp_shape[1], bfp_k,
                                                          replace=False)))
        w[np.flatnonzero(x)[:1]] = 0.5
        w[rng.choice(np.flatnonzero(x == 0), 1)] = 0.5
        self.bfp = (a, x, w)
        self._checked: dict = {}

    def prepare(self, phasecs) -> None:
        self.certify = phasecs.certify
        self.certify.weighted_nsp_check(np.array([[1.0, 1.0, 0.0]]), 1, np.ones(3))

    def pass_ops(self, p: int) -> list:
        ops = [self._nsp_op(i) for i in range(len(self.nsp))]
        return ops + [self._rip_op(), self._srip_op(), self._pnsp_op(), self._bfp_op()]

    def trace_ops(self) -> list:
        return self.pass_ops(0)

    # -- ops -----------------------------------------------------------------

    def _nsp_op(self, i):
        a, cases = self.nsp[i]

        def op():
            c = self.certify
            oracle = c.ExhaustiveL1Oracle(a)
            verdicts, recoveries = [], []
            for k, omega, w, planted in cases:
                v = c.weighted_nsp_check(a, k, w)
                verdicts.append(v)
                if v.status == "holds-exact":
                    recoveries.append([(x, oracle.solve(a @ x, w)) for x in planted])
                elif v.witness is not None:
                    h, t = v.witness.kernel_vector, v.witness.support
                    xw = np.zeros(a.shape[1])
                    xw[list(t)] = h[list(t)]
                    recoveries.append([(xw, oracle.solve(a @ xw, w))])
                else:
                    recoveries.append([])
            return [Outcome(
                key=("nsp", i),
                signature=tuple((v.status, float(v.margin).hex(), v.enumerated)
                                for v in verdicts),
                definite=all(v.status != "indeterminate" for v in verdicts),
                enumerated=sum(v.enumerated for v in verdicts),
                data={"verdicts": verdicts, "recoveries": recoveries},
            )]
        return op

    def _rip_op(self):
        a, k = self.rip

        def op():
            rep = self.certify.rip_constant(a, k)
            return [Outcome(key=("rip",), signature=(float(rep.delta).hex(),
                                                     rep.delta_support),
                            enumerated=rep.enumerated, data={"rep": rep})]
        return op

    def _srip_op(self):
        a, k = self.srip

        def op():
            rep = self.certify.srip_bounds(a, k)
            return [Outcome(key=("srip",),
                            signature=(float(rep.theta_minus).hex(),
                                       float(rep.theta_plus).hex()),
                            enumerated=rep.enumerated, data={"rep": rep})]
        return op

    def _pnsp_op(self):
        a, k = self.pnsp

        def op():
            v = self.certify.phaseless_nsp_check(a, k, np.ones(a.shape[1]))
            return [Outcome(key=("pnsp",),
                            signature=(v.status, float(v.margin).hex(), v.enumerated),
                            definite=v.status != "indeterminate",
                            enumerated=v.enumerated, data={"verdict": v})]
        return op

    def _bfp_op(self):
        a, x, w = self.bfp

        def op():
            res = self.certify.brute_force_phaseless(a, np.abs(a @ x), w)
            return [Outcome(key=("bfp",),
                            signature=(float(res.value).hex(), len(res.minimizers))
                            if res.value is not None else ("infeasible",),
                            data={"res": res})]
        return op

    # -- gates ---------------------------------------------------------------

    def check(self, out: Outcome) -> list[str]:
        # every pass repeats the inputs, so each input's reference is computed
        # once; the determinism check makes sure the repeats agree with it
        if out.key not in self._checked:
            self._checked[out.key] = getattr(self, "_check_" + out.key[0])(out)
        return self._checked[out.key]

    def _check_nsp(self, out):
        errors = []
        i = out.key[1]
        a, cases = self.nsp[i]
        for (k, omega, w, _), v, rec in zip(cases, out.data["verdicts"],
                                            out.data["recoveries"]):
            where = f"matrix {i}, k={k}, omega={omega}"
            if v.status == "holds-exact":
                bad = sum(not self.certify.recovers_uniquely(r, x) for x, r in rec)
                if bad:
                    errors.append(f"{where}: NSP holds but {bad} planted signals "
                                  "are not uniquely recovered")
            elif v.status == "fails":
                if not rec or self.certify.recovers_uniquely(rec[0][1], rec[0][0]):
                    errors.append(f"{where}: NSP fails but the witness is recovered")
        return errors

    def _check_rip(self, out):
        a, k = self.rip
        rep = out.data["rep"]
        devs = {t: float(np.abs(np.linalg.eigvalsh(a[:, t].T @ a[:, t]) - 1.0).max())
                for t in combinations(range(a.shape[1]), k)}
        ref = max(devs.values())
        errors = []
        if abs(rep.delta - ref) > 1e-10:
            errors.append(f"rip delta {rep.delta!r} != eigvalsh {ref!r}")
        if abs(devs[tuple(rep.delta_support)] - ref) > 1e-10:
            errors.append("rip support does not attain delta")
        if rep.enumerated != len(devs):
            errors.append("rip enumerated count is wrong")
        return errors

    def _check_srip(self, out):
        a, k = self.srip
        rep = out.data["rep"]
        m, n = a.shape
        supports = list(combinations(range(n), k))
        upper = max(float(np.linalg.eigvalsh(a[:, t].T @ a[:, t])[-1]) for t in supports)
        lower = math.inf
        for rows in combinations(range(m), (m + 1) // 2):
            sub = a[list(rows), :]
            for t in supports:
                lower = min(lower, float(np.linalg.eigvalsh(sub[:, t].T @ sub[:, t])[0]))
        errors = []
        if abs(rep.theta_plus - upper) > 1e-10 or abs(rep.theta_minus - lower) > 1e-10:
            errors.append(f"srip ({rep.theta_minus!r}, {rep.theta_plus!r}) != "
                          f"eigvalsh ({lower!r}, {upper!r})")
        return errors

    def _check_pnsp(self, out):
        a, k = self.pnsp
        v = out.data["verdict"]
        n = a.shape[1]
        w = np.ones(n)
        c = self.certify
        if v.status == "fails":
            xw = v.witness.u + v.witness.v
            if c.phaseless_slack(v.witness.u, v.witness.v, w) > 1e-9:
                return ["pnsp witness has positive slack"]
            res = c.brute_force_phaseless(a, np.abs(a @ xw), w)
            if c.recovers_uniquely(res, xw, up_to_sign=True):
                return ["pnsp fails but the phaseless oracle recovers the witness"]
        elif v.status == "holds-exact":
            x = _planted(np.random.default_rng(0), n, range(min(k, n)))
            res = c.brute_force_phaseless(a, np.abs(a @ x), w)
            if not c.recovers_uniquely(res, x, up_to_sign=True):
                return ["pnsp holds but a planted signal is not recovered"]
        return []

    def _check_bfp(self, out):
        a, x, w = self.bfp
        res = out.data["res"]
        b = np.abs(a @ x)
        bound = float(np.sum(w * np.abs(x)))
        if res.value is None or not res.minimizers:
            return ["phaseless oracle found no minimizer"]
        errors = []
        for z in res.minimizers:
            if np.linalg.norm(np.abs(a @ z) - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
                errors.append("oracle minimizer violates |Az| = b")
            value = float(np.sum(w * np.abs(z)))
            if value > bound + 1e-9 * (1.0 + bound):
                errors.append("oracle minimizer costs more than the planted signal")
            if abs(value - res.value) > 1e-9 * (1.0 + abs(res.value)):
                errors.append("oracle value disagrees with its minimizer")
        return errors


WORKLOADS = {cls.name: cls for cls in (SweepSlice, RecoverSmall, CertifyBatch)}
