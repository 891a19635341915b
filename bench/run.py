#!/usr/bin/env python3
"""phasecs benchmark: seeded workloads, correctness gates, end-to-end and
per-module metrics.

    python3 bench/run.py --workload recover-small --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One caller drives phasecs in a closed loop (the
next op starts when the last returns), single process, with BLAS pinned to
one thread.  ``--trace 0`` runs ops until ``--seconds`` have elapsed and
reports end-to-end metrics; ``--trace 1`` runs a fixed op set once without
and once with span tracing and reports per-module metrics.  The last line
of standard output is one JSON object; lines before it are a readable
report.  See NOTES.md for the workloads and the metrics.
"""

import os

# must precede the first numpy import, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = BENCH_DIR / ".scratch"
SETUP_REPEATS = 5
EXIT_NO_PROGRAM = 2


def load_phasecs():
    """Import phasecs from this checkout's ``src``; None if it is missing."""
    if not (SRC / "phasecs" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("phasecs")
    for mod in ("cli", "model", "solver", "linalg", "certify"):
        importlib.import_module(f"phasecs.{mod}")
    if Path(pkg.__file__).resolve().parent != (SRC / "phasecs").resolve():
        raise ImportError(f"phasecs imported from {pkg.__file__}, not {SRC}")
    return pkg


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phasecs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    """Commit of the checkout read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        blas = "unknown"
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(), "src_digest": source_digest(), "seed": seed,
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def run_op(op, tracer=None):
    """Run one op; returns (outcomes, wall seconds).  Exceptions become a
    failed outcome so the run goes on."""
    from workloads import Outcome

    if tracer is not None:
        op = tracer.wrap("bench.op", op)
    start = time.perf_counter()
    try:
        outs = op()
    except Exception:
        traceback.print_exc()
        outs = [Outcome(key=("exception", id(op)), errors=["exception in op"])]
    wall = time.perf_counter() - start
    if len(outs) == 1:
        outs[0].seconds = wall
    return outs, wall


def run_window(workload, seconds: float):
    """Closed loop over passes until ``seconds`` have elapsed.

    Workloads with ``whole_passes`` stop only at a pass boundary, because
    their ops differ in cost by orders of magnitude and a cut inside a pass
    would change the mix.  Returns [(op, outcomes, wall)].
    """
    done = []
    start = time.perf_counter()
    p = 0
    while True:
        for op in workload.pass_ops(p):
            outs, wall = run_op(op)
            done.append((op, outs, wall))
            if not workload.whole_passes and time.perf_counter() - start >= seconds:
                return done
        p += 1
        if time.perf_counter() - start >= seconds:
            return done


class Determinism:
    """Signatures per input key, within the run and across runs.

    Earlier runs at the same workload, seed and program source are read
    from and merged into a file under the benchmark's scratch directory.
    Keys and signatures are compared as their JSON text.
    """

    def __init__(self, path: Path):
        self.path = path
        self.seen: dict[str, str] = {}
        self.previous: dict[str, str] = {}
        if path.is_file():
            try:
                self.previous = dict(json.loads(path.read_text()))
            except ValueError:
                self.previous = {}

    def record(self, out) -> str | None:
        key, sig = json.dumps(out.key), json.dumps(out.signature)
        for where, table in (("this run", self.seen), ("an earlier run", self.previous)):
            if table.get(key, sig) != sig:
                return f"{key}: result differs from {where}: {table[key]} vs {sig}"
        self.seen.setdefault(key, sig)
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**self.previous, **self.seen}))
        os.replace(tmp, self.path)


def dump_ops(path: Path, done) -> None:
    """Per-op record of a run, for looking into a metric after the fact."""
    rows = [{"key": out.key, "seconds": out.seconds, "status": out.status,
             "iterations": out.iterations, "snr_db": out.snr_db,
             "errors": out.errors}
            for _, outs, _ in done for out in outs]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, default=str))


def gate(workload, done, determinism):
    """Correctness gates and determinism over every outcome; returns
    (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    for _, outs, _ in done:
        for out in outs:
            attempted += 1
            errors = list(out.errors)
            if not errors:
                errors = list(workload.check(out))
                mismatch = determinism.record(out)
                if mismatch:
                    errors.append(mismatch)
            if errors:
                failed += 1
                messages.extend(errors)
    return attempted, failed, messages


def recheck(done):
    """Re-run the cheapest op of the window so every run compares a repeat."""
    op, _, _ = min(done, key=lambda item: item[2])
    return [(op, *run_op(op))]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples above it:
    (value, percentile, sample count)."""
    v = sorted(values)
    n = len(v)
    r = max(n - 11, 0)
    return v[r], 100.0 * r / max(n - 1, 1), n


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Wall time of a fresh interpreter that imports phasecs, builds the
    workload's inputs and warms up, repeated ``SETUP_REPEATS`` times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def end_to_end(workload, done, setup_times):
    """Bounded end-to-end metrics, plus report lines for figures that are
    printed but not bounded."""
    outs = [o for _, os_, _ in done for o in os_ if not o.errors]
    seconds = [o.seconds for o in outs]
    total = sum(wall for _, _, wall in done)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ops_per_s": (len(outs) / total if total > 0 else 0.0, "1/s"),
        "converged_frac": (sum(o.definite for o in outs) / len(outs) if outs else 0.0,
                           "frac"),
    }
    notes = {"ops_per_s": f"{len(outs)} ops in {total:.3f} s of op time",
             "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times)}
    # Printed, not bounded (NOTES.md has the figures): single-op latency
    # follows the host's state more than window throughput does, and SNR
    # has no value on certify-batch.
    report = []
    if seconds:
        tail_s, tail_pct, n = tail(seconds)
        report += [f"{workload.name} op_p50_s = {statistics.median(seconds):.6g} s  "
                   f"(median of {n} ops)",
                   f"{workload.name} op_tail_s = {tail_s:.6g} s  "
                   f"(p{tail_pct:.1f} of {n} ops, 10 or more above it)"]
    snr = [o.snr_db for o in outs if o.snr_db is not None and math.isfinite(o.snr_db)]
    if snr:
        report.append(f"{workload.name} snr_db_mean = {statistics.fmean(snr):.6g} dB  "
                      f"(capped at 300, {len(snr)} recoveries)")
    return metrics, notes, report


PER_MODULE_CALLS = ("solver.forward", "solver.adjoint", "solver.solve_sdp",
                    "solver.rank1_extract", "linalg.eig_sym", "linalg.kernel_basis",
                    "linalg.solve_spd", "certify.oracle_solve", "cli.run_trial")
PER_MODULE_SELF = ("solver.forward", "solver.adjoint", "solver.solve_sdp",
                   "solver.rank1_extract", "solver.weighted_shrink",
                   "solver.ball_project", "linalg.eig_sym", "linalg.kernel_basis",
                   "linalg.solve_spd", "certify.oracle_solve", "cli.run_trial",
                   "cli.main")
PER_MODULE_TOTAL = ("solver.solve_sdp", "certify.rip_constant", "certify.srip_bounds",
                    "certify.weighted_nsp_check", "certify.phaseless_nsp_check",
                    "certify.brute_force_phaseless", "certify.oracle_build",
                    "cli.run_sweep")


def per_layer(summary, traced_outs, untraced_s, traced_s):
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    outs = [o for o in traced_outs if o.iterations is not None]
    iters = sorted(o.iterations for o in outs)
    total_iters = sum(iters)
    metrics = {}
    for name in PER_MODULE_CALLS:
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in PER_MODULE_SELF:
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in PER_MODULE_TOTAL:
        metrics[f"{name}.s"] = (get(name, "s"), "s")
    for name in ("solver.forward", "solver.adjoint"):
        metrics[f"{name}.calls_per_iter"] = (
            get(name, "calls") / total_iters if total_iters else 0.0, "calls/iter")
    metrics["solver.iterations_total"] = (total_iters, "count")
    metrics["solver.iterations_p50"] = (
        statistics.median_low(iters) if iters else 0, "count")
    metrics["solver.iterations_p90"] = (
        iters[math.ceil(0.9 * len(iters)) - 1] if iters else 0, "count")
    metrics["solver.max_iter_count"] = (sum(o.status == "max-iter" for o in outs),
                                        "count")
    snr = [o.snr_db for o in outs if o.snr_db is not None and math.isfinite(o.snr_db)]
    metrics["solver.snr_db_mean"] = (statistics.fmean(snr) if snr else 0.0, "dB")
    metrics["solver.s_per_iter"] = (
        (get("solver.solve_sdp", "s") - get("solver.rank1_extract", "s")) / total_iters
        if total_iters else 0.0, "s")
    metrics["certify.enumerated"] = (sum(o.enumerated for o in traced_outs), "count")
    model = [v for k, v in summary.items() if k.startswith("model.")]
    metrics["model.calls"] = (sum(v["calls"] for v in model), "count")
    metrics["model.self_s"] = (sum(v["self_s"] for v in model), "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")
    program_self = sum(v["self_s"] for k, v in summary.items()
                       if not k.startswith("bench."))
    metrics["trace.accounted_frac"] = (program_self / traced_s, "frac")
    return metrics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS, RecoverSmall

    cls = WORKLOADS[name]
    if cls is RecoverSmall:
        return cls(seed, out_dir=SCRATCH)
    return cls(seed)


def run_untraced(workload, args, determinism):
    done = run_window(workload, args.seconds)
    window = list(done)
    done += recheck(window)
    attempted, failed, messages = gate(workload, done, determinism)
    dump_ops(SCRATCH / f"ops-{workload.name}-{args.seed}.json", done)
    setup_times = measure_setup(args.workload, args.seed)
    metrics, notes, report = end_to_end(workload, window, setup_times)
    return attempted, failed, messages, metrics, notes, report


def run_traced(workload, phasecs, args, determinism):
    from tracing import Tracer

    def one_pass(tracer=None):
        start = time.perf_counter()
        done = [(op, *run_op(op, tracer)) for op in workload.trace_ops()]
        return done, time.perf_counter() - start

    plain, untraced_s = one_pass()
    tracer = Tracer()
    tracer.install(phasecs)
    try:
        traced, traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    attempted, failed, messages = gate(workload, plain + traced, determinism)
    summary = tracer.summary()
    tracer.save(SCRATCH / f"spans-{workload.name}-{args.seed}.npz")
    metrics = per_layer(summary, [o for _, outs, _ in traced for o in outs],
                        untraced_s, traced_s)
    notes = {"trace.overhead_frac": f"untraced {untraced_s:.3f} s, "
                                    f"traced {traced_s:.3f} s"}
    return attempted, failed, messages, metrics, notes, []


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    phasecs = load_phasecs()
    if phasecs is None:
        print(f"error: no phasecs sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    workload = make_workload(args.workload, args.seed)
    workload.prepare(phasecs)
    if args.setup_only:
        return 0

    env = environment(args.seed)
    determinism = Determinism(
        SCRATCH / "determinism" / f"{args.workload}-{args.seed}-{env['src_digest']}.json")
    if args.trace:
        attempted, failed, messages, metrics, notes, report = run_traced(
            workload, phasecs, args, determinism)
    else:
        attempted, failed, messages, metrics, notes, report = run_untraced(
            workload, args, determinism)
    determinism.save()

    print("env " + json.dumps(env))
    for msg in messages:
        print(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    for line in report:
        print(line)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
