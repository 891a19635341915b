"""Command-line front end: constants sweeps, recoveries, experiment grids,
certifier and oracle runs.

Exit codes: 0 success, 1 usage error, 2 solver or numerical failure,
3 enumeration cap refusal.  All randomness is keyed off explicit seeds;
sweep CSV content is byte-stable for a fixed config and master seed (the
trailing wall_ms column is excluded from that contract).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model, theory
from .certify import (
    CapExceededError,
    ExhaustiveL1Oracle,
    brute_force_phaseless,
    phaseless_nsp_check,
    recovers_uniquely,
    rip_constant,
    srip_bounds,
    weighted_nsp_check,
)
from .plots import line_chart
from .solver import MAX_WEIGHT, LiftedOperator, SolverConfig, SolverResult, solve_sdp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CAP = 3

SWEEP_SCHEMA = "phasecs.sweep.v7"
SWEEP_COLUMNS = [
    "signal_kind", "N", "k", "theta", "rho", "alpha", "omega", "m", "sigma",
    "trial", "seed", "snr_db", "iterations", "status", "wall_ms",
]


class UsageError(Exception):
    pass


def _check_nonnegative(name: str, values) -> None:
    """Refuse a negative or non-finite prior weight or noise level ``name``."""
    for value in values:
        if not (math.isfinite(value) and value >= 0.0):
            raise UsageError(f"{name} must be finite and nonnegative, got {value:g}")


def _check_max_weight(name: str, values) -> None:
    """Refuse a prior weight ``name`` above the solver's ``MAX_WEIGHT``."""
    for value in values:
        if value > MAX_WEIGHT:
            raise UsageError(f"{name} must be at most {MAX_WEIGHT:g}, got {value:g}")


def _check_hashable(name: str, values) -> None:
    """Refuse a grid value ``name`` that the per-trial seed hash cannot quantize."""
    for value in values:
        try:
            _quantized(value)
        except OverflowError:
            raise UsageError(f"{name} is too large for the seed hash, got {value:g}") from None


@dataclass(frozen=True)
class SweepConfig:
    """Grid of experiment settings; one trial runs per grid point and trial index."""

    signal: str = "sparse"  # sparse | compressible
    n: int = 32
    k: int = 4
    theta: float | None = None
    rho: float = 1.0
    alphas: tuple[float, ...] = (0.25, 0.5, 0.75)
    omegas: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 1.0)
    # the m grid brackets the measured recovery transition at N=32, k=4;
    # beyond ~40 every weight choice saturates at solver precision
    ms: tuple[int, ...] = (16, 20, 24, 28, 32, 36)
    sigmas: tuple[float, ...] = (0.0, 0.1)
    trials: int = 10
    master_seed: int = 1
    max_iter: int = SolverConfig.max_iter

    def validate(self) -> None:
        if self.signal not in ("sparse", "compressible"):
            raise UsageError(f"unknown signal kind {self.signal!r}")
        if self.signal == "compressible" and self.theta is None:
            raise UsageError("compressible sweeps need a theta value")
        if self.theta is not None:
            if not math.isfinite(self.theta):
                raise UsageError(f"theta must be finite, got {self.theta:g}")
            if self.signal == "compressible" and self.theta <= 0.0:
                raise UsageError(f"theta must be positive, got {self.theta:g}")
            _check_hashable("theta", [self.theta])
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if not (self.alphas and self.omegas and self.ms and self.sigmas):
            raise UsageError("grid lists must be nonempty")
        if not 1 <= self.k <= self.n or min(self.ms) < 1:
            raise UsageError("need 1 <= k <= N and every m >= 1")
        _check_nonnegative("omegas", self.omegas)
        _check_hashable("omegas", self.omegas)
        _check_max_weight("omegas", self.omegas)
        _check_nonnegative("sigmas", self.sigmas)
        _check_nonnegative("rho", [self.rho])
        for alpha in self.alphas:
            try:
                model.support_estimate_sizes(self.n, self.k, self.rho, alpha)
            except ValueError as exc:
                raise UsageError(f"alpha={alpha}: {exc}") from exc


@dataclass(frozen=True)
class SweepRecord:
    signal_kind: str
    n: int
    k: int
    theta: float | None
    rho: float
    alpha: float
    omega: float
    m: int
    sigma: float
    trial: int
    seed: int
    snr_db: float
    iterations: int
    status: str
    wall_ms: int

    def sort_key(self):
        return (
            self.signal_kind, self.n, self.k, self.theta if self.theta is not None else -1.0,
            self.rho, self.alpha, self.omega, self.m, self.sigma, self.trial,
        )


def preset_sweep(name: str) -> SweepConfig:
    if name == "fig2-sparse":
        return SweepConfig(signal="sparse")
    if name == "fig3-compressible":
        return SweepConfig(signal="compressible", theta=4.5)
    raise UsageError(f"unknown sweep preset {name!r}")


_INT_KEYS = {"n", "k", "trials", "seed", "max_iter"}
_FLOAT_KEYS = {"theta", "rho"}
_LIST_KEYS = {"alphas", "omegas", "ms", "sigmas"}


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat ``key = value`` sweep config format.

    Lists are comma separated; ``#`` starts a comment.  Keys: signal, n, k,
    theta, rho, alphas, omegas, ms, sigmas, trials, seed, max_iter.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "signal":
            values["signal"] = value
        elif key in _INT_KEYS:
            values["master_seed" if key == "seed" else key] = int(value)
        elif key in _FLOAT_KEYS:
            values[key] = float(value)
        elif key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "ms":
                values[key] = tuple(int(v) for v in items)
            else:
                values[key] = tuple(float(v) for v in items)
        else:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
    try:
        cfg = SweepConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
    cfg.validate()
    return cfg


def solve_trial(instance: model.PhaselessInstance, estimate: model.SupportEstimate,
                max_iter: int = SolverConfig.max_iter) -> tuple[SolverResult, float]:
    """Solve a drawn trial at its noise level ``epsilon``; the SNR is NaN if the solve failed."""
    result = solve_sdp(LiftedOperator(instance.A), instance.b, estimate.weights(instance.x.size),
                       SolverConfig(max_iter=max_iter, epsilon=instance.epsilon))
    snr = model.snr_db(instance.x, result.xhat) if result.status != "failed" else math.nan
    return result, snr


def _quantized(value: float) -> int:
    return int(round(value * 1_000_000_000))


def run_trial(cfg: SweepConfig, alpha: float, omega: float, m: int, sigma: float,
              trial: int) -> SweepRecord:
    """One seeded end-to-end recovery at a grid point.

    The per-trial seed hashes the master seed, the grid point and the trial
    index; sigma is deliberately left out of the hash so noisy and
    noise-free runs of the same point share the signal, prior and matrix.
    """
    kind_id = 0 if cfg.signal == "sparse" else 1
    key = (
        kind_id, cfg.n, cfg.k, _quantized(cfg.theta or 0.0), _quantized(cfg.rho),
        _quantized(alpha), _quantized(omega), m, trial,
    )
    seed = model.derived_seed(cfg.master_seed, *key)
    start = time.perf_counter()
    instance, estimate = model.draw_trial(
        np.random.default_rng(seed), cfg.signal, cfg.n, cfg.k, m, cfg.rho, alpha, omega,
        sigma, cfg.theta,
    )
    result, snr = solve_trial(instance, estimate, cfg.max_iter)
    wall_ms = int(round((time.perf_counter() - start) * 1000))
    return SweepRecord(
        signal_kind=cfg.signal, n=cfg.n, k=cfg.k, theta=cfg.theta, rho=cfg.rho,
        alpha=alpha, omega=omega, m=m, sigma=sigma, trial=trial, seed=seed,
        snr_db=snr, iterations=result.iterations, status=result.status,
        wall_ms=wall_ms,
    )


def run_sweep(cfg: SweepConfig, progress=None) -> list[SweepRecord]:
    """Run every (grid point, trial) of the config; rows come back sorted by key."""
    cfg.validate()
    records = []
    for alpha in cfg.alphas:
        for omega in cfg.omegas:
            for m in cfg.ms:
                for sigma in cfg.sigmas:
                    for trial in range(cfg.trials):
                        rec = run_trial(cfg, alpha, omega, m, sigma, trial)
                        records.append(rec)
                        if progress:
                            progress(rec)
    records.sort(key=SweepRecord.sort_key)
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".10g")
    return str(value)


def sweep_csv_lines(records: list[SweepRecord]) -> list[str]:
    lines = [f"# schema={SWEEP_SCHEMA}", ",".join(SWEEP_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (
            r.signal_kind, r.n, r.k, r.theta, r.rho, r.alpha, r.omega, r.m,
            r.sigma, r.trial, r.seed, r.snr_db, r.iterations, r.status, r.wall_ms,
        )))
    return lines


def sweep_summary_lines(records: list[SweepRecord]) -> list[str]:
    """Status counts and nearest-rank p50/p90 of iterations and wall time."""
    counts = {status: 0 for status in ("converged", "max-iter", "failed")}
    for r in records:
        counts[r.status] += 1
    lines = [f"trials: {len(records)} "
             + " ".join(f"{status}={count}" for status, count in counts.items())]
    for column in ("iterations", "wall_ms"):
        values = sorted(getattr(r, column) for r in records)
        p50, p90 = (values[max(math.ceil(q * len(values)) - 1, 0)] for q in (0.5, 0.9))
        lines.append(f"{column}: p50={p50} p90={p90}")
    return lines


def read_sweep_csv(text: str) -> list[dict]:
    """Parse and validate sweep CSV text back into typed row dicts."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError("missing schema header comment")
    if lines[0] != f"# schema={SWEEP_SCHEMA}":
        raise ValueError(f"unsupported schema line {lines[0]!r}")
    if len(lines) < 2 or lines[1].split(",") != SWEEP_COLUMNS:
        raise ValueError("unexpected CSV header")
    rows = []
    for ln in lines[2:]:
        parts = ln.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ValueError(f"malformed row: {ln!r}")
        row = dict(zip(SWEEP_COLUMNS, parts))
        row["N"] = int(row["N"])
        row["k"] = int(row["k"])
        row["theta"] = float(row["theta"]) if row["theta"] else None
        for key in ("rho", "alpha", "omega", "sigma", "snr_db"):
            row[key] = float(row[key])
        for key in ("m", "trial", "seed", "iterations", "wall_ms"):
            row[key] = int(row[key])
        if row["status"] not in ("converged", "max-iter", "failed"):
            raise ValueError(f"unknown status {row['status']!r}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        items = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers") from exc
    if not items:
        raise UsageError(f"{flag}: empty list")
    return items


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def read_matrix_file(path: str) -> np.ndarray:
    """Plain-text matrix: first line ``m N``, then m rows of N decimals."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise UsageError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise UsageError(f"{path}: first line must be 'm N'")
    m, n = int(head[0]), int(head[1])
    if len(lines) != m + 1:
        raise UsageError(f"{path}: expected {m} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        vals = [float(v) for v in ln.split()]
        if len(vals) != n:
            raise UsageError(f"{path}: row with {len(vals)} entries, expected {n}")
        rows.append(vals)
    return np.array(rows)


def _load_matrix(args) -> np.ndarray:
    sources = [args.matrix is not None, args.gaussian is not None, args.identity is not None]
    if sum(sources) != 1:
        raise UsageError("choose exactly one of --matrix/--gaussian/--identity")
    if args.matrix is not None:
        return read_matrix_file(args.matrix)
    if args.gaussian is not None:
        m, n = args.gaussian
        rng = np.random.default_rng(args.seed)
        return model.gen_gaussian_matrix(rng, m, n)
    return np.eye(args.identity)


def _weights_from_args(args, n: int) -> np.ndarray:
    w = np.ones(n)
    if args.estimate:
        idx = [int(v) for v in args.estimate.split(",") if v.strip()]
        if any(i < 0 or i >= n for i in idx):
            raise UsageError("--estimate index out of range")
        w[idx] = args.omega
    return w


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    alphas = _parse_float_list(args.alphas, "--alphas")
    omegas = _parse_float_list(args.omegas, "--omegas")
    rows = theory.constants_table(
        args.rho, args.theta_minus, args.theta_plus, args.t, args.delta,
        alphas, omegas,
    )
    lines = ["# schema=phasecs.constants.v1", "alpha,omega,t_omega,C1,C2,applicable"]
    for r in rows:
        lines.append(",".join([
            _fmt(r.alpha), _fmt(r.omega), _fmt(r.t_omega), _fmt(r.c1), _fmt(r.c2),
            "1" if r.applicable else "0",
        ]))
    _write_text(args.out, "\n".join(lines))
    if args.plot:
        if args.out is None:
            raise UsageError("--plot needs --out to derive the SVG paths")
        stem = Path(args.out).with_suffix("")
        panels = [
            ("t_omega", lambda r: r.t_omega, "order factor threshold"),
            ("c1", lambda r: r.c1, "noise amplification constant"),
            ("c2", lambda r: r.c2, "tail amplification constant"),
        ]
        for name, pick, ylabel in panels:
            series = []
            for alpha in alphas:
                pts = [(r.omega, pick(r)) for r in rows if r.alpha == alpha]
                series.append((f"alpha={alpha:g}", [p[0] for p in pts], [p[1] for p in pts]))
            svg = line_chart(series, f"{ylabel} vs omega", "omega", name)
            Path(f"{stem}_{name}.svg").write_text(svg)
    return EXIT_OK


def cmd_recover(args) -> int:
    _check_nonnegative("--omega", [args.omega])
    _check_max_weight("--omega", [args.omega])
    _check_nonnegative("--sigma", [args.sigma])
    instance, estimate = model.draw_trial(
        np.random.default_rng(args.seed), "sparse", args.n, args.k, args.m, args.rho,
        args.alpha, args.omega, args.sigma,
    )
    result, snr = solve_trial(instance, estimate, args.max_iter)
    stop_reason = result.diagnostics["stop_reason"]
    report = [
        f"n: {args.n}", f"k: {args.k}", f"m: {args.m}",
        f"omega: {args.omega:g}", f"alpha: {args.alpha:g}", f"rho: {args.rho:g}",
        f"sigma: {args.sigma:g}", f"seed: {args.seed}",
        f"epsilon: {instance.epsilon:.6g}",
        f"snr_db: {_fmt(snr)}",
        f"iterations: {result.iterations}",
        f"status: {result.status}",
        f"stop_reason: {stop_reason}",
        f"feasibility: {result.diagnostics.get('feasibility', math.nan):.3e}",
    ]
    # every report line is one "key: value" line, so the message is joined
    error = " ".join(str(result.diagnostics.get("error", "")).split())
    if error:
        report.append(f"error: {error}")
    _write_text(args.out, "\n".join(report))
    if result.status != "converged":
        detail = f": {error}" if error else ""
        print(f"solver did not converge (status={result.status}, stop_reason={stop_reason})"
              f"{detail}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_sweep(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise UsageError("provide exactly one of --preset or --config")
    if args.preset is not None:
        cfg = preset_sweep(args.preset)
    else:
        cfg = parse_sweep_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    progress = None
    if args.verbose:
        def progress(rec: SweepRecord) -> None:
            print(
                f"alpha={rec.alpha:g} omega={rec.omega:g} m={rec.m} sigma={rec.sigma:g} "
                f"trial={rec.trial} snr={_fmt(rec.snr_db)} [{rec.status}]",
                file=sys.stderr,
            )
    records = run_sweep(cfg, progress=progress)
    _write_text(args.out, "\n".join(sweep_csv_lines(records)))
    if args.verbose:
        print("\n".join(sweep_summary_lines(records)), file=sys.stderr)
    if args.plot:
        if args.out is None:
            raise UsageError("--plot needs --out to derive the SVG paths")
        stem = Path(args.out).with_suffix("")
        for alpha in cfg.alphas:
            for sigma in cfg.sigmas:
                series = []
                for omega in cfg.omegas:
                    xs, ys = [], []
                    for m in cfg.ms:
                        vals = [r.snr_db for r in records
                                if (r.alpha, r.omega, r.m, r.sigma) == (alpha, omega, m, sigma)
                                and math.isfinite(r.snr_db)]
                        if vals:
                            xs.append(m)
                            ys.append(sum(vals) / len(vals))
                    series.append((f"omega={omega:g}", xs, ys))
                svg = line_chart(series, f"mean SNR, alpha={alpha:g}, sigma={sigma:g}",
                                 "measurements m", "SNR (dB)")
                Path(f"{stem}_alpha{alpha:g}_sigma{sigma:g}.svg").write_text(svg)
    return EXIT_OK


def cmd_certify(args) -> int:
    a = _load_matrix(args)
    n = a.shape[1]
    report: dict
    if args.check == "rip":
        rep = rip_constant(a, args.k)
        report = {
            "check": "rip", "k": rep.order, "delta": rep.delta,
            "witness": {"support": list(rep.delta_support)},
            "enumerated_count": rep.enumerated,
        }
    elif args.check == "srip":
        rep = srip_bounds(a, args.k)
        report = {
            "check": "srip", "k": rep.order,
            "theta_minus": rep.theta_minus, "theta_plus": rep.theta_plus,
            "witness": {
                "lower_support": list(rep.lower_support),
                "lower_rows": list(rep.lower_rows),
                "upper_support": list(rep.upper_support),
            },
            "enumerated_count": rep.enumerated,
        }
    else:
        w = _weights_from_args(args, n)
        check = weighted_nsp_check if args.check == "nsp" else phaseless_nsp_check
        verdict = check(a, args.k, w)
        report = {
            "check": args.check, "k": args.k,
            "status": verdict.status, "margin": _jsonable(verdict.margin),
            "witness": _jsonable(verdict.witness),
            "enumerated_count": verdict.enumerated,
        }
    _write_text(args.out, json.dumps(_jsonable(report), indent=2))
    return EXIT_OK


def cmd_oracle(args) -> int:
    a = _load_matrix(args)
    n = a.shape[1]
    w = _weights_from_args(args, n)
    x = None
    if args.x is not None:
        x = np.array([float(v) for v in args.x.split(",")])
        if x.size != n:
            raise UsageError(f"--x needs {n} entries")
        if not np.isfinite(x).all():
            raise UsageError("--x has non-finite entries")
    if args.phaseless:
        if args.y is not None:
            raise UsageError("--y applies to the linear program only")
        if x is None:
            raise UsageError("--phaseless needs --x to form the magnitudes")
        b_abs = np.abs(a @ x)
        res = brute_force_phaseless(a, b_abs, w)
        zero_class = len(res.minimizers) == 1 and not np.any(res.minimizers[0])
        signed = len(res.minimizers) if zero_class else 2 * len(res.minimizers)
        report = {
            "program": "phaseless", "value": res.value,
            "minimizers_up_to_sign": [_jsonable(z) for z in res.minimizers],
            "signed_minimizer_count": signed,
            "degenerate": res.degenerate,
            "recovered": recovers_uniquely(res, x, up_to_sign=True),
        }
    else:
        if args.y is not None:
            y = np.array([float(v) for v in args.y.split(",")])
            if y.size != a.shape[0]:
                raise UsageError(f"--y needs {a.shape[0]} entries")
        elif x is not None:
            y = a @ x
        else:
            raise UsageError("provide --x or --y")
        res = ExhaustiveL1Oracle(a).solve(y, w)
        report = {
            "program": "linear", "value": res.value,
            "minimizers": [_jsonable(z) for z in res.minimizers],
            "minimizer_count": len(res.minimizers),
            "degenerate": res.degenerate,
            "recovered": None if x is None else recovers_uniquely(res, x),
        }
    _write_text(args.out, json.dumps(_jsonable(report), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="matrix file: first line 'm N', then m rows")
    p.add_argument("--gaussian", nargs=2, type=int, metavar=("M", "N"),
                   help="seeded Gaussian matrix of the given size")
    p.add_argument("--identity", type=int, metavar="N", help="identity matrix")
    p.add_argument("--seed", type=int, default=0, help="seed for --gaussian")


def _add_weights(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, default=1.0,
                   help="weight on the estimated support (default 1)")
    p.add_argument("--estimate", default="",
                   help="comma-separated 0-based indices of the support estimate")


# built once per process: a fresh parser costs milliseconds per call and leaves
# reference cycles for the cyclic collector
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phasecs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="recovery-constant grids as CSV/SVG")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--theta-minus", type=float, default=0.5)
    p.add_argument("--theta-plus", type=float, default=1.5)
    p.add_argument("--t", type=float, default=4.0)
    p.add_argument("--delta", type=float, default=0.3)
    p.add_argument("--alphas", default="0.3,0.5,0.7,0.9")
    p.add_argument("--omegas", default=",".join(f"{v / 20:g}" for v in range(21)))
    p.add_argument("--out")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("recover", help="single end-to-end recovery")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m", type=int, default=40)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("sweep", help="experiment grid to CSV")
    p.add_argument("--preset", choices=["fig2-sparse", "fig3-compressible"])
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--out")
    p.add_argument("--plot", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="isometry / null-space certificates as JSON")
    _add_matrix_source(p)
    p.add_argument("--check", choices=["rip", "srip", "nsp", "pnsp"], required=True)
    p.add_argument("--k", type=int, required=True)
    _add_weights(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", help="brute-force minimizer sets as JSON")
    _add_matrix_source(p)
    _add_weights(p)
    p.add_argument("--x", help="comma-separated planted signal")
    p.add_argument("--y", help="comma-separated right-hand side (linear program)")
    p.add_argument("--phaseless", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CapExceededError as exc:
        report = {"status": "refused", "caps_hit": [exc.cap], "detail": str(exc)}
        print(json.dumps(report, indent=2))
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        # numerical failure, not a usage error (LinAlgError is a ValueError)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
