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
import itertools
import json
import math
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg, model, theory
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
from .solver import MAX_ITER, SolverResult, solve_sdp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CAP = 3

SWEEP_SCHEMA = "phasecs.sweep.v7"


# the flag or config key that sets each library parameter, by command; a
# parameter that a command's table leaves out keeps its name
_FLAGS = {
    "constants": {"rho": "--rho", "alphas": "--alphas", "omegas": "--omegas", "t": "--t",
                  "delta_tk": "--delta", "theta_minus": "--theta-minus",
                  "theta_plus": "--theta-plus"},
    "recover": {"n": "--n", "k": "--k", "m": "--m", "rho": "--rho", "alpha": "--alpha",
                "omega": "--omega", "sigma": "--sigma", "max_iter": "--max-iter"},
    "sweep": {"m": "ms", "alpha": "alphas", "omega": "omegas", "sigma": "sigmas",
              "master_seed": "seed"},
    "certify": {"matrix": "--matrix", "m": "--gaussian", "n": "--gaussian", "k": "--k",
                "w": "--omega"},
    "oracle": {"matrix": "--matrix", "m": "--gaussian", "n": "--gaussian", "w": "--omega",
               "y": "--y", "x": "--x", "b_abs": "--x"},
}


def _named(exc: Exception, command: str) -> ValueError:
    """A library refusal, which starts with a parameter's name, in the words of ``command``."""
    name, space, rest = str(exc).partition(" ")
    return ValueError(_FLAGS[command].get(name, name) + space + rest)


@dataclass(frozen=True)
class SweepConfig:
    """Grid of experiment settings, checked when built; one trial runs per grid point
    and trial index.  The fields are the config keys (``seed`` for ``master_seed``)."""

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
    max_iter: int = MAX_ITER

    def __post_init__(self) -> None:
        # theta enters the per-trial seed hash
        if self.theta is not None:
            if not math.isfinite(self.theta):
                raise ValueError(f"theta must be finite, got {self.theta:g}")
            try:
                _quantized(self.theta)
            except OverflowError:
                raise ValueError(f"theta is too large for the seed hash, got {self.theta:g}")
            # a sparse signal ignores theta, which would still move every seed
            if self.signal == "sparse":
                raise ValueError(f"theta applies to compressible signals only, got {self.theta:g}")
        if not (self.alphas and self.omegas and self.ms and self.sigmas):
            raise ValueError("grid lists must be nonempty")
        # a repeated value would run the same trials again, under the same seeds
        for key in ("alphas", "omegas", "ms", "sigmas"):
            values = getattr(self, key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{key} has a repeated value {value:g}")
        # the functions a trial calls refuse its bad values: each grid point's trial
        # is drawn once (omega by the solve's weight rule), then max_iter is checked
        rng = np.random.default_rng(0)
        try:
            model.check_master_seed(self.master_seed, "master_seed")
            linalg.check_at_least(self.trials, 1, "trials")
            for alpha, omega, m, sigma in self.points():
                model.draw_trial(rng, self.signal, self.n, self.k, m, self.rho, alpha, omega,
                                 sigma, self.theta)
            linalg.check_at_least(self.max_iter, 1, "max_iter")
        except ValueError as exc:
            raise _named(exc, "sweep") from exc

    def points(self):
        """The grid points ``(alpha, omega, m, sigma)``, in the order a sweep runs them."""
        return itertools.product(self.alphas, self.omegas, self.ms, self.sigmas)


@dataclass(frozen=True)
class SweepRecord:
    """One sweep row; the fields are the CSV columns, in order."""

    signal_kind: str
    N: int
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
        # the rest of a row is the same throughout one sweep
        return self.alpha, self.omega, self.m, self.sigma, self.trial


SWEEP_COLUMNS = [field.name for field in dataclasses.fields(SweepRecord)]


def _field_types(cls) -> dict[str, tuple[type, bool, bool]]:
    """Each field of the dataclass ``cls``: the type of one value, whether the
    field is a tuple of them and whether it may be None."""
    return {name: ((typing.get_args(hint) or (hint,))[0], typing.get_origin(hint) is tuple,
                   type(None) in typing.get_args(hint))
            for name, hint in typing.get_type_hints(cls).items()}


# SweepConfig's keyword arguments for each `phasecs sweep --preset`
_PRESETS = {"fig2-sparse": {"signal": "sparse"},
            "fig3-compressible": {"signal": "compressible", "theta": 4.5}}


def preset_sweep(name: str) -> SweepConfig:
    if name not in _PRESETS:
        raise ValueError(f"unknown sweep preset {name!r}")
    return SweepConfig(**_PRESETS[name])


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat ``key = value`` sweep config format.

    The keys are the fields of :class:`SweepConfig` (``seed`` for
    ``master_seed``): a tuple field takes a comma-separated list, any other
    field one value; ``#`` starts a comment.  A value that does not parse,
    or a scalar key given a list, is refused with its line number and key,
    and so is a key given again.
    """
    fields = {_FLAGS["sweep"].get(name, name): (name, kinds)
              for name, kinds in _field_types(SweepConfig).items()}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in fields:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        field, (kind, is_tuple, _) = fields[key]
        name = f"config line {lineno}: {key}"
        items = (value,) if kind is str else _parse_list(value, name, kind)
        if not is_tuple and len(items) > 1:
            raise ValueError(f"{name}: expected one value, got {len(items)}")
        if field in values:
            raise ValueError(f"{name}: already given")
        values[field] = items if is_tuple else items[0]
    return SweepConfig(**values)


def solve_trial(instance: model.PhaselessInstance, estimate: model.SupportEstimate,
                max_iter: int = MAX_ITER) -> tuple[SolverResult, float]:
    """Solve a drawn trial at its noise level ``epsilon``; the SNR is NaN if the solve failed."""
    result = solve_sdp(instance.A, instance.b, estimate.weights(instance.x.size),
                       epsilon=instance.epsilon, max_iter=max_iter)
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
        signal_kind=cfg.signal, N=cfg.n, k=cfg.k, theta=cfg.theta, rho=cfg.rho,
        alpha=alpha, omega=omega, m=m, sigma=sigma, trial=trial, seed=seed,
        snr_db=snr, iterations=result.iterations, status=result.status,
        wall_ms=wall_ms,
    )


def run_sweep(cfg: SweepConfig, progress=None) -> list[SweepRecord]:
    """Run every (grid point, trial) of the config; rows come back sorted by key."""
    records = []
    for alpha, omega, m, sigma in cfg.points():
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
    # .10g writes nan, inf and -inf as they are
    return format(value, ".10g") if isinstance(value, float) else str(value)


def sweep_csv_lines(records: list[SweepRecord]) -> list[str]:
    return [f"# schema={SWEEP_SCHEMA}", ",".join(SWEEP_COLUMNS)] + [
        ",".join(_fmt(v) for v in dataclasses.astuple(r)) for r in records]


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
    """Parse and validate sweep CSV text back into row dicts, each cell typed
    as its :class:`SweepRecord` field (an empty ``theta`` is None)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError("missing schema header comment")
    if lines[0] != f"# schema={SWEEP_SCHEMA}":
        raise ValueError(f"unsupported schema line {lines[0]!r}")
    if len(lines) < 2 or lines[1].split(",") != SWEEP_COLUMNS:
        raise ValueError("unexpected CSV header")
    kinds = [(kind, optional) for kind, _, optional in _field_types(SweepRecord).values()]
    rows = []
    for ln in lines[2:]:
        parts = ln.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ValueError(f"malformed row: {ln!r}")
        row = {column: None if optional and not cell else kind(cell)
               for column, cell, (kind, optional) in zip(SWEEP_COLUMNS, parts, kinds)}
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


def _parse_list(text: str, flag: str, kind=float) -> tuple:
    """Comma-separated values of ``kind`` (float or int) given to ``flag``."""
    try:
        items = tuple(kind(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag}: expected comma-separated {noun}") from exc
    if not items:
        raise ValueError(f"{flag}: no value given")
    return items


def _write_text(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else str(v)  # "inf", "-inf" or "nan"
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
    """Plain-text matrix: a first line ``m N`` of two integers, both at least 1,
    then m rows of N decimals; any other file is refused as ``--matrix``."""
    rows = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    try:
        m, n = map(int, rows[0])
        a = np.array(rows[1:], dtype=float)
        if min(m, n) >= 1 and a.shape == (m, n):
            return a
    except (IndexError, ValueError):
        pass
    raise ValueError(f"--matrix {path}: expected a first line 'm N' with m, N >= 1, "
                     "then m rows of N numbers")


def _load_matrix(args) -> np.ndarray:
    sources = [args.matrix is not None, args.gaussian is not None, args.identity is not None]
    if sum(sources) != 1:
        raise ValueError("choose exactly one of --matrix/--gaussian/--identity")
    if args.matrix is not None:
        return read_matrix_file(args.matrix)
    if args.gaussian is not None:
        linalg.check_at_least(args.seed, 0, "--seed")
        m, n = args.gaussian
        rng = np.random.default_rng(args.seed)
        return model.gen_gaussian_matrix(rng, m, n)
    linalg.check_at_least(args.identity, 1, "--identity")
    return np.eye(args.identity)


def _weights_from_args(args, n: int) -> np.ndarray:
    # --omega is refused by the weight rule even when no estimate reads it
    linalg.check_weights(args.omega, "--omega")
    idx = _parse_list(args.estimate, "--estimate", int) if args.estimate else ()
    if any(i < 0 or i >= n for i in idx):
        raise ValueError("--estimate index out of range")
    return model.SupportEstimate(idx, args.omega).weights(n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    alphas = _parse_list(args.alphas, "--alphas")
    omegas = _parse_list(args.omegas, "--omegas")
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
    linalg.check_at_least(args.seed, 0, "--seed")
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
        raise ValueError("provide exactly one of --preset or --config")
    if args.preset is not None:
        cfg = preset_sweep(args.preset)
    else:
        cfg = parse_sweep_config(Path(args.config).read_text())
    if args.seed is not None:
        model.check_master_seed(args.seed, "--seed")
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
        stem = Path(args.out).with_suffix("")
        snrs: dict = {}  # the finite SNRs of each grid point, in row order
        for r in records:
            if math.isfinite(r.snr_db):
                snrs.setdefault(r.sort_key()[:4], []).append(r.snr_db)
        for alpha in cfg.alphas:
            for sigma in cfg.sigmas:
                series = []
                for omega in cfg.omegas:
                    xs = [m for m in cfg.ms if (alpha, omega, m, sigma) in snrs]
                    ys = [sum(v) / len(v) for v in (snrs[alpha, omega, m, sigma] for m in xs)]
                    series.append((f"omega={omega:g}", xs, ys))
                svg = line_chart(series, f"mean SNR, alpha={alpha:g}, sigma={sigma:g}",
                                 "measurements m", "SNR (dB)")
                Path(f"{stem}_alpha{alpha:g}_sigma{sigma:g}.svg").write_text(svg)
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.check in ("rip", "srip") and args.estimate:
        raise ValueError("--estimate applies to the nsp and pnsp checks only")
    a = _load_matrix(args)
    w = _weights_from_args(args, a.shape[1])
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
        check = weighted_nsp_check if args.check == "nsp" else phaseless_nsp_check
        verdict = check(a, args.k, w)
        report = {
            "check": args.check, "k": args.k,
            "status": verdict.status, "margin": verdict.margin,
            "witness": verdict.witness,
            "enumerated_count": verdict.enumerated,
        }
    _write_text(args.out, json.dumps(_jsonable(report), indent=2))
    return EXIT_OK


def cmd_oracle(args) -> int:
    a = _load_matrix(args)
    n = a.shape[1]
    w = _weights_from_args(args, n)
    x = None if args.x is None else linalg.as_vector(_parse_list(args.x, "--x"), n, "x")
    if args.phaseless:
        if args.y is not None:
            raise ValueError("--y applies to the linear program only")
        if x is None:
            raise ValueError("--phaseless needs --x to form the magnitudes")
        b_abs = np.abs(a @ x)
        res = brute_force_phaseless(a, b_abs, w)
        zero_class = len(res.minimizers) == 1 and not np.any(res.minimizers[0])
        signed = len(res.minimizers) if zero_class else 2 * len(res.minimizers)
        report = {
            "program": "phaseless", "value": res.value,
            "minimizers_up_to_sign": res.minimizers,
            "signed_minimizer_count": signed,
            "degenerate": res.degenerate,
            "recovered": recovers_uniquely(res, x, up_to_sign=True),
        }
    else:
        if args.y is not None:
            y = np.array(_parse_list(args.y, "--y"))
        elif x is not None:
            y = a @ x
            linalg.unit_squared_norm(y, "x")  # refused by the flag that set it
        else:
            raise ValueError("provide --x or --y")
        res = ExhaustiveL1Oracle(a).solve(y, w)
        report = {
            "program": "linear", "value": res.value,
            "minimizers": res.minimizers,
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
    p.add_argument("--max-iter", type=int, default=MAX_ITER)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("sweep", help="experiment grid to CSV")
    p.add_argument("--preset", choices=_PRESETS)
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
        if getattr(args, "plot", False) and args.out is None:
            raise ValueError("--plot needs --out to derive the SVG paths")
        return args.func(args)
    except CapExceededError as exc:
        report = {"status": "refused", "caps_hit": [exc.cap], "detail": str(exc)}
        print(json.dumps(report, indent=2))
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP
    except np.linalg.LinAlgError as exc:
        # numerical failure, not a usage error (LinAlgError is a ValueError)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {_named(exc, args.command)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
