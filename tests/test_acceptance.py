"""Acceptance gate for the package.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them live).
The expensive recovery batches are shared through session fixtures.
"""

import math
import statistics
import time
from itertools import combinations

import numpy as np
import pytest

from phasecs import model, theory
from phasecs.certify import (
    ExhaustiveL1Oracle,
    brute_force_phaseless,
    phaseless_nsp_check,
    recovers_uniquely,
    rip_constant,
    srip_bounds,
    weighted_nsp_check,
)
from phasecs.cli import SweepConfig, run_sweep
from phasecs.solver import LiftedOperator, SolverConfig, solve_sdp

GRID = [round(0.1 * i, 1) for i in range(11)]
SNR_CAP = 300.0  # caps exact recoveries so means stay finite


def report(name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def capped_mean(values) -> float:
    return statistics.mean(min(v, SNR_CAP) for v in values)


# ---------------------------------------------------------------------------
# shared expensive batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def sparse_recovery_batch():
    """Noise-free N=16, k=2, m=40 recoveries for omega in {0.3, 1}, 10 trials."""
    runs = []
    for omega in (0.3, 1.0):
        for trial in range(10):
            rng = model.substream(616, int(omega * 10), trial)
            x = model.gen_sparse_signal(rng, 16, 2)
            t0 = model.best_k_support(x, 2)
            est = model.gen_support_estimate(rng, t0, 16, 2, 1.0, 0.75, omega)
            a = model.gen_gaussian_matrix(rng, 40, 16)
            inst = model.make_instance(a, x, 0.0, rng)
            cfg = SolverConfig(epsilon=0.0)
            start = time.perf_counter()
            res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, est.weights(16), cfg)
            wall = time.perf_counter() - start
            runs.append({
                "x": x, "result": res, "wall_s": wall, "cfg": cfg,
                "snr": model.snr_db(x, res.xhat),
            })
    return runs


def sweep_means(signal, theta, alphas, omegas, sigmas, master_seed):
    cfg = SweepConfig(
        signal=signal, n=32, k=4, theta=theta, rho=1.0, alphas=alphas,
        omegas=omegas, ms=(36,), sigmas=sigmas, trials=10, master_seed=master_seed,
    )
    records = run_sweep(cfg)
    means = {}
    for alpha in alphas:
        for omega in omegas:
            for sigma in sigmas:
                vals = [r.snr_db for r in records
                        if (r.alpha, r.omega, r.sigma) == (alpha, omega, sigma)]
                means[(alpha, omega, sigma)] = capped_mean(vals)
    return means, records


@pytest.fixture(scope="session")
def sparse_sweep_results():
    """Reduced sparse grid at the largest preset m, evaluated per master seed.

    Seed 1 is always run; seeds 2 and 3 are added only when some ordering
    fails, and each ordering then passes by majority over the three seeds.
    """
    seeds = [1]
    evaluations = []

    def orderings(means):
        a = means[(0.75, 0.1, 0.0)] > means[(0.75, 1.0, 0.0)]
        b = means[(0.25, 1.0, 0.0)] > means[(0.25, 0.0, 0.0)]
        c = all(means[(al, om, 0.1)] < means[(al, om, 0.0)]
                for al in (0.25, 0.75) for om in (0.0, 0.1, 1.0))
        return {"accurate-prior": a, "misleading-prior": b, "noise-degrades": c}

    means, _ = sweep_means("sparse", None, (0.25, 0.75), (0.0, 0.1, 1.0), (0.0, 0.1), 1)
    evaluations.append(orderings(means))
    if not all(evaluations[0].values()):
        for seed in (2, 3):
            means, _ = sweep_means("sparse", None, (0.25, 0.75), (0.0, 0.1, 1.0),
                                   (0.0, 0.1), seed)
            evaluations.append(orderings(means))
            seeds.append(seed)
    return evaluations


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_golden_constants():
    ok = (
        abs(theory.t_omega(0.6, 1.0, 0.9, 0.5, 1.5) - 1.2022) <= 5e-5
        and abs(theory.t_omega(1.0, 1.0, 0.9, 0.5, 1.5) - 4.0 / 3.0) <= 1e-12
        and all(abs(theory.t_omega(om, 1.0, 0.5, 0.5, 1.5) - 4.0 / 3.0) <= 1e-12
                for om in GRID)
    )
    report("criterion 1: golden threshold values", ok)


def test_criterion_2_reduction_and_monotonicity():
    c1, _ = theory.error_constants(4.0, 0.3, 1.0, 1.0, 0.5)
    closed_form = math.sqrt(2 * 1.3) / (1.0 - math.sqrt(4.0 / 3.0) * 0.3)
    ok = abs(c1 - closed_form) <= 1e-10
    for omega in GRID:
        t_vals = [theory.t_omega(omega, 1.0, a, 0.5, 1.5) for a in GRID]
        if omega < 1.0:
            ok = ok and all(x > y for x, y in zip(t_vals, t_vals[1:]))
            c_vals = [theory.error_constants(4.0, 0.3, omega, 1.0, a)[0] for a in GRID]
            ok = ok and all(x > y for x, y in zip(c_vals, c_vals[1:]))
    for alpha in GRID:
        vals = [theory.t_omega(om, 1.0, alpha, 0.5, 1.5) for om in GRID]
        if alpha > 0.5:
            ok = ok and all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        elif alpha < 0.5:
            ok = ok and all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    report("criterion 2: unweighted reduction and grid monotonicity", ok)


def test_criterion_3_weighted_nsp_equivalence():
    start = time.perf_counter()
    rng_master = 777
    omegas = (0.0, 0.5, 1.0)
    statuses = set()
    checked = 0
    for idx in range(50):
        a = model.gen_gaussian_matrix(model.substream(rng_master, idx), 4, 6)
        oracle = ExhaustiveL1Oracle(a)
        for k in (1, 2):
            for omega in omegas:
                rng = model.substream(rng_master, idx, k, int(omega * 10))
                tilde = rng.choice(6, size=k, replace=False)
                w = np.ones(6)
                w[tilde] = omega
                verdict = weighted_nsp_check(a, k, w)
                assert verdict.status in ("holds-exact", "fails"), verdict.status
                statuses.add(verdict.status)
                if verdict.status == "holds-exact":
                    for t in combinations(range(6), k):
                        for _ in range(5):
                            x = np.zeros(6)
                            x[list(t)] = rng.standard_normal(k) + np.copysign(
                                0.5, rng.standard_normal(k))
                            assert recovers_uniquely(oracle.solve(a @ x, w), x), (
                                f"matrix {idx}, k={k}, omega={omega}: verdict holds "
                                f"but support {t} not uniquely recovered")
                else:
                    h = verdict.witness.kernel_vector
                    t = verdict.witness.support
                    xw = np.zeros(6)
                    xw[list(t)] = h[list(t)]
                    assert not recovers_uniquely(oracle.solve(a @ xw, w), xw), (
                        f"matrix {idx}, k={k}, omega={omega}: witness did not "
                        f"convert to a recovery failure")
                checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 300 and statuses == {"holds-exact", "fails"} and elapsed < 120
    report(f"criterion 3: weighted NSP / l1-oracle equivalence "
           f"({checked} instances, {elapsed:.0f}s)", ok)


def test_criterion_4_phaseless_consistency():
    start = time.perf_counter()
    a_spark = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    a_fail = np.array([[1.0, 1.0], [1.0, -1.0]])

    verdict = phaseless_nsp_check(a_spark, 1, np.ones(2))
    ok = verdict.status == "holds-exact"
    verdict_fail = phaseless_nsp_check(a_fail, 2, np.ones(2))
    ok = ok and verdict_fail.status == "fails"

    # four-minimizer example reproduces exactly
    res = brute_force_phaseless(np.eye(2), np.abs(np.array([1.0, -2.0])), np.ones(2))
    reps = sorted(tuple(np.round(z, 9)) for z in res.minimizers)
    ok = ok and reps == [(1.0, -2.0), (1.0, 2.0)] and abs(res.value - 3.0) <= 1e-9

    cases = [(a_spark, 1), (a_fail, 2), (np.eye(2), 1), (np.eye(2), 2)]
    for seed in (5, 6, 8):
        cases.append((model.gen_gaussian_matrix(model.substream(999, seed), 4, 3), 2))
    rng = model.substream(998)
    for a, k in cases:
        n = a.shape[1]
        w = np.ones(n)
        verdict = phaseless_nsp_check(a, k, w)
        assert verdict.status in ("holds-exact", "fails")
        if verdict.status == "holds-exact":
            for t in combinations(range(n), k):
                for _ in range(5):
                    x = np.zeros(n)
                    x[list(t)] = rng.standard_normal(k) + np.copysign(
                        0.5, rng.standard_normal(k))
                    res = brute_force_phaseless(a, np.abs(a @ x), w)
                    ok = ok and recovers_uniquely(res, x, up_to_sign=True)
        else:
            xw = verdict.witness.u + verdict.witness.v
            res = brute_force_phaseless(a, np.abs(a @ xw), w)
            ok = ok and not recovers_uniquely(res, xw, up_to_sign=True)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(f"criterion 4: phaseless NSP / oracle consistency ({elapsed:.0f}s)", ok)


def test_criterion_5_isometry_exactness():
    start = time.perf_counter()
    ok = all(rip_constant(np.eye(6), k).delta == 0.0 for k in (1, 2, 3))
    ok = ok and abs(rip_constant(np.diag([1.0, 0.5]), 1).delta - 0.75) <= 1e-12
    rep = srip_bounds(np.array([[1.0], [1.0]]), 1)
    ok = ok and abs(rep.theta_minus - 1.0) <= 1e-12 and abs(rep.theta_plus - 2.0) <= 1e-12
    for idx in range(5):
        a = model.gen_gaussian_matrix(model.substream(555, idx), 6, 8)
        mine = rip_constant(a, 2).delta
        other = max(
            float(np.abs(np.linalg.eigvalsh(a[:, t].T @ a[:, t]) - 1.0).max())
            for t in combinations(range(8), 2)
        )
        ok = ok and abs(mine - other) <= 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(f"criterion 5: isometry constants exact ({elapsed:.0f}s)", ok)


def test_criterion_6_solver_sanity(sparse_recovery_batch):
    runs = sparse_recovery_batch
    median_snr = statistics.median(min(r["snr"], SNR_CAP) for r in runs)
    ok = (
        median_snr >= 40.0
        and all(r["result"].status == "converged" for r in runs)
        and all(r["result"].diagnostics["feasibility"] <= 1e-5 for r in runs)
        and all(r["wall_s"] < 60.0 for r in runs)
    )
    report(f"criterion 6: solver sanity (median SNR {median_snr:.1f} dB)", ok)


def test_criterion_7_sparse_sweep_orderings(sparse_sweep_results):
    evaluations = sparse_sweep_results
    names = ("accurate-prior", "misleading-prior", "noise-degrades")
    verdicts = {
        name: sum(ev[name] for ev in evaluations) > len(evaluations) / 2
        for name in names
    }
    ok = all(verdicts.values())
    detail = ", ".join(f"{n}={'pass' if verdicts[n] else 'fail'}" for n in names)
    report(f"criterion 7: sparse sweep orderings over {len(evaluations)} seed(s) "
           f"({detail})", ok)


def test_criterion_8_compressible_sweep(tmp_path):
    from phasecs.cli import read_sweep_csv, sweep_csv_lines

    cfg = SweepConfig(
        signal="compressible", n=32, k=4, theta=4.5, rho=1.0, alphas=(0.75,),
        omegas=(0.1, 1.0), ms=(36,), sigmas=(0.0,), trials=10, master_seed=1,
    )
    records = run_sweep(cfg)
    path = tmp_path / "compressible.csv"
    path.write_text("\n".join(sweep_csv_lines(records)) + "\n")
    rows = read_sweep_csv(path.read_text())
    ok = len(rows) == 20
    small = capped_mean([r.snr_db for r in records if r.omega == 0.1])
    plain = capped_mean([r.snr_db for r in records if r.omega == 1.0])
    ok = ok and small > plain
    report(f"criterion 8: compressible sweep (omega 0.1: {small:.1f} dB "
           f"vs omega 1: {plain:.1f} dB)", ok)


def test_criterion_9_error_bound_coherence(sparse_recovery_batch):
    # theory preconditions under the assumed two-sided bounds (0.5, 1.5)
    ok = theory.t_omega(0.5, 1.0, 0.75, 0.5, 1.5) <= 4.0
    gam = theory.gamma(0.5, 1.0, 0.75)
    d = theory.d_const(0.5, 1.0, 0.75)
    ok = ok and theory.delta_threshold(4.0, d, gam) > 0.3

    # exactly sparse, noise free: the bound collapses to zero, checked as the
    # SNR >= 40 dB proxy on every successful recovery
    for run in sparse_recovery_batch:
        if run["result"].status == "converged":
            ok = ok and run["snr"] >= 40.0

    # compressible probes: observed error against the assembled bound
    worst_ratio = 0.0
    for seed in (1, 2, 3, 4, 5):
        rng = model.substream(321, seed)
        x = model.gen_compressible_signal(16, 4.5, rng)
        t0 = model.best_k_support(x, 4)
        est = model.gen_support_estimate(rng, t0, 16, 4, 1.0, 0.75, 0.5)
        a = model.gen_gaussian_matrix(rng, 48, 16)
        inst = model.make_instance(a, x, 0.0, rng)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, est.weights(16),
                        SolverConfig(epsilon=0.0))
        err = min(np.linalg.norm(res.xhat - x), np.linalg.norm(res.xhat + x))
        tail_t0, tail_joint = model.tail_norms(x, t0, est.indices)
        c1, c2 = theory.error_constants(4.0, 0.3, 0.5, 1.0, 0.75)
        bound = theory.error_bound(c1, c2, 0.0, 0.0, 0.0, 4, 0.5, tail_t0, tail_joint)
        ok = ok and err <= bound
        worst_ratio = max(worst_ratio, err / bound)
    report(f"criterion 9: error-bound coherence (worst error/bound "
           f"{worst_ratio:.2f})", ok)


def test_solver_iteration_budget(sparse_recovery_batch):
    # a performance regression check that measures no time: iteration
    # counts on this batch are deterministic (plain ADMM: median 580.5)
    iterations = [r["result"].iterations for r in sparse_recovery_batch]
    assert all(r["result"].status == "converged" for r in sparse_recovery_batch)
    assert statistics.median(iterations) <= 250, iterations
