"""Smoke tests of the benchmark's own code on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CertifyBatch, RecoverSmall, SweepSlice  # noqa: E402


@pytest.fixture(scope="module")
def phasecs():
    pkg = run.load_phasecs()
    assert pkg is not None
    return pkg


def tiny(name, tmp_path):
    if name == "sweep-slice":
        return SweepSlice(5, n=6, k=1, ms=(12,), omegas=(0.5, 1.0), alphas=(1.0,),
                          max_iter=2000)
    if name == "recover-small":
        # m=30 > 4N puts the second op on the conjugate-gradient path
        return RecoverSmall(5, n=6, k=1, mix=((12, 1), (30, 1)), omegas=(1.0,),
                            max_iter=2000, out_dir=tmp_path)
    return CertifyBatch(5, nsp_matrices=2, rip_shape=(4, 4), rip_k=2,
                        srip_shape=(4, 3), srip_k=1, pnsp_shape=(4, 3), pnsp_k=3,
                        bfp_shape=(3, 4), bfp_k=1)


def declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", ["sweep-slice", "recover-small", "certify-batch"])
def test_window_gates_and_metrics(name, phasecs, tmp_path):
    workload = tiny(name, tmp_path)
    workload.prepare(phasecs)
    done = run.run_window(workload, 0.01)
    assert done
    done += run.recheck(done)
    determinism = run.Determinism(tmp_path / "det.json")
    attempted, failed, messages = run.gate(workload, done, determinism)
    assert attempted >= 2 and failed == 0, messages
    metrics, _, report = run.end_to_end(workload, done, [0.5, 0.4, 0.6])
    assert set(metrics) == declared("end_to_end")
    printed = [line.split()[1] for line in report]
    assert printed[:2] == ["op_p50_s", "op_tail_s"]
    assert (printed[2:] == ["snr_db_mean"]) == (name != "certify-batch")
    assert metrics["setup_s"][0] == 0.5
    assert all(value > 0 for value, _ in metrics.values())


def test_certify_pass_is_whole(phasecs, tmp_path):
    workload = tiny("certify-batch", tmp_path)
    workload.prepare(phasecs)
    done = run.run_window(workload, 0.01)
    assert len(done) == len(workload.pass_ops(0))


def test_gate_counts_wrong_results(phasecs, tmp_path):
    workload = tiny("certify-batch", tmp_path)
    workload.prepare(phasecs)
    done = [(op, *run.run_op(op)) for op in workload.pass_ops(0)]
    rip = next(outs[0] for _, outs, _ in done if outs[0].key == ("rip",))
    rip.data["rep"] = type(rip.data["rep"])(order=2, delta=0.0, delta_support=(0, 1),
                                            enumerated=6)
    _, failed, messages = run.gate(workload, done, run.Determinism(tmp_path / "d.json"))
    assert failed == 1 and "rip delta" in messages[0]


def test_determinism_within_and_across_runs(tmp_path):
    from workloads import Outcome

    path = tmp_path / "det.json"
    first = run.Determinism(path)
    assert first.record(Outcome(key=("a", 1.5), signature=(3, "converged"))) is None
    assert first.record(Outcome(key=("a", 1.5), signature=(3, "converged"))) is None
    assert "this run" in first.record(Outcome(key=("a", 1.5), signature=(4, "max-iter")))
    first.save()
    second = run.Determinism(path)
    assert "earlier run" in second.record(Outcome(key=("a", 1.5), signature=(5, "x")))


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and n == 30
    assert sum(v > value for v in range(30)) == 10
    assert pct == pytest.approx(100 * 19 / 29)


def test_tracer_spans_self_time_and_restore(phasecs, tmp_path):
    workload = tiny("recover-small", tmp_path)
    workload.prepare(phasecs)
    op = workload.trace_ops()[1]
    bound = (phasecs.cli.main, phasecs.certify.eig_sym, phasecs.linalg.eig_sym,
             phasecs.solver.LiftedOperator.forward)
    tracer = Tracer()
    tracer.install(phasecs)
    try:
        outs, wall = run.run_op(op, tracer)
    finally:
        tracer.uninstall()
    assert bound == (phasecs.cli.main, phasecs.certify.eig_sym,
                     phasecs.linalg.eig_sym, phasecs.solver.LiftedOperator.forward)
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["solver.solve_sdp"]["calls"] == 1
    assert summary["solver.forward"]["calls"] >= outs[0].iterations
    assert summary["linalg.eig_sym"]["calls"] >= 1  # rank1_extract
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(summary["bench.op"]["s"], rel=1e-9)
    assert summary["bench.op"]["s"] <= wall
    metrics = run.per_layer(summary, outs, wall, wall)
    assert set(metrics) == declared("per_layer")
    assert metrics["solver.iterations_total"][0] == outs[0].iterations
    assert metrics["solver.forward.calls_per_iter"][0] >= 1.0
    tracer.save(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


def test_cli_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "recover-small",
         "--seed", "3", "--seconds", "0.05", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ops_per_s"]["unit"] == "1/s"


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".scratch", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-slice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
