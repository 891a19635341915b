import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecs import linalg, model, solver
from phasecs.linalg import MAX_WEIGHT, smat, svec
from phasecs.solver import (
    LiftedOperator,
    _Anderson,
    _NormalSolver,
    ball_project,
    rank1_extract,
    solve_sdp,
    weighted_shrink,
)


# the trials (m, omega, sigma) and counts of TestSolveSdp.test_trajectory_pins
PINS = [
    (40, 0.3, 0.0, (98, 1, 78, 5)),
    (40, 1.0, 0.0, (56, 2, 49, 0)),
    (80, 0.3, 0.0, (68, 0, 53, 4)),
    (80, 1.0, 0.0, (61, 2, 54, 0)),
    # eps > 0: the measurement prox scales onto the ball
    (80, 1.0, 0.1, (196, 6, 173, 3)),
]


def make_problem(n, k, m, omega, alpha, sigma, seed, **solve_kw):
    """A drawn trial and the keywords of its solve: its ``epsilon`` and ``solve_kw``."""
    inst, est = model.draw_trial(np.random.default_rng(seed), "sparse", n, k, m, 1.0,
                                 alpha, omega, sigma)
    return inst.x, inst.A, inst, est.weights(n), dict(epsilon=inst.epsilon, **solve_kw)


def solve_recover_trial(seed, omega):
    """The solve of `phasecs recover --m 40 --omega <omega> --seed <seed>`."""
    x, a, inst, w, kw = make_problem(16, 2, 40, omega, 0.75, 0.0, seed)
    return x, solve_sdp(a, inst.b, w, **kw)


def assert_failure_pinned(res, iterations, z_digest, pri, dua, diagnostics):
    """A failed solve reports exactly these values and a zero xhat."""
    assert (res.status, res.iterations, res.diagnostics) == ("failed", iterations, diagnostics)
    assert hashlib.sha256(res.Z.tobytes()).hexdigest()[:16] == z_digest
    assert res.xhat.tobytes() == np.zeros(res.Z.shape[0]).tobytes()
    assert (res.primal_residual, res.dual_residual) == (pri, dua)


class TestWeightedShrink:
    # weighted_shrink maps packed matrices to packed matrices
    def test_pure_trace_prox(self):
        v = np.diag([3.0, 5.0])
        out = smat(weighted_shrink(svec(v), 0.0, 2.0))
        assert np.allclose(out, np.diag([2.5, 4.5]))

    def test_dead_zone(self):
        v = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = smat(weighted_shrink(svec(v), 0.5, 1.0))
        assert out[0, 1] == 0.0

    def test_diagonal_shift_then_threshold(self):
        v = np.diag([2.0, 2.0])
        out = smat(weighted_shrink(svec(v), 1.0, 1.0))
        assert np.allclose(out, np.zeros((2, 2)))

    def test_is_proximal_map(self):
        # prox objective: Tr(L) + lam ||L||_1 + (pen/2) ||L - V||_F^2
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 3))
        v = v + v.T
        lam, pen = 0.7, 1.3

        def objective(l):
            return np.trace(l) + lam * np.abs(l).sum() + 0.5 * pen * ((l - v) ** 2).sum()

        out = smat(weighted_shrink(svec(v), lam, pen))
        base = objective(out)
        for _ in range(1000):
            pert = rng.standard_normal((3, 3)) * rng.choice([1e-3, 1e-1, 1.0])
            pert = pert + pert.T
            assert objective(out + pert) >= base - 1e-12

    def test_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            weighted_shrink(svec(np.eye(2)), 1.0, 0.0)


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def symmetric_matrices(max_n=6):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        finite, min_size=n * n, max_size=n * n,
    ).map(lambda vals: np.array(vals).reshape(n, n)).map(lambda m: 0.5 * (m + m.T)))


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices(), st.floats(0.0, 5.0), st.floats(0.1, 10.0))
def test_weighted_shrink_subgradient_condition(v, lam, pen):
    # 0 in I + lam d|L| + pen (L - V), entry by entry: the trace tilts the
    # diagonal by 1, and G = pen (V - L) - I must equal lam sign(L) where
    # L != 0 and lie in [-lam, lam] where L == 0
    out = smat(weighted_shrink(svec(v), lam, pen))
    assert np.array_equal(out, out.T)
    g = pen * (v - out) - np.eye(len(v))
    tol = 1e-12 * (1.0 + pen * np.abs(v).max() + lam)
    nz = out != 0.0
    assert np.all(np.abs(g[nz] - lam * np.sign(out[nz])) <= tol)
    assert np.all(np.abs(g[~nz]) <= lam + tol)


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices())
def test_psd_projection_optimality(mat):
    # Moreau: out is the projection onto the psd cone iff out >= 0,
    # mat - out <= 0 and <out, mat - out> = 0
    out = smat(solver._psd_project(svec(mat)))
    assert np.array_equal(out, out.T)
    rest = mat - out
    tol = 1e-12 * (1.0 + np.abs(mat).sum())
    assert np.linalg.eigvalsh(out)[0] >= -tol
    assert np.linalg.eigvalsh(rest)[-1] <= tol
    assert abs(np.vdot(out, rest)) <= tol * (1.0 + np.abs(mat).sum())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(finite, min_size=m, max_size=m)),
       st.floats(0.01, 20.0))
def test_ball_project_kkt(vals, radius):
    # KKT of min ||u - v||^2 / 2 s.t. ||u|| <= radius: u is feasible and
    # v - u = mu u with mu >= 0 and mu (||u|| - radius) = 0
    v = np.array(vals)
    out = ball_project(v, radius)
    norm = np.linalg.norm(out)
    assert norm <= radius * (1.0 + 1e-12)
    d = v - out
    mu = float(d @ out) / float(out @ out) if norm > 0 else 0.0
    assert mu >= -1e-12
    assert np.linalg.norm(d - mu * out) <= 1e-12 * (1.0 + np.linalg.norm(v))
    assert abs(mu * (norm - radius)) <= 1e-12 * (1.0 + mu * radius)


class TestBallProject:
    def test_inside_unchanged(self):
        v = np.array([1.0, 1.0])
        assert np.array_equal(ball_project(v, 2.0), v)

    def test_boundary_unchanged(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(ball_project(v, 5.0), v)

    def test_scales_outside(self):
        assert np.allclose(ball_project(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_zero_radius(self):
        assert np.array_equal(ball_project(np.array([1.0, -2.0]), 0.0), np.zeros(2))


class TestRank1Extract:
    def test_rank1_input(self):
        x = np.array([1.0, -2.0, 0.5])
        xhat, _ = rank1_extract(np.outer(x, x))
        assert np.allclose(np.minimum(np.abs(xhat - x), np.abs(xhat + x)), 0, atol=1e-9)

    def test_zero(self):
        assert np.array_equal(rank1_extract(np.zeros((3, 3)))[0], np.zeros(3))

    def test_diagonal(self):
        assert np.allclose(rank1_extract(np.diag([4.0, 1.0]))[0], [2.0, 0.0])

    def test_returns_descending_eigenvalues(self):
        xhat, lam = rank1_extract(np.diag([1.0, 4.0, -2.0]))
        assert np.allclose(xhat, [0.0, 2.0, 0.0])
        assert np.allclose(lam, [4.0, 1.0, -2.0])

    def test_sign_canonical(self):
        x = np.array([-1.0, 2.0])
        xhat, _ = rank1_extract(np.outer(x, x))
        assert xhat[0] > 0


class TestSolveSdp:
    def test_zero_measurements(self):
        res = solve_sdp(np.eye(3), np.zeros(3), np.ones(3))
        assert res.status == "converged"
        assert np.abs(res.Z).max() <= 1e-9

    def test_ball_contains_origin(self):
        res = solve_sdp(np.eye(3), np.ones(3), np.ones(3), epsilon=5.0)
        assert res.status == "converged"
        assert np.abs(res.Z).max() <= 1e-4

    def test_small_recovery(self):
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        res = solve_sdp(a, inst.b, w, **kw)
        assert res.status == "converged"
        assert model.snr_db(x, res.xhat) >= 40.0

    def test_feasibility_and_splitting_at_convergence(self):
        x, a, inst, w, kw = make_problem(8, 2, 16, 0.5, 0.5, 0.0, 3)
        res = solve_sdp(a, inst.b, w, **kw)
        assert res.status == "converged"
        d = res.diagnostics
        assert d["feasibility"] <= inst.epsilon + 10 * solver.TOL_ABS
        assert d["min_eigenvalue"] >= -10 * solver.TOL_ABS
        for key in ("split_l", "split_p", "ball_violation"):
            assert d[key] <= res.primal_residual + 1e-12

    def test_noisy_feasibility_within_ball(self):
        x, a, inst, w, kw = make_problem(8, 1, 20, 1.0, 1.0, 0.1, 5)
        res = solve_sdp(a, inst.b, w, **kw)
        assert res.status == "converged"
        assert res.diagnostics["feasibility"] <= inst.epsilon + 10 * solver.TOL_ABS

    def test_deterministic(self):
        x, a, inst, w, kw = make_problem(6, 1, 10, 0.5, 1.0, 0.0, 11)
        r1 = solve_sdp(a, inst.b, w, **kw)
        r2 = solve_sdp(a, inst.b, w, **kw)
        assert r1.iterations == r2.iterations
        assert r1.Z.tobytes() == r2.Z.tobytes()
        assert r1.xhat.tobytes() == r2.xhat.tobytes()

    def test_rank1_self_consistency(self):
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        res = solve_sdp(a, inst.b, w, **kw)
        if res.diagnostics["top_eigenvalue_ratio"] <= 1e-6:
            gap = np.linalg.norm(np.outer(res.xhat, res.xhat) - res.Z)
            assert gap <= 1e-5 * np.linalg.norm(res.Z)

    def test_many_rows_recovery(self):
        x, a, inst, w, kw = make_problem(4, 1, 20, 1.0, 1.0, 0.0, 17)
        res = solve_sdp(a, inst.b, w, **kw)
        assert res.status == "converged"
        assert model.snr_db(x, res.xhat) >= 40.0

    def test_reports_accelerator_counts(self):
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        d = solve_sdp(a, inst.b, w, **kw).diagnostics
        assert type(d["anderson_accepted"]) is int and d["anderson_accepted"] > 0
        assert type(d["anderson_rejected"]) is int and d["anderson_rejected"] >= 0

    def test_drift_phase_trial_converges(self):
        # `phasecs recover --m 40 --omega 1 --seed 1739820329`: plain ADMM
        # spends about 2000 sweeps in a phase where the duals drift by a
        # constant step; without the residual-scaled shift the accelerator
        # jumped along the drift and ran to the iteration cap.  On b/||b||
        # the solve takes 66 sweeps
        x, res = solve_recover_trial(1739820329, 1.0)
        assert res.status == "converged" and res.iterations <= 200
        assert model.snr_db(x, res.xhat) >= 40.0

    def test_penalty_ramp_trial_converges(self):
        # `phasecs recover --m 40 --omega 0.3 --seed 601594546` needs a
        # penalty ramp: on b/||b|| residual balancing raises it from 1 to
        # about 440 by sweep 120 and cuts it back to 2.3 by sweep 150, and
        # the solve takes 153 sweeps
        x, res = solve_recover_trial(601594546, 0.3)
        assert res.status == "converged" and res.iterations <= 250
        assert model.snr_db(x, res.xhat) >= 40.0
        updates = res.diagnostics["penalty_updates"]
        assert type(updates) is int and updates >= 1

    def test_rebalance_waits_for_a_kept_point(self):
        # `phasecs recover --m 40 --omega 0.3 --seed 1512458062`, a trial with
        # |x|^2 = 3.5e-4: at sweep 90 an extrapolated point with a large
        # residual set off a tenfold penalty cut; rebalancing from it, before
        # the safeguard dropped it, left the scaled duals far too large and
        # the solve ran to the cap.  The thresholds act relative to ||b||, so
        # even a signal this small is recovered to about 123 dB
        x, res = solve_recover_trial(1512458062, 0.3)
        assert res.status == "converged" and res.iterations <= 500
        assert model.snr_db(x, res.xhat) >= 100.0

    @pytest.mark.parametrize("m, omega, sigma, counts", PINS)
    def test_trajectory_pins(self, m, omega, sigma, counts):
        # `phasecs recover --m <m> --omega <omega> --sigma <sigma> --seed 7`:
        # sweeps, penalty updates and accepted and rejected extrapolations as
        # recorded for sweep schema phasecs.sweep.v7, a kept extrapolation on
        # a rebalance sweep counted as accepted.  A change that moves a
        # trajectory updates these pins together with the schema
        x, a, inst, w, kw = make_problem(16, 2, m, omega, 0.75, sigma, 7)
        res = solve_sdp(a, inst.b, w, **kw)
        d = res.diagnostics
        assert res.status == "converged"
        assert (res.iterations, d["penalty_updates"], d["anderson_accepted"],
                d["anderson_rejected"]) == counts

    @pytest.mark.parametrize("m, omega, sigma", [pin[:3] for pin in PINS])
    def test_anderson_counts_add_up(self, monkeypatch, m, omega, sigma):
        # every extrapolated point is accepted or rejected by the sweep after
        # it, a rebalance sweep included; the last point is judged by none
        made = []

        class Counting(solver._Anderson):
            produced = 0

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def step(self, g, f, restart=False):
                x = super().step(g, f, restart)
                self.produced += int(self.extrapolated)
                return x

        monkeypatch.setattr(solver, "_Anderson", Counting)
        x, a, inst, w, kw = make_problem(16, 2, m, omega, 0.75, sigma, 7)
        res = solve_sdp(a, inst.b, w, **kw)
        [accel] = made
        d = res.diagnostics
        assert accel.produced > 0
        assert (d["anderson_accepted"] + d["anderson_rejected"]
                == accel.produced - int(accel.extrapolated))

    def test_fixed_penalty_reports_no_updates(self):
        # the penalty is rebalanced on sweeps 10, 20, ... only, so a solve
        # that stops before sweep 10 keeps the penalty it started from
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        for max_iter in (1, 9):
            res = solve_sdp(a, inst.b, w, **kw, max_iter=max_iter)
            assert res.status == "max-iter" and res.iterations == max_iter
            assert res.diagnostics["penalty_updates"] == 0
            assert res.diagnostics["penalty"] == solver.INITIAL_PENALTY

    def test_spectrum_diagnostics_match_eigvalsh(self):
        x, a, inst, w, kw = make_problem(8, 2, 16, 0.5, 0.5, 0.0, 3)
        res = solve_sdp(a, inst.b, w, **kw)
        lam = np.linalg.eigvalsh(res.Z)
        scale = np.abs(lam).max()
        assert abs(res.diagnostics["min_eigenvalue"] - lam[0]) <= 1e-12 * scale
        assert abs(res.diagnostics["top_eigenvalue_ratio"] - lam[-2] / lam[-1]) <= 1e-9
        assert np.allclose(res.xhat, rank1_extract(res.Z)[0], rtol=0,
                           atol=1e-12 * np.sqrt(scale))

    @pytest.mark.parametrize("sigma, seed", [(0.0, 0), (0.0, 3), (0.05, 3), (0.05, 5)])
    def test_accelerated_minimiser_matches_plain(self, monkeypatch, sigma, seed):
        monkeypatch.setattr(solver, "TOL_ABS", 1e-8)
        monkeypatch.setattr(solver, "TOL_REL", 1e-6)
        x, a, inst, w, kw = make_problem(8, 2, 24 if sigma else 16, 0.5, 0.5, sigma, seed,
                                          max_iter=20000)
        fast = solve_sdp(a, inst.b, w, **kw)
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", 0)
        plain = solve_sdp(a, inst.b, w, **kw)
        assert fast.status == plain.status == "converged"
        assert fast.iterations < plain.iterations
        assert plain.diagnostics["anderson_accepted"] == 0
        assert np.linalg.norm(fast.Z - plain.Z) <= 1e-3 * np.linalg.norm(plain.Z)

    @pytest.mark.parametrize("n, m, sigma, seed, max_iter", [
        (8, 16, 0.0, 3, 5000), (16, 40, 0.0, 1, 5000), (16, 40, 0.05, 2, 5000),
        (8, 16, 0.0, 3, 4),  # max-iter exit
    ])
    def test_returned_z_is_exactly_symmetric(self, n, m, sigma, seed, max_iter):
        x, a, inst, w, kw = make_problem(n, 2, m, 0.5, 0.5, sigma, seed, max_iter=max_iter)
        res = solve_sdp(a, inst.b, w, **kw)
        assert res.status == ("converged" if max_iter == 5000 else "max-iter")
        assert res.Z.tobytes() == res.Z.T.copy().tobytes()

    def test_residuals_fresh_at_max_iter(self):
        # sweep 10 is a rebalance sweep, which computes its dual residual in
        # the loop; sweeps 7 and 9 are not, and theirs is computed after the
        # loop.  Each exit reports the residuals of its own last sweep, so
        # no two exits report the same ones
        x, a, inst, w, kw = make_problem(16, 2, 40, 0.3, 0.75, 0.0, 4)
        residuals = set()
        for max_iter in (7, 9, 10):
            res = solve_sdp(a, inst.b, w, **kw, max_iter=max_iter)
            assert res.status == "max-iter" and res.iterations == max_iter
            # not tested in the loop, so the convergence test needs no dual residual
            assert res.diagnostics["ball_violation"] > 10 * solver.TOL_ABS
            for value in (res.primal_residual, res.dual_residual):
                assert np.isfinite(value) and value > 0
            residuals.add((res.primal_residual, res.dual_residual))
        assert len(residuals) == 3

    def test_reports_objective(self):
        x, a, inst, w, kw = make_problem(8, 2, 16, 0.5, 0.5, 0.0, 3)
        res = solve_sdp(a, inst.b, w, **kw)
        wzw = np.outer(w, w) * res.Z
        expected = np.trace(wzw) + solver.LAM * np.abs(wzw).sum()
        assert res.diagnostics["objective"] == pytest.approx(expected, rel=1e-12)

    def test_result_has_no_instance_dict(self):
        x, a, inst, w, kw = make_problem(6, 1, 10, 0.5, 1.0, 0.0, 11)
        res = solve_sdp(a, inst.b, w, **kw)
        assert not hasattr(res, "__dict__")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_sdp(np.eye(3), np.zeros(2), np.ones(3))
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            solve_sdp(np.array([[1.0, np.nan]]), np.ones(1), np.ones(2))

    @pytest.mark.parametrize("case", ["overflow", "nan", "underflow", "subnormal"])
    def test_refuses_b_without_a_unit(self, case):
        # ||b|| is the loop's unit: at 1e200 b @ b overflowed and a converged
        # result came back as inf * 0 = NaN, a NaN ended eig-failure, at
        # 1e-150 b @ b underflowed to 0 and the loop ran on b itself, and a
        # subnormal b @ b gives a unit too rough for the exit guarantee
        rng = np.random.default_rng(41)
        a, x = rng.standard_normal((6, 3)), rng.standard_normal(3)
        b = {"overflow": np.full(6, 1e200), "nan": np.r_[np.nan, np.ones(5)],
             "underflow": (a @ x * 1e-150) ** 2, "subnormal": np.full(6, 1e-160)}[case]
        unit = "b must be 0 or have a squared norm in the normal float range, got "
        message = {"overflow": "b is too large for a finite squared norm",
                   "nan": "b has non-finite entries", "underflow": unit + "0",
                   "subnormal": unit + "5.99993e-320"}[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_sdp(a, b, np.ones(3))

    def test_overflowing_normal_matrix_is_a_factorization_failure(self):
        # the sensors of 1e100 a are finite, their Gram matrix is not
        a = np.random.default_rng(41).standard_normal((6, 3))
        res = solve_sdp(1e100 * a, np.ones(6), np.ones(3))
        assert_failure_pinned(res, 0, hashlib.sha256(np.zeros((3, 3)).tobytes()).hexdigest()[:16],
                              math.inf, math.inf, {"stop_reason": "factorization-failure",
                                                   "error": "overflow encountered in matmul"})

    @pytest.mark.parametrize("bad", [10 * MAX_WEIGHT, -np.inf, np.nan])
    def test_refuses_weight_beyond_max(self, bad):
        # above about 1e77, w**4 overflows in the normal system
        a = np.eye(3)
        rule = "at most 1e+50" if 0 < bad < np.inf else "finite and nonnegative"
        message = f"w must be {rule}, got {bad:g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_sdp(a, np.ones(3), np.array([1.0, bad, 1.0]))
        res = solve_sdp(a, np.ones(3), np.array([1.0, MAX_WEIGHT, 1.0]))
        assert res.status != "failed"

    def test_stop_reason_names_the_exit(self):
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        assert solve_sdp(a, inst.b, w, **kw).diagnostics["stop_reason"] == "converged"
        short = solve_sdp(a, inst.b, w, **kw, max_iter=3)
        assert short.diagnostics["stop_reason"] == "max-iter"

    # Failed solves of make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7), pinned bit for
    # bit: iterations, the first 16 hex digits of sha256(Z bytes), and the
    # primal and dual residuals, keyed by the eigh call that fails (None: the
    # rank-1 extraction of the converged Z fails).  The nth np.linalg.eigh
    # call is the psd projection of sweep n, so a failure there reports Z of
    # sweep n's normal solve and the residuals of sweep n - 1.  Sweep 10
    # rebalances and so computes its dual residual; sweep 11 does not, so
    # after a failure at call 12 the dual residual of sweep 11 is computed on
    # the way out
    EIG_FAILURE_PINS = {
        1: (1, "915bcfa2534bd101", math.inf, math.inf),
        11: (11, "57be6293035fae81", 0.020746536058613853, 0.28846860876317076),
        12: (12, "fc0735bbf860be93", 0.019459784194928494, 0.3551360368132383),
        None: (89, "017c78a3b5844cea", 2.7605875383127403e-07, 7.66126682807866e-06),
    }

    @pytest.mark.parametrize("target, name, error, fail_at", [
        (np.linalg, "eigh", np.linalg.LinAlgError, 1),  # psd projection, first sweep
        (np.linalg, "eigh", np.linalg.LinAlgError, 11),
        (np.linalg, "eigh", np.linalg.LinAlgError, 12),
        (linalg, "eig_sym", linalg.EigNonConvergenceError, None),  # rank-1 extraction
    ])
    def test_eig_failure_is_named(self, monkeypatch, target, name, error, fail_at):
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        done = solve_sdp(a, inst.b, w, **kw)
        calls = itertools.count(1)
        working = getattr(target, name)

        def broken(*args, **kwargs):
            if fail_at in (None, next(calls)):
                raise error("eigensolver did not converge")
            return working(*args, **kwargs)

        monkeypatch.setattr(target, name, broken)
        res = solve_sdp(a, inst.b, w, **kw)
        assert_failure_pinned(res, *self.EIG_FAILURE_PINS[fail_at], {
            "stop_reason": "eig-failure", "error": "eigensolver did not converge"})
        if fail_at is None:
            assert (res.Z.tobytes(), res.iterations) == (done.Z.tobytes(), done.iterations)

    def test_factorization_failure_is_named(self, monkeypatch):
        x, a, inst, w, kw = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)

        def broken(g, rhs):
            raise linalg.NotPositiveDefiniteError("matrix is not positive definite")

        monkeypatch.setattr(linalg, "solve_spd", broken)
        res = solve_sdp(a, inst.b, w, **kw)
        # no sweep ran: Z is zero and there are no residuals yet
        assert not res.Z.any() and res.Z.shape == (8, 8)
        assert_failure_pinned(res, 0, "076a27c79e5ace2a", math.inf, math.inf, {
            "stop_reason": "factorization-failure", "error": "matrix is not positive definite"})


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1),
       st.integers(-3, 3))
def test_solve_is_scale_equivariant(n, ratio, seed, j):
    # x -> 2^j x scales b = (Ax)^2 by 4^j exactly, so the loop, which runs on
    # b/||b||, takes bitwise the same steps, and Z and xhat scale exactly
    x, a, inst, w, kw = make_problem(n, 1 + n // 4, ratio * n, 0.5, 0.75, 0.0, seed)
    b = (a @ x) ** 2
    b_scaled = (a @ (2.0**j * x)) ** 2
    assert np.array_equal(b_scaled, 4.0**j * b)
    base = solve_sdp(a, b, w, **kw)
    scaled = solve_sdp(a, b_scaled, w, **kw)
    assert (scaled.status, scaled.iterations) == (base.status, base.iterations)
    assert np.array_equal(scaled.Z, 4.0**j * base.Z)
    assert np.array_equal(scaled.xhat, 2.0**j * base.xhat)


@pytest.mark.parametrize("j", [-3, -1, 2])
def test_noisy_solve_is_scale_equivariant(j):
    # b and epsilon scaled together by 4^j
    x, a, inst, w, kw = make_problem(8, 2, 24, 0.5, 0.75, 0.05, 3)
    base = solve_sdp(a, inst.b, w, **kw)
    scaled = solve_sdp(a, 4.0**j * inst.b, w, epsilon=4.0**j * inst.epsilon)
    assert inst.epsilon > 0 and base.status == "converged"
    assert (scaled.status, scaled.iterations) == (base.status, base.iterations)
    assert np.array_equal(scaled.Z, 4.0**j * base.Z)
    assert np.array_equal(scaled.xhat, 2.0**j * base.xhat)


def scaled_norm(v: np.ndarray) -> float:
    """||v||_2 without overflow or underflow in its squares."""
    top = np.abs(v).max()
    return float(top * np.linalg.norm(v / top)) if top > 0 else 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-320.0, 300.0),
       st.sampled_from([None, math.nan, math.inf, -math.inf]), st.integers(0, 5))
def test_solve_refuses_b_or_returns_finite(seed, log_c, bad, i):
    # b = c (Ax)^2 over most of the float range, with or without one entry
    # that is not finite: the solve refuses b by name or returns finite Z and
    # xhat, and a converged one meets its exit guarantee at epsilon = 0
    rng = np.random.default_rng(seed)
    a, x = rng.standard_normal((6, 3)), rng.standard_normal(3)
    b = 10.0**log_c * (a @ x) ** 2
    if bad is not None:
        b[i] = bad
    try:
        res = solve_sdp(a, b, np.ones(3))
    except ValueError as exc:
        assert str(exc).startswith(("b is too large", "b has non-finite", "b must be 0 or"))
        return
    assert np.isfinite(res.Z).all() and np.isfinite(res.xhat).all()
    if res.status == "converged":
        # the quadratic forms a_i' Z a_i, without the solver's packed operator
        feasibility = scaled_norm(((a @ res.Z) * a).sum(axis=1) - b)
        assert feasibility <= 10 * solver.TOL_ABS * scaled_norm(b) * (1 + 1e-9)


class TestLiftedOperator:
    def test_forward_matches_quadratic_forms(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((5, 4))
        z = rng.standard_normal((4, 4))
        z = z + z.T
        op = LiftedOperator(a)
        expected = np.array([row @ z @ row for row in a])
        assert np.allclose(op.forward(svec(z)), expected)

    def test_forward_of_lift_is_square(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        op = LiftedOperator(a)
        assert np.allclose(op.forward(svec(np.outer(x, x))), (a @ x) ** 2)
        assert np.all(op.forward(svec(np.outer(x, x))) >= 0)

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((5, 3))
        op = LiftedOperator(a)
        z = rng.standard_normal((3, 3))
        z = z + z.T
        c = rng.standard_normal(5)
        # <B(Z), c> == <Z, B*(c)>
        assert abs(op.forward(svec(z)) @ c - (z * smat(op.adjoint(c))).sum()) <= 1e-10


@pytest.mark.parametrize("n, m", [(4, 20), (6, 10), (5, 60)])
def test_woodbury_normal_equation_residual(n, m):
    rng = np.random.default_rng(n * 100 + m)
    op = LiftedOperator(rng.standard_normal((m, n)))
    w = rng.choice([0.3, 1.0], size=n)
    normal = _NormalSolver(op, w)
    r = rng.standard_normal((n, n))
    r = r + r.T
    d = np.outer(w * w, w * w) + 1.0
    for c in (np.zeros(m), rng.standard_normal(m)):
        z, bz = normal.solve(svec(r), c)
        # the solve folds B*(c) into the right-hand side without forming it
        rhs = r + smat(op.adjoint(c))
        residual = d * smat(z) + smat(op.adjoint(op.forward(z))) - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)
        # the solve hands back B(Z) without another forward map
        assert np.linalg.norm(bz - op.forward(z)) <= 1e-10 * np.linalg.norm(op.forward(z))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_lifted_operator_forward_and_adjoint(n, m, data):
    a = np.array(data.draw(st.lists(finite, min_size=m * n, max_size=m * n))).reshape(m, n)
    z = np.array(data.draw(st.lists(finite, min_size=n * n, max_size=n * n))).reshape(n, n)
    z = z + z.T
    c = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
    op = LiftedOperator(a)
    bz = op.forward(svec(z))
    scale = 1.0 + np.abs(a).max() ** 2 * np.abs(z).sum()
    assert np.abs(bz - [row @ z @ row for row in a]).max() <= 1e-12 * scale
    # <B(Z), c> == <Z, B*(c)>
    assert abs(bz @ c - (z * smat(op.adjoint(c))).sum()) <= 1e-12 * scale * (1.0 + np.abs(c).sum())


def test_config_validation():
    # the solve's settings, max_iter and epsilon, are checked before b and w
    with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
        solve_sdp(np.eye(3), np.ones(3), np.ones(3), max_iter=0)
    with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
        solve_sdp(np.eye(3), np.ones(2), np.ones(3), epsilon=-1.0, max_iter=0)
    with pytest.raises(ValueError, match="^epsilon must be finite and nonnegative, got -1$"):
        solve_sdp(np.eye(3), np.ones(2), np.ones(3), epsilon=-1.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
def test_config_refuses_epsilon_not_finite_and_nonnegative(epsilon):
    # a NaN epsilon once ended the solve "failed" at eig-failure after two
    # sweeps, a bad input reported as a numerical failure
    message = f"^epsilon must be finite and nonnegative, got {epsilon:g}$"
    with pytest.raises(ValueError, match=message):
        solve_sdp(np.eye(3), np.ones(3), np.ones(3), epsilon=epsilon)


class TestAnderson:
    @pytest.mark.parametrize("dim, seed", [(4, 0), (8, 1), (10, 2)])
    def test_linear_contraction_like_gmres(self, dim, seed):
        # x -> M x + c with spectral radius 0.99: plain iteration needs about
        # 2000 steps to reach 1e-10, type-II Anderson at most dim + 2
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        m = (q * np.linspace(-0.99, 0.99, dim)) @ q.T
        c = rng.standard_normal(dim)

        def residual_after(memory, steps):
            accel = _Anderson(dim, memory)
            x = np.zeros(dim)
            for taken in range(steps + 1):
                g = m @ x + c
                f = g - x
                if np.linalg.norm(f) <= 1e-10:
                    return taken, np.linalg.norm(f)
                x = accel.step(g, f)
            return taken, np.linalg.norm(f)

        taken, norm = residual_after(10, dim + 2)
        assert norm <= 1e-10 and taken <= dim + 2
        assert residual_after(0, dim + 2)[1] > 1e-3

    def test_rejected_extrapolation_takes_plain_step(self):
        accel = _Anderson(2, 10)
        g0, g1 = np.array([1.0, 0.0]), np.array([1.0, 0.5])
        assert accel.step(g0, np.array([1.0, 0.0])) is g0  # no differences yet
        x2 = accel.step(g1, np.array([0.0, 0.5]))
        assert accel.extrapolated and not np.array_equal(x2, g1)
        # the extrapolated point's residual exceeds that of the point it came from
        out = accel.step(np.array([5.0, 5.0]), np.array([1.0, 1.0]))
        assert out is g1
        assert (accel.rejected, accel.accepted, accel.count) == (1, 0, 0)
        assert not accel.extrapolated
        # a plain step is never rejected, so a restart keeps it and returns it
        g9 = np.array([9.0, 9.0])
        assert accel.step(g9, np.array([9.0, 9.0]), restart=True) is g9
        assert (accel.rejected, accel.accepted, accel.prev) == (1, 0, None)

    @pytest.mark.parametrize("f, kept", [((0.0, 0.1), True), ((1.0, 1.0), False)])
    def test_restart_judges_the_point_first(self, f, kept):
        # the penalty rebalance acts only at a point the safeguard keeps: a
        # restart returns g itself then, and the stored plain step otherwise
        accel = _Anderson(2, 10)
        g1 = np.array([1.0, 0.5])
        accel.step(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        accel.step(g1, np.array([0.0, 0.5]))
        g = np.array([1.0, 0.6])
        assert accel.step(g, np.array(f), restart=True) is (g if kept else g1)
        assert (accel.accepted, accel.rejected) == (int(kept), int(not kept))
        assert accel.prev is None and not accel.extrapolated

    def test_accepted_extrapolation_is_counted(self):
        accel = _Anderson(2, 10)
        accel.step(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        accel.step(np.array([1.0, 0.5]), np.array([0.0, 0.5]))
        accel.step(np.array([1.0, 0.6]), np.array([0.0, 0.1]))
        assert (accel.accepted, accel.rejected, accel.count) == (1, 0, 2)

    def test_singular_gram_takes_plain_step(self):
        accel = _Anderson(2, 10)
        accel.step(np.array([2.0, 2.0]), np.zeros(2))
        g = np.array([3.0, 3.0])
        assert accel.step(g, np.zeros(2)) is g  # zero Gram and zero shift
        assert not accel.extrapolated

    def test_vanishing_differences_do_not_move_the_point(self):
        # f nearly constant, as in a drift phase: the least-squares gamma is
        # about 1e12, and the residual-scaled shift cuts it to about 1e-4
        accel = _Anderson(2, 10)
        f = np.array([1.0, 1.0])
        accel.step(np.array([2.0, 2.0]), f)
        g = np.array([3.0, 3.0])
        out = accel.step(g, f * (1.0 + 1e-12))
        assert np.abs(out - g).max() <= 1e-3
