import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecs import model, solver
from phasecs.linalg import symmetrize
from phasecs.solver import (
    LiftedOperator,
    _Anderson,
    _NormalSolver,
    SolverConfig,
    ball_project,
    rank1_extract,
    solve_sdp,
    weighted_shrink,
)


def make_problem(n, k, m, omega, alpha, sigma, seed, **cfg_kw):
    inst, est = model.draw_trial(np.random.default_rng(seed), "sparse", n, k, m, 1.0,
                                 alpha, omega, sigma)
    cfg = SolverConfig(epsilon=inst.epsilon, **cfg_kw)
    return inst.x, inst.A, inst, est.weights(n), cfg


def solve_recover_trial(seed, omega):
    """The solve of `phasecs recover --m 40 --omega <omega> --seed <seed>`."""
    x, a, inst, w, cfg = make_problem(16, 2, 40, omega, 0.75, 0.0, seed)
    return x, solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)


class TestWeightedShrink:
    def test_pure_trace_prox(self):
        v = np.diag([3.0, 5.0])
        out = weighted_shrink(v, 0.0, 2.0)
        assert np.allclose(out, np.diag([2.5, 4.5]))

    def test_dead_zone(self):
        v = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = weighted_shrink(v, 0.5, 1.0)
        assert out[0, 1] == 0.0

    def test_diagonal_shift_then_threshold(self):
        v = np.diag([2.0, 2.0])
        out = weighted_shrink(v, 1.0, 1.0)
        assert np.allclose(out, np.zeros((2, 2)))

    def test_is_proximal_map(self):
        # prox objective: Tr(L) + lam ||L||_1 + (pen/2) ||L - V||_F^2
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 3))
        v = v + v.T
        lam, pen = 0.7, 1.3

        def objective(l):
            return np.trace(l) + lam * np.abs(l).sum() + 0.5 * pen * ((l - v) ** 2).sum()

        out = weighted_shrink(v, lam, pen)
        base = objective(out)
        for _ in range(1000):
            pert = rng.standard_normal((3, 3)) * rng.choice([1e-3, 1e-1, 1.0])
            pert = pert + pert.T
            assert objective(out + pert) >= base - 1e-12

    def test_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            weighted_shrink(np.eye(2), 1.0, 0.0)


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def symmetric_matrices(max_n=6):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        finite, min_size=n * n, max_size=n * n,
    ).map(lambda vals: symmetrize(np.array(vals).reshape(n, n))))


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices(), st.floats(0.0, 5.0), st.floats(0.1, 10.0))
def test_weighted_shrink_subgradient_condition(v, lam, pen):
    # 0 in I + lam d|L| + pen (L - V), entry by entry: the trace tilts the
    # diagonal by 1, and G = pen (V - L) - I must equal lam sign(L) where
    # L != 0 and lie in [-lam, lam] where L == 0
    out = weighted_shrink(v, lam, pen)
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
    out = solver._psd_project(mat)
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
        xhat = rank1_extract(np.outer(x, x))
        assert np.allclose(np.minimum(np.abs(xhat - x), np.abs(xhat + x)), 0, atol=1e-9)

    def test_zero(self):
        assert np.array_equal(rank1_extract(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal(self):
        assert np.allclose(rank1_extract(np.diag([4.0, 1.0])), [2.0, 0.0])

    def test_returns_descending_eigenvalues(self):
        xhat, lam = rank1_extract(np.diag([1.0, 4.0, -2.0]), return_eigenvalues=True)
        assert np.allclose(xhat, [0.0, 2.0, 0.0])
        assert np.allclose(lam, [4.0, 1.0, -2.0])

    def test_sign_canonical(self):
        x = np.array([-1.0, 2.0])
        xhat = rank1_extract(np.outer(x, x))
        assert xhat[0] > 0


class TestSolveSdp:
    def test_zero_measurements(self):
        op = LiftedOperator.from_matrix(np.eye(3))
        res = solve_sdp(op, np.zeros(3), np.ones(3), SolverConfig())
        assert res.status == "converged"
        assert np.abs(res.Z).max() <= 1e-9

    def test_ball_contains_origin(self):
        op = LiftedOperator.from_matrix(np.eye(3))
        res = solve_sdp(op, np.ones(3), np.ones(3), SolverConfig(epsilon=5.0))
        assert res.status == "converged"
        assert np.abs(res.Z).max() <= 1e-4

    def test_small_recovery(self):
        x, a, inst, w, cfg = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert res.status == "converged"
        assert model.snr_db(x, res.xhat) >= 40.0

    def test_feasibility_and_splitting_at_convergence(self):
        x, a, inst, w, cfg = make_problem(8, 2, 16, 0.5, 0.5, 0.0, 3)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert res.status == "converged"
        d = res.diagnostics
        assert d["feasibility"] <= cfg.epsilon + 10 * cfg.tol_abs
        assert d["min_eigenvalue"] >= -10 * cfg.tol_abs
        for key in ("split_l", "split_p", "split_r"):
            assert d[key] <= res.primal_residual + 1e-12

    def test_noisy_feasibility_within_ball(self):
        x, a, inst, w, cfg = make_problem(8, 1, 20, 1.0, 1.0, 0.1, 5)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert res.status == "converged"
        assert res.diagnostics["feasibility"] <= inst.epsilon + 10 * cfg.tol_abs

    def test_deterministic(self):
        x, a, inst, w, cfg = make_problem(6, 1, 10, 0.5, 1.0, 0.0, 11)
        r1 = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        r2 = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert r1.iterations == r2.iterations
        assert r1.Z.tobytes() == r2.Z.tobytes()
        assert r1.xhat.tobytes() == r2.xhat.tobytes()

    def test_rank1_self_consistency(self):
        x, a, inst, w, cfg = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        if res.diagnostics["top_eigenvalue_ratio"] <= 1e-6:
            gap = np.linalg.norm(np.outer(res.xhat, res.xhat) - res.Z)
            assert gap <= 1e-5 * np.linalg.norm(res.Z)

    def test_many_rows_recovery(self):
        x, a, inst, w, cfg = make_problem(4, 1, 20, 1.0, 1.0, 0.0, 17)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert res.status == "converged"
        assert model.snr_db(x, res.xhat) >= 40.0

    def test_reports_accelerator_counts(self):
        x, a, inst, w, cfg = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7)
        d = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg).diagnostics
        assert type(d["anderson_accepted"]) is int and d["anderson_accepted"] > 0
        assert type(d["anderson_rejected"]) is int and d["anderson_rejected"] >= 0

    def test_drift_phase_trial_converges(self):
        # `phasecs recover --m 40 --omega 1 --seed 1739820329`: plain ADMM
        # spends about 2000 sweeps in a phase where the duals drift by a
        # constant step; without the residual-scaled shift the accelerator
        # jumped along the drift and ran to the iteration cap
        x, res = solve_recover_trial(1739820329, 1.0)
        assert res.status == "converged" and res.iterations <= 1000
        assert model.snr_db(x, res.xhat) >= 40.0

    def test_penalty_ramp_trial_converges(self):
        # `phasecs recover --m 40 --omega 0.3 --seed 601594546` needs the
        # penalty raised from 1 to about 100; doubling it every 25 sweeps
        # took 309 sweeps, one residual-balancing step every 10 takes 187
        x, res = solve_recover_trial(601594546, 0.3)
        assert res.status == "converged" and res.iterations <= 250
        assert model.snr_db(x, res.xhat) >= 40.0
        updates = res.diagnostics["penalty_updates"]
        assert type(updates) is int and updates >= 1

    def test_rebalance_waits_for_a_vetted_point(self):
        # `phasecs recover --m 40 --omega 0.3 --seed 1512458062`, a trial with
        # |x|^2 = 3.5e-4: at sweep 90 an extrapolated point with a large
        # residual set off a tenfold penalty cut; rebalancing from it, before
        # the safeguard dropped it, left the scaled duals far too large and
        # the solve ran to the cap.  Absolute tolerances on so small a signal
        # bound the SNR near 25 dB
        x, res = solve_recover_trial(1512458062, 0.3)
        assert res.status == "converged" and res.iterations <= 500
        assert model.snr_db(x, res.xhat) >= 20.0

    def test_fixed_penalty_reports_no_updates(self):
        x, a, inst, w, cfg = make_problem(8, 1, 12, 1.0, 1.0, 0.0, 7, adapt_penalty=False)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert res.diagnostics["penalty_updates"] == 0
        assert res.diagnostics["penalty"] == cfg.penalty

    def test_spectrum_diagnostics_match_eigvalsh(self):
        x, a, inst, w, cfg = make_problem(8, 2, 16, 0.5, 0.5, 0.0, 3)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        lam = np.linalg.eigvalsh(res.Z)
        scale = np.abs(lam).max()
        assert abs(res.diagnostics["min_eigenvalue"] - lam[0]) <= 1e-12 * scale
        assert abs(res.diagnostics["top_eigenvalue_ratio"] - lam[-2] / lam[-1]) <= 1e-9
        assert np.allclose(res.xhat, rank1_extract(res.Z), rtol=0, atol=1e-12 * np.sqrt(scale))

    @pytest.mark.parametrize("sigma, seed", [(0.0, 0), (0.0, 3), (0.05, 3), (0.05, 5)])
    def test_accelerated_minimiser_matches_plain(self, monkeypatch, sigma, seed):
        x, a, inst, w, cfg = make_problem(8, 2, 24 if sigma else 16, 0.5, 0.5, sigma, seed,
                                          tol_abs=1e-8, tol_rel=1e-6, max_iter=20000)
        op = LiftedOperator.from_matrix(a)
        fast = solve_sdp(op, inst.b, w, cfg)
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", 0)
        plain = solve_sdp(op, inst.b, w, cfg)
        assert fast.status == plain.status == "converged"
        assert fast.iterations < plain.iterations
        assert plain.diagnostics["anderson_accepted"] == 0
        assert np.linalg.norm(fast.Z - plain.Z) <= 1e-3 * np.linalg.norm(plain.Z)

    @pytest.mark.parametrize("n, m, sigma, seed", [(8, 16, 0.0, 3), (16, 40, 0.0, 1),
                                                   (16, 40, 0.05, 2)])
    def test_state_blocks_stay_exactly_symmetric(self, monkeypatch, n, m, sigma, seed):
        # the solver feeds weighted_shrink and _psd_project symmetric blocks and
        # does not symmetrize around them; symmetrizing there must change no bit
        x, a, inst, w, cfg = make_problem(n, 2, m, 0.5, 0.5, sigma, seed)
        op = LiftedOperator.from_matrix(a)
        plain = solve_sdp(op, inst.b, w, cfg)
        shrink, psd = solver.weighted_shrink, solver._psd_project
        monkeypatch.setattr(solver, "weighted_shrink",
                            lambda v, lam, pen: symmetrize(shrink(v, lam, pen)))
        monkeypatch.setattr(solver, "_psd_project", lambda mat: psd(symmetrize(mat)))
        patched = solve_sdp(op, inst.b, w, cfg)
        assert patched.iterations == plain.iterations
        assert patched.Z.tobytes() == plain.Z.tobytes()
        assert patched.xhat.tobytes() == plain.xhat.tobytes()

    def test_residuals_fresh_at_max_iter(self):
        # sweep 10 is a rebalance sweep, which computes its dual residual in
        # the loop; without rebalancing the same sweep's residual is computed
        # after the loop.  The rebalance itself comes after the residuals
        x, a, inst, w, cfg = make_problem(16, 2, 40, 0.3, 0.75, 0.0, 4, max_iter=10)
        op = LiftedOperator.from_matrix(a)
        adaptive = solve_sdp(op, inst.b, w, cfg)
        fixed = solve_sdp(op, inst.b, w, dataclasses.replace(cfg, adapt_penalty=False))
        assert adaptive.status == fixed.status == "max-iter"
        assert fixed.diagnostics["ball_violation"] > 10 * cfg.tol_abs  # not tested in the loop
        assert adaptive.primal_residual == fixed.primal_residual
        assert adaptive.dual_residual == fixed.dual_residual
        short = solve_sdp(op, inst.b, w, dataclasses.replace(cfg, max_iter=7, adapt_penalty=False))
        assert np.isfinite(short.dual_residual) and short.dual_residual > 0

    def test_reports_objective(self):
        x, a, inst, w, cfg = make_problem(8, 2, 16, 0.5, 0.5, 0.0, 3, lam=0.5)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        wzw = np.outer(w, w) * res.Z
        expected = np.trace(wzw) + cfg.lam * np.abs(wzw).sum()
        assert res.diagnostics["objective"] == pytest.approx(expected, rel=1e-12)

    def test_result_has_no_instance_dict(self):
        x, a, inst, w, cfg = make_problem(6, 1, 10, 0.5, 1.0, 0.0, 11)
        res = solve_sdp(LiftedOperator.from_matrix(a), inst.b, w, cfg)
        assert not hasattr(res, "__dict__")

    def test_shape_validation(self):
        op = LiftedOperator.from_matrix(np.eye(3))
        with pytest.raises(ValueError):
            solve_sdp(op, np.zeros(2), np.ones(3), SolverConfig())


class TestLiftedOperator:
    def test_forward_matches_quadratic_forms(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((5, 4))
        z = rng.standard_normal((4, 4))
        z = z + z.T
        op = LiftedOperator.from_matrix(a)
        expected = np.array([row @ z @ row for row in a])
        assert np.allclose(op.forward(z), expected)

    def test_forward_of_lift_is_square(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        op = LiftedOperator.from_matrix(a)
        assert np.allclose(op.forward(np.outer(x, x)), (a @ x) ** 2)
        assert np.all(op.forward(np.outer(x, x)) >= 0)

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((5, 3))
        op = LiftedOperator.from_matrix(a)
        z = rng.standard_normal((3, 3))
        z = z + z.T
        c = rng.standard_normal(5)
        # <B(Z), c> == <Z, B*(c)>
        assert abs(op.forward(z) @ c - (z * op.adjoint(c)).sum()) <= 1e-10


@pytest.mark.parametrize("n, m", [(4, 20), (6, 10), (5, 60)])
def test_woodbury_normal_equation_residual(n, m):
    rng = np.random.default_rng(n * 100 + m)
    op = LiftedOperator.from_matrix(rng.standard_normal((m, n)))
    w = rng.choice([0.3, 1.0], size=n)
    normal = _NormalSolver(op, w)
    r = rng.standard_normal((n, n))
    r = r + r.T
    d = np.outer(w * w, w * w) + 1.0
    for c in (np.zeros(m), rng.standard_normal(m)):
        z, bz = normal.solve(r, c)
        # the solve folds B*(c) into the right-hand side without forming it
        rhs = r + op.adjoint(c)
        residual = d * z + op.adjoint(op.forward(z)) - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)
        # the solve hands back B(Z) without another forward map
        assert np.linalg.norm(bz - op.forward(z)) <= 1e-10 * np.linalg.norm(op.forward(z))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_lifted_operator_forward_and_adjoint(n, m, data):
    a = np.array(data.draw(st.lists(finite, min_size=m * n, max_size=m * n))).reshape(m, n)
    z = np.array(data.draw(st.lists(finite, min_size=n * n, max_size=n * n))).reshape(n, n)
    z = z + z.T
    c = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
    op = LiftedOperator.from_matrix(a)
    bz = op.forward(z)
    scale = 1.0 + np.abs(a).max() ** 2 * np.abs(z).sum()
    assert np.abs(bz - [row @ z @ row for row in a]).max() <= 1e-12 * scale
    # <B(Z), c> == <Z, B*(c)>
    assert abs(bz @ c - (z * op.adjoint(c)).sum()) <= 1e-12 * scale * (1.0 + np.abs(c).sum())


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(penalty=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-1.0)


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
        assert accel.vetted(np.array([0.0, 0.5])) and not accel.vetted(np.array([1.0, 1.0]))
        out = accel.step(np.array([5.0, 5.0]), np.array([1.0, 1.0]))
        assert out is g1
        assert (accel.rejected, accel.accepted, accel.count) == (1, 0, 0)
        assert not accel.extrapolated
        assert accel.vetted(np.array([9.0, 9.0]))  # a plain step is never rejected

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
