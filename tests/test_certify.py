import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasecs import model
from phasecs.certify import (
    CapExceededError,
    ExhaustiveL1Oracle,
    L1MinResult,
    NspVerdict,
    NspWitness,
    PhaselessWitness,
    RipReport,
    _dedupe,
    _half_subsets,
    brute_force_phaseless,
    canonical_sign,
    nsp_slack,
    phaseless_nsp_check,
    phaseless_slack,
    recovers_uniquely,
    rip_constant,
    srip_bounds,
    weighted_nsp_check,
)
from phasecs.linalg import MAX_WEIGHT, TOL
from phasecs.solver import solve_sdp

A_2x3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
A_SPARK = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
A_FAIL = np.array([[1.0, 1.0], [1.0, -1.0]])


def reenumerate_delta(a, k):
    """Independent isometry-constant oracle on numpy's eigensolver."""
    best = 0.0
    for t in combinations(range(a.shape[1]), k):
        lam = np.linalg.eigvalsh(a[:, t].T @ a[:, t])
        best = max(best, float(np.abs(lam - 1.0).max()))
    return best


class TestRip:
    def test_identity_is_isometry(self):
        for k in (1, 2, 3):
            assert rip_constant(np.eye(5), k).delta == 0.0

    @pytest.mark.parametrize("check", [
        pytest.param(rip_constant, id="rip_constant"),
        pytest.param(srip_bounds, id="srip_bounds"),
        pytest.param(lambda a, k: weighted_nsp_check(a, k, np.ones(3)), id="weighted_nsp_check"),
        pytest.param(lambda a, k: phaseless_nsp_check(a, k, np.ones(3)), id="phaseless_nsp_check"),
    ])
    @pytest.mark.parametrize("k", [0, 4])
    def test_refuses_order_outside_one_to_n(self, check, k):
        with pytest.raises(ValueError, match=f"^k must be between 1 and n = 3, got {k}$"):
            check(np.eye(3), k)

    def test_scaled_diagonal(self):
        rep = rip_constant(np.diag([1.0, 0.5]), 1)
        assert abs(rep.delta - 0.75) <= 1e-12
        assert rep.delta_support == (1,)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            a = model.gen_gaussian_matrix(rng, 6, 8)
            rep = rip_constant(a, 2)
            assert abs(rep.delta - reenumerate_delta(a, 2)) <= 1e-10

    def test_monotone_in_k(self):
        rng = np.random.default_rng(53)
        a = model.gen_gaussian_matrix(rng, 6, 8)
        deltas = [rip_constant(a, k).delta for k in (1, 2, 3)]
        assert deltas[0] <= deltas[1] + 1e-12 <= deltas[2] + 2e-12

    def test_witness_reevaluates(self):
        rng = np.random.default_rng(57)
        a = model.gen_gaussian_matrix(rng, 5, 7)
        rep = rip_constant(a, 2)
        cols = a[:, rep.delta_support]
        lam = np.linalg.eigvalsh(cols.T @ cols)
        assert abs(np.abs(lam - 1).max() - rep.delta) <= 1e-10

    def test_cap_refusal(self):
        # both isometry checks refuse the same support count with the same text
        message = "support enumeration cap exceeded: C(40,20)=137846528820 > 2000000"
        for check in (rip_constant, srip_bounds):
            with pytest.raises(CapExceededError, match=f"^{re.escape(message)}$") as err:
                check(np.ones((2, 40)), 20)
            assert err.value.cap == "support enumeration cap"

    def test_support_table_is_drawn_in_chunks(self):
        # the (C(700, 2), 2) table of supports alone would take 3.9 MB
        a = model.gen_gaussian_matrix(np.random.default_rng(59), 2, 700)
        tracemalloc.start()
        try:
            rep = rip_constant(a, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        cols = a[:, rep.delta_support]
        assert abs(np.abs(np.linalg.eigvalsh(cols.T @ cols) - 1.0).max() - rep.delta) <= 1e-12


class TestSrip:
    def test_two_copies_of_one(self):
        rep = srip_bounds(np.array([[1.0], [1.0]]), 1)
        assert abs(rep.theta_minus - 1.0) <= 1e-12
        assert abs(rep.theta_plus - 2.0) <= 1e-12
        assert len(rep.lower_rows) == 1

    def test_stacked_identity(self):
        # half the rows can miss a coordinate entirely, so the lower bound is 0
        rep = srip_bounds(np.vstack([np.eye(2), np.eye(2)]), 1)
        assert abs(rep.theta_minus) <= 1e-12
        assert abs(rep.theta_plus - 2.0) <= 1e-12

    def test_zero_column(self):
        a = np.array([[1.0, 0.0], [0.5, 0.0], [0.2, 0.0]])
        assert srip_bounds(a, 1).theta_minus <= 1e-12

    def test_row_cap(self):
        with pytest.raises(CapExceededError):
            srip_bounds(np.ones((15, 2)), 1)

    def test_consistent_with_rip(self):
        rng = np.random.default_rng(61)
        a = model.gen_gaussian_matrix(rng, 6, 5)
        delta = rip_constant(a, 2).delta
        rep = srip_bounds(a, 2)
        assert max(1.0 - rep.theta_minus, rep.theta_plus - 1.0) >= delta - 1e-10
        assert rep.theta_plus - 1.0 <= delta + 1e-10

    def test_witnesses_reevaluate(self):
        rng = np.random.default_rng(63)
        a = model.gen_gaussian_matrix(rng, 6, 5)
        rep = srip_bounds(a, 2)
        sub = a[list(rep.lower_rows), :][:, rep.lower_support]
        assert abs(np.linalg.eigvalsh(sub.T @ sub)[0] - rep.theta_minus) <= 1e-10
        cols = a[:, rep.upper_support]
        assert abs(np.linalg.eigvalsh(cols.T @ cols)[-1] - rep.theta_plus) <= 1e-10


class TestWeightedNsp:
    def test_holds_unweighted(self):
        # the kernel is the line through (1, 1, -1): theta = 1/3
        v = weighted_nsp_check(A_2x3, 1, np.ones(3))
        assert v.status == "holds-exact"
        assert abs(v.margin - 1.0 / 3.0) <= 1e-12

    def test_zero_weight_tie_fails(self):
        v = weighted_nsp_check(A_2x3, 1, np.array([0.0, 1.0, 1.0]))
        assert v.status == "fails"
        assert v.witness.support == (1,)
        assert nsp_slack(v.witness.kernel_vector, v.witness.support,
                         np.array([0.0, 1.0, 1.0])) <= 1e-12

    def test_strictness_tie_fails(self):
        v = weighted_nsp_check(np.array([[1.0, 1.0]]), 1, np.ones(2))
        assert v.status == "fails"
        assert abs(v.margin) <= 1e-12

    def test_injective_vacuous(self):
        v = weighted_nsp_check(np.eye(3), 1, np.ones(3))
        assert v.status == "holds-exact"
        assert v.margin == math.inf

    def test_dim2_tie_detected(self):
        v = weighted_nsp_check(np.array([[1.0, 1.0, 1.0]]), 1, np.ones(3))
        assert v.status == "fails"
        assert abs(v.margin) <= 1e-10

    def test_dim2_matches_dense_angle_grid(self):
        # the margin is 1 - 2 theta, theta the largest share of weighted
        # mass on k coordinates; sweep the kernel circle for it
        rng = np.random.default_rng(71)
        for _ in range(5):
            a = model.gen_gaussian_matrix(rng, 4, 6)
            w = np.ones(6)
            w[rng.choice(6, 2, replace=False)] = rng.uniform(0, 1)
            verdict = weighted_nsp_check(a, 2, w)
            kernel = np.linalg.svd(a)[2][-2:].T  # independent kernel basis
            grid = np.linspace(0, 2 * np.pi, 20001)
            mass = w * np.abs(np.outer(np.cos(grid), kernel[:, 0])
                              + np.outer(np.sin(grid), kernel[:, 1]))
            theta = np.sort(mass, axis=1)[:, -2:].sum(axis=1) / mass.sum(axis=1)
            worst = float((1.0 - 2.0 * theta).min())
            assert verdict.margin <= worst + 1e-9
            assert worst - verdict.margin <= 1e-3
            wt = verdict.witness
            if wt is not None:  # the witness attains the margin
                share = nsp_slack(wt.kernel_vector, wt.support, w) / (w @ np.abs(wt.kernel_vector))
                assert abs(share - verdict.margin) <= 1e-12

    def test_margin_matches_highs_lp(self):
        # differential check: theta is the largest optimum over supports T
        # and signs s of the LP  max s . (w h)_T  over h = Q c in the kernel
        # with ||h||_{1,w} <= 1 (t >= |w h|, sum t <= 1), solved by HiGHS.
        # Two zero weights leave at least d positive ones, so that
        # ||.||_{1,w} stays a norm on the kernel
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(79)
        for trial in range(8):
            m, n = [(5, 8), (3, 7), (4, 6), (2, 5)][trial % 4]
            a = model.gen_gaussian_matrix(rng, m, n)
            k = 1 + trial % 3
            w = rng.uniform(0.1, 1.0, n) if trial % 2 else np.ones(n)
            if trial % 3 == 0:
                w[rng.choice(n, 2, replace=False)] = 0.0
            verdict = weighted_nsp_check(a, k, w)
            q = np.linalg.svd(a)[2][m:].T  # independent kernel basis
            d = q.shape[1]
            wq = w[:, None] * q
            a_ub = np.vstack([np.hstack([wq, -np.eye(n)]), np.hstack([-wq, -np.eye(n)]),
                              np.append(np.zeros(d), np.ones(n))])
            b_ub = np.append(np.zeros(2 * n), 1.0)
            theta = 0.0
            for t in combinations(range(n), k):
                for s in itertools.product([-1.0, 1.0], repeat=k):
                    cost = np.append(-(np.array(s) @ wq[list(t)]), np.zeros(n))
                    lp = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                                 bounds=[(None, None)] * d + [(0, None)] * n, method="highs")
                    assert lp.status == 0
                    theta = max(theta, -lp.fun)
            assert abs(verdict.margin - (1.0 - 2.0 * theta)) <= 1e-9

    def test_exact_mode_dim_cap(self):
        # kernel dimension 13 in 26 columns: C(26, 12) = 9657700 vertex
        # subsets, beyond the cap of 2,000,000; refused before enumerating
        a = model.gen_gaussian_matrix(np.random.default_rng(72), 13, 26)
        with pytest.raises(CapExceededError, match="vertex enumeration cap"):
            weighted_nsp_check(a, 1, np.ones(26))
        # one zero weight leaves C(25, 12) = 5200300 subsets
        with pytest.raises(CapExceededError, match="C\\(25,12\\)"):
            weighted_nsp_check(a, 1, np.append(0.0, np.ones(25)))

    def test_kernel_dimension_3_answers(self):
        # one row of four ones: each vertex is e_i - e_j, theta = 1/2
        v = weighted_nsp_check(np.ones((1, 4)), 1, np.ones(4))
        assert v.status == "fails"
        assert abs(v.margin) <= 1e-12
        assert v.enumerated == math.comb(4, 2)
        assert np.abs(v.witness.kernel_vector).max() == pytest.approx(1 / math.sqrt(2))

    def test_near_tie_is_indeterminate(self):
        # kernel direction (0.6, 0.4 + 1e-10, -1): the off-support mass beats
        # the worst support by ~1e-10, inside the uncertifiable band
        a = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.4 + 1e-10]])
        v = weighted_nsp_check(a, 1, np.ones(3))
        assert v.status == "indeterminate"
        assert 0 < v.margin <= 1e-9

    def test_kernel_vector_without_weighted_mass_fails(self):
        # column 2 is zero and weighs nothing, so e_2 is a kernel vector
        # without weighted mass: the property fails at margin 0.  The
        # witness support is its largest entry, so that h_T is not zero
        a = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
        v = weighted_nsp_check(a, 1, np.array([1.0, 1.0, 0.0, 1.0]))
        assert (v.status, v.margin, v.enumerated) == ("fails", 0.0, 0)
        assert v.witness.support == (2,)
        assert np.abs(np.abs(v.witness.kernel_vector) - [0.0, 0.0, 1.0, 0.0]).max() <= 1e-12


class TestPhaselessNsp:
    def test_full_spark_vacuous(self):
        v = phaseless_nsp_check(A_SPARK, 1, np.ones(2))
        assert v.status == "holds-exact"
        assert v.margin == math.inf

    def test_failure_example(self):
        v = phaseless_nsp_check(A_FAIL, 2, np.ones(2))
        assert v.status == "fails"
        wt = v.witness
        assert phaseless_slack(wt.u, wt.v, np.ones(2)) <= 1e-12
        assert np.sum(np.abs(wt.u + wt.v) > 1e-9) <= 2
        # witness kernels re-verify against the row split
        rows = list(wt.rows)
        comp = [i for i in range(2) if i not in rows]
        assert np.abs(A_FAIL[rows, :] @ wt.u).max() <= 1e-10
        assert np.abs(A_FAIL[comp, :] @ wt.v).max() <= 1e-10
        assert np.linalg.norm(wt.u) > 1e-9 and np.linalg.norm(wt.v) > 1e-9

    def test_identity_sparsity_filter(self):
        assert phaseless_nsp_check(np.eye(2), 1, np.ones(2)).status == "holds-exact"
        assert phaseless_nsp_check(np.eye(2), 2, np.ones(2)).status == "fails"

    def test_row_cap(self):
        with pytest.raises(CapExceededError):
            phaseless_nsp_check(np.ones((13, 2)), 1, np.ones(2))

    def test_vertex_enumeration_cap(self):
        # the first split (S empty) leaves a 13-dimensional pair space on each
        # support: C(24, 12) subsets of the positive weights
        a = model.gen_gaussian_matrix(np.random.default_rng(71), 12, 24)
        with pytest.raises(CapExceededError, match="vertex enumeration cap"):
            phaseless_nsp_check(a, 1, np.ones(24))

    def test_mixed_face_fails_at_zero(self):
        # on the split S = {1} every vertex of P has u = 0 or v = 0; the face
        # between (e_0, 0) and (0, e_1) has ||p||_1 = 1 throughout, so its
        # disjoint pair (u, v) = (+-e_0, +-e_1) violates at slack exactly 0
        v = phaseless_nsp_check(np.eye(2), 2, np.ones(2))
        assert (v.status, v.margin, v.witness.rows) == ("fails", 0.0, (1,))
        assert np.abs(v.witness.u).tolist() == [1.0, 0.0]
        assert np.abs(v.witness.v).tolist() == [0.0, 1.0]
        assert phaseless_slack(v.witness.u, v.witness.v, np.ones(2)) == 0.0

    def test_zero_weight_pairs_fail_at_zero(self):
        # on S = {1}, (u, v) = (e_1, 0) moves neither norm: u lives on the
        # zero weight; with v = (1, -1) of the other block the pair has
        # ||u - v||_{1,w} = ||u + v||_{1,w} = 1, and the oracle cannot tell
        # u + v from the other signal of its magnitudes
        a, w = np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])
        v = phaseless_nsp_check(a, 2, w)
        assert (v.status, v.margin) == ("fails", 0.0)
        assert v.witness.u[0] == 0.0 and v.witness.u[1] != 0.0
        assert phaseless_slack(v.witness.u, v.witness.v, w) == 0.0
        xw = v.witness.u + v.witness.v
        assert not recovers_uniquely(brute_force_phaseless(a, np.abs(a @ xw), w), xw,
                                     up_to_sign=True)

    def test_sparse_kernel_vector_fails_at_once(self):
        # e_0 - e_1 is a 2-sparse kernel vector: on T = {0, 1} the pair
        # u = v = h has u - v = 0, which fails at margin -inf
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
        v = phaseless_nsp_check(a, 2, np.ones(3))
        assert (v.status, v.margin) == ("fails", -math.inf)
        u, h = v.witness.u, v.witness.v
        assert np.abs(u - h).max() <= 1e-12 and np.abs(a @ u).max() <= 1e-12
        assert abs(u[2]) <= 1e-12 and np.abs(u).max() > 0.1

    def test_exact_matches_breakpoint_enumeration(self):
        # with k < N only pair angles that zero a coordinate of u + v are
        # feasible; enumerate those directly as an independent oracle of the
        # least slack over ||u - v||_{1,w}
        from phasecs.linalg import kernel_basis

        rng = np.random.default_rng(99)
        outcomes = set()
        for trial in range(20):
            m, n = [(4, 3), (6, 4)][trial % 2]  # generic splits are 1 + 1
            a = rng.standard_normal((m, n))
            k = max(1, n - 2 + trial % 2)
            w = rng.uniform(0.05, 1, size=n)
            verdict = phaseless_nsp_check(a, k, w)
            worst = math.inf
            for bits in range(1 << (m - 1)):
                rows = [i + 1 for i in range(m - 1) if bits >> i & 1]
                mask = np.zeros(m, dtype=bool)
                mask[rows] = True
                ks, kc = kernel_basis(a[mask]), kernel_basis(a[~mask])
                if ks.shape[1] != 1 or kc.shape[1] != 1:
                    continue
                u0, v0 = ks[:, 0], kc[:, 0]
                for i in range(n):
                    if abs(u0[i]) < 1e-12 and abs(v0[i]) < 1e-12:
                        continue
                    base = math.atan2(-u0[i], v0[i])
                    for phi in (base, base + math.pi):
                        c, s = math.cos(phi), math.sin(phi)
                        if abs(c) < 1e-9 or abs(s) < 1e-9:
                            continue
                        p = c * u0 + s * v0
                        if np.sum(np.abs(p) > 1e-10) > k:
                            continue
                        slack = phaseless_slack(c * u0, s * v0, w)
                        worst = min(worst, slack / model.weighted_l1(c * u0 - s * v0, w))
            if math.isinf(worst):
                assert verdict.status == "holds-exact" and verdict.margin == math.inf
                outcomes.add("vacuous")
            else:
                assert abs(verdict.margin - worst) <= 1e-9
                outcomes.add(verdict.status)
        assert {"vacuous", "fails"} <= outcomes

    def test_exact_matches_dense_angle_grid(self):
        # with k = N the sparsity filter is inactive, so the margin, the
        # least slack over ||u - v||_{1,w}, must match a dense sweep over pair
        # angles for every row split
        for seed in (3, 4, 9):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((4, 3))
            w = np.ones(3)
            w[rng.integers(3)] = rng.uniform(0, 1)
            verdict = phaseless_nsp_check(a, 3, w)
            worst = math.inf
            # only the 2+2 row splits of a generic 4x3 matrix leave a
            # nontrivial kernel on both sides
            for rows in ([0, 1], [0, 2], [0, 3]):
                mask = np.zeros(4, dtype=bool)
                mask[rows] = True
                ker_u = np.linalg.svd(a[mask])[2][-1]
                ker_v = np.linalg.svd(a[~mask])[2][-1]
                for phi in np.linspace(0, 2 * np.pi, 40001):
                    if abs(math.cos(phi)) < 1e-3 or abs(math.sin(phi)) < 1e-3:
                        continue
                    u, v = math.cos(phi) * ker_u, math.sin(phi) * ker_v
                    worst = min(worst, phaseless_slack(u, v, w) / model.weighted_l1(u - v, w))
            assert verdict.margin <= worst + 1e-9
            assert worst - verdict.margin <= 1e-3


A_4x3 = np.random.default_rng(0).standard_normal((4, 3))


@pytest.mark.parametrize("check, a, bad", [
    pytest.param(check, a, bad, id=f"{check.__name__}-{a_id}-{bad}-exact")
    for check, a, a_id in ((weighted_nsp_check, A_2x3, "a0"), (phaseless_nsp_check, A_4x3, "a1"))
    for bad in (math.nan, math.inf, -math.inf)
])
def test_nsp_checks_refuse_non_finite_weights(check, a, bad):
    # a NaN weight once certified: its NaN margin passed the band test
    with pytest.raises(ValueError, match=f"^w must be finite and nonnegative, got {bad:g}$"):
        check(a, 1, [bad, 1.0, 1.0])
    # the length message keeps its place ahead of the entries
    with pytest.raises(ValueError, match=r"^w must have shape \(3,\), got \(2,\)$"):
        check(a, 1, [bad, 1.0])


@pytest.mark.parametrize("entry, name", [
    pytest.param(lambda w: weighted_nsp_check(A_2x3, 1, w), "w", id="weighted_nsp_check"),
    pytest.param(lambda w: phaseless_nsp_check(A_4x3, 1, w), "w", id="phaseless_nsp_check"),
    pytest.param(lambda w: ExhaustiveL1Oracle(A_2x3).solve([1.0, 1.0], w), "w",
                 id="ExhaustiveL1Oracle.solve"),
    pytest.param(lambda w: brute_force_phaseless(A_2x3, [1.0, 1.0], w), "w",
                 id="brute_force_phaseless"),
    pytest.param(lambda w: solve_sdp(np.eye(3), np.ones(3), w, max_iter=20), "w",
                 id="solve_sdp"),
    pytest.param(lambda w: model.gen_support_estimate(np.random.default_rng(0), [0], 3, 1, 1.0,
                                                      1.0, w[0]), "omega",
                 id="gen_support_estimate"),
])
def test_refuses_negative_weights(entry, name):
    # every weighted program takes its weights by one rule: with a negative
    # weight ||.||_{1,w} is no norm (the null space checks once scored
    # negative mass, and the oracles' program can be unbounded below), and
    # above MAX_WEIGHT its sums can overflow (pnsp once certified at margin
    # inf, and the oracles tied every candidate at value inf)
    for bad, rule in ((-1.0, "finite and nonnegative, got -1"),
                      (math.nan, "finite and nonnegative, got nan"),
                      (math.inf, "finite and nonnegative, got inf"),
                      (2 * MAX_WEIGHT, "at most 1e+50, got 2e+50")):
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(rule)}$"):
            entry([bad, 1.0, 1.0])
    entry([MAX_WEIGHT, 1.0, 1.0])
    entry([-0.0, 1.0, 1.0])  # a signed zero is no negative weight


def test_certificates_are_slotted():
    # certify-batch keeps hundreds of these per pass
    witness = NspWitness(np.ones(2), (0,))
    objects = [RipReport(order=1), witness, PhaselessWitness(np.ones(2), np.ones(2), (0,)),
               NspVerdict("fails", 0.0, witness)]
    for obj in objects:
        assert not hasattr(obj, "__dict__")
    assert dataclasses.asdict(objects[-1])["witness"]["support"] == (0,)


class TestL1Oracle:
    def test_matches_highs_lp(self):
        # differential check: the weighted-l1 program as an LP over z = p - q,
        # p, q >= 0, solved by HiGHS; the vertex enumeration must find its
        # optimal value, and its point when the enumeration finds one minimiser
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(67)
        for trial in range(30):
            n = 4 + trial % 9
            m = int(rng.integers(1, min(n, 8) + 1))
            a = model.gen_gaussian_matrix(rng, m, n)
            w = rng.uniform(0.1, 1.0, n) if trial % 3 else np.ones(n)
            if trial % 2:
                y = rng.standard_normal(m)
            else:
                k = max(1, m // 3)
                x = np.zeros(n)
                x[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
                y = a @ x
            res = ExhaustiveL1Oracle(a).solve(y, w)
            lp = linprog(np.concatenate([w, w]), A_eq=np.hstack([a, -a]), b_eq=y,
                         bounds=(0, None), method="highs")
            assert lp.status == 0
            assert abs(lp.fun - res.value) <= 1e-7 * (1.0 + abs(res.value))
            if len(res.minimizers) == 1:
                z, ref = lp.x[:n] - lp.x[n:], res.minimizers[0]
                assert np.abs(z - ref).max() <= 1e-6 * (1.0 + np.abs(ref).max())

    def test_identity_unique(self):
        res = ExhaustiveL1Oracle(np.eye(2)).solve(np.array([3.0, -4.0]), np.ones(2))
        assert recovers_uniquely(res, np.array([3.0, -4.0]))

    def test_tie_set(self):
        res = ExhaustiveL1Oracle(np.array([[1.0, 1.0]])).solve(np.array([1.0]), np.ones(2))
        assert res.value == pytest.approx(1.0)
        assert sorted(tuple(np.round(z, 9)) for z in res.minimizers) == [(0.0, 1.0), (1.0, 0.0)]

    def test_weights_break_tie(self):
        res = ExhaustiveL1Oracle(np.array([[1.0, 1.0]])).solve(np.array([1.0]),
                                                        np.array([0.5, 1.0]))
        assert res.value == pytest.approx(0.5)
        assert recovers_uniquely(res, np.array([1.0, 0.0]))

    def test_zero_rhs(self):
        res = ExhaustiveL1Oracle(np.array([[1.0, 1.0]])).solve(np.array([0.0]), np.ones(2))
        assert res.value == 0.0
        assert np.array_equal(res.minimizers[0], np.zeros(2))

    def test_infeasible_empty(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])  # rank 1, rhs outside the range
        res = ExhaustiveL1Oracle(a).solve(np.array([1.0, -1.0]), np.ones(2))
        assert res.value is None
        assert res.minimizers == []

    def test_degenerate_flagged(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]])  # first two columns parallel
        res = ExhaustiveL1Oracle(a).solve(np.array([1.0, 2.0]), np.ones(3))
        assert res.degenerate

    def test_dimension_cap(self):
        with pytest.raises(CapExceededError):
            ExhaustiveL1Oracle(np.ones((2, 13)))

    @pytest.mark.parametrize("y, w, name", [
        ([math.nan, 1.0, 2.0], np.ones(5), "y"),
        ([math.inf, 1.0, 2.0], np.ones(5), "y"),
        ([1.0, 2.0], np.ones(5), "y"),
        ([[1.0, 2.0, 3.0]], np.ones(5), "y"),
        ([1.0, 2.0, 3.0], np.ones(4), "w"),
        ([0.0, 0.0, 0.0], np.ones(6), "w"),  # refused before the zero shortcut
        ([1.0, 2.0, 3.0], [1.0, 1.0, math.nan, 1.0, 1.0], "w"),
    ])
    def test_refuses_bad_vectors(self, y, w, name):
        a = model.gen_gaussian_matrix(np.random.default_rng(5), 3, 5)
        with pytest.raises(ValueError, match=f"^{name} "):
            ExhaustiveL1Oracle(a).solve(y, w)

    def test_refuses_y_whose_norm_overflows(self):
        # ||y|| = inf once made the feasibility tolerance inf, and the two
        # 1-sparse candidates, neither with z = y, came back at value 1e200
        with pytest.raises(ValueError, match="^y is too large for a finite squared norm$"):
            ExhaustiveL1Oracle(np.eye(2)).solve([1e200, 1e200], [1.0, 1.0])
        res = ExhaustiveL1Oracle(np.eye(2)).solve([1e150, 1e150], [1.0, 1.0])
        assert res.value == 2e150 and len(res.minimizers) == 1
        assert np.array_equal(res.minimizers[0], [1e150, 1e150])

    def test_overflowing_candidate_is_infeasible(self):
        # z = 1e200 * 1e150 overflows, and A z = (inf, 0 * inf) has a NaN
        # residual, which once passed the feasibility test at value inf
        res = ExhaustiveL1Oracle(np.array([[1e-200], [0.0]])).solve([1e150, 0.0], [1.0])
        assert res.value is None and res.minimizers == []

    @pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-30])
    def test_minimizers_do_not_depend_on_weight_scale(self, scale):
        # the cost-tie width was once 1e-9 (1 + least cost), absolute below
        # a least cost of 1: at 1e-9 and 1e-12 the linear oracle returned 3
        # and 6 minimizers, and the phaseless one 3 and 12, where 1 is right
        a = np.random.default_rng(0).standard_normal((2, 4))
        y, w = np.array([1.0, 2.0]), np.ones(4)
        for solve in (ExhaustiveL1Oracle(a).solve, functools.partial(brute_force_phaseless, a)):
            base, res = solve(y, w), solve(y, scale * w)
            assert len(base.minimizers) == len(res.minimizers) == 1
            assert res.value == pytest.approx(scale * base.value, rel=1e-15)
            assert np.array_equal(res.minimizers[0], base.minimizers[0])

    @pytest.mark.parametrize("entry", [
        pytest.param(lambda a, y, w: ExhaustiveL1Oracle(a).solve(y, w), id="solve"),
        pytest.param(brute_force_phaseless, id="brute_force_phaseless"),
    ])
    def test_refuses_weights_whose_least_cost_overflows(self, entry):
        # within MAX_WEIGHT, w |z| = 1e50 * 1e260 overflows; the least cost
        # was once returned as inf, with every candidate tied at it
        a = np.array([[1e-250]])
        with pytest.raises(ValueError, match="^w is too large for a finite least cost$"):
            entry(a, [1e10], [1e50])
        res = entry(a, [1e10], [1.0])
        assert res.value == 1e10 / 1e-250 and np.array_equal(res.minimizers, [[1e10 / 1e-250]])


class TestPhaselessOracle:
    def test_identity_four_minimizers(self):
        x = np.array([1.0, -2.0])
        res = brute_force_phaseless(np.eye(2), np.abs(x), np.ones(2))
        assert res.value == pytest.approx(3.0)
        reps = sorted(tuple(np.round(z, 9)) for z in res.minimizers)
        assert reps == [(1.0, -2.0), (1.0, 2.0)]  # two antipodal pairs = 4 vectors
        assert not recovers_uniquely(res, x, up_to_sign=True)

    def test_third_row_disambiguates(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.array([1.0, -2.0])
        res = brute_force_phaseless(a, np.abs(a @ x), np.ones(2))
        assert recovers_uniquely(res, x, up_to_sign=True)

    @pytest.mark.parametrize("b_abs, w, name", [
        ([math.nan, 1.0, 2.0], np.ones(2), "b_abs"),
        ([1.0, 2.0], np.ones(2), "b_abs"),
        ([1.0, 2.0, 1.0], np.ones(3), "w"),
        ([0.0, 0.0, 0.0], np.ones(1), "w"),
    ])
    def test_refuses_bad_vectors(self, b_abs, w, name):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=f"^{name} "):
            brute_force_phaseless(a, b_abs, w)

    def test_refuses_magnitudes_whose_norm_overflows(self):
        # the sign pattern (+, +) once returned the infeasible (1e200, 0)
        with pytest.raises(ValueError, match="^b_abs is too large for a finite squared norm$"):
            brute_force_phaseless(np.eye(2), [1e200, 3e200], np.ones(2))

    def test_zero_magnitudes(self):
        res = brute_force_phaseless(A_SPARK, np.zeros(4), np.ones(2))
        assert res.value == 0.0
        assert np.array_equal(res.minimizers[0], np.zeros(2))

    def test_row_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_phaseless(np.ones((15, 2)), np.ones(15), np.ones(2))


class TestEquivalences:
    """Uniqueness of l1 recovery matches the exact null-space verdicts.

    A holding verdict promises unique recovery of every sparse draw; a
    failing verdict is existential, so it is converted into a concrete
    recovery failure through its witness.
    """

    def draws(self, rng, support, n, count=3):
        for _ in range(count):
            x = np.zeros(n)
            x[list(support)] = rng.standard_normal(len(support)) + np.copysign(
                0.5, rng.standard_normal(len(support))
            )
            yield x

    def check_weighted(self, rng, oracle, k, w, verdict, count=3):
        """Planted signals on every support are recovered uniquely where the
        property holds; where it fails, the witness's ``h_T`` is not."""
        a, n = oracle.a, oracle.n
        if verdict.status == "holds-exact":
            for t in combinations(range(n), k):
                for x in self.draws(rng, t, n, count):
                    assert recovers_uniquely(oracle.solve(a @ x, w), x)
        else:
            h, t = verdict.witness.kernel_vector, verdict.witness.support
            xw = np.zeros(n)
            xw[list(t)] = h[list(t)]
            assert not recovers_uniquely(oracle.solve(a @ xw, w), xw)

    def test_weighted_equivalence_small(self):
        rng = np.random.default_rng(101)
        seen = set()
        for trial in range(8):
            a = model.gen_gaussian_matrix(rng, 4, 6)
            k = 1 + trial % 2
            w = np.ones(6)
            w[rng.choice(6, k, replace=False)] = (0.0, 0.5, 1.0)[trial % 3]
            verdict = weighted_nsp_check(a, k, w)
            assert verdict.status in ("holds-exact", "fails")
            seen.add(verdict.status)
            self.check_weighted(rng, ExhaustiveL1Oracle(a), k, w, verdict)
        assert seen == {"holds-exact", "fails"}  # the sample covers both kinds

    def test_weighted_equivalence_kernel_dimensions_3_to_5(self):
        # 5x8, 6x10 and 7x12 have kernel dimensions 3, 4 and 5; each weight
        # vector puts omega on k random coordinates
        rng = np.random.default_rng(107)
        seen = set()
        for m, n in 2 * [(5, 8), (6, 10), (7, 12)]:
            a = model.gen_gaussian_matrix(rng, m, n)
            oracle = ExhaustiveL1Oracle(a)
            for k in (1, 2, 3):
                for omega in (0.0, 0.5, 1.0):
                    w = np.ones(n)
                    w[rng.choice(n, k, replace=False)] = omega
                    verdict = weighted_nsp_check(a, k, w)
                    assert verdict.status in ("holds-exact", "fails")
                    seen.add((n - m, verdict.status, omega))
                    self.check_weighted(rng, oracle, k, w, verdict, count=1)
        # both kinds at every kernel dimension, and holding with omega = 0
        assert {(d, s) for d, s, _ in seen} == {
            (d, s) for d in (3, 4, 5) for s in ("holds-exact", "fails")}
        assert any(s == "holds-exact" and omega == 0.0 for _, s, omega in seen)

    def test_weighted_equivalence_zero_weights(self):
        # six zero-weight columns in five rows are dependent: a kernel vector
        # lives on them alone, and the property fails at margin 0
        rng = np.random.default_rng(109)
        a = model.gen_gaussian_matrix(rng, 5, 8)
        w = np.ones(8)
        w[:6] = 0.0
        for k in (1, 2, 3):
            verdict = weighted_nsp_check(a, k, w)
            assert (verdict.status, verdict.margin) == ("fails", 0.0)
            h = verdict.witness.kernel_vector
            assert np.abs(a @ h).max() <= 1e-10 and np.abs(h[6:]).max() <= 1e-10
            self.check_weighted(rng, ExhaustiveL1Oracle(a), k, w, verdict)

    def test_phaseless_equivalence_curated(self):
        rng = np.random.default_rng(103)
        cases = [(A_SPARK, 1), (A_FAIL, 2), (np.eye(2), 1), (np.eye(2), 2)]
        for seed in (5, 6):
            cases.append((model.gen_gaussian_matrix(np.random.default_rng(seed), 4, 3), 2))
        for a, k in cases:
            n = a.shape[1]
            w = np.ones(n)
            verdict = phaseless_nsp_check(a, k, w)
            assert verdict.status in ("holds-exact", "fails")
            if verdict.status == "holds-exact":
                for t in combinations(range(n), k):
                    for x in self.draws(rng, t, n):
                        res = brute_force_phaseless(a, np.abs(a @ x), w)
                        assert recovers_uniquely(res, x, up_to_sign=True)
            else:
                xw = verdict.witness.u + verdict.witness.v
                res = brute_force_phaseless(a, np.abs(a @ xw), w)
                assert not recovers_uniquely(res, xw, up_to_sign=True)


    def test_phaseless_equivalence_compressive(self):
        # m < 2N - 2, where split kernels of dimension 2 and more meet; each
        # weight vector puts omega on k random coordinates, and omega = 0
        # leaves pairs whose u - v has no weighted mass
        rng = np.random.default_rng(200)
        seen = set()
        for m, n in [(4, 4), (5, 6), (6, 8)]:
            a = model.gen_gaussian_matrix(rng, m, n)
            for k in (1, 2, 3):
                for omega in (0.0, 0.5, 1.0):
                    w = np.ones(n)
                    w[rng.choice(n, k, replace=False)] = omega
                    verdict = phaseless_nsp_check(a, k, w)
                    assert verdict.status in ("holds-exact", "fails")
                    seen.add((m, verdict.status))
                    if verdict.status == "holds-exact":
                        for t in combinations(range(n), k):
                            for x in self.draws(rng, t, n, count=1):
                                res = brute_force_phaseless(a, np.abs(a @ x), w)
                                assert recovers_uniquely(res, x, up_to_sign=True)
                    else:
                        xw = verdict.witness.u + verdict.witness.v
                        res = brute_force_phaseless(a, np.abs(a @ xw), w)
                        assert not recovers_uniquely(res, xw, up_to_sign=True)
        assert seen == {(m, s) for m in (4, 5, 6) for s in ("holds-exact", "fails")}


# ---------------------------------------------------------------------------
# Metamorphic checks: exact symmetries of the certified properties
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)


def assert_close(x, y):
    assert x == y or abs(x - y) <= 1e-9 * (1.0 + abs(x))


def assert_same_verdict(base, other):
    assert other.status == base.status
    assert_close(base.margin, other.margin)


def random_signs(rng, size):
    return rng.choice([-1.0, 1.0], size=size)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 3), SEEDS)
def test_isometry_constants_ignore_column_signs(m, n, k, seed):
    # A D has the Gram matrices D_T A_T^T A_T D_T: the same spectra
    k = min(k, n)
    rng = np.random.default_rng(seed)
    a = model.gen_gaussian_matrix(rng, m, n)
    flipped = a * random_signs(rng, n)
    assert_close(rip_constant(a, k).delta, rip_constant(flipped, k).delta)
    base, other = srip_bounds(a, k), srip_bounds(flipped, k)
    assert_close(base.theta_minus, other.theta_minus)
    assert_close(base.theta_plus, other.theta_plus)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(1, 4), st.sampled_from([1, 2]), SEEDS)
def test_weighted_nsp_depends_only_on_the_kernel(n, dim, k, seed):
    # the verdict is a function of ker A and w: G A (G invertible) has the same
    # kernel, and a column permutation or sign flip maps the kernel onto one
    # with the same weighted magnitudes once w is permuted along; the margin
    # comes from the vertices of the kernel's weighted-l1 ball, so it does
    # not depend on the kernel basis either
    dim = min(dim, n - 1)
    rng = np.random.default_rng(seed)
    a = model.gen_gaussian_matrix(rng, n - dim, n)
    w = rng.uniform(0.1, 1.0, n)
    base = weighted_nsp_check(a, k, w)
    q = np.linalg.qr(rng.standard_normal((n - dim, n - dim)))[0]
    g = q * rng.uniform(0.5, 2.0, n - dim)
    perm = rng.permutation(n)
    for a2, w2 in ((g @ a, w), (a[:, perm], w[perm]), (a * random_signs(rng, n), w)):
        assert_same_verdict(base, weighted_nsp_check(a2, k, w2))


def verdict_bits(verdict):
    """A verdict's status, margin, count and witness, each as exact bits."""
    witness = verdict.witness and tuple(
        x.tobytes() if isinstance(x, np.ndarray) else x
        for x in (getattr(verdict.witness, f.name) for f in dataclasses.fields(verdict.witness)))
    return verdict.status, verdict.margin.hex(), verdict.enumerated, witness


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(1, 3),
       st.lists(st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]), min_size=6, max_size=6),
       st.integers(-60, 166), SEEDS)
def test_certifiers_see_weights_only_up_to_scale(n, m, k, weights, j, seed):
    # the weighted programs and both null space properties are unchanged
    # when every weight is scaled by one c > 0; at c = 2**j every product
    # w |h| and every sum of them scales exactly, so the verdicts are bit
    # for bit those at w (2**166 max w stays within MAX_WEIGHT)
    w = np.array(weights[:n])
    assume(w.any())
    k = min(k, n)
    rng = np.random.default_rng(seed)
    a = model.gen_gaussian_matrix(rng, m, n)
    for check in (weighted_nsp_check, phaseless_nsp_check):
        assert verdict_bits(check(a, k, 2.0**j * w)) == verdict_bits(check(a, k, w))
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
    oracle = ExhaustiveL1Oracle(a)
    assert oracle.solve(a @ x, 2.0**j * w).value == 2.0**j * oracle.solve(a @ x, w).value


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(3, 6),
       st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=6, max_size=6),
       st.integers(-60, 60), SEEDS)
def test_oracles_see_y_and_w_only_up_to_scale(m, n, weights, j, seed):
    # min ||z||_{1,w} s.t. A z = y (or |A z| = y) is homogeneous in y and
    # in w; at c = 2**j every product and sum scales exactly, and so do the
    # minimizers, in the same order
    rng = np.random.default_rng(seed)
    a = model.gen_gaussian_matrix(rng, m, n)
    x = np.zeros(n)
    x[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
    w, c = np.array(weights[:n]), 2.0**j
    oracles = ((ExhaustiveL1Oracle(a).solve, a @ x, False),
               (functools.partial(brute_force_phaseless, a), np.abs(a @ x), True))
    for solve, y, up_to_sign in oracles:
        base = solve(y, w)
        at_cy = solve(c * y, w)
        assert at_cy.value == c * base.value
        assert ([z.tobytes() for z in at_cy.minimizers]
                == [(c * u).tobytes() for u in base.minimizers])
        assert (recovers_uniquely(at_cy, c * x, up_to_sign)
                == recovers_uniquely(base, x, up_to_sign))
        at_cw = solve(y, c * w)
        assert at_cw.value == c * base.value
        assert [z.tobytes() for z in at_cw.minimizers] == [z.tobytes() for z in base.minimizers]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(2, 8), st.floats(0.5, 3.0), st.data(), SEEDS)
def test_weighted_nsp_margin_bounds_the_oracle_error(m, n, decay, data, seed):
    # stable recovery (Foucart & Rauhut 2013, Thm 4.12): under the weighted
    # NSP with margin mu = 1 - 2 theta, i.e. constant rho = theta / (1 - theta),
    # every minimizer x# of ||z||_{1,w} s.t. A z = A x has
    # ||x - x#||_{1,w} <= 2 (1 + rho) / (1 - rho) sigma_k(x)_{1,w}
    # = (2 / mu) sigma_k(x)_{1,w}, sigma_k the mass of w |x| off its k
    # largest entries.  The weights stay positive: with a zero weight
    # ||.||_{1,w} is not a norm
    k = data.draw(st.integers(1, n))
    w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    a = model.gen_gaussian_matrix(rng, m, n)
    x = model.gen_compressible_signal(n, decay, rng)
    verdict = weighted_nsp_check(a, k, w)
    if verdict.status != "holds-exact":
        return
    mass = w * np.abs(x)
    sigma_k = np.sort(mass)[: n - k].sum()
    bound = 2.0 / verdict.margin * sigma_k * (1 + 1e-9) + 1e-12 * mass.sum()
    res = ExhaustiveL1Oracle(a).solve(a @ x, w)
    assert res.minimizers
    for z in res.minimizers:
        assert (w * np.abs(x - z)).sum() <= bound


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5), SEEDS)
def test_phaseless_checks_ignore_row_signs_and_order(n, k, seed):
    # |A x| only changes by the same signs and order, and the row splits of
    # D P A are those of A relabelled, with the same kernels on each block
    k = min(k, n)
    rng = np.random.default_rng(seed)
    m = 2 * (n - 1)
    a = model.gen_gaussian_matrix(rng, m, n)
    w = rng.uniform(0.1, 1.0, n)
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
    base = phaseless_nsp_check(a, k, w)
    base_res = brute_force_phaseless(a, np.abs(a @ x), w)
    for a2 in (a * random_signs(rng, m)[:, None], a[rng.permutation(m)]):
        assert_same_verdict(base, phaseless_nsp_check(a2, k, w))
        res = brute_force_phaseless(a2, np.abs(a2 @ x), w)
        assert (res.value is None) == (base_res.value is None)
        if res.value is None:
            continue
        assert_close(base_res.value, res.value)
        assert len(res.minimizers) == len(base_res.minimizers)
        for z in base_res.minimizers:
            gap = min(np.abs(z - u).max() for u in res.minimizers)
            assert gap <= 1e-7 * (1.0 + np.abs(z).max())


def test_canonical_sign():
    assert np.array_equal(canonical_sign(np.array([-1.0, 2.0])), [1.0, -2.0])
    assert np.array_equal(canonical_sign(np.array([0.0, -3.0])), [0.0, 3.0])
    assert np.array_equal(canonical_sign(np.zeros(2)), np.zeros(2))


# ---------------------------------------------------------------------------
# The bulk deduplication and the stacked oracle table against the loops
# they replaced
# ---------------------------------------------------------------------------


def scalar_dedupe(vectors):
    """Reference: sort by the entries over the largest magnitude, rounded,
    then test each vector against every one kept so far."""
    top = max((np.abs(z).max() for z in vectors), default=0.0) or 1.0
    ordered = sorted(vectors, key=lambda z: tuple(np.round(z / top, 9)))
    unique = []
    for z in ordered:
        scale = max((np.abs(u).max() for u in unique), default=0.0)
        if not any(np.abs(z - u).max() <= 1e-7 * scale for u in unique):
            unique.append(z)
    return unique


def assert_same_objects(new, ref):
    assert [id(z) for z in new] == [id(z) for z in ref]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 12),
       st.lists(st.sampled_from([0.0, 1e-9, 0.5, 0.999, 1.001, 2.0]), min_size=1, max_size=4),
       st.booleans(), st.booleans(), SEEDS)
def test_dedupe_matches_scalar_loop(n, n_base, n_copies, factors, shared_lead, signed_zeros,
                                    seed):
    # a few vertices at magnitudes from 1e-3 to 1e3, so that a later kept
    # vector often raises the threshold 1e-7 top; their copies are
    # moved in one entry by a factor of the largest threshold, from exact
    # and 1e-9 copies to just under and just over it.  A shared first entry
    # lets a copy moved there sort after a larger vertex, which then has
    # raised the threshold; signed zeros tie -0.0 against 0.0 in the sort
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for _ in range(n_base)]
    if shared_lead:
        for z in base:
            z[0] = base[0][0]
    if signed_zeros:
        for z in base:
            z[rng.random(n) < 0.5] = 0.0
    thresholds = [1e-7 * np.abs(z).max() for z in base]
    vectors = list(base)
    for _ in range(n_copies):
        j = int(rng.integers(n_base))
        z = base[j].copy()
        z[rng.integers(n)] += rng.choice([-1.0, 1.0]) * rng.choice(factors) * max(thresholds)
        if signed_zeros:
            z[z == 0.0] *= -1.0
        vectors.append(z)
    order = rng.permutation(len(vectors))
    vectors = [vectors[i] for i in order]
    assert_same_objects(_dedupe(vectors), scalar_dedupe(vectors))


def test_dedupe_threshold_grows_mid_walk():
    # after (0, 0.5) is kept, (1e-6, 0.5) is 1e-6 from it, over 1e-7 * 0.5;
    # (0, 100) sorts between them and raises the threshold to 1e-5, so
    # the loop drops (1e-6, 0.5) when it reaches it
    small, large, near = np.array([0.0, 0.5]), np.array([0.0, 100.0]), np.array([1e-6, 0.5])
    vectors = [near, large, small]
    assert_same_objects(_dedupe(vectors), [small, large])
    assert_same_objects(_dedupe(vectors), scalar_dedupe(vectors))


def test_dedupe_signed_zero():
    pos, neg = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
    for vectors in ([pos, neg], [neg, pos]):
        assert_same_objects(_dedupe(vectors), [vectors[0]])


@pytest.mark.parametrize("rows", [0, 1, 386])
def test_dedupe_sizes(rows):
    # 386 rows is the largest tie set of the certify-batch oracles: copies
    # of three vertices, each moved by about 1e-9, in a random order
    rng = np.random.default_rng(rows)
    base = rng.standard_normal((3, 12))
    vectors = [base[i % 3] + 1e-9 * rng.standard_normal(12) for i in range(rows)]
    assert_same_objects(_dedupe(vectors), scalar_dedupe(vectors))
    assert len(_dedupe(vectors)) == min(rows, 3)


def test_dedupe_memory_stays_linear():
    # a pairwise (rows, rows, N) distance tensor would take 14 MB here
    rng = np.random.default_rng(3)
    vectors = list(rng.standard_normal((386, 12)))
    tracemalloc.start()
    try:
        _dedupe(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def scalar_oracle(a):
    """Reference: the support table built one support at a time, as
    ``(degenerate, [(support, pinv), ...])``."""
    m, n = a.shape
    degenerate, table = False, []
    for size in range(1, min(m, n) + 1):
        for t in combinations(range(n), size):
            cols = a[:, t]
            sing = np.linalg.svd(cols, compute_uv=False)
            if sing[-1] <= 1e-10 * max(sing[0], 1e-300):
                degenerate = True
                continue
            table.append((list(t), np.linalg.pinv(cols)))
    return degenerate, table


def scalar_solve(a, degenerate, table, y, w):
    """Reference: ``ExhaustiveL1Oracle.solve`` over the per-support table."""
    n = a.shape[1]
    yn = float(np.linalg.norm(y))
    feas_tol = TOL.oracle_feasibility * yn
    candidates = []
    for t, pinv in table:
        z = np.zeros(n)
        z[t] = pinv @ y
        if np.linalg.norm(a @ z - y) > feas_tol:
            continue
        candidates.append((model.weighted_l1(z, w), z))
    if not candidates:
        return L1MinResult([], None, degenerate)
    vmin = min(c for c, _ in candidates)
    tie = vmin + TOL.oracle_value_tie * vmin
    return L1MinResult(scalar_dedupe([z for c, z in candidates if c <= tie]), vmin, degenerate)


def oracle_matrix(kind, rng):
    if kind == "wide":
        return model.gen_gaussian_matrix(rng, 3, 7)
    if kind == "tall":
        return model.gen_gaussian_matrix(rng, 6, 4)
    if kind == "chunked":  # the 924 six-supports span several stacked calls
        return model.gen_gaussian_matrix(rng, 6, 12)
    a = model.gen_gaussian_matrix(rng, 4, 6)
    if kind == "duplicate":
        a[:, 4] = a[:, 1]
    elif kind == "zero":
        a[:, 2] = 0.0
    elif kind == "collinear":
        a[:, 5] = -2.5 * a[:, 0]
    return a


@pytest.mark.parametrize("kind", ["wide", "tall", "chunked", "duplicate", "zero", "collinear"])
def test_stacked_oracle_matches_scalar_table(kind):
    rng = np.random.default_rng(19)
    a = oracle_matrix(kind, rng)
    m, n = a.shape
    oracle = ExhaustiveL1Oracle(a)
    degenerate, table = scalar_oracle(a)
    assert oracle.degenerate == degenerate
    assert degenerate == (kind in ("duplicate", "zero", "collinear"))
    # planted sparse signals, plain right-hand sides (infeasible when m > n),
    # unit and random weights; unit weights tie on the repeated columns
    rhs = []
    for k in (1, 2):
        x = np.zeros(n)
        x[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
        rhs.append(a @ x)
    rhs.append(rng.standard_normal(m))
    for y in rhs:
        for w in (np.ones(n), rng.uniform(0.1, 1.0, n)):
            new, ref = oracle.solve(y, w), scalar_solve(a, degenerate, table, y, w)
            assert new.degenerate == ref.degenerate
            if ref.value is None:
                assert new.value is None and new.minimizers == []
                continue
            assert float(new.value).hex() == float(ref.value).hex()
            assert [z.tobytes() for z in new.minimizers] == [z.tobytes() for z in ref.minimizers]


def scalar_phaseless(a, b_abs, w):
    """Reference: ``brute_force_phaseless`` as one ``scalar_solve`` per sign
    pattern, then canonical signs and ``scalar_dedupe`` on the tie set."""
    m, n = a.shape
    degenerate, table = scalar_oracle(a)
    collected = []
    for rows in _half_subsets(m):
        sigma = np.ones(m)
        sigma[list(rows)] = -1
        res = scalar_solve(a, degenerate, table, sigma * b_abs, w)
        if res.value is not None:
            collected.extend((res.value, z) for z in res.minimizers)
    if not collected:
        return L1MinResult([], None, degenerate)
    vmin = min(c for c, _ in collected)
    tie = vmin + TOL.oracle_value_tie * vmin
    kept = [canonical_sign(z) for c, z in collected if c <= tie]
    return L1MinResult(scalar_dedupe(kept), vmin, degenerate)


@pytest.mark.parametrize("kind", ["wide", "tall", "chunked", "duplicate", "zero", "collinear"])
def test_phaseless_oracle_matches_scalar_reference(kind):
    rng = np.random.default_rng(23)
    a = oracle_matrix(kind, rng)
    n = a.shape[1]
    for k in (1, 2):
        x = np.zeros(n)
        x[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
        b_abs = np.abs(a @ x)
        for w in (np.ones(n), rng.uniform(0.1, 1.0, n)):
            new, ref = brute_force_phaseless(a, b_abs, w), scalar_phaseless(a, b_abs, w)
            assert new.degenerate == ref.degenerate
            assert float(new.value).hex() == float(ref.value).hex()
            assert [z.tobytes() for z in new.minimizers] == [z.tobytes() for z in ref.minimizers]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(1, 4), st.integers(1, 4), st.floats(-300.0, 300.0))
def test_oracle_refuses_y_or_returns_feasible_minimizers(seed, m, n, log_c):
    # y = c A x over the whole float range: the oracle refuses y by name or
    # returns minimizers that meet A z = y to its own tolerance (a numpy
    # RuntimeWarning fails the test)
    rng = np.random.default_rng(seed)
    a = model.gen_gaussian_matrix(rng, m, n)
    y = 10.0**log_c * (a @ rng.standard_normal(n))
    try:
        res = ExhaustiveL1Oracle(a).solve(y, np.ones(n))
    except ValueError as exc:
        assert str(exc).startswith("y ")
        return
    top = np.abs(y).max()
    for z in res.minimizers:
        residual = top * np.linalg.norm((a @ z - y) / top) if top > 0 else 0.0
        assert residual <= TOL.oracle_feasibility * top * np.linalg.norm(y / top)
