import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecs import certify, cli, model, solver
from phasecs.linalg import (
    MAX_WEIGHT,
    TOL,
    EigNonConvergenceError,
    NotPositiveDefiniteError,
    as_vector,
    check_at_least,
    check_fraction,
    check_nonnegative,
    check_order,
    check_weights,
    eig_sym,
    kernel_basis,
    smat,
    solve_spd,
    svec,
    svec_order,
    squared_norm,
    unit_squared_norm,
)
from phasecs.solver import _psd_project as _psd_project_packed

RT2 = np.sqrt(2.0)


def cofactor_det(m: np.ndarray) -> float:
    """Determinant by cofactor expansion; independent oracle for small dims."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


# eig_sym has one backend, LAPACK (syevd through numpy.linalg.eigh); the
# parameter names it in the test ids
@pytest.mark.parametrize("backend", ["lapack"])
class TestEigSym:
    def test_diagonal(self, backend):
        dec = eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_2x2_closed_form(self, backend):
        dec = eig_sym([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.full((2, 2), 1 / RT2))

    def test_random_reconstruction(self, backend):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((8, 8))
        m = 0.5 * (m + m.T)
        dec = eig_sym(m)
        bound = TOL.eig_reconstruct_rel * 8 * np.abs(m).max()
        v = dec.eigenvectors
        assert np.abs((v * dec.eigenvalues) @ v.T - m).max() <= bound
        assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(8)).max() <= TOL.eig_orthonormal

    def test_eigenvalues_descending(self, backend):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        lam = eig_sym(m).eigenvalues
        assert np.all(np.diff(lam) <= 0)

    def test_trace_identity(self, backend):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = rng.standard_normal((5, 5))
            m = m + m.T
            lam = eig_sym(m).eigenvalues
            assert abs(lam.sum() - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))

    def test_determinant_identity(self, backend):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4):
            m = rng.standard_normal((dim, dim))
            m = m + m.T
            lam = eig_sym(m).eigenvalues
            det = cofactor_det(m)
            assert abs(np.prod(lam) - det) <= 1e-8 * max(1.0, abs(det))


def test_eig_nonconvergence_signal(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigNonConvergenceError):
        eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym([[0.0, 1.0], [0.0, 0.0]])


def test_eig_stack_matches_per_matrix_calls():
    # one LAPACK call over the stack, bitwise the eigenpairs of one call per
    # matrix; the Gram stack is shaped as certify's support enumeration builds it
    rng = np.random.default_rng(19)
    a = rng.standard_normal((5, 7))
    cols = np.ascontiguousarray(a[:, [[0, 1, 2], [1, 3, 6], [2, 4, 5]]].transpose(1, 0, 2))
    sym = rng.standard_normal((2, 3, 6, 6))
    for stack in (cols.transpose(0, 2, 1) @ cols, sym + np.swapaxes(sym, -1, -2),
                  rng.standard_normal((4, 1, 1))):
        dec = eig_sym(stack)
        assert dec.eigenvalues.shape == stack.shape[:-1]
        for idx in np.ndindex(stack.shape[:-2]):
            one = eig_sym(stack[idx])
            assert dec.eigenvalues[idx].tobytes() == one.eigenvalues.tobytes()
            assert dec.eigenvectors[idx].tobytes() == one.eigenvectors.tobytes()


def test_eig_stack_rejects_one_asymmetric_member():
    # each matrix is judged against its own scale: the asymmetry of the
    # small member is far below the large member's entries
    stack = np.stack([1e6 * np.eye(2), np.eye(2), np.eye(2)])
    eig_sym(stack)
    stack[1, 0, 1] = 1e-4
    with pytest.raises(ValueError, match="not symmetric"):
        eig_sym(stack)


def test_eig_stack_nonconvergence_signal(monkeypatch):
    def fail(m):
        assert m.shape == (3, 2, 2)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigNonConvergenceError):
        eig_sym(np.stack([np.eye(2)] * 3))


def symmetric_of_order(n):
    finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    return st.lists(finite, min_size=n * n, max_size=n * n).map(
        lambda vals: np.array(vals).reshape(n, n)).map(lambda m: 0.5 * (m + m.T))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(symmetric_of_order))
def test_smat_inverts_svec(x):
    # the sqrt(2) scaling is undone by a division, so an off-diagonal entry
    # comes back within one unit in the last place; the diagonal is not
    # scaled and comes back bitwise, and smat is symmetric by construction
    v = svec(x)
    back = smat(v)
    assert v.shape == (len(x) * (len(x) + 1) // 2,)
    assert back.tobytes() == back.T.copy().tobytes()
    assert np.diag(back).tobytes() == np.diag(x).tobytes()
    assert np.all(np.abs(back - x) <= np.spacing(np.abs(x)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(symmetric_of_order(n),
                                                     symmetric_of_order(n))))
def test_svec_is_an_isometry(pair):
    # the floor covers products in the subnormal range
    x, y = pair
    tol = 1e-12 * np.abs(x * y).sum() + 1e-300
    assert abs(svec(x) @ svec(y) - np.vdot(x, y)) <= tol


def test_svec_order():
    assert [svec_order(d) for d in (0, 1, 3, 6, 136)] == [0, 1, 2, 3, 16]
    for d in (2, 4, 135):
        with pytest.raises(ValueError):
            svec_order(d)
    assert np.array_equal(svec([[1.0, 2.0], [2.0, 3.0]]), [1.0, 2.0 * RT2, 3.0])


def _psd_project(m):
    return smat(_psd_project_packed(svec(m)))


class TestPsdProject:
    # the package's one psd projection is the solver's prox of the P block,
    # which maps packed matrices to packed matrices

    def test_clamps_negative_diagonal(self):
        assert np.allclose(_psd_project(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 4))
        p = b @ b.T
        assert np.abs(_psd_project(p) - p).max() <= 1e-10 * np.abs(p).max()

    def test_closed_form_2x2(self):
        out = _psd_project([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_idempotent_and_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            m = m + m.T
            p = _psd_project(m)
            lam = eig_sym(p).eigenvalues
            assert lam.min() >= -TOL.psd_min_eig
            assert np.abs(_psd_project(p) - p).max() <= 1e-9 * max(1.0, np.abs(p).max())

    def test_matches_analytic_2x2(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a, b, c = rng.standard_normal(3)
            m = np.array([[a, b], [b, c]])
            mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
            expected = np.zeros((2, 2))
            for lam in (mean + radius, mean - radius):
                if lam <= 0:
                    continue
                v = np.array([b, lam - a])
                if np.linalg.norm(v) < 1e-12:
                    v = np.array([lam - c, b])
                v = v / np.linalg.norm(v)
                expected += lam * np.outer(v, v)
            assert np.abs(_psd_project(m) - expected).max() <= 1e-10


class TestKernelBasis:
    def test_injective_empty(self):
        assert kernel_basis(np.eye(2)).shape == (2, 0)

    def test_row_vector(self):
        k = kernel_basis(np.array([[1.0, 1.0]]))
        assert k.shape == (2, 1)
        assert abs(abs(k[:, 0] @ np.array([1.0, -1.0]) / RT2) - 1.0) <= 1e-10

    def test_2x3(self):
        k = kernel_basis(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert k.shape == (3, 1)
        direction = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        assert abs(abs(k[:, 0] @ direction) - 1.0) <= 1e-10

    def test_residual_bound(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 7))
        k = kernel_basis(a)
        tol = TOL.kernel_tol_rel * 7 * np.abs(a).max()
        assert np.abs(a @ k).max() <= tol

    def test_rank_nullity(self):
        rng = np.random.default_rng(29)
        for m, n in ((3, 6), (5, 5), (6, 4), (2, 8)):
            a = rng.standard_normal((m, n))
            rank = np.linalg.matrix_rank(a)
            assert kernel_basis(a).shape[1] == n - rank

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((2, 6))
        k = kernel_basis(a)
        assert np.abs(k.T @ k - np.eye(k.shape[1])).max() <= 1e-10

    def test_matches_scipy_null_space(self):
        null_space = pytest.importorskip("scipy.linalg").null_space
        rng = np.random.default_rng(43)
        for m, n, rank in ((3, 6, 2), (5, 5, 3), (6, 4, 2), (8, 8, 7), (2, 7, 1)):
            a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            k, ref = kernel_basis(a), null_space(a)
            assert k.shape[1] == ref.shape[1] == n - rank
            # equal spans: the orthogonal projectors agree
            assert np.abs(k @ k.T - ref @ ref.T).max() <= 1e-10

    def test_small_singular_value_is_not_kernel(self):
        # sigma = 1e-8 is far above the cut, but its square is at rounding
        # level of A'A; only the SVD separates it from the exact null vector
        rng = np.random.default_rng(47)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (u * [1.0, 0.5, 1e-8, 0.0]) @ v.T
        k = kernel_basis(a)
        assert k.shape == (4, 1)
        assert abs(abs(k[:, 0] @ v[:, 3]) - 1.0) <= 1e-10


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(solve_spd(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(37)
        b = rng.standard_normal((10, 10))
        g = b @ b.T + 10 * np.eye(10)
        rhs = rng.standard_normal(10)
        x = solve_spd(g, rhs)
        assert np.linalg.norm(g @ x - rhs) <= TOL.spd_residual_rel * np.linalg.norm(rhs)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(41)
        b = rng.standard_normal((6, 6))
        g = b @ b.T + 6 * np.eye(6)
        rhs = rng.standard_normal((6, 3))
        x = solve_spd(g, rhs)
        assert np.abs(g @ x - rhs).max() <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))


class TestInputRules:
    @pytest.mark.parametrize("rule, message", [
        (lambda: as_vector([1.0, 2.0], 3, "y"), "y must have shape (3,), got (2,)"),
        (lambda: as_vector([1.0, np.nan], 2, "y"), "y has non-finite entries"),
        (lambda: as_vector([1.0, -2.0], 2, "w", check_nonnegative),
         "w must be finite and nonnegative, got -2"),
        (lambda: check_nonnegative(np.inf, "rho"), "rho must be finite and nonnegative, got inf"),
        (lambda: check_nonnegative([0.5, np.nan], "omegas"),
         "omegas must be finite and nonnegative, got nan"),
        # a weight vector is refused by its first bad entry, whichever rule it breaks
        (lambda: check_weights([1.0, 2e50, -1.0], "w"), "w must be at most 1e+50, got 2e+50"),
        (lambda: check_weights([1.0, -1.0, 2e50], "w"), "w must be finite and nonnegative, got -1"),
        (lambda: check_fraction([0.5, 1.5], "alphas"), "alphas must be in [0, 1], got 1.5"),
        (lambda: check_fraction(np.nan, "alpha"), "alpha must be in [0, 1], got nan"),
        (lambda: check_order(0, 4), "k must be between 1 and n = 4, got 0"),
        (lambda: check_order(5, 4), "k must be between 1 and n = 4, got 5"),
        (lambda: check_at_least(0, 1, "m"), "m must be at least 1, got 0"),
        (lambda: squared_norm(np.array([1e200, 1.0]), "y"),
         "y is too large for a finite squared norm"),
        (lambda: unit_squared_norm(np.array([1e200, 1.0]), "b"),
         "b is too large for a finite squared norm"),
        (lambda: unit_squared_norm(np.array([0.0, 1e-170]), "b_abs"),
         "b_abs must be 0 or have a squared norm in the normal float range, got 0"),
        (lambda: unit_squared_norm(np.array([3e-160, 0.0]), "y"),
         "y must be 0 or have a squared norm in the normal float range, got 8.9999e-320"),
    ])
    def test_refusal_names_the_parameter_first(self, rule, message):
        with pytest.raises(ValueError) as info:
            rule()
        assert str(info.value) == message

    def test_accepted_values_pass_through(self):
        assert np.array_equal(as_vector((1, 2), 2, "y"), [1.0, 2.0])
        w = as_vector([-0.0, 0.0, 3.0], 3, "w", check_nonnegative)  # a signed zero is no negative
        assert w.dtype == float and w[2] == 3.0
        assert np.array_equal(check_weights((-0.0, MAX_WEIGHT), "w"), [0.0, MAX_WEIGHT])
        check_fraction([0.0, 1.0], "alphas")
        check_order(4, 4)
        check_order(np.int32(2), 3)  # numpy integers are integers
        check_at_least(np.int64(2), 1, "m")
        v = np.array([3.0, 4.0, 1e150])
        assert squared_norm(v, "y") == v @ v and np.sqrt(squared_norm(v, "y")) == np.linalg.norm(v)
        assert unit_squared_norm(v, "y") == v @ v
        tiny = np.sqrt(np.finfo(float).tiny)  # the least norm of a unit, and 0
        assert unit_squared_norm(np.array([tiny, 0.0]), "b") == tiny * tiny
        assert unit_squared_norm(np.array([0.0, -0.0]), "b") == 0.0


def tiny_sweep(**fields):
    return cli.SweepConfig(**{"signal": "sparse", "n": 8, "k": 1, "alphas": (1.0,),
                              "omegas": (1.0,), "ms": (12,), "sigmas": (0.0,), "trials": 1,
                              **fields})


EYE = (np.eye(3), np.ones(3), np.ones(3))


@pytest.mark.parametrize("call, message", [
    (lambda: solver.solve_sdp(*EYE, max_iter=2.5), "max_iter must be an integer, got 2.5"),
    (lambda: solver.solve_sdp(*EYE, max_iter=True), "max_iter must be an integer, got True"),
    (lambda: tiny_sweep(trials=2.5), "trials must be an integer, got 2.5"),
    (lambda: tiny_sweep(max_iter=2.5), "max_iter must be an integer, got 2.5"),
    (lambda: tiny_sweep(n=8.0), "n must be an integer, got 8.0"),
    (lambda: tiny_sweep(k=1.0), "k must be an integer, got 1.0"),
    (lambda: tiny_sweep(ms=(12, 8.5)), "ms must be an integer, got 8.5"),
    (lambda: model.gen_gaussian_matrix(np.random.default_rng(0), 2.0, 3),
     "m must be an integer, got 2.0"),
    (lambda: certify.rip_constant(np.eye(3), 2.5), "k must be an integer, got 2.5"),
])
def test_integer_parameter_refused_by_name(call, message):
    # refused by the size rules of linalg, not by a TypeError of range, numpy
    # or math.comb after the work has begun
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
