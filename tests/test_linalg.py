import numpy as np
import pytest

from phasecs.linalg import (
    TOL,
    EigNonConvergenceError,
    NotPositiveDefiniteError,
    eig_sym,
    kernel_basis,
    solve_spd,
)
from phasecs.solver import _psd_project

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
        assert np.abs(dec.reconstruct() - m).max() <= bound
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


class TestPsdProject:
    # the package's one psd projection is the solver's prox of the P block

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
