"""Dense symmetric linear algebra used throughout the package.

Everything here operates on plain ``numpy`` arrays and is sized for the
small matrices this project deals with (dimensions up to a few dozen).
There is one numerical core: LAPACK through ``numpy.linalg``.  Eigenpairs
come from ``eigh``, null spaces from the SVD and SPD solves from a
Cholesky factor.  Failures of ``eigh`` and of the Cholesky factorization
surface as the named errors below; an SVD that does not converge raises
``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EigNonConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization met a non-positive pivot."""


@dataclass(frozen=True)
class Tolerances:
    """Single record of the numeric tolerances, referenced symbolically by tests.

    Relative tolerances are documented next to the operation that scales them.
    """

    eig_reconstruct_rel: float = 1e-9    # x dim x max|entry|
    eig_orthonormal: float = 1e-10       # max-norm of V^T V - I
    psd_min_eig: float = 1e-10           # projected matrix eigenvalues >= -this
    kernel_tol_rel: float = 1e-10        # x max(m, N) x max|A|, null-space cut
    spd_pivot_rel: float = 1e-12         # x max diagonal, Cholesky pivot floor
    spd_residual_rel: float = 1e-8       # x ||rhs||, solve_spd guarantee
    nsp_margin_band: float = 1e-9        # slack band below which a verdict is indeterminate
    struct_zero: float = 1e-10           # coordinate of a unit vector treated as zero
    oracle_value_tie: float = 1e-9       # x (1 + |min|), cost-tie width in the l1 oracles
    oracle_feasibility: float = 1e-8     # x (1 + ||y||), residual for a feasible candidate


TOL = Tolerances()


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray   # shape (n,), descending
    eigenvectors: np.ndarray  # shape (n, n), columns match eigenvalues

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def as_sym_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate near-symmetry and return the exactly symmetrized matrix."""
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    scale = np.abs(m).max() if m.size else 0.0
    if scale and np.abs(m - m.T).max() > 1e-8 * scale:
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (m + m.T)


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def eig_sym(m) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Raises :class:`EigNonConvergenceError` if LAPACK fails to converge.
    """
    m = as_sym_matrix(m)
    try:
        lam, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigNonConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=lam[::-1], eigenvectors=v[:, ::-1])


def kernel_basis(a, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``, as columns.

    Directions ``v`` with ``||a v|| <= tol`` are kept; the default tolerance
    is ``TOL.kernel_tol_rel * max(m, N) * max|a|``.  The candidates are the
    right singular vectors of ``a``, so the cut is made at the accuracy of
    ``a`` itself rather than of ``a.T @ a``.  May return a (N, 0) array.
    """
    a = as_matrix(a)
    m, n = a.shape
    scale = np.abs(a).max() if a.size else 0.0
    if tol is None:
        tol = TOL.kernel_tol_rel * max(m, n) * scale
    elif tol <= 0:
        raise ValueError("tol must be positive")
    v = np.linalg.svd(a)[2].T
    # selection by the directly evaluated residual is the contract
    keep = np.linalg.norm(a @ v, axis=0) <= tol
    return v[:, keep]


def solve_spd(g, rhs) -> np.ndarray:
    """Solve ``g x = rhs`` for symmetric positive definite ``g`` via Cholesky.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    Raises :class:`NotPositiveDefiniteError` on non-SPD input, including a
    pivot below ``TOL.spd_pivot_rel`` times the largest diagonal entry.
    """
    g = as_sym_matrix(g, "g")
    b = np.asarray(rhs, dtype=float)
    if b.shape[:1] != g.shape[:1] or b.ndim > 2:
        raise ValueError("right-hand side has incompatible shape")
    try:
        lower = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    pivots = np.diag(lower) ** 2
    floor = TOL.spd_pivot_rel * max(float(np.abs(np.diag(g)).max(initial=0.0)), 1e-300)
    low = np.flatnonzero(~(pivots > floor))
    if low.size:
        i = int(low[0])
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {pivots[i]:.3e} at index {i})"
        )
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))
