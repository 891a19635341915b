"""Dense symmetric linear algebra used throughout the package.

Everything here operates on plain ``numpy`` arrays and is sized for the
small matrices this project deals with (dimensions up to a few dozen).
There is one numerical core: LAPACK through ``numpy.linalg``.  Eigenpairs
come from ``eigh``, null spaces from the SVD and SPD solves from a
Cholesky factor.  Failures of ``eigh`` and of the Cholesky factorization
surface as the named errors below; both are kinds of
``numpy.linalg.LinAlgError``, which an SVD that does not converge raises
itself, so one ``except`` catches every numerical failure.  ``eig_sym`` also
takes a stack ``(..., n, n)`` and decomposes it in one LAPACK call, with
eigenpairs bitwise equal to those of one call per matrix.

``svec`` and ``smat`` convert between a symmetric n x n matrix and its
packed form, the vector of n(n+1)/2 upper-triangle entries in row-major
order with the off-diagonal ones scaled by sqrt(2).  The scaling makes the
map an isometry, ``svec(X) @ svec(Y) == <X, Y>_F``, as in the PSD cone of
conic splitting solvers (O'Donoghue et al. 2016, SCS).

The input rules that several modules share are stated here, once each; a
refusal is a ``ValueError`` whose first word is the parameter's name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class EigNonConvergenceError(np.linalg.LinAlgError):
    """The symmetric eigensolver failed to converge."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
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
    oracle_value_tie: float = 1e-9       # x least cost, cost-tie width in the l1 oracles
    oracle_feasibility: float = 1e-8     # x ||y||, residual for a feasible candidate


TOL = Tolerances()

# the largest weight of a weighted program.  Scaling every weight by one
# c > 0 changes no such program, so the bound costs nothing; it keeps their
# sums finite.  solve_sdp's normal system holds w**4 and its stopping test
# ||W Z W||^2 <= w**4 ||Z||^2, far inside the float range (about 1.8e308)
# for any ||Z|| below 1e54; the certifiers add up w |h| over at most 12
# coordinates, which overflowed only near weights of 1e307
MAX_WEIGHT = 1e50


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, or of each matrix of a stack,
    eigenvalues sorted descending."""

    eigenvalues: np.ndarray   # shape (..., n), descending
    eigenvectors: np.ndarray  # shape (..., n, n), columns match eigenvalues


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return _finite(a, name)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def as_vector(v, n: int, name: str, entries=_finite) -> np.ndarray:
    """``v`` as a float vector of shape (n,) whose entries pass ``entries``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return entries(v, name)


def check_nonnegative(value, name: str) -> np.ndarray:
    """``value``, a number or an array, as floats, each finite and nonnegative."""
    a = np.asarray(value, dtype=float)
    bad = ~((a >= 0.0) & (a < math.inf))
    if bad.any():
        raise ValueError(f"{name} must be finite and nonnegative, got {a[bad][0]:g}")
    return a


def check_weights(value, name: str) -> np.ndarray:
    """``value`` as floats, each a weight: finite, nonnegative and at most ``MAX_WEIGHT``."""
    a = np.asarray(value, dtype=float)
    bad = ~((a >= 0.0) & (a <= MAX_WEIGHT))
    if bad.any():
        v = a[bad][0]
        check_nonnegative(v, name)  # NaN, infinite and negative weights
        raise ValueError(f"{name} must be at most {MAX_WEIGHT:g}, got {v:g}")
    return a


def check_fraction(value, name: str) -> None:
    """Refuse a number, or an entry of an array, outside [0, 1]."""
    a = np.asarray(value, dtype=float)
    bad = ~((a >= 0.0) & (a <= 1.0))
    if bad.any():
        raise ValueError(f"{name} must be in [0, 1], got {a[bad][0]:g}")


def _check_integer(value, name: str) -> None:
    # bool is an int subclass, but True is no size
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")


def check_at_least(value: int, low: int, name: str) -> None:
    _check_integer(value, name)
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def check_order(k: int, n: int) -> None:
    _check_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and n = {n}, got {k}")


def squared_norm(v: np.ndarray, name: str) -> float:
    """``v @ v`` of a finite vector, refused on overflow; ``np.linalg.norm`` is its root."""
    with np.errstate(over="ignore"):
        vv = float(v @ v)
    if not math.isfinite(vv):
        raise ValueError(f"{name} is too large for a finite squared norm")
    return vv


def unit_squared_norm(v: np.ndarray, name: str) -> float:
    """``squared_norm`` of a vector whose norm is the unit of a program that is
    homogeneous in it, refused also when ``v`` is nonzero and ``v @ v`` is
    below the smallest normal float, where the norm is 0 or too rough a unit."""
    vv = squared_norm(v, name)
    if vv < np.finfo(float).tiny and v.any():
        raise ValueError(f"{name} must be 0 or have a squared norm in the normal float range, "
                         f"got {vv:g}")
    return vv


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """Check each matrix of a finite stack ``(..., n, n)`` for near-symmetry
    against its own largest entry, and return the stack exactly symmetrized."""
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    if m.size:
        scale = np.abs(m).max(axis=(-2, -1))
        if (np.abs(m - mt).max(axis=(-2, -1)) > 1e-8 * scale).any():
            raise ValueError(f"{name} is not symmetric")
    return 0.5 * (m + mt)


@dataclass(frozen=True)
class SvecLayout:
    """Index arrays of the packed layout for one order n (read-only)."""

    upper: np.ndarray  # (n(n+1)/2,) row-major flat indices of the upper triangle
    full: np.ndarray   # (n*n,) packed position of entry (min(i, j), max(i, j))
    scale: np.ndarray  # (n(n+1)/2,) 1 on the diagonal, sqrt(2) off it
    diag: np.ndarray   # (n,) packed positions of the diagonal entries


@functools.lru_cache(maxsize=64)
def svec_layout(n: int) -> SvecLayout:
    """The packed layout of order n, built once per n."""
    rows, cols = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[rows, cols] = np.arange(rows.size)
    pos[cols, rows] = pos[rows, cols]
    arrays = (rows * n + cols, pos.ravel(), np.where(rows == cols, 1.0, math.sqrt(2.0)),
              pos.diagonal().copy())
    for a in arrays:
        a.setflags(write=False)
    return SvecLayout(*arrays)


def svec_order(size: int) -> int:
    """The order n of the symmetric matrices whose packed form has ``size`` entries."""
    n = (math.isqrt(8 * size + 1) - 1) // 2
    if n * (n + 1) // 2 != size:
        raise ValueError(f"{size} is not the length of a packed symmetric matrix")
    return n


def svec(m: np.ndarray) -> np.ndarray:
    """Packed form of a symmetric matrix; only the upper triangle is read."""
    m = np.asarray(m, dtype=float)
    lay = svec_layout(m.shape[0])
    return m.take(lay.upper) * lay.scale


def smat(v: np.ndarray) -> np.ndarray:
    """The symmetric matrix of a packed vector; exactly symmetric by construction."""
    n = svec_order(v.size)
    lay = svec_layout(n)
    return (v / lay.scale).take(lay.full).reshape(n, n)


def eig_sym(m) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``m`` may be a stack ``(..., n, n)``; each matrix is validated on its own
    and the results are stacked the same way.  Raises
    :class:`EigNonConvergenceError` if LAPACK fails to converge on any matrix.
    """
    m = np.asarray(m, dtype=float)
    m = _symmetrized(as_matrix(m) if m.ndim < 3 else _finite(m, "matrix"), "matrix")
    try:
        lam, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigNonConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=lam[..., ::-1], eigenvectors=v[..., ::-1])


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``a``, as columns.

    Directions ``v`` with ``||a v|| <= tol`` are kept, where ``tol`` is
    ``TOL.kernel_tol_rel * max(m, N) * max|a|``.  The candidates are the
    right singular vectors of ``a``, so the cut is made at the accuracy of
    ``a`` itself rather than of ``a.T @ a``.  May return a (N, 0) array.
    """
    a = as_matrix(a)
    m, n = a.shape
    scale = np.abs(a).max() if a.size else 0.0
    tol = TOL.kernel_tol_rel * max(m, n) * scale
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
    g = _symmetrized(as_matrix(g, "g"), "g")
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
