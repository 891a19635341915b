"""Lifted semidefinite solver for weighted l1 phaseless recovery.

The squared-magnitude program

    min Tr(W Z W) + lam * ||W Z W||_1
    s.t. ||B(Z) - b||_2 <= eps,  Z >= 0 (psd),

with B(Z)_i = a_i' Z a_i and W = diag(w), is solved by a three-block
consensus ADMM: auxiliary variables L = W Z W (prox: entrywise shrinkage
plus the trace tilt), P = Z (prox: psd projection) and r = B(Z) - b (prox:
projection onto the eps ball).  The Z update solves the normal system
(D + B* B) Z = rhs, D_ij = w_i^2 w_j^2 + 1, through the Woodbury identity
with one m x m Cholesky factorization per run, at every m and N.  Each
iteration applies B twice and B* three times: B*(b) is formed once, and
B*(r) and B*(dual_r) are carried from one iteration into the next.  The
iteration is deterministic: Z and all duals start at zero, and no
randomness is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import symmetrize
from .model import canonical_sign


@dataclass(frozen=True)
class LiftedOperator:
    """Forward map Z -> (a_i' Z a_i)_i and its adjoint for a sensing matrix."""

    a: np.ndarray  # (m, n), rows are the sensing vectors

    @classmethod
    def from_matrix(cls, a) -> "LiftedOperator":
        return cls(a=linalg.as_matrix(a))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def forward(self, z: np.ndarray) -> np.ndarray:
        return ((self.a @ z) * self.a).sum(1)

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        return (self.a * c[:, None]).T @ self.a

    def sensor(self, i: int) -> np.ndarray:
        return np.outer(self.a[i], self.a[i])


@dataclass(frozen=True)
class SolverConfig:
    lam: float = 1.0
    penalty: float = 1.0
    tol_abs: float = 1e-6
    tol_rel: float = 1e-4
    max_iter: int = 5000
    epsilon: float = 0.0
    adapt_penalty: bool = True

    def __post_init__(self):
        if self.penalty <= 0 or self.tol_abs <= 0 or self.tol_rel < 0:
            raise ValueError("penalty and tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.lam < 0 or self.epsilon < 0:
            raise ValueError("lam and epsilon must be nonnegative")


@dataclass
class SolverResult:
    Z: np.ndarray
    xhat: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str  # converged | max-iter | failed
    diagnostics: dict = field(default_factory=dict)


def weighted_shrink(v: np.ndarray, lam: float, penalty: float) -> np.ndarray:
    """Proximal map of ``L -> Tr(L) + lam ||L||_1`` at ``v`` with the given penalty.

    Off-diagonal entries are soft-thresholded by ``lam/penalty``; diagonal
    entries are first shifted by ``1/penalty`` (the trace contributes a
    constant linear tilt there) and then thresholded the same way.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    thr = lam / penalty
    shifted = v.copy()
    np.fill_diagonal(shifted, np.diag(v) - 1.0 / penalty)
    out = np.sign(shifted) * np.maximum(np.abs(shifted) - thr, 0.0)
    return symmetrize(out)


def ball_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    nv = float(np.linalg.norm(v))
    if nv <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    return v * (radius / nv)


def rank1_extract(z) -> np.ndarray:
    """Best rank-1 signal estimate from a lifted matrix: sqrt of the top eigenpair.

    The sign is canonicalized so the first significantly nonzero coordinate is
    positive; reconstruction metrics remove the global sign anyway.
    """
    dec = linalg.eig_sym(z)
    lam1 = float(dec.eigenvalues[0])
    return canonical_sign(math.sqrt(max(lam1, 0.0)) * dec.eigenvectors[:, 0])


def _psd_fast(m: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(symmetrize(m))
    lam = np.maximum(lam, 0.0)
    return symmetrize((v * lam) @ v.T)


class _NormalSolver:
    """Solves (D + B* B) Z = R, D_ij = w_i^2 w_j^2 + 1, for symmetric R.

    Woodbury: with H = 1/D entrywise and S the m x N^2 matrix of vectorised
    sensors a_i a_i', the inverse is H - H S' (I + S diag(H) S')^{-1} S H.
    """

    def __init__(self, op: LiftedOperator, w: np.ndarray):
        m, n = op.shape
        self.op = op
        self.h = 1.0 / (np.outer(w * w, w * w) + 1.0)
        sensors = (op.a[:, :, None] * op.a[:, None, :]).reshape(m, n * n)
        g = np.eye(m) + (sensors * self.h.ravel()) @ sensors.T
        self.g_inv = linalg.solve_spd(g, np.eye(m))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x1 = self.h * rhs
        t = self.g_inv @ self.op.forward(x1)
        return symmetrize(x1 - self.h * self.op.adjoint(t))


def solve_sdp(op: LiftedOperator, b, w, cfg: SolverConfig | None = None) -> SolverResult:
    """Run the consensus splitting on the lifted program.

    Convergence requires the stacked primal and dual residuals to fall below
    the usual absolute-plus-relative thresholds and additionally the
    measurement block to be within ``10 * tol_abs`` of its projection, which
    guarantees ``||B(Z) - b|| <= epsilon + 10 * tol_abs`` at exit.
    """
    cfg = cfg or SolverConfig()
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    m, n = op.shape
    if b.shape != (m,) or w.shape != (n,):
        raise ValueError("operator, measurements and weights have inconsistent shapes")

    try:
        normal = _NormalSolver(op, w)
    except (linalg.NotPositiveDefiniteError, np.linalg.LinAlgError) as exc:
        zero = np.zeros((n, n))
        return SolverResult(zero, np.zeros(n), 0, math.inf, math.inf, "failed",
                            {"error": str(exc)})

    ww = np.outer(w, w)
    rho = cfg.penalty
    z = np.zeros((n, n))
    l_aux = np.zeros((n, n))
    p_aux = np.zeros((n, n))
    r_aux = np.zeros(m)
    dual_l = np.zeros((n, n))
    dual_p = np.zeros((n, n))
    dual_r = np.zeros(m)
    # B* is linear, so its images of b, r and dual_r are kept, not recomputed
    adj_b = op.adjoint(b)
    adj_r = np.zeros((n, n))
    adj_dual_r = np.zeros((n, n))
    dim_pri = math.sqrt(2 * n * n + m)
    dim_dual = float(n)

    status = "max-iter"
    pri = dua = math.inf
    iterations = cfg.max_iter
    feas = math.inf
    try:
        for it in range(1, cfg.max_iter + 1):
            rhs = ww * (l_aux - dual_l) + (p_aux - dual_p) + (adj_b + adj_r - adj_dual_r)
            z = normal.solve(rhs)
            wzw = ww * z
            bz = op.forward(z)

            l_old, p_old = l_aux, p_aux
            l_aux = weighted_shrink(wzw + dual_l, cfg.lam, rho)
            p_aux = _psd_fast(z + dual_p)
            r_aux = ball_project(bz - b + dual_r, cfg.epsilon)

            res_l = wzw - l_aux
            res_p = z - p_aux
            res_r = bz - b - r_aux
            dual_l = dual_l + res_l
            dual_p = dual_p + res_p
            dual_r = dual_r + res_r
            adj_r_old, adj_r = adj_r, op.adjoint(r_aux)
            adj_dual_r = op.adjoint(dual_r)

            pri = math.sqrt(
                float((res_l * res_l).sum())
                + float((res_p * res_p).sum())
                + float(res_r @ res_r)
            )
            dvec = ww * (l_aux - l_old) + (p_aux - p_old) + (adj_r - adj_r_old)
            dua = rho * math.sqrt(float((dvec * dvec).sum()))
            feas = float(np.linalg.norm(res_r))

            scale_pri = max(
                math.sqrt(float((wzw * wzw).sum()) + float((z * z).sum())
                          + float((bz - b) @ (bz - b))),
                math.sqrt(float((l_aux * l_aux).sum()) + float((p_aux * p_aux).sum())
                          + float(r_aux @ r_aux)),
            )
            dual_vec = ww * dual_l + dual_p + adj_dual_r
            scale_dual = rho * math.sqrt(float((dual_vec * dual_vec).sum()))
            eps_pri = dim_pri * cfg.tol_abs + cfg.tol_rel * scale_pri
            eps_dual = dim_dual * cfg.tol_abs + cfg.tol_rel * scale_dual

            if pri <= eps_pri and dua <= eps_dual and feas <= 10.0 * cfg.tol_abs:
                status = "converged"
                iterations = it
                break

            # rebalance on a cadence; adjusting every iteration makes the
            # scaled duals thrash and can stall convergence outright
            if cfg.adapt_penalty and it % 25 == 0:
                if pri > 10.0 * dua and dua > 0:
                    rho *= 2.0
                    dual_l *= 0.5
                    dual_p *= 0.5
                    dual_r *= 0.5
                    adj_dual_r *= 0.5
                elif dua > 10.0 * pri and pri > 0:
                    rho *= 0.5
                    dual_l *= 2.0
                    dual_p *= 2.0
                    dual_r *= 2.0
                    adj_dual_r *= 2.0
    except (linalg.EigNonConvergenceError, np.linalg.LinAlgError) as exc:
        return SolverResult(z, np.zeros(n), it, pri, dua, "failed", {"error": str(exc)})

    try:
        xhat = rank1_extract(z)
        eigvals = np.linalg.eigvalsh(symmetrize(z))
    except (linalg.EigNonConvergenceError, np.linalg.LinAlgError) as exc:
        return SolverResult(z, np.zeros(n), iterations, pri, dua, "failed",
                            {"error": str(exc)})
    diagnostics = {
        "feasibility": float(np.linalg.norm(op.forward(z) - b)),
        "ball_violation": feas,
        "split_l": float(np.linalg.norm(ww * z - l_aux)),
        "split_p": float(np.linalg.norm(z - p_aux)),
        "split_r": feas,
        "min_eigenvalue": float(eigvals[0]),
        "top_eigenvalue_ratio": float(eigvals[-2] / eigvals[-1]) if n > 1 and eigvals[-1] > 0 else 0.0,
        "penalty": rho,
    }
    return SolverResult(z, xhat, iterations, pri, dua, status, diagnostics)
