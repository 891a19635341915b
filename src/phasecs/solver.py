"""Lifted semidefinite solver for weighted l1 phaseless recovery.

The squared-magnitude program

    min Tr(W Z W) + lam * ||W Z W||_1
    s.t. ||B(Z) - b||_2 <= eps,  Z >= 0 (psd),

with B(Z)_i = a_i' Z a_i and W = diag(w), is solved by a three-block
consensus ADMM: auxiliary variables L = W Z W (prox: entrywise shrinkage
plus the trace tilt), P = Z (prox: psd projection) and r = B(Z) - b (prox:
projection onto the eps ball).  The Z update solves the normal system
(D + B* B) Z = rhs, D_ij = w_i^2 w_j^2 + 1, through the Woodbury identity
with one m x m Cholesky factorization per run, at every m and N; the
measurement part B*(c) of the right-hand side is folded into that solve,
which also yields B(Z), so the Z update applies B once and B* once.

One sweep is a fixed-point map T on the state s = (L, P, r) and their
scaled duals, kept as one flat vector.  The loop runs a safeguarded type-II
Anderson accelerator on T (Walker & Ni 2011): after a sweep that has not
converged, the next state is T(s) - dG gamma, where gamma fits the residual
f = T(s) - s by the last ``ANDERSON_MEMORY`` differences of f and of T.  An
extrapolated state whose residual is larger than that of the state it came
from is dropped for the plain step from that state, and the memory is
cleared.  Every 10 sweeps the penalty is rebalanced when one residual
exceeds the other tenfold, by the factor sqrt(pri/dua) clipped to
[1/10, 10] (residual balancing, Wohlberg 2017); the scaled duals are divided
by the same factor.  A penalty change takes the plain step and clears the
memory, because rescaling the duals changes T, and it is made only at a
point the safeguard accepts.  ``ANDERSON_MEMORY`` is 20.

The convergence test is made on T(s) with the plain-ADMM thresholds (Boyd et
al. 2011, section 3.3) plus a bound on the measurement block, and it is
lazy: every sweep computes the measurement and primal residuals; the dual
residual, which costs one B*, only once the measurement block is within
its bound or on a rebalance sweep; each threshold only once the tests
before it pass, so the second B* of the dual threshold is rare.  The
decisions are those of the full test.  The iteration is deterministic: Z
and all duals start at zero, and no randomness is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import symmetrize
from .model import canonical_sign

# how many past differences the Anderson accelerator keeps
ANDERSON_MEMORY = 20


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


@dataclass(slots=True)
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
    constant linear tilt there) and then thresholded the same way.  ``v``
    must be symmetric: the map is entrywise, so the output is then exactly
    symmetric and is not symmetrized again.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    thr = lam / penalty
    shifted = v.copy()
    shifted.flat[:: v.shape[0] + 1] -= 1.0 / penalty
    shifted -= np.clip(shifted, -thr, thr)
    return shifted


def ball_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    nv = math.sqrt(float(v @ v))
    if nv <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    return v * (radius / nv)


def rank1_extract(z, return_eigenvalues: bool = False):
    """Best rank-1 signal estimate from a lifted matrix: sqrt of the top eigenpair.

    The sign is canonicalized so the first significantly nonzero coordinate is
    positive; reconstruction metrics remove the global sign anyway.  With
    ``return_eigenvalues`` the eigenvalues of the same decomposition, in
    descending order, are returned as well.
    """
    dec = linalg.eig_sym(z)
    lam1 = float(dec.eigenvalues[0])
    xhat = canonical_sign(math.sqrt(max(lam1, 0.0)) * dec.eigenvectors[:, 0])
    return (xhat, dec.eigenvalues) if return_eigenvalues else xhat


def _psd_project(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative eigenvalues."""
    lam, v = np.linalg.eigh(m)
    lam = np.maximum(lam, 0.0)
    return symmetrize((v * lam) @ v.T)


class _NormalSolver:
    """Solves (D + B* B) Z = R0 + B*(c), D_ij = w_i^2 w_j^2 + 1, for symmetric R0.

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

    def solve(self, r0: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return Z and B(Z).

        With G = I + S diag(H) S' and R = R0 + B*(c), Woodbury gives
        Z = H o R - H o B*(G^{-1} B(H o R)).  Since B(H o B*(c)) = (G - I) c,
        this is Z = H o R0 - H o B*(s) with s = G^{-1}(B(H o R0) - c), and
        B(Z) = c + s exactly; B*(c) is never formed.
        """
        x1 = self.h * r0
        s = self.g_inv @ (self.op.forward(x1) - c)
        return symmetrize(x1 - self.h * self.op.adjoint(s)), c + s


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map x -> T(x).

    ``step(g, f)`` takes g = T(x) and the residual f = T(x) - x and returns
    the next point to evaluate: g - dG gamma, where gamma minimises
    ||f - dF gamma|| over the last ``memory`` differences dF of residuals and
    dG of images.  The differences live in preallocated ring buffers, and
    each step adds one row and column to the Gram matrix of dF.  The normal
    equations get the Tikhonov shift 1e-12 trace(dF' dF) + 1e-8 ||f||^2.

    Safeguard: an extrapolated point whose residual is larger than that of the
    point it came from is rejected; the stored plain step T(x_prev) is taken
    instead and the memory is cleared.
    """

    def __init__(self, dim: int, memory: int):
        self.memory = memory
        self.df = np.zeros((memory, dim))
        self.dg = np.zeros((memory, dim))
        self.gram = np.zeros((memory, memory))
        self.accepted = 0
        self.rejected = 0
        self.reset()

    def reset(self) -> None:
        self.count = 0  # differences stored since the last reset
        self.prev = None  # (f, g, ||f||^2) at the last evaluated point
        self.extrapolated = False  # the point being evaluated was extrapolated

    def vetted(self, f: np.ndarray) -> bool:
        """False if ``step(g, f)`` would reject the point that produced ``f``."""
        return not self.extrapolated or float(f @ f) <= self.prev[2]

    def step(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        if self.memory == 0:
            return g
        fn = float(f @ f)
        if self.prev is None:
            self.prev = (f, g, fn)
            return g
        f_prev, g_prev, fn_prev = self.prev
        if self.extrapolated:
            if fn > fn_prev:
                self.rejected += 1
                self.reset()
                return g_prev
            self.accepted += 1
        self.prev = (f, g, fn)
        k = self.count % self.memory
        np.subtract(f, f_prev, out=self.df[k])
        np.subtract(g, g_prev, out=self.dg[k])
        self.count += 1
        q = min(self.count, self.memory)
        df = self.df[:q]
        row = df @ self.df[k]
        self.gram[k, :q] = row
        self.gram[:q, k] = row
        gram = self.gram[:q, :q].copy()
        # the residual term bounds gamma when the differences are tiny next to
        # f: in a drift phase each sweep moves the duals by the same step, f
        # barely changes, and an unbounded gamma jumps far along the drift
        gram.flat[:: q + 1] += 1e-12 * gram.trace() + 1e-8 * fn
        try:
            gamma = np.linalg.solve(gram, df @ f)
        except np.linalg.LinAlgError:
            self.extrapolated = False
            return g
        self.extrapolated = True
        return g - gamma @ self.dg[:q]


def solve_sdp(op: LiftedOperator, b, w, cfg: SolverConfig | None = None) -> SolverResult:
    """Run the accelerated consensus splitting on the lifted program.

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
    penalty_updates = 0
    # flat state x = (L, P, r, dual_L, dual_P, dual_r)
    nn = n * n
    i_p, i_r, i_dl, i_dp, i_dr = nn, 2 * nn, 2 * nn + m, 3 * nn + m, 4 * nn + m
    x = np.zeros(4 * nn + 2 * m)
    accel = _Anderson(x.size, ANDERSON_MEMORY)
    dim_pri = math.sqrt(2 * n * n + m)
    dim_dual = float(n)
    feas_tol = 10.0 * cfg.tol_abs

    def dual_residual(f):
        # rho ||W dL W + dP + B*(dr)|| over the primal blocks dL, dP, dr of f
        dvec = ww * f[:i_p].reshape(n, n) + f[i_p:i_r].reshape(n, n) + op.adjoint(f[i_r:i_dl])
        return rho * math.sqrt(float(np.vdot(dvec, dvec)))

    status = "max-iter"
    error = None
    pri = dua = math.inf
    iterations = cfg.max_iter
    feas = math.inf
    z = np.zeros((n, n))
    try:
        for it in range(1, cfg.max_iter + 1):
            dual_l = x[i_dl:i_dp].reshape(n, n)
            dual_p = x[i_dp:i_dr].reshape(n, n)
            dual_r = x[i_dr:]
            r0 = ww * (x[:i_p].reshape(n, n) - dual_l) + (x[i_p:i_r].reshape(n, n) - dual_p)
            z, bz = normal.solve(r0, b + (x[i_r:i_dl] - dual_r))
            wzw = ww * z
            bz_b = bz - b

            l_aux = weighted_shrink(wzw + dual_l, cfg.lam, rho)
            p_aux = _psd_project(z + dual_p)
            r_aux = ball_project(bz_b + dual_r, cfg.epsilon)
            dual_r = dual_r + (bz_b - r_aux)
            g = np.concatenate((
                l_aux.ravel(), p_aux.ravel(), r_aux,
                (dual_l + (wzw - l_aux)).ravel(), (dual_p + (z - p_aux)).ravel(), dual_r,
            ))
            # f = T(x) - x: its dual blocks are the primal residuals, and its
            # primal blocks give the dual residual
            f = g - x

            f_split = f[i_dl:i_dr]
            f_r = f[i_dr:]
            feas = math.sqrt(float(f_r @ f_r))
            pri = math.sqrt(float(f_split @ f_split) + feas * feas)
            # the full test almost never passes, so its parts are computed
            # only as far as the cheaper ones pass; the dual residual is also
            # needed on a rebalance sweep
            rebalance_sweep = cfg.adapt_penalty and it % 10 == 0
            dua = dual_residual(f) if rebalance_sweep or feas <= feas_tol else None
            if feas <= feas_tol:
                g_pri = g[:i_dl]
                scale_pri = math.sqrt(max(
                    float(np.vdot(wzw, wzw)) + float(np.vdot(z, z)) + float(bz_b @ bz_b),
                    float(g_pri @ g_pri),
                ))
                if pri <= dim_pri * cfg.tol_abs + cfg.tol_rel * scale_pri:
                    dual_vec = (ww * g[i_dl:i_dp].reshape(n, n) + g[i_dp:i_dr].reshape(n, n)
                                + op.adjoint(dual_r))
                    scale_dual = rho * math.sqrt(float(np.vdot(dual_vec, dual_vec)))
                    if dua <= dim_dual * cfg.tol_abs + cfg.tol_rel * scale_dual:
                        status = "converged"
                        iterations = it
                        break

            # rebalance on a cadence; adjusting every iteration makes the
            # scaled duals thrash and can stall convergence outright.  The
            # step sqrt(pri/dua) balances the residuals in one move where a
            # fixed factor of 2 needs several rebalances (Wohlberg 2017).
            # Residuals of an extrapolated point the safeguard is about to
            # drop say nothing about the iteration, so such a point is
            # replaced first and the rebalance waits for the next check
            if (rebalance_sweep and pri > 0 and dua > 0
                    and (pri > 10.0 * dua or dua > 10.0 * pri) and accel.vetted(f)):
                factor = min(max(math.sqrt(pri / dua), 0.1), 10.0)
                # rescaling the duals changes the map: take the plain step,
                # which no safeguard has to vet, and clear the memory
                rho *= factor
                penalty_updates += 1
                x = g
                x[i_dl:] /= factor
                accel.reset()
            else:
                x = accel.step(g, f)
    except (linalg.EigNonConvergenceError, np.linalg.LinAlgError) as exc:
        iterations, error = it, str(exc)
    # the residuals reported are those of the last completed sweep; a rebalance
    # sweep always computes its dual residual, so rho is still that sweep's
    if dua is None:
        dua = dual_residual(f)
    if error is not None:
        return SolverResult(z, np.zeros(n), iterations, pri, dua, "failed", {"error": error})

    try:
        xhat, eigvals = rank1_extract(z, return_eigenvalues=True)
    except (linalg.EigNonConvergenceError, np.linalg.LinAlgError) as exc:
        return SolverResult(z, np.zeros(n), iterations, pri, dua, "failed",
                            {"error": str(exc)})
    diagnostics = {
        "feasibility": float(np.linalg.norm(op.forward(z) - b)),
        "ball_violation": feas,
        "split_l": float(np.linalg.norm(f[i_dl:i_dp])),
        "split_p": float(np.linalg.norm(f[i_dp:i_dr])),
        "split_r": feas,
        "min_eigenvalue": float(eigvals[-1]),
        "top_eigenvalue_ratio": float(eigvals[1] / eigvals[0]) if n > 1 and eigvals[0] > 0 else 0.0,
        "objective": float(np.trace(wzw) + cfg.lam * np.abs(wzw).sum()),
        "penalty": rho,
        "penalty_updates": penalty_updates,
        "anderson_accepted": accel.accepted,
        "anderson_rejected": accel.rejected,
    }
    return SolverResult(z, xhat, iterations, pri, dua, status, diagnostics)
