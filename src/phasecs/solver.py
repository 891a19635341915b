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

Every symmetric matrix of the iteration (Z, L, P, their duals and the
operands of B and B*) is held in the packed form ``linalg.svec``: the
N(N+1)/2 upper-triangle entries, row-major, with the off-diagonal ones
scaled by sqrt(2).  The map is an isometry, so inner products and residual
norms are those of the full matrices; each block is symmetric by
construction and nothing is symmetrized.  Only the psd projection unpacks,
for its eigendecomposition.  The returned Z is ``smat`` of the packed
iterate, exactly symmetric.

One sweep is a fixed-point map T on the state s = (L, P, r) and their
scaled duals, kept as one flat vector of 2N(N+1) + 2m entries (624 at
N=16, m=40).  The loop runs a safeguarded type-II Anderson accelerator on T
(Walker & Ni 2011) directly on that vector: after a sweep that has not
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

The program is positively homogeneous: scaling b and eps by c scales the
minimiser by c.  The loop therefore runs on b/||b|| and eps/||b|| (as conic
splitting solvers rescale their data, O'Donoghue et al. 2016, SCS), and its
result is scaled back: Z, the primal residual, the feasibility and split
measures and the objective by ||b||, xhat by sqrt(||b||); the dual
residual carries no units of b and is reported as computed, and the
reported penalty is that of the normalised iteration.  The trajectory, and
so the iteration count, does not depend on the units of b.

The convergence test is made on T(s) with the plain-ADMM thresholds (Boyd et
al. 2011, section 3.3) plus a bound on the measurement block; run on the
normalised data, ``TOL_ABS`` acts relative to ||b||.  The test is lazy:
every sweep computes the measurement and primal residuals; the dual
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
from .linalg import smat, svec
from .model import canonical_sign

# how many past differences the Anderson accelerator keeps
ANDERSON_MEMORY = 20
# weight of the entrywise l1 term of the objective
LAM = 1.0
# penalty of the first sweep, in the units of the normalised iteration
INITIAL_PENALTY = 1.0
# absolute and relative thresholds of the stopping test
TOL_ABS = 1e-6
TOL_REL = 1e-4
# largest weight magnitude solve_sdp accepts: w**4 enters the normal system,
# and ||W Z W||^2 <= w**4 ||Z||^2 the stopping test; at 1e50 both stay far
# inside the float range (about 1.8e308) for any ||Z|| below 1e54
MAX_WEIGHT = 1e50


@dataclass(frozen=True)
class LiftedOperator:
    """Forward map Z -> (a_i' Z a_i)_i and its adjoint for a sensing matrix.

    Both act on the packed layout: ``sensors`` holds svec(a_i a_i') as rows
    (m x N(N+1)/2), built once, so ``forward(svec(Z))`` is ``sensors @ svec(Z)``
    and ``adjoint(c)`` is svec(sum_i c_i a_i a_i') = ``c @ sensors``.
    """

    a: np.ndarray  # (m, n), rows are the sensing vectors
    sensors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", linalg.as_matrix(self.a))
        m, n = self.a.shape
        lay = linalg.svec_layout(n)
        # row i is svec(a_i a_i')
        lifts = (self.a[:, :, None] * self.a[:, None, :]).reshape(m, n * n)
        object.__setattr__(self, "sensors", lifts[:, lay.upper] * lay.scale)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def forward(self, z: np.ndarray) -> np.ndarray:
        return self.sensors @ z

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        return c @ self.sensors


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 5000
    epsilon: float = 0.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


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

    ``v`` and the result are packed (``linalg.svec``).  Entries of L are
    soft-thresholded by ``lam/penalty``, so a packed off-diagonal entry,
    sqrt(2) L_ij, is thresholded by ``sqrt(2) lam/penalty``.  Diagonal
    entries are first shifted by ``1/penalty`` (the trace contributes a
    constant linear tilt there) and then thresholded by ``lam/penalty``.
    """
    if penalty <= 0:
        raise ValueError("penalty must be positive")
    lay = linalg.svec_layout(linalg.svec_order(v.size))
    thr = (lam / penalty) * lay.scale
    shifted = v.copy()
    shifted[lay.diag] -= 1.0 / penalty
    shifted -= np.minimum(np.maximum(shifted, -thr), thr)
    return shifted


def ball_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    nv = math.sqrt(float(v @ v))
    if nv <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros(v.shape)
    return v * (radius / nv)


def rank1_extract(z) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-1 signal estimate from a lifted matrix: sqrt of the top eigenpair.

    The sign is canonicalized so the first significantly nonzero coordinate is
    positive; reconstruction metrics remove the global sign anyway.  Returns
    the estimate and the eigenvalues of the same decomposition, in descending
    order.
    """
    dec = linalg.eig_sym(z)
    lam1 = float(dec.eigenvalues[0])
    xhat = canonical_sign(math.sqrt(max(lam1, 0.0)) * dec.eigenvectors[:, 0])
    return xhat, dec.eigenvalues


def _psd_project(v: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clamp negative eigenvalues.

    ``v`` and the result are packed; the result is the upper triangle of the
    reassembled matrix.
    """
    lam, vec = np.linalg.eigh(smat(v))
    return svec((vec * np.maximum(lam, 0.0)) @ vec.T)


class _NormalSolver:
    """Solves (D + B* B) Z = R0 + B*(c), D_ij = w_i^2 w_j^2 + 1, for symmetric R0.

    Woodbury: with H = 1/D entrywise and S = ``op.sensors``, the m x N(N+1)/2
    matrix of packed sensors, the inverse is H - H S' (I + S diag(h) S')^{-1} S H.
    H acts entrywise, so on packed operands it is ``h``, the upper triangle of
    H without the sqrt(2) scaling.  Z, R0 and the results are packed.
    """

    def __init__(self, op: LiftedOperator, w: np.ndarray):
        m, n = op.shape
        self.op = op
        self.h = (1.0 / (np.outer(w * w, w * w) + 1.0)).take(linalg.svec_layout(n).upper)
        g = np.eye(m) + (op.sensors * self.h) @ op.sensors.T
        self.g_inv = linalg.solve_spd(g, np.eye(m))

    def solve(self, r0: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return Z and B(Z).

        With G = I + S diag(h) S' and R = R0 + B*(c), Woodbury gives
        Z = H o R - H o B*(G^{-1} B(H o R)).  Since B(H o B*(c)) = (G - I) c,
        this is Z = H o R0 - H o B*(s) with s = G^{-1}(B(H o R0) - c), and
        B(Z) = c + s exactly; B*(c) is never formed.
        """
        x1 = self.h * r0
        s = self.g_inv @ (self.op.forward(x1) - c)
        return x1 - self.h * self.op.adjoint(s), c + s


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

    The iteration runs on ``b / ||b||`` and ``epsilon / ||b||`` (``b = 0`` is
    left as it is), so every threshold acts relative to ``||b||``.
    Convergence requires the stacked primal and dual residuals to fall below
    the usual absolute-plus-relative thresholds and additionally the
    measurement block to be within ``10 * TOL_ABS`` of its projection, which
    guarantees ``||B(Z) - b|| <= epsilon + 10 * TOL_ABS * ||b||`` at exit.

    ``Z``, ``xhat``, the primal residual and the diagnostics ``feasibility``,
    ``ball_violation``, ``split_l``, ``split_p``, ``min_eigenvalue`` and
    ``objective`` are in the units of ``b``; the dual residual is free of
    them.  ``penalty`` is the final penalty of the normalised iteration: the
    same run on the caller's data would use ``penalty / ||b||``.
    ``stop_reason`` is ``converged``, ``max-iter``, ``eig-failure`` or
    ``factorization-failure``; the last two have status ``failed``.  A
    weight of magnitude above ``MAX_WEIGHT``, or not finite, is refused with
    a ``ValueError``.
    """
    cfg = cfg or SolverConfig()
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    m, n = op.shape
    if b.shape != (m,) or w.shape != (n,):
        raise ValueError("operator, measurements and weights have inconsistent shapes")
    if not (np.abs(w) <= MAX_WEIGHT).all():
        raise ValueError(f"w must be finite with entries of magnitude at most {MAX_WEIGHT:g}")

    try:
        normal = _NormalSolver(op, w)
    except np.linalg.LinAlgError as exc:
        zero = np.zeros((n, n))
        return SolverResult(zero, np.zeros(n), 0, math.inf, math.inf, "failed",
                            {"stop_reason": "factorization-failure", "error": str(exc)})

    # the loop solves the program for b/||b|| and epsilon/||b||; by homogeneity
    # its results are scaled back at exit
    unit = math.sqrt(float(b @ b)) or 1.0
    b = b / unit
    epsilon = cfg.epsilon / unit

    # W Z W acts entrywise, so on packed Z it is ww times the packed Z
    ww = np.outer(w, w).take(linalg.svec_layout(n).upper)
    rho = INITIAL_PENALTY
    penalty_updates = 0
    # flat state x = (L, P, r, dual_L, dual_P, dual_r), the matrices packed
    d = n * (n + 1) // 2
    i_p, i_r, i_dl, i_dp, i_dr = d, 2 * d, 2 * d + m, 3 * d + m, 4 * d + m
    x = np.zeros(4 * d + 2 * m)
    accel = _Anderson(x.size, ANDERSON_MEMORY)
    dim_pri = math.sqrt(2 * n * n + m)
    dim_dual = float(n)
    feas_tol = 10.0 * TOL_ABS

    def dual_residual(f):
        # rho ||W dL W + dP + B*(dr)|| over the primal blocks dL, dP, dr of f
        dvec = ww * f[:i_p] + f[i_p:i_r] + op.adjoint(f[i_r:i_dl])
        return rho * math.sqrt(float(dvec @ dvec))

    status = "max-iter"
    error = None
    pri = dua = math.inf
    iterations = cfg.max_iter
    feas = math.inf
    z = np.zeros(d)
    try:
        for it in range(1, cfg.max_iter + 1):
            dual_l = x[i_dl:i_dp]
            dual_p = x[i_dp:i_dr]
            dual_r = x[i_dr:]
            r0 = ww * (x[:i_p] - dual_l) + (x[i_p:i_r] - dual_p)
            z, bz = normal.solve(r0, b + (x[i_r:i_dl] - dual_r))
            wzw = ww * z
            bz_b = bz - b

            l_aux = weighted_shrink(wzw + dual_l, LAM, rho)
            p_aux = _psd_project(z + dual_p)
            r_aux = ball_project(bz_b + dual_r, epsilon)
            dual_r = dual_r + (bz_b - r_aux)
            g = np.concatenate((
                l_aux, p_aux, r_aux, dual_l + (wzw - l_aux), dual_p + (z - p_aux), dual_r,
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
            rebalance_sweep = it % 10 == 0
            dua = dual_residual(f) if rebalance_sweep or feas <= feas_tol else None
            if feas <= feas_tol:
                g_pri = g[:i_dl]
                scale_pri = math.sqrt(max(
                    float(wzw @ wzw) + float(z @ z) + float(bz_b @ bz_b),
                    float(g_pri @ g_pri),
                ))
                if pri <= dim_pri * TOL_ABS + TOL_REL * scale_pri:
                    dual_vec = ww * g[i_dl:i_dp] + g[i_dp:i_dr] + op.adjoint(dual_r)
                    scale_dual = rho * math.sqrt(float(dual_vec @ dual_vec))
                    if dua <= dim_dual * TOL_ABS + TOL_REL * scale_dual:
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
    except np.linalg.LinAlgError as exc:
        iterations, error = it, str(exc)
    # the residuals reported are those of the last completed sweep; a rebalance
    # sweep always computes its dual residual, so rho is still that sweep's
    if dua is None:
        dua = dual_residual(f)
    z_mat = smat(z)
    if error is None:
        try:
            xhat, eigvals = rank1_extract(z_mat)
        except np.linalg.LinAlgError as exc:
            error = str(exc)
    # back to the caller's units: Z, its residuals and the objective scale with
    # unit, xhat with sqrt(unit); the dual residual does not scale
    if error is not None:
        return SolverResult(unit * z_mat, np.zeros(n), iterations, unit * pri, dua, "failed",
                            {"stop_reason": "eig-failure", "error": error})
    wzw_mat = np.outer(w, w) * z_mat
    diagnostics = {
        "stop_reason": status,
        "feasibility": unit * float(np.linalg.norm(op.forward(z) - b)),
        "ball_violation": unit * feas,
        "split_l": unit * float(np.linalg.norm(f[i_dl:i_dp])),
        "split_p": unit * float(np.linalg.norm(f[i_dp:i_dr])),
        "min_eigenvalue": unit * float(eigvals[-1]),
        "top_eigenvalue_ratio": float(eigvals[1] / eigvals[0]) if n > 1 and eigvals[0] > 0 else 0.0,
        "objective": unit * float(np.trace(wzw_mat) + LAM * np.abs(wzw_mat).sum()),
        "penalty": rho,
        "penalty_updates": penalty_updates,
        "anderson_accepted": accel.accepted,
        "anderson_rejected": accel.rejected,
    }
    return SolverResult(unit * z_mat, math.sqrt(unit) * xhat, iterations, unit * pri, dua, status,
                        diagnostics)
