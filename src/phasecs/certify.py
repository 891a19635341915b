"""Exact certification of sparse recovery conditions on small instances.

Provides exhaustive computation of restricted isometry constants (plain and
row-subset variants), exact checks of the weighted null space property,
exact and falsification checks of its phaseless counterpart, and
brute-force weighted-l1 minimization oracles that ground-truth uniqueness of
recovery.

Exactness notes.  The null space property is an open (strict) condition, so
verdicts are margin based: a computed worst-case slack of at most 0 is a
failure, a slack inside ``(0, TOL.nsp_margin_band]`` is reported
indeterminate (the strict inequality cannot be certified in floating point),
and anything above the band certifiably holds.  The weighted check reports
the slack of kernel vectors normalised to unit ``||.||_{1,w}``, which is
``1 - 2 theta`` for the null space constant ``theta``; the phaseless check
reports it for unit-l2-normalized kernel vectors.

The brute-force oracles enumerate basic solutions (candidates supported on
at most ``min(m, N)`` columns), which contains every vertex of the optimal
face.  Rank-deficient column subsets are skipped and flagged, so results on
inputs far from general position should be read with care.  The support
pseudo-inverses are computed per support size, in stacked LAPACK calls that
round as one call per support does, and each candidate's residual norm and
weighted l1 cost are computed with the arithmetic of ``np.linalg.norm`` and
``weighted_l1``, bit for bit.  A right-hand side or weight vector of the
wrong length or with a non-finite entry is refused with a ``ValueError``
that names it; so is a non-finite weight in the null space checks, and a
negative weight everywhere.

The enumeration caps are fixed; beyond one, a check refuses with
:class:`CapExceededError` and never falls back to sampling.  They are
2,000,000 supports (``rip_constant``, ``srip_bounds``), 2,000,000
(d-1)-subsets of the positive-weight coordinates at kernel dimension d
(``weighted_nsp_check``), 14 rows (``srip_bounds``,
``brute_force_phaseless``), 12 rows (``phaseless_nsp_check``), 12 columns
(the l1 oracles) and, in exact mode, one-dimensional kernels on both blocks
of a row split (``phaseless_nsp_check``).  Its falsify mode draws from a
generator seeded with 0, 5 draws per row split and support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .linalg import TOL, _finite, as_matrix, eig_sym, kernel_basis
from .model import canonical_sign, weighted_l1

_TWO_PI = 2.0 * math.pi
_QUARTERS = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
_QUARTERS_AND_TWO_PI = np.append(_QUARTERS, _TWO_PI)


class CapExceededError(RuntimeError):
    """An enumeration size cap was exceeded; ``cap`` names the violated limit."""

    def __init__(self, cap: str, detail: str = ""):
        self.cap = cap
        super().__init__(f"{cap} exceeded" + (f": {detail}" if detail else ""))


@dataclass(frozen=True, slots=True)
class RipReport:
    """Isometry constants with the supports/row subsets attaining them."""

    order: int
    delta: float | None = None
    theta_minus: float | None = None
    theta_plus: float | None = None
    delta_support: tuple[int, ...] | None = None
    lower_support: tuple[int, ...] | None = None
    lower_rows: tuple[int, ...] | None = None
    upper_support: tuple[int, ...] | None = None
    enumerated: int = 0


@dataclass(frozen=True, slots=True)
class NspWitness:
    """Kernel vector and support violating the weighted null space inequality."""

    kernel_vector: np.ndarray
    support: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PhaselessWitness:
    """Pair (u, v) and row split violating the phaseless null space inequality."""

    u: np.ndarray
    v: np.ndarray
    rows: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class NspVerdict:
    status: str  # "holds-exact" | "fails" | "indeterminate"
    margin: float
    witness: NspWitness | PhaselessWitness | None = None
    enumerated: int = 0


@dataclass(slots=True)
class L1MinResult:
    """Minimizer set of a brute-force weighted-l1 program.

    ``minimizers`` is empty when the program is infeasible (``value`` is then
    None).  ``degenerate`` reports that some rank-deficient column subset was
    skipped during enumeration.  Slotted: batch checks keep thousands.
    """

    minimizers: list = field(default_factory=list)
    value: float | None = None
    degenerate: bool = False


def nsp_slack(h: np.ndarray, support, w: np.ndarray) -> float:
    """Weighted l1 mass off ``support`` minus the mass on it; negative or zero
    slack violates the null space inequality."""
    h = np.asarray(h, dtype=float)
    w = np.asarray(w, dtype=float)
    mask = np.zeros(h.size, dtype=bool)
    mask[list(support)] = True
    wh = w * np.abs(h)
    return float(wh[~mask].sum() - wh[mask].sum())


def phaseless_slack(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """``||u - v||_{1,w} - ||u + v||_{1,w}``; nonpositive slack is a violation."""
    return weighted_l1(np.asarray(u) - np.asarray(v), w) - weighted_l1(
        np.asarray(u) + np.asarray(v), w
    )


# ---------------------------------------------------------------------------
# Shared enumerations
# ---------------------------------------------------------------------------


def _check_order(k: int, n: int, w=None) -> np.ndarray | None:
    """Refuse a weight vector of the wrong length or with a non-finite or
    negative entry, then an order outside ``1 <= k <= n``; returns ``w`` as
    floats (None when not given)."""
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != (n,):
            raise ValueError("weight vector length must match the column count")
        _nonnegative(_finite(w, "w"))
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    return w


def _half_subsets(m: int):
    """Subsets of rows 1..m-1 in bit order (bit i stands for row i+1).

    Row 0 always stays out, so each subset stands for one pair of
    complementary row splits, or for one pair of antipodal sign patterns.
    """
    for bits in range(1 << max(m - 1, 0)):
        yield tuple(i + 1 for i in range(m - 1) if bits >> i & 1)


def _split_kernels(a: np.ndarray):
    """``(rows, ker_S, ker_complement)`` for each half subset ``S`` of the rows.

    The kernel of an empty row block is the whole space, ``np.eye(N)``.
    """
    m, n = a.shape
    for rows in _half_subsets(m):
        mask = np.zeros(m, dtype=bool)
        mask[list(rows)] = True
        a_s, a_c = a[mask, :], a[~mask, :]
        ker_s = kernel_basis(a_s) if a_s.shape[0] else np.eye(n)
        ker_c = kernel_basis(a_c) if a_c.shape[0] else np.eye(n)
        yield rows, ker_s, ker_c


def _supports(n: int, k: int) -> np.ndarray:
    """The k-subsets of ``range(n)`` in lexicographic order, one per row."""
    count = math.comb(n, k)
    flat = chain.from_iterable(combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)


_STACK_CHUNK_ENTRIES = 8192  # entries of the stacked A_T per LAPACK call (64 KB)


def _column_stacks(a: np.ndarray, supports: np.ndarray):
    """``(chunk, cols)`` for consecutive chunks of the rows of ``supports``:
    ``cols[i]`` is ``a[:, chunk[i]]``, stacked.

    Each ``A_T`` is laid out C-contiguous, as ``a[:, T]`` is, so a stacked
    LAPACK call or product on ``cols`` rounds exactly as one call per
    support does.  Chunks keep every temporary of a call small, so a large
    enumeration does not leave a large, mostly free heap behind.
    """
    step = max(1, _STACK_CHUNK_ENTRIES // max(a.shape[0] * supports.shape[1], 1))
    for start in range(0, len(supports), step):
        chunk = supports[start:start + step]
        yield chunk, np.ascontiguousarray(a[:, chunk].transpose(1, 0, 2))


def _gram_spectra(a: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``A_T^T A_T``, descending, one row per row ``T`` of
    ``supports``, from one stacked ``eig_sym`` call per chunk of supports."""
    return np.concatenate([eig_sym(cols.transpose(0, 2, 1) @ cols).eigenvalues
                           for _, cols in _column_stacks(a, supports)])


# ---------------------------------------------------------------------------
# Restricted isometry constants
# ---------------------------------------------------------------------------

_SUPPORT_CAP = 2_000_000  # supports (rip_constant, srip_bounds), subsets (weighted_nsp_check)
_SRIP_ROW_CAP = 14


def rip_constant(a, k: int) -> RipReport:
    """Exact isometry constant of order ``k`` by exhaustive support enumeration.

    ``delta = max over |T| = k of max |eig(A_T^T A_T - I)|``.  Refuses (no
    sampling fallback) when ``C(N, k)`` exceeds 2,000,000.
    """
    a = as_matrix(a)
    n = a.shape[1]
    _check_order(k, n)
    count = math.comb(n, k)
    if count > _SUPPORT_CAP:
        raise CapExceededError("support enumeration cap", f"C({n},{k})={count} > {_SUPPORT_CAP}")
    supports = _supports(n, k)
    deltas = np.abs(_gram_spectra(a, supports) - 1.0).max(axis=1)
    # argmax returns the first maximum: ties keep the earliest support
    best = int(np.argmax(deltas))
    return RipReport(order=k, delta=float(deltas[best]),
                     delta_support=tuple(supports[best].tolist()), enumerated=count)


def srip_bounds(a, k: int) -> RipReport:
    """Exact two-sided isometry bounds over half-size row subsets.

    ``theta_minus`` is the worst lower bound over row subsets of size
    ``ceil(m/2)`` (dropping rows only shrinks ``||A_I x||``, so the minimum
    over all subsets with at least m/2 rows is attained at the smallest
    allowed size); ``theta_plus`` is attained with all rows kept.
    """
    a = as_matrix(a)
    m, n = a.shape
    _check_order(k, n)
    if m > _SRIP_ROW_CAP:
        raise CapExceededError("row subset cap", f"m={m} > {_SRIP_ROW_CAP}")
    n_supports = math.comb(n, k)
    if n_supports > _SUPPORT_CAP:
        raise CapExceededError("support enumeration cap", f"C({n},{k})={n_supports}")
    supports = _supports(n, k)
    # argmax, argmin and the strict test keep the first extremum: ties keep
    # the earliest candidate, row subsets before supports
    upper = _gram_spectra(a, supports)[:, 0]
    upper_j = int(np.argmax(upper))
    subsets = list(combinations(range(m), (m + 1) // 2))
    theta_minus = math.inf
    for rows in subsets:
        lower = _gram_spectra(a[list(rows), :], supports)[:, -1]
        j = int(np.argmin(lower))
        if lower[j] < theta_minus:
            theta_minus, lower_j, lower_rows = float(lower[j]), j, rows
    return RipReport(
        order=k,
        theta_minus=theta_minus,
        theta_plus=float(upper[upper_j]),
        lower_support=tuple(supports[lower_j].tolist()),
        lower_rows=lower_rows,
        upper_support=tuple(supports[upper_j].tolist()),
        enumerated=n_supports * (len(subsets) + 1),
    )


# ---------------------------------------------------------------------------
# Piecewise-trigonometric minimization over the unit circle
# ---------------------------------------------------------------------------
#
# The exact phaseless check reduces, on each row split with one-dimensional
# kernels on both blocks, to minimizing
#     g(phi) = sum_j coef_j |xs_j cos(phi) + ys_j sin(phi)|
# over the circle.  Between consecutive zeros of the terms the sign pattern
# is constant and g is a single sinusoid a cos(phi) + b sin(phi), so the
# minimum over each closed arc is attained at an endpoint or at the interior
# stationary angle.  Evaluating those candidates is exact up to roundoff.
#
# The evaluation is vectorised: one call builds every candidate of every arc
# and evaluates g on all of them with array operations, one row per angle.
# It keeps the operations and their order of a loop over the candidates
# (cos/sin and atan2 from ``math``, the same elementwise products, a
# row-wise pairwise sum, the first minimum in candidate order), so value,
# angle and candidate count are bitwise those of that loop; the scalar loop
# is kept in the tests as the reference.


def _breakpoints(xs: np.ndarray, ys: np.ndarray, extra=()) -> np.ndarray:
    """Sorted angles in [0, 2pi) where some term ``xs_j cos + ys_j sin`` vanishes."""
    angles = list(extra)
    for xj, yj in zip(xs, ys):
        if math.hypot(xj, yj) <= TOL.struct_zero:
            continue
        base = math.atan2(yj, xj) + 0.5 * math.pi
        angles.append(base % _TWO_PI)
        angles.append((base + math.pi) % _TWO_PI)
    if not angles:
        return np.empty(0)
    angles = np.sort(np.asarray(angles, dtype=float))
    keep = [angles[0]]
    for phi in angles[1:]:
        if phi - keep[-1] > 1e-12:
            keep.append(phi)
    if keep[0] + _TWO_PI - keep[-1] <= 1e-12 and len(keep) > 1:
        keep.pop()
    return np.asarray(keep)


def _cos_sin(phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``cos(phi)`` and ``sin(phi)``, shape (len, 1), from ``math``:
    numpy's vectorised cos/sin may round differently on another CPU."""
    phis = phis.tolist()
    return (np.array([math.cos(p) for p in phis])[:, None],
            np.array([math.sin(p) for p in phis])[:, None])


def _circle_min(coef, xs, ys, angles, keep=None, arc_ok: bool = True):
    """Minimize ``sum coef |xs cos + ys sin|`` over candidate angles and arcs.

    ``keep`` (a boolean mask over ``angles``) filters breakpoint candidates;
    ``arc_ok`` gates interior candidates.  Returns ``(min_value, argmin_phi,
    n_candidates)``; the value is None when every candidate was filtered out.
    """
    # candidates in loop order: the kept breakpoints, then for each arc its
    # midpoint if g is constant there, else its stationary angle and that
    # angle plus 2pi where they fall inside the arc; `wrap` marks the
    # stationary ones, which are reported reduced to [0, 2pi)
    cands = [angles if keep is None else angles[keep]]
    wrap = [np.zeros(len(cands[0]), dtype=bool)]
    if arc_ok:
        if len(angles) == 0:
            lo, hi = np.array([0.0]), np.array([_TWO_PI])
        else:
            lo, hi = angles, np.append(angles[1:], angles[0] + _TWO_PI)
        wide = hi - lo > 1e-12
        lo, hi = lo[wide], hi[wide]
        mid = 0.5 * (lo + hi)
        c, s = _cos_sin(mid)
        weighted = coef * np.sign(xs * c + ys * s)
        aa = (weighted * xs).sum(axis=-1)
        bb = (weighted * ys).sum(axis=-1)
        flat = (aa == 0.0) & (bb == 0.0)
        star = np.array([math.atan2(-b, -a) % _TWO_PI
                         for a, b in zip(aa.tolist(), bb.tolist())])
        per_arc = np.column_stack([np.where(flat, mid, star), star + _TWO_PI])
        inside = (lo[:, None] + 1e-12 < per_arc) & (per_arc < hi[:, None] - 1e-12)
        inside[:, 0] |= flat
        inside[:, 1] &= ~flat
        cands.append(per_arc[inside])
        wrap.append(np.column_stack([~flat, np.ones_like(flat)])[inside])
    cands = np.concatenate(cands)
    if cands.size == 0:
        return None, None, 0
    c, s = _cos_sin(cands)
    vals = (coef * np.abs(xs * c + ys * s)).sum(axis=-1)
    best = int(np.argmin(vals))  # the first minimum, as the strict loop keeps
    phi = float(cands[best])
    if np.concatenate(wrap)[best]:
        phi %= _TWO_PI
    return float(vals[best]), phi, int(cands.size)


# ---------------------------------------------------------------------------
# Weighted null space property
# ---------------------------------------------------------------------------


def _classify(margin: float, witness, enumerated: int) -> NspVerdict:
    if margin <= 0.0:
        return NspVerdict("fails", margin, witness, enumerated)
    if margin <= TOL.nsp_margin_band:
        return NspVerdict("indeterminate", margin, witness, enumerated)
    return NspVerdict("holds-exact", margin, None, enumerated)


def _worst_support(h: np.ndarray, w: np.ndarray, k: int) -> tuple[int, ...]:
    order = np.argsort(-(w * np.abs(h)), kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def _kernel_vertices(kernel: np.ndarray, rows: np.ndarray):
    """Vertex directions of ``{h in ker A : ||h||_{1,w} <= 1}``, one stack
    of unit kernel vectors per chunk of subsets.

    ``kernel`` is an orthonormal basis ``Q`` of dimension ``d`` and ``rows``
    the positive-weight coordinates.  Every vertex vanishes on some
    (d-1)-subset ``Z`` of ``rows`` where ``Q[Z]`` has rank d - 1, so for each
    such ``Z`` the null vector ``c`` of ``Q[Z]`` gives the candidate ``Q c``,
    with its entries on ``Z`` set to exact zeros; d = 1 gives the kernel
    line itself.  Each chunk is one stacked SVD.
    """
    dim = kernel.shape[1]
    if dim == 1:
        yield kernel.T
        return
    # subsets index into rows, so the table has one copy
    for chunk, cols in _column_stacks(kernel[rows].T, _supports(rows.size, dim - 1)):
        # cols[i] is Q[Z]^T, (d, d-1): its left null vector is the last column
        # of u; Q has orthonormal columns, so the singular values are at most 1
        u, sing, _ = np.linalg.svd(cols)
        full = sing[:, -1] > TOL.struct_zero
        if full.any():
            h = u[full, :, -1] @ kernel.T
            np.put_along_axis(h, rows[chunk[full]], 0.0, axis=1)
            yield h


def weighted_nsp_check(a, k: int, w) -> NspVerdict:
    """Check the weighted null space property of order ``k`` for ``a``.

    With ``theta`` the largest ``||h_T||_{1,w} / ||h||_{1,w}`` over nonzero
    ``h`` in ``ker A`` and ``|T| = k``, the property holds if and only if
    ``theta < 1/2``; the margin is ``1 - 2 theta``, the slack
    ``||h_{T^c}||_{1,w} - ||h_T||_{1,w}`` of the worst pair normalised by
    ``||h||_{1,w}``.  For each ``T`` the ratio is convex on the polytope
    ``{h in ker A : ||h||_{1,w} <= 1}``, so ``theta`` is attained at one of
    its vertices, which are enumerated exactly at every kernel dimension
    ``d`` (one per (d-1)-subset of the positive-weight coordinates).  A
    trivial kernel holds vacuously (margin inf); a nonzero kernel vector on
    zero-weight coordinates only fails at margin 0.  The witness is the
    worst vertex, unit in l2, on its ``k`` largest weighted entries.
    Refuses negative weights, and more than 2,000,000 subsets.
    """
    a = as_matrix(a)
    n = a.shape[1]
    w = _check_order(k, n, w)
    kernel = kernel_basis(a)
    dim = kernel.shape[1]
    if dim == 0:
        return NspVerdict("holds-exact", math.inf, None, 0)
    positive = np.flatnonzero(w > 0.0)
    _, sing, vt = np.linalg.svd(kernel[positive])
    theta, worst = -math.inf, None
    if sing.size == dim and sing[-1] > TOL.struct_zero:
        count = math.comb(positive.size, dim - 1)
        if count > _SUPPORT_CAP:
            raise CapExceededError("vertex enumeration cap",
                                   f"C({positive.size},{dim - 1})={count} > {_SUPPORT_CAP}")
        for h in _kernel_vertices(kernel, positive):
            mass = w * np.abs(h)
            top = np.partition(mass, n - k, axis=1)[:, n - k:].sum(axis=1)
            ratios = top / mass.sum(axis=1)
            # argmax and the strict test keep the first maximum in subset order
            j = int(np.argmax(ratios))
            if ratios[j] > theta:
                theta, worst = float(ratios[j]), h[j]
    if worst is None:
        # a unit kernel vector without weighted mass (no positive-weight
        # coordinates pin down a vertex): ||.||_{1,w} is no norm on the
        # kernel; the vector's largest entries make the witness
        h = kernel @ vt[-1]
        return NspVerdict("fails", 0.0, NspWitness(h, _worst_support(h, np.ones(n), k)), 0)
    h = worst / np.linalg.norm(worst)
    return _classify(1.0 - 2.0 * theta, NspWitness(h, _worst_support(h, w, k)), count)


# ---------------------------------------------------------------------------
# Phaseless weighted null space property
# ---------------------------------------------------------------------------


def _phaseless_pair(u0, v0, k, w):
    """Exact minimum slack for one-dimensional kernels on either row block.

    Pairs (u, v) = (cos phi u0, sin phi v0) cover all candidates up to joint
    positive scaling.  Angles with cos phi = 0 or sin phi = 0 make u or v
    zero and are excluded as constraints; the sparsity filter keeps only
    angles where u + v has at most k nonzero coordinates.  Support can drop
    below the generic count only at term breakpoints, so arcs are feasible
    or not as a whole.  Returns (min_slack, argmin_phi, n_candidates).
    """
    n = u0.size
    active = np.flatnonzero(np.maximum(np.abs(u0), np.abs(v0)) > TOL.struct_zero)
    n_active = active.size
    arc_feasible = n_active <= k

    # slack terms: |q_i| with weight +w_i, |p_i| with weight -w_i,
    # where p = u0 cos + v0 sin and q = u0 cos - v0 sin
    xs = np.concatenate([u0, u0])
    ys = np.concatenate([-v0, v0])
    coef = np.concatenate([w, -w])

    angles = _breakpoints(xs, ys, extra=_QUARTERS)

    # a breakpoint is a candidate when it is no quarter angle and u + v has
    # at most k coordinates above the structural zero there
    excluded = (np.abs(angles[:, None] % _TWO_PI - _QUARTERS_AND_TWO_PI) <= 1e-9).any(axis=1)
    c, s = _cos_sin(angles)
    support = (np.abs(u0[active] * c + v0[active] * s) > TOL.struct_zero).sum(axis=1)
    return _circle_min(coef, xs, ys, angles, keep=~excluded & (support <= k),
                       arc_ok=arc_feasible)


_PNSP_ROW_CAP = 12


def phaseless_nsp_check(a, k: int, w, mode: str = "exact") -> NspVerdict:
    """Check the phaseless weighted null space property of order ``k``.

    For every split of the rows into (S, complement), every pair of nonzero
    kernel vectors u of the S-block and v of the complement block with
    ``u + v`` k-sparse must satisfy the strict weighted inequality
    ``||u + v||_{1,w} < ||u - v||_{1,w}``.  Splits where either kernel is
    trivial impose no constraint.  Exact mode requires both kernels to be
    one-dimensional whenever both are nontrivial and refuses otherwise.
    """
    a = as_matrix(a)
    m, n = a.shape
    w = _check_order(k, n, w)
    if m > _PNSP_ROW_CAP:
        raise CapExceededError("row split cap", f"m={m} > {_PNSP_ROW_CAP}")
    if mode == "falsify":
        return _phaseless_falsify(a, k, w)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    best = math.inf
    best_witness: PhaselessWitness | None = None
    total = 0
    for rows, ker_s, ker_c in _split_kernels(a):
        dims = (ker_s.shape[1], ker_c.shape[1])
        if dims[0] == 0 or dims[1] == 0:
            continue
        if dims != (1, 1):
            raise CapExceededError(
                "exact kernel pair cap",
                f"row split {rows} has kernel dimensions {dims}; use mode='falsify'",
            )
        u0 = ker_s[:, 0] / np.linalg.norm(ker_s[:, 0])
        v0 = ker_c[:, 0] / np.linalg.norm(ker_c[:, 0])
        val, phi, n_cand = _phaseless_pair(u0, v0, k, w)
        total += n_cand
        if val is not None and val < best:
            best = val
            best_witness = PhaselessWitness(
                math.cos(phi) * u0, math.sin(phi) * v0, rows
            )
    if best_witness is None:
        return NspVerdict("holds-exact", math.inf, None, total)
    return _classify(best, best_witness, total)


def _phaseless_falsify(a: np.ndarray, k: int, w: np.ndarray) -> NspVerdict:
    n = a.shape[1]
    rng = np.random.default_rng(0)
    best = math.inf
    best_witness: PhaselessWitness | None = None
    evals = 0
    supports = list(combinations(range(n), k))
    for rows, ker_s, ker_c in _split_kernels(a):
        du, dv = ker_s.shape[1], ker_c.shape[1]
        if du == 0 or dv == 0:
            continue
        stacked = np.hstack([ker_s, ker_c])
        for t in supports:
            off = np.setdiff1d(np.arange(n), t)
            coeff_space = kernel_basis(stacked[off, :]) if off.size else np.eye(du + dv)
            if coeff_space.shape[1] == 0:
                continue
            for _ in range(5):
                c = coeff_space @ rng.standard_normal(coeff_space.shape[1])
                u = ker_s @ c[:du]
                v = ker_c @ c[du:]
                nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                if nu <= 1e-10 or nv <= 1e-10:
                    continue
                scale = math.hypot(nu, nv)
                u, v = u / scale, v / scale
                slack = phaseless_slack(u, v, w)
                evals += 1
                if slack < best:
                    best = slack
                    best_witness = PhaselessWitness(u, v, rows)
    if evals and best <= 0.0:
        return NspVerdict("fails", best, best_witness, evals)
    return NspVerdict("indeterminate", best if evals else math.inf, None, evals)


# ---------------------------------------------------------------------------
# Brute-force weighted l1 oracles
# ---------------------------------------------------------------------------

_ORACLE_DIM_CAP = 12
_SIGN_ROW_CAP = 14


class ExhaustiveL1Oracle:
    """Vertex enumeration for ``min ||z||_{1,w} subject to A z = y``.

    Pseudo-inverses of all full-column-rank supports are precomputed per
    support size, one stacked SVD and ``pinv`` call per chunk of supports,
    so repeated solves against the same matrix are cheap.  They, and so the
    candidates of ``solve``, are bitwise those of one call per support.
    ``solve`` evaluates each candidate with the arithmetic of
    ``np.linalg.norm`` (one ``dot`` and a correctly rounded square root) and
    of ``weighted_l1`` (the same product and pairwise sum), bit for bit,
    without their per-call argument handling.
    """

    def __init__(self, a):
        a = as_matrix(a)
        self.a = a
        self.m, self.n = a.shape
        if self.n > _ORACLE_DIM_CAP:
            raise CapExceededError("oracle dimension cap", f"N={self.n} > {_ORACLE_DIM_CAP}")
        self.degenerate = False
        # one (supports, pseudo-inverses) pair per support size: the
        # full-rank supports in lexicographic order, one per row, and their
        # pseudo-inverses stacked alike
        self._table: list[tuple[np.ndarray, np.ndarray]] = []
        for size in range(1, min(self.m, self.n) + 1):
            kept, pinvs = [], []
            for chunk, cols in _column_stacks(a, _supports(self.n, size)):
                sing = np.linalg.svd(cols, compute_uv=False)
                full = sing[:, -1] > 1e-10 * np.maximum(sing[:, 0], 1e-300)
                if not full.all():
                    self.degenerate = True
                    chunk, cols = chunk[full], cols[full]
                kept.append(chunk)
                pinvs.append(np.linalg.pinv(cols))
            self._table.append((np.concatenate(kept), np.concatenate(pinvs)))

    def solve(self, y, w) -> L1MinResult:
        y = _check_vector(y, self.m, "y")
        w = _nonnegative(_check_vector(w, self.n, "w"))
        yn = float(np.linalg.norm(y))
        if yn <= 1e-12:
            return L1MinResult([np.zeros(self.n)], 0.0, self.degenerate)
        feas_tol = TOL.oracle_feasibility * (1.0 + yn)
        candidates: list[tuple[float, np.ndarray]] = []
        for supports, pinvs in self._table:
            for t, pinv in zip(supports, pinvs):
                z = np.zeros(self.n)
                z[t] = pinv @ y
                # np.linalg.norm and weighted_l1, less their argument handling
                r = self.a @ z - y
                if math.sqrt(r @ r) > feas_tol:
                    continue
                candidates.append((float((w * np.abs(z)).sum()), z))
        return _cheapest(candidates, self.degenerate)


def _check_vector(v, size: int, name: str) -> np.ndarray:
    """``v`` as a float vector of length ``size``; refuses another shape and
    non-finite entries with a ``ValueError`` naming ``name``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {v.shape}")
    return _finite(v, name)


def _nonnegative(w: np.ndarray) -> np.ndarray:
    """Refuse a negative weight: it makes ``||.||_{1,w}`` no norm, and a
    weighted-l1 program with one can be unbounded below."""
    if (w < 0.0).any():
        raise ValueError("w has negative entries")
    return w


def _cheapest(candidates, degenerate: bool, transform=None) -> L1MinResult:
    """Minimizer set of ``(cost, vector)`` candidates: the vectors within the
    cost-tie width of the minimum, each passed through ``transform`` when one
    is given, deduplicated."""
    if not candidates:
        return L1MinResult([], None, degenerate)
    vmin = min(c for c, _ in candidates)
    tie = vmin + TOL.oracle_value_tie * (1.0 + abs(vmin))
    kept = [z if transform is None else transform(z) for c, z in candidates if c <= tie]
    return L1MinResult(_dedupe(kept), vmin, degenerate)


def _dedupe(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """The vectors in ascending order of their entries rounded to 9 digits,
    less each one within ``1e-7 * (1 + top)`` in the max norm of one kept
    before it, where ``top`` is the largest magnitude kept so far.

    The walk keeps, for every row, its least distance to the vectors kept so
    far; ``top`` grows only when a vector is kept, so the next vector kept is
    the first later row whose distance exceeds the present threshold.  Every
    temporary is at most (rows, N).
    """
    if len(vectors) <= 1:
        return vectors[:]
    rows = np.array(vectors)
    # lexsort is stable and takes its last key first, as tuple order does
    order = np.lexsort(np.round(rows, 9).T[::-1])
    rows = rows[order]
    nearest = np.full(len(rows), math.inf)
    kept, top, i = [], 0.0, 0
    while True:
        kept.append(vectors[order[i]])
        top = max(top, float(np.abs(rows[i]).max()))
        later = nearest[i + 1:]
        np.minimum(later, np.abs(rows[i + 1:] - rows[i]).max(axis=1), out=later)
        beyond = np.flatnonzero(later > 1e-7 * (1.0 + top))
        if not beyond.size:
            return kept[:]  # exact-size copy: results are kept by the thousand
        i += 1 + int(beyond[0])


def brute_force_weighted_l1(a, y, w) -> L1MinResult:
    """Exact minimizer set of ``min ||z||_{1,w} s.t. A z = y`` on small instances."""
    return ExhaustiveL1Oracle(a).solve(y, w)


def brute_force_phaseless(a, b_abs, w) -> L1MinResult:
    """Exact minimizer set of ``min ||z||_{1,w} s.t. |A z| = b_abs``, up to sign.

    Enumerates sign patterns on the measurements (one per antipodal pair),
    solves each linear program via the exhaustive oracle, and returns the
    union of global minimizers with canonical sign (each returned vector
    stands for the pair +-z).
    """
    a = as_matrix(a)
    m, n = a.shape
    if m > _SIGN_ROW_CAP:
        raise CapExceededError("sign pattern cap", f"m={m} > {_SIGN_ROW_CAP}")
    b_abs = _check_vector(b_abs, m, "b_abs")
    w = _nonnegative(_check_vector(w, n, "w"))
    oracle = ExhaustiveL1Oracle(a)
    if float(np.linalg.norm(b_abs)) <= 1e-12:
        return L1MinResult([np.zeros(n)], 0.0, oracle.degenerate)
    collected: list[tuple[float, np.ndarray]] = []
    for rows in _half_subsets(m):
        sigma = np.ones(m)
        sigma[list(rows)] = -1
        res = oracle.solve(sigma * b_abs, w)
        if res.value is None:
            continue
        collected.extend((res.value, z) for z in res.minimizers)
    return _cheapest(collected, oracle.degenerate, canonical_sign)


def recovers_uniquely(result: L1MinResult, x, up_to_sign: bool = False) -> bool:
    """True when the oracle returned exactly the planted signal (or its sign pair)."""
    x = np.asarray(x, dtype=float)
    if result.value is None or len(result.minimizers) != 1:
        return False
    target = canonical_sign(x) if up_to_sign else x
    z = result.minimizers[0]
    return bool(np.abs(z - target).max() <= 1e-6 * (1.0 + np.abs(x).max()))
