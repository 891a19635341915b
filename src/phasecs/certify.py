"""Exact certification of sparse recovery conditions on small instances.

Provides exhaustive computation of restricted isometry constants (plain and
row-subset variants), exact checks of the weighted null space property and
of its phaseless counterpart, and brute-force weighted-l1 minimization
oracles that ground-truth uniqueness of recovery.

Exactness notes.  The null space property is an open (strict) condition, so
verdicts are margin based: a computed worst-case slack of at most 0 is a
failure, a slack inside ``(0, TOL.nsp_margin_band]`` is reported
indeterminate (the strict inequality cannot be certified in floating point),
and anything above the band certifiably holds.  Both checks maximise a
convex ratio over the vertices of a weighted-l1 unit ball on a subspace,
from one vertex enumerator.  The weighted check reports the slack of kernel
vectors normalised to unit ``||.||_{1,w}``, which is ``1 - 2 theta`` for the
null space constant ``theta``; the phaseless check reports the slack of
pairs ``(u, v)`` normalised to unit ``||u - v||_{1,w}``.

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
(``weighted_nsp_check``) and at pair-space dimension d, summed over row
splits and supports (``phaseless_nsp_check``), 14 rows (``srip_bounds``,
``brute_force_phaseless``), 12 rows (``phaseless_nsp_check``) and 12
columns (the l1 oracles).  Supports and subsets are drawn in chunks of at
most 8192 stacked entries, so no table of them is ever built whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .linalg import TOL, _finite, as_matrix, eig_sym, kernel_basis
from .model import best_k_support, canonical_sign, weighted_l1


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
    """``(rows, ker_S, ker_complement)`` for each half subset ``S`` of the
    rows where both kernels are nontrivial.

    The kernel of an empty row block is the whole space, ``np.eye(N)``.
    """
    m, n = a.shape
    for rows in _half_subsets(m):
        mask = np.zeros(m, dtype=bool)
        mask[list(rows)] = True
        a_s, a_c = a[mask, :], a[~mask, :]
        ker_s = kernel_basis(a_s) if a_s.shape[0] else np.eye(n)
        if ker_s.shape[1] == 0:
            continue
        ker_c = kernel_basis(a_c) if a_c.shape[0] else np.eye(n)
        if ker_c.shape[1]:
            yield rows, ker_s, ker_c


_STACK_CHUNK_ENTRIES = 8192  # entries of the stacked A_T per LAPACK call (64 KB)


def _column_stacks(a: np.ndarray, k: int):
    """``(chunk, cols)`` for consecutive chunks of the k-subsets of the
    columns of ``a``, in lexicographic order: ``chunk`` holds one subset
    ``T`` per row and ``cols[i]`` is ``a[:, chunk[i]]``, stacked.

    The subsets are drawn chunk by chunk, so neither they nor the stacks
    take more than a chunk's memory, however many there are.  Each ``A_T``
    is laid out C-contiguous, as ``a[:, T]`` is, so a stacked LAPACK call or
    product on ``cols`` rounds exactly as one call per support does.
    """
    step = max(1, _STACK_CHUNK_ENTRIES // max(a.shape[0] * k, 1))
    subsets = chain.from_iterable(combinations(range(a.shape[1]), k))
    while (chunk := np.fromiter(islice(subsets, step * k), dtype=np.intp).reshape(-1, k)).size:
        yield chunk, np.ascontiguousarray(a[:, chunk].transpose(1, 0, 2))


def _first_max(a: np.ndarray, k: int, score) -> tuple[float, tuple[int, ...]]:
    """The largest ``score`` of the spectra of ``A_T^T A_T`` (eigenvalues
    descending, one row per support) over the k-subsets ``T`` of the
    columns, and the first ``T`` in lexicographic order attaining it.  One
    stacked ``eig_sym`` call per chunk of supports."""
    best, where = -math.inf, None
    for chunk, cols in _column_stacks(a, k):
        scores = score(eig_sym(cols.transpose(0, 2, 1) @ cols).eigenvalues)
        # argmax and the strict test keep the first maximum
        j = int(np.argmax(scores))
        if scores[j] > best:
            best, where = float(scores[j]), tuple(chunk[j].tolist())
    return best, where


# ---------------------------------------------------------------------------
# Restricted isometry constants
# ---------------------------------------------------------------------------

_SUPPORT_CAP = 2_000_000  # supports (rip_constant, srip_bounds), subsets (the NSP checks)
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
    delta, support = _first_max(a, k, lambda lam: np.abs(lam - 1.0).max(axis=1))
    return RipReport(order=k, delta=delta, delta_support=support, enumerated=count)


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
    # the first extremum wins: ties keep the earliest candidate, row subsets
    # before supports; negation is exact, so the least eigenvalue is the
    # negated first maximum of its negation
    theta_plus, upper_support = _first_max(a, k, lambda lam: lam[:, 0])
    subsets = list(combinations(range(m), (m + 1) // 2))
    lower = max((_first_max(a[list(rows), :], k, lambda lam: -lam[:, -1]) + (rows,)
                 for rows in subsets), key=lambda found: found[0])
    return RipReport(
        order=k,
        theta_minus=-lower[0],
        theta_plus=theta_plus,
        lower_support=lower[1],
        lower_rows=lower[2],
        upper_support=upper_support,
        enumerated=n_supports * (len(subsets) + 1),
    )


# ---------------------------------------------------------------------------
# Weighted null space property
# ---------------------------------------------------------------------------


def _classify(margin: float, witness, enumerated: int) -> NspVerdict:
    if margin <= 0.0:
        return NspVerdict("fails", margin, witness, enumerated)
    if margin <= TOL.nsp_margin_band:
        return NspVerdict("indeterminate", margin, witness, enumerated)
    return NspVerdict("holds-exact", margin, None, enumerated)


def _kernel_vertices(coords: np.ndarray, rows: np.ndarray, basis: np.ndarray):
    """Vertex directions of ``{basis c : ||coords c||_{1,w} <= 1}``, one
    stack per chunk of subsets, with the subsets that define them.

    ``coords`` has orthonormal columns (dimension d), ``rows`` are its
    positive-weight rows and ``basis`` maps the same coefficients ``c`` to
    the vectors wanted.  Every vertex has ``coords c`` vanishing on some
    (d-1)-subset ``Z`` of ``rows`` where ``coords[Z]`` has rank d - 1, so for
    each such ``Z`` the unit null vector ``c`` of ``coords[Z]`` gives the
    candidate ``basis c``; d = 1 gives the line itself.  Yields ``(stack,
    zeros)``: one candidate per row of ``stack``, and its ``Z``, as rows of
    ``coords``, per row of ``zeros``.  Each chunk is one stacked SVD.
    """
    dim = coords.shape[1]
    if dim == 1:
        yield basis.T, np.empty((1, 0), dtype=np.intp)
        return
    for chunk, cols in _column_stacks(coords[rows].T, dim - 1):
        # cols[i] is coords[Z]^T, (d, d-1): its left null vector is the last
        # column of u; coords has orthonormal columns, so the singular values
        # are at most 1
        u, sing, _ = np.linalg.svd(cols)
        full = sing[:, -1] > TOL.struct_zero
        if full.any():
            yield u[full, :, -1] @ basis.T, rows[chunk[full]]


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
        for h, zeros in _kernel_vertices(kernel, positive, kernel):
            np.put_along_axis(h, zeros, 0.0, axis=1)
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
        support = tuple(int(i) for i in best_k_support(h, k))
        return NspVerdict("fails", 0.0, NspWitness(h, support), 0)
    h = worst / np.linalg.norm(worst)
    support = tuple(int(i) for i in best_k_support(w * h, k))
    return _classify(1.0 - 2.0 * theta, NspWitness(h, support), count)


# ---------------------------------------------------------------------------
# Phaseless weighted null space property
# ---------------------------------------------------------------------------

_PNSP_ROW_CAP = 12


def _zero(x: np.ndarray) -> np.ndarray:
    """Which rows of ``x`` have no entry above ``TOL.struct_zero``."""
    return np.abs(x).max(axis=-1, initial=0.0) <= TOL.struct_zero


def _disjoint_pair(us: list, vs: list, positive: np.ndarray):
    """A ``u`` of ``us`` and a ``v`` of ``vs`` whose positive-weight
    supports are disjoint, with their entries of at most ``TOL.struct_zero``
    set to zero; None when there is no such pair."""
    found = []
    for x in (np.concatenate(us), np.concatenate(vs)):
        # one row per distinct support
        support, first = np.unique(np.abs(x[:, positive]) > TOL.struct_zero, axis=0,
                                   return_index=True)
        found.append((support.astype(float), np.where(np.abs(x) > TOL.struct_zero, x, 0.0)[first]))
    (su, us), (sv, vs) = found
    hits = np.argwhere(su @ sv.T == 0.0)
    if not hits.size:
        return None
    i, j = hits[0]
    return us[i], vs[j]


def phaseless_nsp_check(a, k: int, w) -> NspVerdict:
    """Check the phaseless weighted null space property of order ``k``.

    For every split of the rows into (S, complement), every pair of nonzero
    vectors u in the kernel of the S-block and v in that of the complement
    block with ``u + v`` k-sparse must satisfy the strict inequality
    ``||u + v||_{1,w} < ||u - v||_{1,w}``; splits where either kernel is
    trivial impose nothing.  For each split and each support ``T`` with
    ``|T| = k`` the pairs with ``u + v`` on ``T`` form a subspace ``L``.
    With ``p = u + v`` and ``q = u - v``, ``||p||_{1,w}`` is convex on the
    polytope ``P = {(u, v) in L : ||q||_{1,w} <= 1}``, so its largest ratio
    to ``||q||_{1,w}`` is attained at a vertex of ``P``; the vertices come
    from the enumerator of ``weighted_nsp_check``, one per (d-1)-subset of
    the positive-weight coordinates of ``q`` at ``d = dim L``.  The margin
    is ``1 - max ||p||_{1,w} / ||q||_{1,w}`` over the vertices with both
    parts nonzero, the worst slack normalised by ``||u - v||_{1,w}``;
    vertices with ``u = 0`` or ``v = 0`` (slack exactly 0) are dropped.

    Faces of ``P`` all of whose vertices are dropped are enumerated through
    their vertex pairs.  Such a face with both kinds of vertex holds pairs
    with both parts nonzero, and since ``||p||_{1,w}`` is convex and at most
    1 on it, one of them has slack 0 only if ``||p||_{1,w} = 1`` on the
    whole face.  Along the segment from a vertex ``(u1, 0)`` to a vertex
    ``(0, v2)`` of the face, ``||q||_{1,w} = 1`` says that ``u1`` and ``v2``
    nowhere have opposite signs on the positive weights, and
    ``||p||_{1,w} = 1`` that they nowhere have the same sign, so their
    positive-weight supports are disjoint; conversely such a pair
    ``(u1, v2)`` is itself a violation at slack 0.  So for each ``(S, T)``
    every dropped vertex with ``v = 0`` is tested against every one with
    ``u = 0`` for disjoint supports, and a hit fails at margin 0 with that
    pair (entries at most ``TOL.struct_zero`` set to zero) as the witness.

    ``||q||_{1,w}`` need not be a norm on ``L``.  If a pair in ``L`` with
    both parts nonzero has ``q`` on zero-weight coordinates only, the check
    fails at once at margin -inf (for positive weights, ``u = v`` is then a
    k-sparse kernel vector of ``A``).  Otherwise those pairs all have
    ``u = 0``, or all ``v = 0``, and move neither norm; ``P`` is taken on
    their orthogonal complement in ``L``, and they join the dropped vertices
    of their kind, so that a vertex of the other kind fails at margin 0.

    A matrix without such splits holds vacuously (margin inf).  The witness
    of a vertex is the pair as evaluated, ``||u - v||_2 = 1`` on the
    positive weights.  Refuses more than 12 rows, negative weights, and
    more than 2,000,000 subsets over all ``(S, T)``.
    """
    a = as_matrix(a)
    m, n = a.shape
    w = _check_order(k, n, w)
    if m > _PNSP_ROW_CAP:
        raise CapExceededError("row split cap", f"m={m} > {_PNSP_ROW_CAP}")
    positive = np.flatnonzero(w > 0.0)
    worst, witness, total = math.inf, None, 0
    for rows, ker_s, ker_c in _split_kernels(a):
        du, dv = ker_s.shape[1], ker_c.shape[1]
        # coefficients x = (alpha, beta) stand for (u, v) = (ker_s alpha, ker_c beta)
        pair = np.zeros((2 * n, du + dv))
        pair[:n, :du], pair[n:, du:] = ker_s, ker_c
        sum_map, diff_map = pair[:n] + pair[n:], (pair[:n] - pair[n:])[positive]
        for t in combinations(range(n), k):
            off = np.ones(n, dtype=bool)
            off[list(t)] = False
            span = kernel_basis(sum_map[off]) if off.any() else np.eye(du + dv)
            if span.shape[1] == 0:
                continue
            left, sing, vt = np.linalg.svd(diff_map @ span)
            rank = int(np.count_nonzero(sing > TOL.struct_zero))
            # pairs of L whose q has no weighted mass, as columns (u; v)
            flat = pair @ span @ vt[rank:].T
            u_zero, v_zero = _zero(flat[:n].T), _zero(flat[n:].T)
            if not u_zero.all() and not v_zero.all():
                # a column with u != 0, one with v != 0, or else their sum
                # has both parts nonzero
                i, j = int(np.argmin(u_zero)), int(np.argmin(v_zero))
                for x in (flat[:, i], flat[:, j], flat[:, i] + flat[:, j]):
                    if not (_zero(x[:n]) or _zero(x[n:])):
                        return NspVerdict("fails", -math.inf,
                                          PhaselessWitness(x[:n], x[n:], rows), total)
            only_u, only_v = [flat[:n, v_zero].T], [flat[n:, u_zero].T]
            if rank:
                total += math.comb(positive.size, rank - 1)
                if total > _SUPPORT_CAP:
                    raise CapExceededError("vertex enumeration cap",
                                           f"over {_SUPPORT_CAP} subsets by row split {rows}")
                basis = pair @ span @ (vt[:rank].T / sing[:rank])
                for uv, _ in _kernel_vertices(left[:, :rank], np.arange(positive.size), basis):
                    u, v = uv[:, :n], uv[:, n:]
                    u_zero, v_zero = _zero(u), _zero(v)
                    only_u.append(u[v_zero])
                    only_v.append(v[u_zero])
                    keep = ~(u_zero | v_zero)
                    if not keep.any():
                        continue
                    u, v = u[keep], v[keep]
                    qn = (w * np.abs(u - v)).sum(axis=1)
                    slack = (qn - (w * np.abs(u + v)).sum(axis=1)) / qn
                    # argmin and the strict test keep the first minimum
                    j = int(np.argmin(slack))
                    if slack[j] < worst:
                        worst, witness = float(slack[j]), PhaselessWitness(u[j], v[j], rows)
            found = _disjoint_pair(only_u, only_v, positive) if 0.0 < worst else None
            if found is not None:
                worst, witness = 0.0, PhaselessWitness(*found, rows)
    if witness is None:
        return NspVerdict("holds-exact", math.inf, None, total)
    return _classify(worst, witness, total)


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
            for chunk, cols in _column_stacks(a, size):
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


def _cheapest(candidates, degenerate: bool) -> L1MinResult:
    """Minimizer set of ``(cost, vector)`` candidates: the vectors within the
    cost-tie width of the minimum, deduplicated."""
    if not candidates:
        return L1MinResult([], None, degenerate)
    vmin = min(c for c, _ in candidates)
    tie = vmin + TOL.oracle_value_tie * (1.0 + abs(vmin))
    return L1MinResult(_dedupe([z for c, z in candidates if c <= tie]), vmin, degenerate)


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


def brute_force_phaseless(a, b_abs, w) -> L1MinResult:
    """Exact minimizer set of ``min ||z||_{1,w} s.t. |A z| = b_abs``, up to sign.

    Enumerates sign patterns on the measurements (one per antipodal pair),
    solves each linear program via the exhaustive oracle, and returns the
    union of global minimizers with canonical sign (each returned vector
    stands for the pair +-z).  Zero magnitudes give the zero vector alone,
    at value 0, as every sign pattern does.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m > _SIGN_ROW_CAP:
        raise CapExceededError("sign pattern cap", f"m={m} > {_SIGN_ROW_CAP}")
    b_abs = _check_vector(b_abs, m, "b_abs")
    w = _nonnegative(_check_vector(w, n, "w"))
    oracle = ExhaustiveL1Oracle(a)
    collected: list[tuple[float, np.ndarray]] = []
    for rows in _half_subsets(m):
        sigma = np.ones(m)
        sigma[list(rows)] = -1
        res = oracle.solve(sigma * b_abs, w)
        if res.value is None:
            continue
        collected.extend((res.value, canonical_sign(z)) for z in res.minimizers)
    return _cheapest(collected, oracle.degenerate)


def recovers_uniquely(result: L1MinResult, x, up_to_sign: bool = False) -> bool:
    """True when the oracle returned exactly the planted signal (or its sign pair)."""
    x = np.asarray(x, dtype=float)
    if result.value is None or len(result.minimizers) != 1:
        return False
    target = canonical_sign(x) if up_to_sign else x
    z = result.minimizers[0]
    return bool(np.abs(z - target).max() <= 1e-6 * (1.0 + np.abs(x).max()))
