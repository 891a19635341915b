"""Problem data: signals, support priors, measurement ensembles, and metrics.

Randomness is always drawn from an explicitly passed ``numpy.random.Generator``
(PCG64).  :func:`substream` derives independent, schedule-free generators from
a master seed plus integer keys, so parallel trials are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(master_seed: int, *keys: int) -> np.random.Generator:
    """Independent generator derived from ``(master_seed, *keys)``.

    The same tuple yields the same stream on every platform.
    """
    entropy = [int(master_seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derived_seed(master_seed: int, *keys: int) -> int:
    """64-bit seed hashed from ``(master_seed, *keys)``; feed to ``default_rng``."""
    entropy = [int(master_seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SupportEstimate:
    """Prior support guess with its accuracy parameters.

    ``indices`` is the guessed index set (0-based), ``omega`` the weight
    applied on it, ``rho`` its size relative to the sparsity it was built
    against, and ``alpha`` the fraction of the guess that is correct.
    """

    indices: tuple[int, ...]
    omega: float
    rho: float
    alpha: float

    def weights(self, n: int) -> np.ndarray:
        """Weight vector: ``omega`` on the estimated support, 1 elsewhere."""
        w = np.ones(n)
        if self.indices:
            w[list(self.indices)] = self.omega
        return w


@dataclass(frozen=True)
class PhaselessInstance:
    """One realization of the squared-magnitude measurement model.

    ``b = (A x)**2 + e`` entrywise, ``epsilon = ||e||_2``.
    """

    A: np.ndarray
    x: np.ndarray
    e: np.ndarray
    sigma: float
    epsilon: float
    b: np.ndarray


def gen_sparse_signal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Exactly k-sparse signal: uniform random support, standard normal values."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.standard_normal(k)
    return x


def gen_compressible_signal(n: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Signal whose sorted magnitudes decay like ``j**-theta``.

    Signs are i.i.d. uniform in {-1, +1} and the magnitudes are placed at
    randomly permuted positions, so the dominant support is nontrivial.
    """
    if theta is None or theta <= 0:
        raise ValueError("theta must be positive")
    magnitudes = np.arange(1, n + 1, dtype=float) ** (-theta)
    signs = rng.choice([-1.0, 1.0], size=n)
    positions = rng.permutation(n)
    x = np.zeros(n)
    x[positions] = magnitudes * signs
    return x


def best_k_support(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest magnitudes, ties broken toward the lowest index."""
    x = np.asarray(x, dtype=float)
    if not 1 <= k <= x.size:
        raise ValueError(f"need 1 <= k <= len(x), got k={k}")
    order = np.argsort(-np.abs(x), kind="stable")
    return np.sort(order[:k])


def _check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value:g}")


def support_estimate_sizes(n: int, k: int, rho: float, alpha: float) -> tuple[int, int]:
    """Index counts in and outside a size-k ``T0`` of a support estimate.

    The estimate has ``round(rho*k)`` indices, ``round(alpha*rho*k)`` of them in
    ``T0``, rounded half up; ``ValueError`` if ``rho`` is negative or not finite,
    if ``alpha`` is outside [0, 1], or if ``T0`` or its complement is too small.
    """
    _check_nonnegative("rho", rho)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha:g}")
    size = math.floor(rho * k + 0.5)
    size_in = math.floor(alpha * rho * k + 0.5)
    size_out = size - size_in
    if size_in > min(k, size) or size_out > n - k:
        raise ValueError(f"infeasible estimate: {size_in} indices in T0 and {size_out} "
                         f"outside requested, |T0|={k}, N={n}")
    return size_in, size_out


def gen_support_estimate(rng: np.random.Generator, t0: np.ndarray, n: int, k: int, rho: float,
                         alpha: float, omega: float) -> SupportEstimate:
    """Random support estimate of size ``round(rho*k)`` hitting ``t0`` at rate ``alpha``.

    The counts come from :func:`support_estimate_sizes`; the correct indices
    are sampled uniformly from ``t0`` and the rest uniformly from its
    complement.  ``ValueError`` if ``omega`` is negative or not finite.
    """
    _check_nonnegative("omega", omega)
    t0 = np.asarray(t0, dtype=int)
    size_in, size_out = support_estimate_sizes(n, k, rho, alpha)
    inside = rng.choice(t0, size=size_in, replace=False) if size_in else np.empty(0, int)
    # not np.setdiff1d: its np.unique imports numpy.ma on first use, which
    # costs every recover process about 0.7 MB of resident memory
    in_t0 = set(t0.tolist())
    pool = np.array([i for i in range(n) if i not in in_t0], dtype=int)
    outside = rng.choice(pool, size=size_out, replace=False) if size_out else np.empty(0, int)
    indices = tuple(sorted(int(i) for i in np.concatenate([inside, outside])))
    return SupportEstimate(indices=indices, omega=float(omega), rho=float(rho), alpha=float(alpha))


def gen_gaussian_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Gaussian measurement matrix, entries N(0, 1/m) so ||A x|| ~ ||x||."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be at least 1")
    return rng.standard_normal((m, n)) / math.sqrt(m)


def make_instance(
    A: np.ndarray,
    x: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> PhaselessInstance:
    """Measure ``x`` through ``A``: ``b = (A x)**2 + e`` with ``e ~ N(0, sigma^2)``.

    ``ValueError`` if ``sigma`` is negative or not finite.
    """
    _check_nonnegative("sigma", sigma)
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.shape[1] != x.size:
        raise ValueError("matrix and signal shapes disagree")
    m = A.shape[0]
    e = sigma * rng.standard_normal(m) if sigma > 0 else np.zeros(m)
    b = (A @ x) ** 2 + e
    return PhaselessInstance(
        A=A, x=x, e=e, sigma=float(sigma), epsilon=float(np.linalg.norm(e)), b=b
    )


def draw_trial(rng: np.random.Generator, signal: str, n: int, k: int, m: int, rho: float,
               alpha: float, omega: float, sigma: float,
               theta: float | None = None) -> tuple[PhaselessInstance, SupportEstimate]:
    """One experiment trial: signal, support estimate, matrix, then noise.

    The signal is sparse or compressible with decay ``theta`` (ignored by a
    sparse trial); the estimate is drawn against its best k-term support.  All
    draws come from ``rng`` in that order, so trials that differ only in
    ``sigma`` share signal, estimate and matrix.
    """
    if signal == "sparse":
        x = gen_sparse_signal(rng, n, k)
    elif signal == "compressible":
        x = gen_compressible_signal(n, theta, rng)
    else:
        raise ValueError(f"unknown signal kind {signal!r}")
    estimate = gen_support_estimate(rng, best_k_support(x, k), n, k, rho, alpha, omega)
    a = gen_gaussian_matrix(rng, m, n)
    return make_instance(a, x, sigma, rng), estimate


def snr_db(x: np.ndarray, xhat: np.ndarray) -> float:
    """Reconstruction SNR in dB, global sign removed; +inf on exact recovery."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if x.shape != xhat.shape:
        raise ValueError("signals must have the same length")
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValueError("SNR undefined for the zero signal")
    err = min(np.linalg.norm(xhat - x), np.linalg.norm(xhat + x))
    if err == 0:
        return math.inf
    return 20.0 * math.log10(nx / err)


def canonical_sign(z: np.ndarray) -> np.ndarray:
    """Flip sign so the first significantly nonzero coordinate is positive."""
    z = np.asarray(z, dtype=float)
    if not z.size:
        return z
    mag = np.abs(z)
    significant = np.flatnonzero(mag > 1e-12 * mag.max())
    return -z if significant.size and z[significant[0]] < 0 else z


def weighted_l1(x: np.ndarray, w: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape:
        raise ValueError("signal and weights must have the same length")
    return float(np.sum(w * np.abs(x)))


def tail_norms(x: np.ndarray, t0, t_tilde) -> tuple[float, float]:
    """l1 mass outside ``t0`` and outside ``t0 union t_tilde``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    in_t0 = np.zeros(n, dtype=bool)
    in_t0[np.asarray(sorted(t0), dtype=int)] = True
    in_tilde = np.zeros(n, dtype=bool)
    tilde = sorted(t_tilde)
    if tilde:
        in_tilde[np.asarray(tilde, dtype=int)] = True
    tail_t0 = float(np.abs(x[~in_t0]).sum())
    tail_joint = float(np.abs(x[~in_t0 & ~in_tilde]).sum())
    return tail_t0, tail_joint
