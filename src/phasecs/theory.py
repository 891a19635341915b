"""Closed-form recovery constants for weighted l1 phaseless recovery.

All functions are pure scalar formulas in the prior-quality parameters
(omega, rho, alpha), the isometry order factor t, the isometry constant
delta_tk, and the two-sided row-subset isometry bounds (theta_minus,
theta_plus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import check_at_least, check_fraction, check_nonnegative


def gamma(omega: float, rho: float, alpha: float) -> float:
    """gamma = omega + (1 - omega) * sqrt(1 + rho*(1 - 2*alpha))."""
    # rho factored out: 1 + rho - 2*alpha*rho loses the 1 once rho passes 2**53
    radicand = 1.0 + rho * (1.0 - 2.0 * alpha)
    if radicand < 0:
        raise ValueError(f"rho {rho:g} at alpha {alpha:g} makes 1 + rho - 2*alpha*rho negative")
    return omega + (1.0 - omega) * math.sqrt(radicand)


def d_const(omega: float, rho: float, alpha: float) -> float:
    """d = 1 for omega = 1, else 1 + rho*(max(alpha, 1 - alpha) - alpha)."""
    if omega == 1.0:
        return 1.0
    return 1.0 + rho * (max(alpha, 1.0 - alpha) - alpha)


def delta_threshold(t: float, d: float, gam: float) -> float:
    """Largest admissible isometry constant: sqrt((t - d) / (t - d + gamma^2))."""
    if t <= d:
        raise ValueError(f"need t > d, got t={t}, d={d}")
    return math.sqrt((t - d) / (t - d + gam * gam))


def t_omega(
    omega: float,
    rho: float,
    alpha: float,
    theta_minus: float,
    theta_plus: float,
) -> float:
    """Smallest order factor t for which the two-sided isometry bounds suffice.

    Equals ``max over theta in {theta_minus, theta_plus} of
    d + gamma^2 (1 - theta)^2 / (2 theta - theta^2)``; ``ValueError`` naming
    the threshold if either lies outside (0, 2).
    """
    gam = gamma(omega, rho, alpha)
    d = d_const(omega, rho, alpha)
    branches = []
    for name, theta in (("theta_minus", theta_minus), ("theta_plus", theta_plus)):
        # tested on theta itself: 2 theta - theta^2 is NaN at theta = NaN or inf
        if not 0.0 < theta < 2.0:
            raise ValueError(f"{name} must lie in (0, 2), got {theta:g}")
        branches.append(d + gam * gam * (1.0 - theta) ** 2 / (2.0 * theta - theta * theta))
    return max(branches)


def error_constants(
    t: float,
    delta_tk: float,
    omega: float,
    rho: float,
    alpha: float,
) -> tuple[float, float]:
    """Stability constants (C1, C2) of the weighted recovery error bound.

    Requires ``t > d`` and ``delta_tk`` below :func:`delta_threshold`; raises
    ``ValueError`` otherwise ("bound not applicable").  C2 includes the
    additive ``1/sqrt(d)`` term.
    """
    gam = gamma(omega, rho, alpha)
    d = d_const(omega, rho, alpha)
    thr = delta_threshold(t, d, gam)
    if not delta_tk < thr:
        raise ValueError(
            f"bound not applicable: delta_tk={delta_tk} >= threshold {thr:.6f}"
        )
    u = t - d
    s = u + gam * gam
    denom = s * (math.sqrt(u / s) - delta_tk)
    c1 = math.sqrt(2.0 * u * s * (1.0 + delta_tk)) / denom
    c2 = (
        math.sqrt(2.0) * delta_tk * gam + math.sqrt(s * (math.sqrt(u / s) - delta_tk) * delta_tk)
    ) / denom + 1.0 / math.sqrt(d)
    return c1, c2


def error_constants_unweighted(t: float, delta_tk: float) -> tuple[float, float]:
    """(c1, c2) of the classical unweighted bound; c2 without the 1/sqrt(d) term.

    c1 = sqrt(2 (1 + delta)) / (1 - sqrt(t/(t-1)) delta) and
    c2 = (sqrt(2) delta + sqrt((sqrt(t(t-1)) - delta t) delta)) / (sqrt(t(t-1)) - delta t).
    """
    if t <= 1:
        raise ValueError("need t > 1")
    if not delta_tk < math.sqrt((t - 1.0) / t):
        raise ValueError("bound not applicable")
    c1 = math.sqrt(2.0 * (1.0 + delta_tk)) / (1.0 - math.sqrt(t / (t - 1.0)) * delta_tk)
    root = math.sqrt(t * (t - 1.0)) - delta_tk * t
    c2 = (math.sqrt(2.0) * delta_tk + math.sqrt(root * delta_tk)) / root
    return c1, c2


def error_bound(
    c1: float,
    c2: float,
    zeta: float,
    eps: float,
    eta: float,
    k: int,
    omega: float,
    tail_t0: float,
    tail_joint: float,
) -> float:
    """Reconstruction error bound assembled from its constants and tail norms.

    ``C1 (zeta + eps) + 2 C2 (omega tail_t0 + (1 - omega) tail_joint) / sqrt(k)
    + C2 eta / sqrt(k)``, where ``tail_t0`` is the l1 mass off the dominant
    support and ``tail_joint`` the mass off both the support and the prior.
    """
    check_at_least(k, 1, "k")
    rk = math.sqrt(k)
    return (
        c1 * (zeta + eps)
        + c2 * 2.0 * (omega * tail_t0 + (1.0 - omega) * tail_joint) / rk
        + c2 * eta / rk
    )


@dataclass(frozen=True)
class ConstantsRow:
    """One grid point of the constants sweep."""

    alpha: float
    omega: float
    t_omega: float
    c1: float
    c2: float
    applicable: bool


def constants_table(
    rho: float,
    theta_minus: float,
    theta_plus: float,
    t: float,
    delta_tk: float,
    alphas,
    omegas,
) -> list[ConstantsRow]:
    """Sweep (alpha, omega) grids: t_omega plus (C1, C2) at the fixed (t, delta).

    Grid points where the bound is not applicable (delta at or above the
    threshold) are emitted with ``applicable=False`` and NaN constants rather
    than dropped, so downstream CSV stays rectangular.  A negative or non-finite
    rho, omega or delta_tk, an alpha outside [0, 1] or a non-finite t is a ``ValueError``.
    """
    alphas = list(alphas)
    omegas = list(omegas)
    if not alphas or not omegas:
        raise ValueError("alpha and omega grids must be nonempty")
    for name, value in (("rho", rho), ("omegas", omegas), ("delta_tk", delta_tk)):
        check_nonnegative(value, name)
    check_fraction(alphas, "alphas")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t:g}")
    rows = []
    for alpha in alphas:
        for omega in omegas:
            tw = t_omega(omega, rho, alpha, theta_minus, theta_plus)
            try:
                c1, c2 = error_constants(t, delta_tk, omega, rho, alpha)
                applicable = True
            except ValueError:
                c1, c2 = math.nan, math.nan
                applicable = False
            rows.append(ConstantsRow(alpha, omega, tw, c1, c2, applicable))
    return rows
