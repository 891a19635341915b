"""Weighted l1 recovery from phaseless compressive measurements.

The package splits into six pieces: ``linalg`` (dense symmetric kernels),
``model`` (signals, support priors, measurements, metrics), ``theory``
(closed-form recovery constants), ``certify`` (exact isometry / null-space
certificates and brute-force l1 oracles), ``solver`` (the lifted
semidefinite recovery solver) and ``cli`` (the ``phasecs`` command).
"""

from .certify import (
    CapExceededError,
    L1MinResult,
    NspVerdict,
    RipReport,
    brute_force_phaseless,
    brute_force_weighted_l1,
    phaseless_nsp_check,
    rip_constant,
    srip_bounds,
    weighted_nsp_check,
)
from .linalg import TOL, EigenDecomposition, eig_sym, kernel_basis, solve_spd
from .model import (
    PhaselessInstance,
    SupportEstimate,
    best_k_support,
    draw_trial,
    gen_compressible_signal,
    gen_gaussian_matrix,
    gen_sparse_signal,
    gen_support_estimate,
    make_instance,
    snr_db,
    substream,
    tail_norms,
    weighted_l1,
)
from .solver import (
    LiftedOperator,
    SolverConfig,
    SolverResult,
    ball_project,
    rank1_extract,
    solve_sdp,
    weighted_shrink,
)
from .theory import (
    BoundConstants,
    TheoryParams,
    bound_constants,
    constants_table,
    d_const,
    delta_threshold,
    error_bound,
    error_constants,
    error_constants_unweighted,
    gamma,
    t_omega,
)

__version__ = "0.1.0"
