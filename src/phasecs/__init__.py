"""Weighted l1 recovery from phaseless compressive measurements.

The package splits into six pieces: ``linalg`` (dense symmetric kernels),
``model`` (signals, support priors, measurements, metrics), ``theory``
(closed-form recovery constants), ``certify`` (exact isometry / null-space
certificates and brute-force l1 oracles), ``solver`` (the lifted
semidefinite recovery solver) and ``cli`` (the ``phasecs`` command).
"""

__version__ = "0.1.0"
