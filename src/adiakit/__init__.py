"""adiakit: adiabatic quantum dynamics toolkit.

Exact and numerical propagators for scaled-time Schrodinger equations,
parallel-transport eigenframes, dual/transformed Hamiltonian constructions,
and the diagnostics that separate genuinely adiabatic evolution from systems
that merely satisfy the textbook quantitative condition.
"""

from ._backend import backend_name
from .diagnostics import (Classification, SlopeFit, Thresholds, classify,
                          f_norm, intertwining_defect, intertwining_series,
                          phase_rate_per_step, premise_checks, projector_drift,
                          projector_drift_series, qac_max, resonance_integral,
                          resonance_max_abs, resonance_series, scaling_slope,
                          transition_matrix, w_deviation)
from .exceptions import (AdiakitError, ConfigError, EigenvalueCrossingError,
                         NonHermitianError, NonSmoothUnitaryError,
                         ProjectorDiscontinuityError, ScalingUndefinedError,
                         StepLimitError)
from .gauge import (EigenFrame, couplings, eigenframe, kato_operator,
                    kernel_coefficients)
from .linalg import (SIGMA_X, SIGMA_Y, SIGMA_Z, hermiticity_defect,
                     unitarity_defect)
from .paths import HamiltonianPath, UnitaryPath, constant_hamiltonian, identity_unitary
from .propagate import PropagationResult, propagate, propagate_adaptive
from .transforms import (TransformedHamiltonianPath, dual_of, generator_of,
                         negate, transform)

__version__ = "0.1.0"

__all__ = [
    "AdiakitError", "Classification", "ConfigError", "EigenFrame",
    "EigenvalueCrossingError", "HamiltonianPath", "NonHermitianError",
    "NonSmoothUnitaryError", "PropagationResult",
    "ProjectorDiscontinuityError", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "ScalingUndefinedError", "SlopeFit", "StepLimitError", "Thresholds",
    "TransformedHamiltonianPath", "UnitaryPath", "backend_name", "classify",
    "constant_hamiltonian", "couplings", "dual_of", "eigenframe", "f_norm",
    "generator_of", "hermiticity_defect", "identity_unitary",
    "intertwining_defect", "intertwining_series", "kato_operator",
    "kernel_coefficients", "negate", "phase_rate_per_step", "premise_checks",
    "projector_drift", "projector_drift_series", "propagate",
    "propagate_adaptive", "qac_max", "resonance_integral",
    "resonance_max_abs", "resonance_series", "scaling_slope", "transform",
    "transition_matrix", "unitarity_defect", "w_deviation",
]
