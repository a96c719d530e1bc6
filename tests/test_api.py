"""The public API is pinned, so that a change to it is deliberate."""

import adiakit


def test_public_api_is_pinned():
    assert sorted(adiakit.__all__) == [
        "AdiakitError", "Classification", "ConfigError", "EigenFrame",
        "EigenvalueCrossingError", "HamiltonianPath", "HermEig",
        "NonHermitianError", "NonSmoothUnitaryError", "ProjectorDiscontinuityError",
        "PropagationResult", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
        "ScalingUndefinedError", "SlopeFit", "StepLimitError", "Thresholds",
        "TransformedHamiltonianPath", "UnitaryPath", "backend_name", "classify",
        "constant_hamiltonian", "couplings", "dual_of", "dynamical_phase",
        "eigenframe", "f_norm", "generator_of", "herm_eig", "hermiticity_defect",
        "identity_unitary", "intertwining_defect", "intertwining_series",
        "kato_generator", "kato_operator", "kernel", "kernel_coefficients",
        "negate", "phase_rate_per_step", "premise_checks", "projector_drift",
        "projector_drift_series", "propagate", "propagate_adaptive", "qac_max",
        "resonance_integral", "resonance_max_abs", "resonance_series",
        "scaling_slope", "transform", "unitarity_defect", "unitary_exp",
        "w_deviation",
    ]
    for name in adiakit.__all__:
        assert hasattr(adiakit, name), name
