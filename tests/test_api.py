"""The public API is pinned, so that a change to it is deliberate."""

import numpy as np

import adiakit
from adiakit import models


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
        "scaling_slope", "transform", "transition_matrix", "unitarity_defect",
        "unitary_exp", "w_deviation",
    ]
    for name in adiakit.__all__:
        assert hasattr(adiakit, name), name


def test_kernel_entry_points():
    # the names the benchmark harness wraps and records
    from adiakit._backend import kernels
    assert callable(kernels.eigh_batch) and callable(kernels.propagate_steps)
    assert adiakit.backend_name() == "python"


def test_kernels_take_any_dimension():
    dim = 33
    path = models.random_smooth_hamiltonian(dim, np.random.default_rng(0))
    grid = np.linspace(0.0, 0.1, 5)
    frame = adiakit.eigenframe(path, 1.0, grid)
    assert frame.dim == dim and frame.completeness_defect() <= 1e-12
    res = adiakit.propagate(path, 1.0, grid)
    assert res.max_unitarity_defect <= 1e-12
    M = path.eval(0.0)
    e = adiakit.herm_eig(M)
    assert np.linalg.norm(e.reconstruct() - M) <= 1e-12 * np.linalg.norm(M)
