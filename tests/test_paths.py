"""Path protocol: batch callables only, one-row views, FD4 fallback."""

import numpy as np
import pytest

import adiakit as ak
from adiakit import spinhalf
from adiakit.models import driven_two_level, random_smooth_hamiltonian
from adiakit.paths import HamiltonianPath, UnitaryPath, constant_hamiltonian
from adiakit.scenario import custom_matrix_path

TAU = 5.0
# off the custom path's nodes by more than the FD stencil's reach
S_POINTS = np.array([0.13, 0.9, 2.2, 3.71, 5.5])


def _bundled_paths():
    theta, omega0 = 0.7, 1.0
    h = spinhalf.hamiltonian(theta, omega0)
    u = spinhalf.exact_propagator(theta, omega0)
    nodes = np.linspace(0.0, 2 * np.pi, 9)
    smooth = random_smooth_hamiltonian(3, np.random.default_rng(3))
    return {
        "spin_half_a": h,
        "spin_half_b": ak.dual_of(h, u),
        "spin_half_c": ak.negate(ak.dual_of(h, u)),
        "driven_two_level": driven_two_level(1.0, 0.4, 1.0, envelope=True),
        "random_smooth_hamiltonian": smooth,
        "custom_matrix_path": custom_matrix_path(nodes, smooth.eval_batch(nodes)),
        "constant_hamiltonian": constant_hamiltonian(np.diag([0.3, -0.2, 1.1])),
    }


BUNDLED = _bundled_paths()


def test_scalar_callables_rejected_with_expected_shape():
    def scalar_h(s, tau):
        return np.diag([1.0, -1.0]).astype(complex)

    with pytest.raises(ValueError, match=r"\(3, 2, 2\)"):
        HamiltonianPath(2, scalar_h).eval_batch(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match=r"\(1, 2, 2\)"):
        HamiltonianPath(2, scalar_h).eval(0.5)
    with pytest.raises(ValueError, match=r"\(3, 2, 2\)"):
        HamiltonianPath(2, lambda sv, tau: np.zeros((len(sv), 2, 2)),
                        derivative_fn=scalar_h).derivative_batch(
            np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match=r"\(1, 2, 2\)"):
        UnitaryPath(2, lambda s, tau: np.eye(2, dtype=complex)).eval(0.5)
    with pytest.raises(ValueError, match="1-D"):
        spinhalf.hamiltonian(0.7, 1.0).eval_batch(0.5)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_single_point_calls_are_batch_rows(name):
    path = BUNDLED[name]
    H = path.eval_batch(S_POINTS, TAU)
    dH = path.derivative_batch(S_POINTS, TAU)
    for k, s in enumerate(S_POINTS):
        assert np.array_equal(path.eval(s, TAU), H[k])
        assert np.array_equal(path.derivative(s, TAU), dH[k])


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_fd4_fallback_matches_analytic_derivative(name):
    path = BUNDLED[name]
    no_deriv = HamiltonianPath(path.dim, path.eval_batch)
    analytic = path.derivative_batch(S_POINTS, TAU)
    fd = no_deriv.derivative_batch(S_POINTS, TAU)
    scale = max(float(np.max(np.linalg.norm(analytic, axis=(1, 2)))),
                float(np.max(np.linalg.norm(path.eval_batch(S_POINTS, TAU),
                                            axis=(1, 2)))))
    err = float(np.max(np.linalg.norm(fd - analytic, axis=(1, 2))))
    assert err <= 1e-8 * scale


def test_custom_matrix_path_ignores_tau():
    # the scenario's numeric route shares one propagation of the base
    # between every tau on a grid because of this
    path = BUNDLED["custom_matrix_path"]
    s = np.linspace(-0.5, 2 * np.pi + 0.5, 41)
    assert np.array_equal(path.eval_batch(s, 20.0), path.eval_batch(s, 400.0))
