"""Model paths: analytic derivatives and basic structure."""

import numpy as np

import adiakit as ak
from adiakit.models import driven_two_level, random_smooth_hamiltonian


def check_derivative(path, s_values, tau=5.0, h=1e-5, tol=1e-6):
    for s in s_values:
        fd = (path.eval(s + h, tau) - path.eval(s - h, tau)) / (2 * h)
        assert np.linalg.norm(path.derivative(s, tau) - fd) <= tol * max(
            1.0, np.linalg.norm(fd))


def test_driven_two_level_derivative():
    check_derivative(driven_two_level(1.0, 0.3, 1.0), [0.3, 1.9, 5.5])
    check_derivative(driven_two_level(1.0, 1.0, 8.0, scaled_frequency=True),
                     [0.3, 1.9, 5.5])
    check_derivative(driven_two_level(1.0, 0.5, 2.0, envelope=True),
                     [0.3, 1.9, 5.5])


def test_driven_two_level_structure():
    p = driven_two_level(1.0, 0.4, 2.0, envelope=True)
    H0 = p.eval(0.0, 10.0)
    assert np.allclose(H0, -0.5 * np.array(ak.SIGMA_Z), atol=1e-14)
    # Hermitian everywhere
    H = p.eval_batch(np.linspace(0, 2 * np.pi, 200), 10.0)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, 1, 2)))) <= 1e-14


def test_random_smooth_hamiltonian_properties():
    rng = np.random.default_rng(0)
    p = random_smooth_hamiltonian(3, rng, base_gap=1.2, wobble=0.3)
    check_derivative(p, [0.1, 2.2, 6.0])
    H = p.eval_batch(np.linspace(0, 2 * np.pi, 500), 1.0)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, 1, 2)))) <= 1e-13
    # periodic over the window
    assert np.linalg.norm(p.eval(0.0) - p.eval(2 * np.pi)) <= 1e-12


def test_random_paths_are_reproducible():
    a = random_smooth_hamiltonian(3, np.random.default_rng(5))
    b = random_smooth_hamiltonian(3, np.random.default_rng(5))
    s = np.linspace(0, 2, 7)
    assert np.array_equal(a.eval_batch(s), b.eval_batch(s))


def test_all_constructed_paths_hermitian_on_grid():
    # every bundled constructor yields Hermitian samples on a 1000-point grid
    from adiakit import spinhalf
    import adiakit as ak

    rng = np.random.default_rng(1)
    h = spinhalf.hamiltonian(0.9, 1.0)
    ua = spinhalf.exact_propagator(0.9, 1.0)
    paths = [
        h,
        ak.dual_of(h, ua),
        ak.negate(ak.dual_of(h, ua)),
        ak.transform(h, ua, +1),
        driven_two_level(1.0, 0.3, 1.0),
        driven_two_level(1.0, 1.0, 8.0, scaled_frequency=True),
        random_smooth_hamiltonian(4, rng),
        ak.generator_of(ua, h=1e-5),
    ]
    s = np.linspace(0.0, 2 * np.pi, 1000)
    for path in paths:
        H = path.eval_batch(s, 40.0)
        scale = max(1.0, float(np.max(np.linalg.norm(H, axis=(1, 2)))))
        defect = float(np.max(np.linalg.norm(
            H - np.conj(np.swapaxes(H, 1, 2)), axis=(1, 2))))
        assert defect <= 1e-10 * scale, path.name
