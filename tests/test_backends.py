"""Compiled Jacobi kernels against the pure Python (LAPACK) twin."""

import os
import subprocess
import sys

import numpy as np
import pytest

from adiakit import _kernels_py

compiled = pytest.importorskip("adiakit._kernels")


def random_hermitian_stack(n, dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))


def test_two_entry_points():
    for mod in (compiled, _kernels_py):
        assert callable(mod.eigh_batch) and callable(mod.propagate_steps)
        assert not hasattr(mod, "eigh") and not hasattr(mod, "expm_herm")


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_eigh_values_agree(dim):
    H = random_hermitian_stack(20, dim, seed=dim)
    Wc, Vc = compiled.eigh_batch(H)
    Wp, Vp = _kernels_py.eigh_batch(H)
    assert np.allclose(Wc, Wp, atol=1e-12)
    # vectors agree up to per-level phase: compare projectors
    for j in range(dim):
        pc = np.einsum("ki,kj->kij", Vc[:, :, j], Vc[:, :, j].conj())
        pp = np.einsum("ki,kj->kij", Vp[:, :, j], Vp[:, :, j].conj())
        assert np.max(np.linalg.norm(pc - pp, axis=(1, 2))) <= 1e-10


def test_eigh_batch_rows_independent():
    H = random_hermitian_stack(50, 3, seed=42)
    W, V = compiled.eigh_batch(H)
    for k in (0, 17, 49):
        w, v = compiled.eigh_batch(H[k:k + 1])
        assert np.array_equal(w[0], W[k])
        assert np.array_equal(v[0], V[k])


def test_single_step_exponential_agree():
    H = random_hermitian_stack(1, 4, seed=7)
    u0 = np.eye(4, dtype=complex)
    _, uc = compiled.propagate_steps(H, 0.9, np.ones(1), u0, 1)
    _, up = _kernels_py.propagate_steps(H, 0.9, np.ones(1), u0, 1)
    assert np.linalg.norm(uc - up) <= 1e-12


def test_propagate_steps_agree():
    H = random_hermitian_stack(64, 2, seed=8)
    ds = np.full(64, 0.01)
    u0 = np.eye(2, dtype=complex)
    rc, fc = compiled.propagate_steps(H, 3.0, ds, u0, 8)
    rp, fp = _kernels_py.propagate_steps(H, 3.0, ds, u0, 8)
    assert rc.shape == rp.shape == (8, 2, 2)
    assert np.linalg.norm(fc - fp) <= 1e-12
    assert np.max(np.linalg.norm(rc - rp, axis=(1, 2))) <= 1e-12


def test_propagate_steps_record_alignment():
    H = random_hermitian_stack(6, 2, seed=9)
    ds = np.full(6, 0.05)
    u0 = np.eye(2, dtype=complex)
    recs, final = compiled.propagate_steps(H, 1.0, ds, u0, 2)
    # manual chain
    steps = _kernels_py.step_exponentials(*compiled.eigh_batch(H), ds)
    u = u0.copy()
    manual = []
    for k in range(6):
        u = steps[k] @ u
        if (k + 1) % 2 == 0:
            manual.append(u.copy())
    assert np.allclose(recs, np.array(manual), atol=1e-13)
    assert np.allclose(final, manual[-1], atol=1e-13)


def test_backend_env_override():
    code = ("import adiakit; import sys; "
            "sys.exit(0 if adiakit.backend_name() == 'python' else 1)")
    env = dict(os.environ, ADIAKIT_BACKEND="python",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0


def test_kernel_input_not_clobbered():
    H = random_hermitian_stack(1, 3, seed=10)
    snapshot = H.copy()
    compiled.eigh_batch(H)
    assert np.array_equal(H, snapshot)
