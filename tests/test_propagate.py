"""Propagation: the fixed-grid midpoint-exponential rule (order 2) and the
adaptive fourth-order commutator-free Magnus (CF4) integrator.

Both are checked against the spin-half closed form, for their convergence
order (2 and 4), composition and step caps. The adaptive run must not get
less accurate when the tolerance drops below the noise floor of its
step-doubling comparison, and it is checked against a fine fixed midpoint
run on random smooth paths of dimension 2 to 4. The fixed-grid run and its
kernel, which multiplies each recorded interval's steps before chaining the
records, are checked against a plain loop of one exponential per step.
The adiabatic-basis chain is checked against a plain loop of its Strang
steps in the lab frame, in any per-point gauge and level order, and for
its order (2) against the closed form.
"""

import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import adiakit as ak
from adiakit import _kernels_py, spinhalf
from adiakit.exceptions import NonHermitianError, StepLimitError
from adiakit.models import random_smooth_hamiltonian
from adiakit.paths import HamiltonianPath, constant_hamiltonian
from adiakit.propagate import _cf4_steps

# the package attribute ``adiakit.propagate`` is the function
propagate_module = importlib.import_module("adiakit.propagate")

THETA, OMEGA0 = np.pi / 4, 1.0
WINDOW = 2 * np.pi


def test_zero_hamiltonian_gives_identity():
    h = constant_hamiltonian(np.zeros((3, 3), dtype=complex))
    grid = np.linspace(0, 1, 11)
    res = ak.propagate(h, 100.0, grid, substeps=5)
    assert np.max(np.abs(res.unitaries - np.eye(3))) <= 1e-14
    assert np.linalg.norm(res.unitaries[0] - np.eye(3)) == 0.0


def test_constant_hamiltonian_single_step_exact():
    H0 = 0.5 * OMEGA0 * np.array(ak.SIGMA_Z)
    h = constant_hamiltonian(H0)
    tau, s = 7.0, 1.3
    res = ak.propagate(h, tau, np.array([0.0, s]), substeps=1)
    ref = scipy.linalg.expm(-1j * tau * s * H0)
    assert np.linalg.norm(res.final() - ref) <= 1e-13
    assert res.steps_taken == 1


def test_matches_closed_form_20000_steps():
    omega = 0.1
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.linspace(0, WINDOW, 41)
    res = ak.propagate(h, tau, grid, substeps=500)   # 20000 micro-steps
    ref = spinhalf.propagator_matrix(THETA, OMEGA0, omega, grid)
    assert np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))) <= 1e-6
    assert res.max_unitarity_defect <= 1e-10


def test_convergence_order_two():
    omega = 0.1
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.linspace(0, WINDOW, 2)
    errs = []
    for substeps in (5000, 10000):
        res = ak.propagate(h, tau, grid, substeps=substeps)
        ref = spinhalf.propagator_matrix(THETA, OMEGA0, omega, WINDOW)
        errs.append(np.linalg.norm(res.final() - ref))
    ratio = errs[0] / errs[1]
    assert 4 * 0.8 <= ratio <= 4 * 1.2
    p = np.log2(ratio)
    assert abs(p - 2.0) <= 0.2


def test_composition_consistency():
    tau = 10.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    r1 = ak.propagate(h, tau, np.linspace(0, np.pi, 101), substeps=4)
    r2 = ak.propagate(h, tau, np.linspace(np.pi, WINDOW, 101), substeps=4)
    rf = ak.propagate(h, tau, np.linspace(0, WINDOW, 201), substeps=4)
    assert np.linalg.norm(r2.final() @ r1.final() - rf.final()) <= 1e-12


def test_rescaled_coupling_commutes():
    tau = 10.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    h2 = HamiltonianPath(2, lambda sv, t: 2.0 * h.eval_batch(sv, t))
    grid = np.linspace(0, WINDOW, 101)
    ra = ak.propagate(h, 2 * tau, grid, substeps=4)
    rb = ak.propagate(h2, tau, grid, substeps=4)
    assert np.max(np.linalg.norm(ra.unitaries - rb.unitaries, axis=(1, 2))) <= 1e-12


def test_step_cap_raises_without_partial_result():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    with pytest.raises(StepLimitError):
        ak.propagate(h, 1.0, np.linspace(0, 1, 1001), substeps=100000,
                     step_cap=10**6)


def test_unitarity_defect_bounded_over_long_runs():
    tau = 100.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    res = ak.propagate(h, tau, np.linspace(0, WINDOW, 101), substeps=1000)
    assert res.max_unitarity_defect <= 1e-9


def test_adaptive_matches_fixed_grid_high_resolution():
    omega = 0.01
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    fixed = ak.propagate(h, tau, np.linspace(0, WINDOW, 101), substeps=1000)
    adaptive = ak.propagate_adaptive(h, tau, WINDOW, tol=1e-8)
    assert np.linalg.norm(adaptive.final() - fixed.final()) <= 1e-7


def test_adaptive_step_count_monotone_in_tolerance():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    loose = ak.propagate_adaptive(h, 10.0, WINDOW, tol=1e-5)
    strict = ak.propagate_adaptive(h, 10.0, WINDOW, tol=1e-8)
    assert loose.steps_taken < strict.steps_taken


def test_adaptive_meets_tolerance():
    omega = 0.1
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    res = ak.propagate_adaptive(h, tau, WINDOW, tol=1e-8)
    ref = spinhalf.propagator_matrix(THETA, OMEGA0, omega, res.grid)
    err = np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2)))
    assert err <= 1e-8 * WINDOW
    assert res.grid[0] == 0.0 and abs(res.grid[-1] - WINDOW) <= 1e-12


def _cf4_fixed_error(tau, nsteps):
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.linspace(0.0, WINDOW, nsteps + 1)
    steps = _cf4_steps(h, tau, grid[:-1], np.diff(grid))
    _kernels_py.chain_steps(steps, np.eye(2, dtype=complex))
    ref = spinhalf.propagator_matrix(THETA, OMEGA0, 1.0 / tau, WINDOW)
    return np.linalg.norm(steps[-1] - ref)


def test_cf4_convergence_order_four():
    # with the two exponentials in the other order the rule is order 2
    errs = [_cf4_fixed_error(10.0, n) for n in (500, 1000, 2000)]
    for coarse, fine in zip(errs, errs[1:]):
        assert abs(np.log2(coarse / fine) - 4.0) <= 0.2


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_adaptive_strict_tolerance_is_not_less_accurate(tol):
    # a tolerance below the comparison's noise floor must not buy a coarser
    # answer: it either converges or reports the step cap
    omega = 0.1
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    try:
        res = ak.propagate_adaptive(h, tau, WINDOW, tol=tol)
    except StepLimitError:
        return
    ref = spinhalf.propagator_matrix(THETA, OMEGA0, omega, res.grid)
    assert np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))) <= 1e-9


@settings(max_examples=12, deadline=None, database=None)
@given(dim=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=1.0, max_value=20.0),
       s2=st.floats(min_value=1.0, max_value=WINDOW),
       split=st.floats(min_value=0.1, max_value=0.9))
def test_adaptive_cf4_matches_midpoint_and_composes(dim, seed, tau, s2, split):
    h = random_smooth_hamiltonian(dim, np.random.default_rng(seed))
    s1 = split * s2
    full = ak.propagate_adaptive(h, tau, s2, tol=1e-8)
    fine = ak.propagate(h, tau, np.array([0.0, s2]), substeps=40000)
    assert np.linalg.norm(full.final() - fine.final()) <= 1e-6
    left = ak.propagate_adaptive(h, tau, s1, tol=1e-8)
    right = ak.propagate_adaptive(h, tau, s2, tol=1e-8, s_start=s1)
    assert np.linalg.norm(right.final() @ left.final() - full.final()) <= 1e-7


@settings(max_examples=20, deadline=None, database=None)
@given(dim=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=1.0, max_value=50.0))
def test_adaptive_is_unitary_and_matches_fine_fixed_grid(dim, seed, tau):
    h = random_smooth_hamiltonian(dim, np.random.default_rng(seed))
    res = ak.propagate_adaptive(h, tau, 1.0, tol=1e-8)
    assert np.array_equal(res.unitaries[0], np.eye(dim))
    assert res.max_unitarity_defect <= 1e-12
    fine = ak.propagate(h, tau, np.linspace(0.0, 1.0, 257), substeps=64)
    assert np.linalg.norm(res.final() - fine.final()) <= 1e-7


def test_adaptive_step_cap():
    # tau=1000 at tol=1e-10 needs far more steps than the cap allows
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    with pytest.raises(StepLimitError):
        ak.propagate_adaptive(h, 1000.0, WINDOW, tol=1e-10, step_cap=3000)


def test_tau_dependent_paths_sample_true_tau():
    # dual path evaluated mid-step must see the true (s, tau) pair: compare
    # against its exact propagator
    theta, omega = 0.7, 0.2
    tau = 1.0 / omega
    h = spinhalf.hamiltonian(theta, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(theta, OMEGA0))
    grid = np.linspace(0, WINDOW, 33)
    res = ak.propagate(hb, tau, grid, substeps=600)
    ref = spinhalf.dual_propagator(theta, OMEGA0).eval_batch(grid, tau)
    assert np.max(np.linalg.norm(res.unitaries - ref, axis=(1, 2))) <= 1e-5


def test_adaptive_nonzero_start():
    tau = 10.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    full = ak.propagate_adaptive(h, tau, WINDOW, tol=1e-8)
    left = ak.propagate_adaptive(h, tau, np.pi, tol=1e-8)
    right = ak.propagate_adaptive(h, tau, WINDOW, tol=1e-8, s_start=np.pi)
    assert abs(right.grid[0] - np.pi) <= 1e-12
    assert np.linalg.norm(right.final() @ left.final() - full.final()) <= 1e-7


def _random_hermitian_stack(rng, m, dim):
    a = rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim))
    return 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


def _sequential_steps(H, coef, ds, U0, record_every):
    """Reference: one exponential per step, chained in a plain loop."""
    u = np.array(U0, dtype=complex)
    records = []
    for k in range(len(H)):
        w, v = np.linalg.eigh(H[k])
        u = (v * np.exp(-1j * coef * ds[k] * w)) @ v.conj().T @ u
        if (k + 1) % record_every == 0:
            records.append(u)
    return np.array(records), u


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 7, 64, 128, 150, 1000, 3000, 4099])
def test_python_kernel_matches_sequential_loop(dim, m):
    # record strides 3 (odd groups) and 50 (the benchmark's substep count)
    # run on the stack sizes they divide
    rng = np.random.default_rng(1000 * dim + m)
    H = _random_hermitian_stack(rng, m, dim)
    ds = rng.uniform(0.01, 0.1, m)
    coefs = (3.0, -1.5)
    U0s = [scipy.linalg.expm(-1j * _random_hermitian_stack(rng, 1, dim)[0])
           for _ in coefs]
    H_before = H.copy()
    for record_every in (1, 2, 3, 5, 50):
        if m % record_every:
            continue
        for coef, U0 in zip(coefs, U0s):
            records = _kernels_py.propagate_steps(H, coef * ds, U0,
                                                  record_every)
            ref_records, _ = _sequential_steps(H, coef, ds, U0, record_every)
            assert records.shape == (m // record_every, dim, dim)
            assert np.max(np.abs(records - ref_records)) <= 1e-12
    assert np.array_equal(H, H_before)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       record_every=st.sampled_from([1, 2, 7, 50]),
       records=st.integers(min_value=1, max_value=6),
       max_alpha=st.floats(min_value=1.0, max_value=1e4),
       scalar_share=st.sampled_from([0.0, 0.3, 1.0]))
def test_2x2_steps_match_sequential_expm(seed, record_every, records,
                                         max_alpha, scalar_share):
    # the quaternion fold of 2x2 steps against one expm per step, with
    # scalar steps (H = m I, r = 0) mixed in and |alpha| up to max_alpha;
    # the stack is scaled to |alpha| ||H|| of order one, as in
    # test_kernels.test_su2_exponentials_at_large_alpha
    rng = np.random.default_rng(seed)
    m = record_every * records
    alphas = rng.choice([-1.0, 1.0], m) \
        * np.exp(rng.uniform(0.0, np.log(max_alpha), m))
    H = _random_hermitian_stack(rng, m, 2)
    scalar = rng.random(m) < scalar_share
    H[scalar] = 0.5 * np.trace(H[scalar], axis1=1, axis2=2)[:, None, None] \
        * np.eye(2)
    H /= np.abs(alphas)[:, None, None]
    U0 = scipy.linalg.expm(-1j * _random_hermitian_stack(rng, 1, 2)[0])
    records_got = _kernels_py.propagate_steps(H, alphas, U0, record_every)
    u, ref = U0, []
    for k in range(m):
        u = scipy.linalg.expm(-1j * alphas[k] * H[k]) @ u
        if (k + 1) % record_every == 0:
            ref.append(u)
    assert np.max(np.abs(records_got - np.array(ref))) <= 1e-12
    gram = np.conj(np.swapaxes(records_got, 1, 2)) @ records_got
    assert np.max(np.linalg.norm(gram - np.eye(2), axis=(1, 2))) <= 1e-13


@settings(max_examples=25, deadline=None, database=None)
@given(dim=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=1.0, max_value=50.0),
       substeps=st.integers(min_value=1, max_value=9),
       nint=st.integers(min_value=1, max_value=40))
def test_fixed_grid_is_unitary_and_matches_sequential_loop(dim, seed, tau,
                                                           substeps, nint):
    rng = np.random.default_rng(seed)
    h = random_smooth_hamiltonian(dim, rng)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.3, nint))])
    res = ak.propagate(h, tau, grid, substeps=substeps)
    assert np.array_equal(res.unitaries[0], np.eye(dim))
    assert res.max_unitarity_defect <= 1e-12
    dsub = np.diff(grid) / substeps
    mids = (grid[:-1, None]
            + (np.arange(substeps) + 0.5)[None, :] * dsub[:, None]).ravel()
    records, _ = _sequential_steps(h.eval_batch(mids, tau), tau,
                                   np.repeat(dsub, substeps), np.eye(dim),
                                   substeps)
    assert np.max(np.abs(res.unitaries[1:] - records)) <= 1e-12


def _scrambled_eigenpairs(rng, H):
    """Eigenpairs of H with random column phases and order per point."""
    w, v = np.linalg.eigh(H)
    n = H.shape[-1]
    perm = np.argsort(rng.random((len(H), n)), axis=1)
    w = np.take_along_axis(w, perm, axis=1)
    v = np.take_along_axis(v, perm[:, None, :], axis=2)
    return w, v * np.exp(2j * np.pi * rng.random((len(H), 1, n)))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("record_every", [1, 3])
def test_eigenbasis_chain_matches_lab_frame_strang_loop(dim, record_every):
    # Q_k = V_k^dagger U_k V_0 with U_{j+1} = e^{-i c h H_{j+1}/2}
    # e^{-i c h H_j/2} U_j; chunks of 4 steps (3 for record_every 3), each
    # chained from the last record of the one before
    rng = np.random.default_rng(dim + 10 * record_every)
    m, coef = 12 * record_every, 7.5
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.05, m))])
    H = _random_hermitian_stack(rng, m + 1, dim)
    w, v = _scrambled_eigenpairs(rng, H)
    overlaps = np.conj(np.swapaxes(v[1:], 1, 2)) @ v[:-1]
    q = [np.eye(dim, dtype=complex)[None]]
    chunk = max(1, 4 // record_every) * record_every
    for lo in range(0, m, chunk):
        hi = lo + chunk
        q.append(propagate_module.propagate_eigenbasis(
            w[lo:hi + 1], overlaps[lo:hi], grid[lo:hi + 1], coef,
            record_every, q[-1][-1]))
    q = np.concatenate(q)
    u, ref = np.eye(dim), [np.eye(dim)]
    for j in range(m):
        h = coef * (grid[j + 1] - grid[j]) / 2
        u = (scipy.linalg.expm(-1j * h * H[j + 1])
             @ scipy.linalg.expm(-1j * h * H[j]) @ u)
        if (j + 1) % record_every == 0:
            k = j + 1
            ref.append(v[k].conj().T @ u @ v[0])
    assert q.shape == (m // record_every + 1, dim, dim)
    assert np.max(np.abs(q - np.array(ref))) <= 1e-12


def test_eigenbasis_chain_convergence_order_two():
    tau = 20.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    errs = []
    for n in (256, 512):
        grid = np.linspace(0.0, WINDOW, n + 1)
        w, v = _kernels_py.eigh_batch(h.eval_batch(grid, tau))
        overlaps = np.conj(np.swapaxes(v[1:], 1, 2)) @ v[:-1]
        q = propagate_module.propagate_eigenbasis(w, overlaps, grid, tau, n,
                                                  np.eye(2, dtype=complex))
        ref = spinhalf.propagator_matrix(THETA, OMEGA0, 1.0 / tau,
                                         np.array([WINDOW]))[0]
        errs.append(np.linalg.norm(v[-1] @ q[-1] @ v[0].conj().T - ref))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def _non_hermitian_path():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    skew = np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex)
    return HamiltonianPath(2, lambda sv, t: h.eval_batch(sv, t) + skew)


def test_non_hermitian_path_rejected():
    bad = _non_hermitian_path()
    with pytest.raises(NonHermitianError):
        ak.propagate(bad, 10.0, np.linspace(0, 1, 11))
    with pytest.raises(NonHermitianError):
        ak.propagate_adaptive(bad, 10.0, 1.0, tol=1e-6)


def test_adaptive_grid_and_shapes():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    res = ak.propagate_adaptive(h, 10.0, 1.0, tol=1e-5, s_start=0.25)
    assert res.grid[0] == 0.25 and abs(res.grid[-1] - 1.0) <= 1e-12
    assert np.all(np.diff(res.grid) > 0)
    assert res.unitaries.shape == (len(res.grid), 2, 2)
    assert np.array_equal(res.unitaries[0], np.eye(2))


def test_result_at_looks_up_grid_points_only():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.linspace(0.0, 1.0, 11)
    res = ak.propagate(h, 5.0, grid)
    assert np.array_equal(res.at(0.3 + 1e-12), res.unitaries[3])
    with pytest.raises(ValueError, match="not a grid point"):
        res.at(0.35)
    with pytest.raises(ValueError, match="at least 2 points"):
        ak.propagate(h, 5.0, [0.0])
    with pytest.raises(ValueError, match="strictly ascending"):
        ak.propagate(h, 5.0, [0.0, 0.5, 0.5])
