"""The numeric route of custom duals: the base propagated in its own
adiabatic basis (``propagate_eigenbasis``) and the transported dual frame
built from it, checked against the lab-frame algebra it replaced and
against the discrete frame of the same dual."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adiakit.scenario as sc
from adiakit.diagnostics import (_intertwining_of, _kernel_summary,
                                 _w_deviation_of, projector_drift_series,
                                 transition_matrix)
from adiakit.gauge import couplings, eigenframe
from adiakit.linalg import dagger
from adiakit.models import random_smooth_hamiltonian
from adiakit.propagate import propagate

CASES = dict(dim=st.integers(min_value=2, max_value=4),
             seed=st.integers(min_value=0, max_value=2**32 - 1),
             system=st.sampled_from(["b", "c"]),
             tau=st.floats(min_value=2.0, max_value=12.0))


def _bundle(dim, seed, system, tau, grid=1024, **over):
    """A custom path through 33 nodes of a random smooth path on [0, 1]."""
    path = random_smooth_hamiltonian(dim, np.random.default_rng(seed),
                                     base_gap=1.0, wobble=0.3)
    s = np.linspace(0.0, 1.0, 33)
    mats = path.eval_batch(s)
    cfg = {"model": "custom_matrix_path", "system": system, "grid": grid,
           "parameters": {"grid": s.tolist(), "tau": tau,
                          "matrices": np.stack([mats.real, mats.imag],
                                               -1).tolist()}}
    cfg.update(over)
    return sc.SystemBundle(sc.normalize_config(cfg))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _end_moduli(K, dim):
    """|K| at the last grid point as a dim x dim matrix, from the kernel's
    pair columns m > n (in np.tril_indices order) and their mirrors."""
    out = np.zeros((dim, dim))
    m, n = np.tril_indices(dim, -1)
    out[m, n] = out[n, m] = np.abs(K[-1])
    return out


@settings(max_examples=15, deadline=None, database=None)
@given(**CASES)
def test_route_matches_lab_frame_propagators(dim, seed, system, tau):
    # the lab-frame algebra the route replaced: U_tau and U_2tau from a
    # 32-substep midpoint run, U_sys = U_tau^dag (b) or U_tau^dag U_2tau
    # (c), read on the same frame. Largest over 200 random cases:
    # 8.4e-6 relative
    bundle = _bundle(dim, seed, system, tau)
    grid = bundle.grid_for(tau)
    evo = bundle.evolution(tau)
    M = evo.transition_matrix()
    u = propagate(bundle.base, tau, grid, substeps=32).unitaries
    u_sys = dagger(u)
    if system == "c":
        u_sys = u_sys @ propagate(bundle.base, 2.0 * tau, grid,
                                  substeps=32).unitaries
    m_ref = transition_matrix(u_sys, evo.frame)
    # the projectors U_tau^dag P_n U_tau, with the reference U_tau
    ref_frame = dataclasses.replace(
        evo.frame, vectors=dagger(u) @ evo.data.frame.vectors)
    assert _rel(np.max(_intertwining_of(M)),
                np.max(_intertwining_of(m_ref))) <= 5e-5
    assert _rel(_w_deviation_of(M, evo.frame),
                _w_deviation_of(m_ref, evo.frame)) <= 5e-5
    assert _rel(np.max(evo.projector_drift_series()),
                np.max(projector_drift_series(ref_frame))) <= 5e-5


@settings(max_examples=15, deadline=None, database=None)
@given(**CASES)
def test_discrete_and_transported_frames_agree(dim, seed, system, tau):
    # the same dual, and the same U_sys, read in its discrete frame (an
    # eigensolve of U^dag H U per point) and in the route's transported
    # one. The discrete frame orders levels by value, the transported one
    # as the base does. Bounds as measured on the benchmark's 4-level
    # config (tau 20-200, 8,193-32,769 points): intertwining 6.4e-12,
    # w_deviation 2.4e-5 relative. On this test's coarser grids the kernel
    # integrals differ more (largest over 200 random cases: 1.2e-7 for
    # f_norm_max, 9.8e-7 of the largest resonance end value, against
    # 1.1e-8 and 3.1e-6 on the benchmark config), so those bounds are 6e-7
    # and 5e-6
    bundle = _bundle(dim, seed, system, tau)
    grid = bundle.grid_for(tau)
    evo = bundle.evolution(tau)
    transported = evo.frame
    discrete = eigenframe(evo.path(bundle.base), tau, grid,
                          transport="discrete")
    assert discrete.construction == "discrete"
    u_sys = bundle.unitaries_for(tau, grid)
    m_d = transition_matrix(u_sys, discrete)
    m_t = transition_matrix(u_sys, transported)
    assert _rel(np.max(_intertwining_of(m_d)),
                np.max(_intertwining_of(m_t))) <= 6.4e-12
    assert _rel(_w_deviation_of(m_d, discrete),
                _w_deviation_of(m_t, transported)) <= 2.4e-5
    k_d, _, _, fmax_d = _kernel_summary(discrete, couplings(discrete))
    k_t, _, _, fmax_t = _kernel_summary(transported, evo.couplings)
    assert _rel(fmax_d, fmax_t) <= 6e-7
    perm = np.argsort(transported.values[0])
    end_t = _end_moduli(k_t, dim)[perm][:, perm]
    end_d = _end_moduli(k_d, dim)
    assert np.max(np.abs(end_d - end_t)) <= 5e-6 * np.max(end_t)


@settings(max_examples=8, deadline=None, database=None)
@given(dim=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       tau=st.floats(min_value=2.0, max_value=12.0))
def test_custom_duals_share_qac_max_with_the_base(dim, seed, tau):
    # the dual and the negated dual have the base's gaps and coupling
    # moduli, so the textbook ratio cannot tell them apart (largest
    # relative difference over 15 draws: 3.6e-16)
    path = random_smooth_hamiltonian(dim, np.random.default_rng(seed),
                                     base_gap=1.0, wobble=0.3)
    s = np.linspace(0.0, 1.0, 65)
    mats = path.eval_batch(s)
    qac = {}
    for system in "abc":
        report, _ = sc.run({
            "model": "custom_matrix_path", "system": system, "grid": 256,
            "diagnostics": ["qac_max"],
            "parameters": {"grid": s.tolist(), "tau": tau,
                           "matrices": np.stack([mats.real, mats.imag],
                                                -1).tolist()}})
        qac[system] = report["entries"][0]["qac_max"]
    assert _rel(qac["b"], qac["a"]) <= 1e-13
    assert _rel(qac["c"], qac["a"]) <= 1e-13


@pytest.mark.parametrize("system", ["b", "c"])
def test_route_frame_is_the_transported_frame_of_the_dual(system):
    # what the route derives from Q and the base frame, checked on the
    # frame it builds: its vectors diagonalize the dual, its couplings are
    # the dual path's own hf ones, its drift is the projectors'
    tau = 8.0
    bundle = _bundle(3, 11, system, tau)
    grid = bundle.grid_for(tau)
    evo = bundle.evolution(tau)
    frame = dataclasses.replace(evo.frame, path=evo.path(bundle.base))
    assert frame.construction == "transported"
    H = frame.path.eval_batch(grid, tau)
    resid = H @ frame.vectors - frame.vectors * frame.values[:, None, :]
    assert np.max(np.abs(resid)) <= 1e-12
    assert frame.completeness_defect() <= 1e-12
    # hf couplings of the dual path, whose unitary is U_tau on the grid
    assert np.max(np.abs(couplings(frame) - evo.couplings)) <= 1e-12
    assert np.max(np.abs(evo.projector_drift_series()
                         - projector_drift_series(frame))) <= 1e-12
    assert np.max(np.abs(evo.transition_matrix()
                         - transition_matrix(bundle.unitaries_for(tau, grid),
                                             frame))) <= 1e-12


@pytest.mark.parametrize("system", ["b", "c"])
def test_every_diagnostic_runs_on_custom_duals(system):
    bundle = _bundle(2, 5, system, 6.0, grid=256)
    report, _ = sc.run(dict(bundle.config,
                            diagnostics=list(sc.ALL_DIAGNOSTICS)))
    entry, = report["entries"]
    assert entry["frame_construction"] == "transported"
    assert report["provenance"]["integrator"] == "eigenbasis-strang"
    assert entry["premises"]["p2_min_gap"] > 0.5
    evo = bundle.evolution(6.0)
    assert entry["projector_drift"] == np.max(evo.projector_drift_series())


def test_overlaps_are_checked_for_unitarity(monkeypatch):
    eigenpairs = sc._path_eigenpairs

    def skewed(path, tau, grid):
        w, v = eigenpairs(path, tau, grid)
        return w, v * 1.001

    monkeypatch.setattr(sc, "_path_eigenpairs", skewed)
    bundle = _bundle(2, 5, "c", 6.0, grid=256)
    with pytest.raises(ValueError, match="overlaps are not unitary"):
        bundle.evolution(6.0)
