"""The numeric route of custom systems: the base propagated in its own
adiabatic basis (``propagate_eigenbasis``), the base's discrete frame and
the transported dual frame built from it, checked against the lab-frame
algebra it replaced and against the discrete frame of the same system; and
the premises an entry reads from its own frame, checked against the
two-frame computation they replaced."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adiakit.gauge as gauge
import adiakit.linalg as linalg
import adiakit.scenario as sc
from adiakit import _kernels_py as kernels
from adiakit.diagnostics import (_intertwining_of, _kernel_integrand,
                                 _kernel_summary, _premises,
                                 _transition_probability_max,
                                 _w_deviation_of, phase_rate_per_step,
                                 projector_drift_series, qac_max,
                                 transition_matrix)
from adiakit.exceptions import NonHermitianError, NumericalCheckError
from adiakit.gauge import couplings, eigenframe
from adiakit.linalg import dagger, dagger_dot
from adiakit.models import random_smooth_hamiltonian
from adiakit.paths import HamiltonianPath, UnitaryPath, midpoint_refined
from adiakit.propagate import propagate
from adiakit.transforms import dual_of, negate

CASES = dict(dim=st.integers(min_value=2, max_value=4),
             seed=st.integers(min_value=0, max_value=2**32 - 1),
             system=st.sampled_from(["a", "b", "c"]),
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


def _grid_data(bundle, grid, system=None, diags=sc.ALL_DIAGNOSTICS):
    """The ``_EigenbasisGrid`` a scan of the bundle builds on ``grid``, for
    its system (or ``system``) configured with ``diags``."""
    cfg = bundle.config
    return sc._EigenbasisGrid(bundle.base, grid, 2 * cfg["substeps"],
                              system or cfg["system"], diags,
                              sc._premise_step(grid, cfg))


def _evolution(bundle, tau, grid):
    """The bundle's system at tau as a scan with every diagnostic reads
    it: its grid's pass has fed every value those read."""
    evo, = _grid_data(bundle, grid).evolutions([tau])
    return evo


def _base_frame(bundle, grid):
    """The base's discrete frame on ``grid`` with its vectors: the frame
    the grid builds (a custom path ignores tau), before its pass frees
    them."""
    return eigenframe(bundle.base, 1.0, grid)


def _full_transition(base, grid, coef, refine=2):
    """Q_coef of the custom ``base`` on the frame grid as one (N, n, n)
    stack, chained as the grid's pass chains it: the base's eigenpairs on
    the grid refined ``refine`` times, the frame's at the frame points, in
    chunks of ``CHAIN_CHUNK`` steps, each from the last record of the one
    before."""
    fr = eigenframe(base, 1.0, grid)
    fine = sc._refined(grid, refine)
    w, v = kernels.eigh_batch(base.eval_batch(fine, 1.0))
    w[::refine], v[::refine] = fr.values, fr.vectors
    overlaps = dagger_dot(v[1:], v[:-1])
    q = [np.eye(fr.dim, dtype=complex)[None]]
    chunk = max(1, sc.CHAIN_CHUNK // refine) * refine
    for lo in range(0, len(overlaps), chunk):
        hi = min(lo + chunk, len(overlaps))
        q.append(sc.propagate_eigenbasis(w[lo:hi + 1], overlaps[lo:hi],
                                         fine[lo:hi + 1], coef, refine,
                                         q[-1][-1]))
    return np.concatenate(q)


def _full_m(bundle, evo):
    """M of ``evo`` as one (N, n, n) stack: Q_tau for the base, and
    e^{i phi} V(s)^dagger V(0) (dual) or e^{i phi} Q_2tau (negated dual)."""
    grid = evo.frame.grid
    if evo.system == "a":
        return _full_transition(bundle.base, grid, evo.tau)
    e = evo.phase_factors()[:, :, None]
    if evo.system == "b":
        v = _base_frame(bundle, grid).vectors
        return e * dagger_dot(v, np.broadcast_to(v[0], v.shape))
    return e * _full_transition(bundle.base, grid, 2.0 * evo.tau)


def _with_vectors(bundle, evo):
    """``evo``'s frame with its vectors on every grid point: the base
    frame's (a), or V(0) Q_tau^dagger e^{-i phi} (a dual)."""
    fr = _base_frame(bundle, evo.frame.grid)
    if evo.system == "a":
        return dataclasses.replace(evo.frame, vectors=fr.vectors)
    v = fr.vectors[0] @ dagger(_full_transition(bundle.base, fr.grid,
                                                evo.tau))
    v *= evo.phase_factors().conj()[:, None, :]
    return dataclasses.replace(evo.frame, vectors=v)


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _lab_frame(bundle, evo):
    """The route's lab-frame reference at the frame's grid points: the
    system's path and U_sys. For the base these are the base path and
    U_tau = V Q_tau V(0)^dag. For a dual they are the dual path sign
    U_tau^dag H U_tau, whose unitary U_tau is known at the grid points
    only, and U_sys = V(0) Q_tau^dag (V(s)^dag U_sys V(0)) V(0)^dag, where
    V(s)^dag U_sys V(0) is V(s)^dag V(0) for the dual and Q_2tau for the
    negated dual."""
    fr = _base_frame(bundle, evo.frame.grid)
    q = _full_transition(bundle.base, fr.grid, evo.tau)
    v0 = fr.vectors[0]
    if evo.system == "a":
        return bundle.base, fr.vectors @ q @ dagger(v0)

    def base_propagator(s_values, tau):
        # the nearest grid point, which must lie within 1e-9
        idx = np.clip(np.searchsorted(fr.grid, s_values), 1, len(fr.grid) - 1)
        idx -= (np.abs(fr.grid[idx - 1] - s_values)
                < np.abs(fr.grid[idx] - s_values))
        if np.max(np.abs(fr.grid[idx] - s_values)) > 1e-9:
            raise ValueError("requested s values are not frame grid points")
        return fr.vectors[idx] @ q[idx] @ dagger(v0)

    dual = dual_of(bundle.base, UnitaryPath(bundle.base.dim, base_propagator,
                                            generator=bundle.base))
    inner = (dagger_dot(fr.vectors, np.broadcast_to(v0, fr.vectors.shape))
             if evo.system == "b"
             else _full_transition(bundle.base, fr.grid, 2.0 * evo.tau))
    return (dual if evo.system == "b" else negate(dual),
            v0 @ dagger(q) @ inner @ dagger(v0))


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
    # 32-substep midpoint run, U_sys = U_tau (a), U_tau^dag (b) or
    # U_tau^dag U_2tau (c), read on the same frame. Largest over 200 random
    # cases of b and c: 8.4e-6 relative
    bundle = _bundle(dim, seed, system, tau)
    grid = bundle.grid_for(tau)
    evo = _evolution(bundle, tau, grid)
    reads = evo.transitions
    u = propagate(bundle.base, tau, grid, substeps=32).unitaries
    if system == "a":
        u_sys, ref_frame = u, _with_vectors(bundle, evo)
    else:
        u_sys = dagger(u)
        if system == "c":
            u_sys = u_sys @ propagate(bundle.base, 2.0 * tau, grid,
                                      substeps=32).unitaries
        # the projectors U_tau^dag P_n U_tau, with the reference U_tau
        ref_frame = dataclasses.replace(
            evo.frame, vectors=dagger(u) @ _base_frame(bundle, grid).vectors)
    m_ref = transition_matrix(u_sys, _with_vectors(bundle, evo))
    assert _rel(np.max(reads.intertwining),
                np.max(_intertwining_of(m_ref))) <= 5e-5
    assert _rel(np.max(reads.deviations),
                _w_deviation_of(m_ref, evo.frame)) <= 5e-5
    assert _rel(np.max(evo.drift),
                np.max(projector_drift_series(ref_frame))) <= 5e-5


@settings(max_examples=15, deadline=None, database=None)
@given(**CASES)
def test_discrete_and_transported_frames_agree(dim, seed, system, tau):
    # the same dual, and the same U_sys, read in its discrete frame (an
    # eigensolve of U^dag H U per point) and in the route's transported
    # one; for the base, a discrete frame of its own against the route's,
    # built once per grid. The discrete frame orders levels by value, the
    # transported one as the base does. Bounds as measured on the
    # benchmark's 4-level config (tau 20-200, 8,193-32,769 points):
    # intertwining 6.4e-12, w_deviation 2.4e-5 relative. On this test's
    # coarser grids the kernel integrals differ more (largest over 200
    # random cases: 1.2e-7 for f_norm_max, 9.8e-7 of the largest resonance
    # end value, against 1.1e-8 and 3.1e-6 on the benchmark config), so
    # those bounds are 6e-7 and 5e-6
    bundle = _bundle(dim, seed, system, tau)
    grid = bundle.grid_for(tau)
    evo = _evolution(bundle, tau, grid)
    transported = _with_vectors(bundle, evo)
    path, u_sys = _lab_frame(bundle, evo)
    discrete = eigenframe(path, tau, grid, transport="discrete")
    assert discrete.construction == "discrete"
    m_d = transition_matrix(u_sys, discrete)
    m_t = transition_matrix(u_sys, transported)
    assert _rel(np.max(_intertwining_of(m_d)),
                np.max(_intertwining_of(m_t))) <= 6.4e-12
    assert _rel(_w_deviation_of(m_d, discrete),
                _w_deviation_of(m_t, transported)) <= 2.4e-5
    k_d, _, _, fmax_d = _kernel_summary(discrete, couplings(discrete))
    k_t, _, _, fmax_t = _kernel_summary(transported, evo.couplings())
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
    evo = _evolution(bundle, tau, grid)
    path, u_sys = _lab_frame(bundle, evo)
    frame = dataclasses.replace(_with_vectors(bundle, evo), path=path)
    assert frame.construction == "transported"
    # the route's vectors at the premise points (here every point)
    assert np.array_equal(evo.premise_frame.grid, grid)
    assert np.array_equal(evo.premise_frame.vectors, frame.vectors)
    H = frame.path.eval_batch(grid, tau)
    resid = H @ frame.vectors - frame.vectors * frame.values[:, None, :]
    assert np.max(np.abs(resid)) <= 1e-12
    assert frame.completeness_defect() <= 1e-12
    # hf couplings of the dual path, whose unitary is U_tau on the grid,
    # against the route's, read at every level pair
    m, n = np.indices((3, 3)).reshape(2, -1)
    assert np.max(np.abs(couplings(frame)[:, m, n]
                         - evo.couplings()[:, m, n])) <= 1e-12
    assert np.max(np.abs(evo.drift
                         - projector_drift_series(frame))) <= 1e-12
    assert np.max(np.abs(_full_m(bundle, evo)
                         - transition_matrix(u_sys, frame))) <= 1e-12


def test_custom_duals_have_no_lab_frame_unitaries():
    bundle = _bundle(2, 5, "c", 6.0, grid=256)
    with pytest.raises(ValueError, match="evolution"):
        bundle.unitaries_for(6.0, bundle.grid_for(6.0))


def test_custom_base_reads_the_eigenframe_of_the_base():
    # the base's grid frame, re-bound to tau, and its couplings are those of
    # an eigenframe of the base at tau, so every value that does not read M
    # is the one the per-tau frame gave, bit for bit
    tau = 8.0
    bundle = _bundle(3, 11, "a", tau, grid=256,
                     diagnostics=list(sc.ALL_DIAGNOSTICS))
    report, (ser,) = sc.run(bundle.config)
    entry, = report["entries"]
    assert report["provenance"]["integrator"] == "eigenbasis-strang"
    grid = bundle.grid_for(tau)
    frame = eigenframe(bundle.base, tau, grid)
    C = couplings(frame)
    ref, ref_series = {}, {}
    sc._kernel_entries(frame, C, sc.ALL_DIAGNOSTICS, ref, ref_series)
    drift = projector_drift_series(frame)
    ref.update(qac_max=qac_max(frame, C), min_gap=frame.min_gap,
               projector_drift=float(np.max(drift)),
               premises=_premises(frame, max(2, (len(grid) - 1) // 256)),
               phase_rate_per_step=phase_rate_per_step(frame),
               frame_construction="discrete")
    ref_series.update(s=frame.grid, projector_drift=drift)
    assert {"resonance_integrals", "f_norm_end", "f_norm_max"} <= set(ref)
    for key, value in ref.items():
        assert entry[key] == value, key
    for key, value in ref_series.items():
        assert np.array_equal(ser[key], value), key


@pytest.mark.parametrize("dim, seed, tau", [(3, 11, 8.0), (4, 2, 20.0)])
def test_custom_base_evolution_is_closer_to_a_fine_run(dim, seed, tau):
    # the base's M = Q_tau, chained on the grid refined twice, against the
    # lab-frame midpoint run it replaced (substeps 1), both measured from a
    # 16-substep midpoint run on the same frame: measured 0.1294 of the
    # lab-frame distance for all three values, on 257 and 1,025 points
    bundle = _bundle(dim, seed, "a", tau, grid=256,
                     diagnostics=["intertwining_defect", "w_deviation"])
    entry = sc.run(bundle.config)[0]["entries"][0]
    grid = bundle.grid_for(tau)
    frame = eigenframe(bundle.base, tau, grid)

    def values(substeps):
        M = transition_matrix(propagate(bundle.base, tau, grid,
                                        substeps=substeps), frame)
        return {"intertwining_defect": float(np.max(_intertwining_of(M))),
                "w_deviation": _w_deviation_of(M, frame),
                "transition_probability_max": _transition_probability_max(M)}

    ref, lab = values(16), values(1)
    for key in ref:
        assert abs(entry[key] - ref[key]) <= 0.14 * abs(lab[key] - ref[key])


# the coefficients c / tau of the chains Q_c per tau that each diagnostic
# set reads: a dual's Q_tau for its drift and its vectors (premises), the
# base's Q_tau and the negated dual's Q_2tau for M
CHAINS = {
    ("qac_max", "f_norm"): {"a": [], "b": [], "c": []},
    ("projector_drift",): {"a": [], "b": [1], "c": [1]},
    ("intertwining_defect",): {"a": [1], "b": [], "c": [2]},
    ("premises",): {"a": [], "b": [1], "c": [1]},
    sc.DEFAULT_DIAGNOSTICS: {"a": [1], "b": [1], "c": [1, 2]},
}


@pytest.mark.parametrize("system", ["a", "b", "c"])
@pytest.mark.parametrize("diags", list(CHAINS), ids=[
    "qac_f_norm", "drift", "intertwining", "premises", "default"])
def test_q_is_chained_only_where_it_is_read(diags, system, monkeypatch):
    coefs = []
    chain = sc.propagate_eigenbasis

    def counted(values, overlaps, grid, coef, record_every, carry):
        coefs.append(coef)
        return chain(values, overlaps, grid, coef, record_every, carry)

    monkeypatch.setattr(sc, "propagate_eigenbasis", counted)
    taus = [10.0, 20.0]   # one grid of 512 refined steps: one chunk
    bundle = _bundle(2, 5, system, 1.0, grid=256, auto_refine=False,
                     diagnostics=list(diags))
    cfg = dict(bundle.config, parameters=dict(bundle.config["parameters"],
                                              tau_list=taus))
    sc.run(cfg)
    assert coefs == [k * tau for tau in taus for k in CHAINS[diags][system]]


@pytest.mark.parametrize("system", ["a", "b", "c"])
def test_custom_systems_read_one_frame_per_grid(system, monkeypatch):
    # no lab-frame propagation and no per-tau eigenframe: one discrete frame
    # per grid (two grids here), every value read from it and from Q
    frames = []
    discrete = sc._discrete_frame

    def counted(*args, **kw):
        frames.append(len(args[2]))
        return discrete(*args, **kw)

    def forbidden(*args, **kw):
        raise AssertionError("a custom scan left the numeric route")

    monkeypatch.setattr(sc, "_discrete_frame", counted)
    for name in ("propagate", "eigenframe"):
        monkeypatch.setattr(sc, name, forbidden)
    monkeypatch.setattr(gauge, "eigenframe", forbidden)
    bundle = _bundle(2, 5, system, 1.0, grid=256,
                     diagnostics=list(sc.ALL_DIAGNOSTICS))
    cfg = dict(bundle.config, parameters=dict(bundle.config["parameters"],
                                              tau_list=[20.0, 40.0, 60.0]))
    report, _ = sc.scan(cfg)
    points = [e["grid_points"] for e in report["entries"]]
    assert points == [257, 1025, 1025]
    assert sorted(frames) == sorted(set(points))
    with pytest.raises(ValueError, match="evolution"):
        bundle.unitaries_for(20.0, bundle.grid_for(20.0))


@pytest.mark.parametrize("system", ["b", "c"])
def test_custom_duals_integrate_no_phases_of_their_own(system, monkeypatch):
    # a dual's int_0^s sign E and the int_0^s E of its generator rates are
    # sign and 1 times its grid frame's cached int_0^s E: three taus on two
    # grids integrate twice (eight times when each entry integrated its own)
    calls = []
    cumtrapz = gauge._cumtrapz

    def counted(y, x, phase=None):
        calls.append(len(x))
        return cumtrapz(y, x, phase)

    monkeypatch.setattr(gauge, "_cumtrapz", counted)
    bundle = _bundle(2, 5, system, 1.0, grid=256,
                     diagnostics=list(sc.ALL_DIAGNOSTICS))
    cfg = dict(bundle.config, parameters=dict(bundle.config["parameters"],
                                              tau_list=[20.0, 40.0, 60.0]))
    report, _ = sc.scan(cfg)
    assert [e["grid_points"] for e in report["entries"]] == [257, 1025, 1025]
    assert calls == [257, 1025]


def _two_frame_premises(path, tau, grid):
    """The premises as computed before they were read from the entry's
    frame: one eigenframe on ``grid`` and one on its midpoint refinement."""
    frames = [eigenframe(path, tau, g) for g in (grid, midpoint_refined(grid))]
    d = []
    for fr in frames:
        h = np.diff(fr.grid).mean()
        d1 = d2 = 0.0
        for j in range(fr.dim):
            P = fr.projector(j)
            dP = (P[2:] - P[:-2]) / (2 * h)
            d2P = (P[2:] - 2 * P[1:-1] + P[:-2]) / (h * h)
            d1 = max(d1, float(np.max(np.linalg.norm(dP, axis=(1, 2)))))
            d2 = max(d2, float(np.max(np.linalg.norm(d2P, axis=(1, 2)))))
        d.append((d1, d2))
    (d1c, d2c), (d1f, d2f) = d
    step_c, step_f = (float(np.max(np.abs(np.diff(fr.values, axis=0))))
                      for fr in frames)
    ratio1 = d1f / d1c if d1c > 0 else 1.0
    ratio2 = d2f / d2c if d2c > 0 else 1.0
    return {
        "p1_max_value_step": step_c,
        "p1_refined_ratio": step_f / step_c if step_c > 0 else 1.0,
        "p2_min_gap": frames[0].min_gap,
        "p3_dP_norm": d1c,
        "p3_d2P_norm": d2c,
        "p3_dP_ratio": ratio1,
        "p3_d2P_ratio": ratio2,
        "p3_stable": float(0.5 <= ratio1 <= 2.0 and 0.5 <= ratio2 <= 2.0),
    }


SPIN = {"model": "spin_half", "grid": 512,
        "parameters": {"theta": 0.7, "tau": 20.0}}
PREMISE_CASES = {
    "spin_a": dict(SPIN, system="a"),
    "spin_b": dict(SPIN, system="b"),
    "spin_c": dict(SPIN, system="c"),
    "spin_x": dict(SPIN, system="x", transform={
        "sign": -1, "unitary": "rotating_z", "rate": 0.5}),
    "driven": {"model": "driven_two_level", "grid": 512, "parameters": {
        "amplitude": 0.3, "drive_frequency": 1.0, "tau": 10.0}},
}


@pytest.mark.parametrize("case", [*PREMISE_CASES, "custom_a", "custom_c"])
def test_premises_of_the_entry_frame_match_two_frames(case, monkeypatch):
    # the entry reads coarse and fine points of its own frame where two
    # frames were built; projectors at s values an ulp apart leave the
    # second differences to rounding (largest measured: 6e-11 relative)
    if case.startswith("custom"):
        bundle = _bundle(3, 11, case[-1], 8.0, grid=256)
        # the reference unitary cannot be probed off the frame grid, so its
        # transported frames go without the generator spot-check
        monkeypatch.setattr(gauge, "_check_transport_generator",
                            lambda path, tau, grid: None)
    else:
        bundle = sc.SystemBundle(sc.normalize_config(PREMISE_CASES[case]))
    tau, = bundle.config["parameters"]["tau_list"]
    report, _ = sc.run(dict(bundle.config, diagnostics=["premises"]))
    got = report["entries"][0]["premises"]
    grid = bundle.grid_for(tau)
    path = (bundle.path if bundle.path is not None
            else _lab_frame(bundle, _evolution(bundle, tau, grid))[0])
    step = max(2, (len(grid) - 1) // bundle.config["grid"])
    ref = _two_frame_premises(path, tau, grid[::step])
    assert sorted(got) == sorted(ref)
    assert got["p3_stable"] == ref["p3_stable"]
    for key in ref:
        assert abs(got[key] - ref[key]) <= 1e-9 * abs(ref[key]), key


@pytest.mark.parametrize("system", ["b", "c"])
def test_every_diagnostic_runs_on_custom_duals(system):
    bundle = _bundle(2, 5, system, 6.0, grid=256)
    report, _ = sc.run(dict(bundle.config,
                            diagnostics=list(sc.ALL_DIAGNOSTICS)))
    entry, = report["entries"]
    assert entry["frame_construction"] == "transported"
    assert report["provenance"]["integrator"] == "eigenbasis-strang"
    assert entry["premises"]["p2_min_gap"] > 0.5
    evo = _evolution(bundle, 6.0, bundle.grid_for(6.0))
    assert entry["projector_drift"] == np.max(evo.drift)


def test_overlaps_are_checked_for_unitarity(monkeypatch):
    # the eigenvectors of one refined point between two frame points
    # skewed: the overlaps on either side of it are not unitary, and the
    # typed error (a ValueError too) names the s-interval of the worse one
    eigh_batch = kernels.eigh_batch

    def skewed(h):
        w, v = eigh_batch(h)
        if len(h) == 256:   # the grid's 256 midpoints, not the probe (33
            v[40] *= 1.001  # points) or the frame (257): refined point 81
        return w, v

    monkeypatch.setattr(kernels, "eigh_batch", skewed)
    bundle = _bundle(2, 5, "c", 6.0, grid=256)
    grid = bundle.grid_for(6.0)
    fine = sc._refined(grid, 2)
    with pytest.raises(NumericalCheckError,
                       match="overlaps are not unitary") as err:
        _grid_data(bundle, grid).evolutions([6.0])
    assert isinstance(err.value, ValueError)
    assert err.value.interval in ((fine[80], fine[81]), (fine[81], fine[82]))


def _growing_path(defect):
    """A gapped 3-level path on [0, 1] whose norm grows 100-fold, plus an
    anti-Hermitian part with ||H - H^dagger||_F = ``defect`` for s < 0.05,
    where the norm is smallest."""
    h0 = np.diag([1.0, 0.0, -1.0])
    x = 0.2 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    skew = np.zeros((3, 3))
    skew[0, 1], skew[1, 0] = 0.5 / np.sqrt(2.0), -0.5 / np.sqrt(2.0)

    def h(s, tau):
        out = (1.0 + 99.0 * s)[:, None, None] * (
            h0 + np.sin(2.0 * s)[:, None, None] * x)
        return out + (defect * (s < 0.05))[:, None, None] * skew

    return HamiltonianPath(3, h)


def _one_block_and_blocked(monkeypatch, build):
    """``build()`` with every stack in one block, then in blocks of 7."""
    monkeypatch.setattr(linalg, "_BLOCK", 10**9)
    whole = build()
    monkeypatch.setattr(linalg, "_BLOCK", 7)
    return whole, build()


# the defect 3e-9 passes the check against the largest norm of all points
# (threshold 1.5e-8), not against those of the blocks near s = 0 (< 1e-9)
@pytest.mark.parametrize("defect", [0.0, 3e-9])
def test_blocked_grid_build_equals_one_block(defect, monkeypatch):
    # the refined grid evaluated and checked 7 points at a time, the frame
    # points solved and the couplings formed in blocks of 7, block seams at
    # every phase of the refinement; the frame equals a frame of the path
    # on the grid, and the pass's Q_tau that of the full-stack chain
    path = _growing_path(defect)
    grid = np.linspace(0.0, 1.0, 257)
    diags = ["premises", "intertwining_defect", "w_deviation"]

    def build(data):
        return data, data.evolutions([3.0])[0]

    whole, blocked = _one_block_and_blocked(
        monkeypatch,
        lambda: build(sc._EigenbasisGrid(path, grid, 2, "a", diags)))
    ref = eigenframe(path, 1.0, grid)
    for data, _ in (whole, blocked):
        assert np.array_equal(data.couplings, couplings(ref))
        assert np.array_equal(data.frame.phase_integrals(),
                              ref.phase_integrals())
        for name in ("grid", "values"):
            assert np.array_equal(getattr(data.frame, name),
                                  getattr(ref, name))
        # the premise frame holds every point's vectors at step 2
        assert np.array_equal(data.premise_frame.vectors, ref.vectors)
        assert data.frame.min_gap == ref.min_gap
    m = _full_transition(path, grid, 3.0)
    at_tau = dataclasses.replace(ref, tau=3.0)
    for _, evo in (whole, blocked):
        reads = evo.transitions
        assert np.array_equal(reads.intertwining, _intertwining_of(m))
        assert float(np.max(reads.deviations)) == \
            _w_deviation_of(m, at_tau)


def test_blocked_grid_build_raises_the_one_block_error(monkeypatch):
    def build():
        with pytest.raises(NonHermitianError) as err:
            sc._EigenbasisGrid(_growing_path(1e-7), np.linspace(0, 1, 257), 2,
                               "a", ["premises"])
        return err.value.defect, err.value.tolerance

    whole, blocked = _one_block_and_blocked(monkeypatch, build)
    assert blocked == whole
    assert whole[0] == pytest.approx(1e-7, rel=1e-6)


def test_blocked_entries_equal_one_block(monkeypatch):
    # every entry value, w_deviation's blocked maximum included. The Q
    # chain's chunks (``CHAIN_CHUNK``) do not follow the block size (its
    # chunks are checked against a step-by-step loop in test_propagate)
    bundle = _bundle(3, 11, "c", 8.0, grid=256,
                     diagnostics=list(sc.ALL_DIAGNOSTICS))
    whole, blocked = _one_block_and_blocked(
        monkeypatch, lambda: sc.run(bundle.config))
    assert json.dumps(blocked[0], sort_keys=True) == \
        json.dumps(whole[0], sort_keys=True)
    for a, b in zip(whole[1], blocked[1]):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)



def _full_populations(M):
    """|M_mn|^2 off the diagonal, as one (N, n, n) stack."""
    p = np.abs(M)
    p *= p
    n = M.shape[-1]
    p[:, np.arange(n), np.arange(n)] = 0.0
    return p


def _full_reads(frame, C, M, q):
    """qac_max, the kernel integrand, intertwining, the largest transition
    probability and the dual drift in their full-stack forms: every
    temporary (N, n, n) or (N, pairs) at once."""
    den = frame.values[:, None, :] - frame.values[:, :, None]
    off = ~np.eye(frame.dim, dtype=bool)
    qac = float(np.max(np.abs(C[:, off]) / np.abs(den[:, off]),
                       initial=0.0)) / frame.tau
    m, n = np.tril_indices(frame.dim, -1)
    e = np.exp(1j * frame.phase_integrals())
    coeff = C[:, m, n] * e[:, m]
    coeff *= e.conj()[:, n]
    coeff *= 1j
    p = _full_populations(M)
    leak = p.sum(axis=1)
    leak += p.sum(axis=2)
    drift = (None if q is None else
             np.sqrt(2.0 * _full_populations(q).sum(axis=1).max(axis=1)))
    return qac, coeff, np.sqrt(leak.max(axis=1)), float(np.max(p)), drift


@pytest.mark.parametrize("system", ["a", "b", "c"])
def test_blocked_reads_equal_the_full_stacks(system, monkeypatch):
    # blocks of 7 points, so the 257-point frame grid has a seam every
    # 7th point and a partial last block, and chain chunks of 14 steps
    # (7 frame intervals), so the pass hands over 37 record blocks and
    # carries Q across 36 seams; the dual's couplings are read as pair
    # columns of the base's, never as an (N, n, n) stack
    bundle = _bundle(3, 11, system, 8.0, grid=256,
                     diagnostics=list(sc.ALL_DIAGNOSTICS))
    grid = bundle.grid_for(8.0)
    assert (len(grid) - 1) % 7 != 0
    monkeypatch.setattr(linalg, "_BLOCK", 7)
    monkeypatch.setattr(sc, "CHAIN_CHUNK", 14)
    evo = _evolution(bundle, 8.0, grid)
    frame, data = evo.frame, evo.data
    if system == "a":
        C, q = data.couplings, None
    else:
        e = np.exp(1j * evo.tau * data.frame.phase_integrals())
        C = data.couplings * e[:, :, None]
        C *= e.conj()[:, None, :]
        q = _full_transition(bundle.base, grid, evo.tau)
    pairs = evo.couplings()
    m, n = np.indices((3, 3)).reshape(2, -1)
    assert np.array_equal(pairs[:, m, n], C[:, m, n])
    assert np.array_equal(pairs[5:12, m, n], C[5:12, m, n])
    M = _full_m(bundle, evo)
    qac, coeff, inter, prob, drift = _full_reads(frame, C, M, q)
    assert qac_max(frame, pairs) == qac
    assert np.array_equal(_kernel_integrand(frame, pairs)[0], coeff)
    assert np.array_equal(_intertwining_of(M), inter)
    assert _transition_probability_max(M) == prob
    w = np.exp(1j * frame.phase_integrals())[:, :, None] * M
    w[:, np.arange(3), np.arange(3)] -= 1.0
    w_max = float(np.max(np.linalg.norm(w, axis=(1, 2))))
    assert _w_deviation_of(M, frame) == w_max
    # the pass's reductions of its record blocks
    reads = evo.transitions
    assert np.array_equal(reads.intertwining, inter)
    assert float(np.max(reads.probabilities)) == prob
    assert float(np.max(reads.deviations)) == w_max
    assert np.array_equal(evo.drift, projector_drift_series(
        _with_vectors(bundle, evo)) if drift is None else drift)


def test_blocked_reads_of_a_one_level_frame(monkeypatch):
    # one level has no pair: ratio 0, no leak, no drift
    monkeypatch.setattr(linalg, "_BLOCK", 7)
    grid = np.linspace(0.0, 1.0, 30)
    frame = gauge.EigenFrame(grid=grid, tau=3.0, values=grid[:, None],
                             vectors=np.ones((30, 1, 1), dtype=complex),
                             min_gap=np.inf)
    C = np.zeros((30, 1, 1), dtype=complex)
    M = np.exp(1j * grid)[:, None, None]
    qac, _, inter, prob, drift = _full_reads(frame, C, M, M)
    assert qac_max(frame, C) == qac == 0.0
    assert _kernel_integrand(frame, C)[0].shape == (30, 0)
    assert np.array_equal(_intertwining_of(M), inter)
    assert _transition_probability_max(M) == prob == 0.0
    assert np.array_equal(sc._transported_drift(M), drift)


def test_custom_base_forms_its_drift_once_per_grid(monkeypatch):
    # the base's drift is its grid frame's, the same at every tau on the
    # grid: three taus on two grids form it twice
    calls = []
    drift = sc.projector_drift_series

    def counted(frame):
        calls.append(frame.npoints)
        return drift(frame)

    monkeypatch.setattr(sc, "projector_drift_series", counted)
    bundle = _bundle(2, 5, "a", 1.0, grid=256)
    cfg = dict(bundle.config, parameters=dict(bundle.config["parameters"],
                                              tau_list=[20.0, 40.0, 60.0]))
    report, series = sc.scan(cfg)
    assert calls == [257, 1025]
    for entry, ser in zip(report["entries"], series):
        ref = drift(eigenframe(bundle.base, entry["tau"], ser["s"]))
        assert np.array_equal(ser["projector_drift"], ref)
        assert entry["projector_drift"] == float(np.max(ref))


@pytest.mark.parametrize("system, diags, kept", [
    ("a", sc.DEFAULT_DIAGNOSTICS, False), ("a", ["premises"], True),
    ("b", sc.DEFAULT_DIAGNOSTICS, True), ("b", ["qac_max", "premises"], False),
    ("c", sc.ALL_DIAGNOSTICS, False)])
def test_grid_keeps_the_frame_vectors_only_where_read(system, diags, kept):
    # the base's premises (at the premise points) and the dual's M (in the
    # pass) read them; the pass frees them, and V(0) is always kept
    bundle = _bundle(2, 5, system, 6.0, grid=256, diagnostics=list(diags))
    data = _grid_data(bundle, bundle.grid_for(6.0), diags=diags)
    evo, = data.evolutions([6.0])
    assert data.frame.vectors is None
    read = data.premise_frame is not None or any(
        coef is None for coef, _ in evo.chains())
    assert read == kept
    assert (data.drift is not None) == (
        system == "a" and "projector_drift" in diags)
    full = _base_frame(bundle, data.frame.grid)
    assert np.array_equal(data.v0, full.vectors[0])
