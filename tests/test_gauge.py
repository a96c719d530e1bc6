"""Eigenframes, parallel transport, and the geometric operators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adiakit as ak
from adiakit import diagnostics, spinhalf
from adiakit.exceptions import (AdiakitError, EigenvalueCrossingError,
                                NumericalCheckError,
                                ProjectorDiscontinuityError)
from adiakit.gauge import (_cumtrapz, _min_pairwise_gap, _transported_frame,
                           kernel_coefficients)
from adiakit.models import random_smooth_hamiltonian
from adiakit.paths import HamiltonianPath, UnitaryPath, constant_hamiltonian
from adiakit.verify import _spin_sweep

THETA, OMEGA0 = np.pi / 4, 1.0
WINDOW = 2 * np.pi
GRID = np.linspace(0.0, WINDOW, 1025)


@pytest.fixture(scope="module")
def spin_frame():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    return ak.eigenframe(h, 100.0, GRID,
                         initial_vectors=spinhalf.initial_vectors(THETA))


def test_constant_hamiltonian_vectors_constant():
    H0 = np.array([[1.0, 0.2 + 0.1j, 0.0],
                   [0.2 - 0.1j, -0.5, 0.3j],
                   [0.0, -0.3j, 2.0]], dtype=complex)
    fr = ak.eigenframe(constant_hamiltonian(H0), 10.0, np.linspace(0, 1, 101))
    assert np.max(np.abs(fr.vectors - fr.vectors[0])) <= 1e-12
    assert np.max(np.abs(fr.values - fr.values[0])) <= 1e-13


def test_frame_values_and_gap(spin_frame):
    assert np.allclose(spin_frame.values[:, 0], -OMEGA0 / 2, atol=1e-13)
    assert np.allclose(spin_frame.values[:, 1], OMEGA0 / 2, atol=1e-13)
    assert np.isclose(spin_frame.min_gap, OMEGA0, atol=1e-12)


def test_frame_gauge_and_completeness(spin_frame):
    assert spin_frame.gauge_residual() <= 1e-6
    assert spin_frame.completeness_defect() <= 1e-10


def test_initial_vector_alignment(spin_frame):
    iv = spinhalf.initial_vectors(THETA)
    assert np.linalg.norm(spin_frame.vectors[0] - iv) <= 1e-12


def test_frame_matches_analytic_transport(spin_frame):
    ref = spinhalf.parallel_eigvecs(THETA)(GRID)
    assert np.max(np.abs(spin_frame.vectors - ref)) <= 1e-8


def test_couplings_match_closed_form(spin_frame):
    C = ak.couplings(spin_frame)
    ref = spinhalf.coupling_upper_lower(THETA, GRID)
    assert np.max(np.abs(C[:, 1, 0] - ref)) <= 1e-9
    # diagonal vanishes and the pair is anti-conjugate
    assert np.max(np.abs(C[:, 0, 0])) == 0.0
    assert np.max(np.abs(C[:, 0, 1] + C[:, 1, 0].conj())) <= 1e-9


def test_coupling_routes_agree(spin_frame):
    Chf = ak.couplings(spin_frame, method="hf")
    Cfd = ak.couplings(spin_frame, method="fd")
    off = ~np.eye(2, dtype=bool)
    assert np.max(np.abs(Chf[:, off] - Cfd[:, off])) <= 1e-6


def test_coupling_routes_agree_random_4x4():
    rng = np.random.default_rng(44)
    path = random_smooth_hamiltonian(4, rng, base_gap=1.0, wobble=0.25)
    fr = ak.eigenframe(path, 40.0, np.linspace(0.0, WINDOW, 4097))
    assert fr.min_gap >= 0.2
    Chf = ak.couplings(fr, method="hf")
    Cfd = ak.couplings(fr, method="fd")
    off = ~np.eye(4, dtype=bool)
    assert np.max(np.abs(Chf[:, off] - Cfd[:, off])) <= 1e-6


def test_theta_zero_couplings_vanish():
    h = spinhalf.hamiltonian(0.0, OMEGA0)
    fr = ak.eigenframe(h, 100.0, GRID)
    assert np.max(np.abs(ak.couplings(fr))) <= 1e-12


def test_grid_refinement_stability(spin_frame):
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    fine = ak.eigenframe(h, 100.0, np.linspace(0.0, WINDOW, 2049),
                         initial_vectors=spinhalf.initial_vectors(THETA))
    C1 = ak.couplings(spin_frame, method="fd")[:, 1, 0]
    C2 = ak.couplings(fine, method="fd")[::2, 1, 0]
    ds = GRID[1] - GRID[0]
    assert np.max(np.abs(C1 - C2)) <= ds**2


def _crossing_path():
    """diag(s - 0.5, 0.5 - s): the two levels cross at s = 0.5."""
    def h_eval(s, tau):
        out = np.zeros((len(s), 2, 2), dtype=complex)
        out[:, 0, 0] = s - 0.5
        out[:, 1, 1] = 0.5 - s
        return out

    return HamiltonianPath(2, h_eval)


def test_crossing_detected_and_named():
    with pytest.raises(EigenvalueCrossingError) as exc:
        ak.eigenframe(_crossing_path(), 1.0, np.linspace(0, 1, 101))
    lo, hi = exc.value.interval
    assert lo <= 0.5 <= hi


def test_levels_tracked_through_crossing_between_grid_points():
    # eigh sorts the levels, so they swap between s = 3/7 and s = 4/7;
    # tracking by overlap must undo the swap
    grid = np.linspace(0, 1, 8)
    fr = ak.eigenframe(_crossing_path(), 1.0, grid)
    assert np.array_equal(fr.values[:, 0], grid - 0.5)
    assert fr.gauge_residual() == 0.0


def test_discontinuous_projector_detected():
    def h_eval(s, tau):
        return np.where((s < 0.5)[:, None, None],
                        np.diag([-1.0, 1.0]).astype(complex),
                        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    path = HamiltonianPath(2, h_eval)
    with pytest.raises(ProjectorDiscontinuityError):
        ak.eigenframe(path, 1.0, np.linspace(0, 1, 101))


@pytest.mark.parametrize("npts", [4097, 262145])
def test_frame_transport_corrected_at_every_size(npts):
    # the Richardson correction has no size threshold: the frames the
    # verification suite builds match the analytic transport at any size
    from adiakit.verify import _spin_frames

    frames, grid = _spin_frames(THETA, OMEGA0, 100.0, npts)
    ref = spinhalf.parallel_eigvecs(THETA)(grid)
    assert np.max(np.abs(frames["a"].vectors - ref)) <= 1e-12


@settings(max_examples=10, deadline=None, database=None)
@given(dim=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       npts=st.integers(min_value=257, max_value=1025),
       tau=st.floats(min_value=1.0, max_value=50.0))
def test_random_frames_are_complete_and_transported(dim, seed, npts, tau):
    # the discrete frame's vectors stay orthonormal, and the Richardson-
    # corrected transport leaves an O(ds^2) diagonal connection (largest
    # over 300 draws: 4.4e-15 and 0.18 ds^2)
    path = random_smooth_hamiltonian(dim, np.random.default_rng(seed))
    grid = np.linspace(0.0, WINDOW, npts)
    fr = ak.eigenframe(path, tau, grid)
    assert fr.completeness_defect() <= 1e-13
    assert fr.gauge_residual() <= 0.5 * (grid[1] - grid[0]) ** 2


def test_frame_determinism(spin_frame):
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    again = ak.eigenframe(h, 100.0, GRID,
                          initial_vectors=spinhalf.initial_vectors(THETA))
    assert np.array_equal(again.vectors, spin_frame.vectors)
    assert np.array_equal(again.values, spin_frame.values)


def test_projector_orthonormality_pointwise():
    rng = np.random.default_rng(3)
    path = random_smooth_hamiltonian(3, rng, base_gap=1.5)
    fr = ak.eigenframe(path, 25.0, np.linspace(0, WINDOW, 513))
    total = np.zeros((len(fr.grid), 3, 3), dtype=complex)
    for j in range(3):
        P = fr.projector(j)
        total += P
        assert np.max(np.linalg.norm(P @ P - P, axis=(1, 2))) <= 1e-10
    assert np.max(np.linalg.norm(total - np.eye(3), axis=(1, 2))) <= 1e-10


def test_kato_operator_trivials(spin_frame):
    ua = ak.kato_operator(spin_frame)
    assert np.linalg.norm(ua[0] - np.eye(2)) <= 1e-13
    gram = np.einsum("kji,kjl->kil", ua.conj(), ua) - np.eye(2)
    assert np.max(np.linalg.norm(gram, axis=(1, 2))) <= 1e-12
    assert ak.intertwining_defect(ua, spin_frame) <= 1e-8


def test_kato_operator_constant_path_is_identity():
    H0 = np.diag([1.0, -1.0, 0.3]).astype(complex)
    fr = ak.eigenframe(constant_hamiltonian(H0), 5.0, np.linspace(0, 1, 65))
    ua = ak.kato_operator(fr)
    assert np.max(np.abs(ua - np.eye(3))) <= 1e-12


def test_kernel_structure(spin_frame):
    coeff = kernel_coefficients(spin_frame)
    # zero diagonal, modulus sin(theta)/2 on the off-diagonal
    assert np.max(np.abs(coeff[:, 0, 0])) == 0.0
    assert np.allclose(np.abs(coeff[:, 1, 0]), np.sin(THETA) / 2, atol=1e-12)
    # Hermitian per point (couplings are anti-Hermitian): the reason the
    # resonance integral of (n, m) is -conj of that of (m, n)
    assert np.allclose(coeff[:, 0, 1], np.conj(coeff[:, 1, 0]), atol=1e-12)


def test_kernel_vanishes_at_theta_zero():
    h = spinhalf.hamiltonian(0.0, OMEGA0)
    fr = ak.eigenframe(h, 100.0, GRID)
    assert np.max(np.abs(kernel_coefficients(fr))) <= 1e-12


def test_dual_kernel_is_non_oscillatory():
    # dual-frame kernel coefficients equal i * base couplings: no net phase
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    fr = ak.eigenframe(hb, 100.0, GRID,
                       initial_vectors=spinhalf.initial_vectors(THETA))
    coeff = kernel_coefficients(fr)
    ref = 1j * spinhalf.coupling_upper_lower(THETA, GRID)
    assert np.max(np.abs(coeff[:, 1, 0] - ref)) <= 1e-9


def test_dual_projectors_stay_near_origin_at_small_omega():
    omega = 0.01
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    fr = ak.eigenframe(hb, 1.0 / omega, np.linspace(0, WINDOW, 4097),
                       initial_vectors=spinhalf.initial_vectors(THETA))
    drift = ak.projector_drift(fr)
    assert drift <= 3.0 * omega


def test_transported_frame_agrees_with_discrete_at_moderate_tau():
    tau = 20.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    hb = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    grid = np.linspace(0, WINDOW, 8193)
    iv = spinhalf.initial_vectors(THETA)
    tr = ak.eigenframe(hb, tau, grid, initial_vectors=iv,
                       transport="transported")
    dc = ak.eigenframe(hb, tau, grid, initial_vectors=iv,
                       transport="discrete")
    assert np.allclose(tr.values, dc.values, atol=1e-11)
    # same frame up to numerical transport error in the discrete route
    assert np.max(np.abs(tr.vectors - dc.vectors)) <= 1e-4
    Ct = ak.couplings(tr)
    Cd = ak.couplings(dc)
    assert np.max(np.abs(np.abs(Ct[:, 1, 0]) - np.abs(Cd[:, 1, 0]))) <= 1e-9


def test_transported_frame_rejects_wrong_unitary():
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    wrong_u = spinhalf.exact_propagator(THETA + 0.3, OMEGA0)
    hx = ak.dual_of(h, wrong_u)   # violates the dual_of contract
    with pytest.raises(NumericalCheckError, match="generator mismatch"):
        ak.eigenframe(hx, 50.0, GRID, transport="transported")


@pytest.mark.parametrize("bad_point,msg", [
    (163, "not unitary"), (None, "start at the identity")])
def test_transported_frame_checks_raise_typed_errors(bad_point, msg):
    # a unitary scaled by 1.5 at one grid point, or sigma_x (unitary, but
    # not the identity at s = 0): a typed error that is still a ValueError,
    # with the s-interval around the worst point where there is one
    h = spinhalf.hamiltonian(THETA, OMEGA0)

    def u(sv, tau):
        if bad_point is None:
            return np.broadcast_to(ak.SIGMA_X, (len(sv), 2, 2)).copy()
        scale = np.where(sv == GRID[bad_point], 1.5, 1.0)
        return scale[:, None, None] * np.eye(2, dtype=complex)

    hx = ak.transform(h, UnitaryPath(2, u, generator=h), -1)
    with pytest.raises(NumericalCheckError, match=msg) as err:
        ak.eigenframe(hx, 50.0, GRID)
    assert isinstance(err.value, AdiakitError)
    assert isinstance(err.value, ValueError)
    if bad_point is None:
        assert err.value.interval is None
    else:
        assert err.value.interval == (GRID[bad_point - 1],
                                      GRID[bad_point + 1])


@pytest.mark.parametrize("system", ["b", "c"])
def test_transported_frame_on_a_supplied_base_is_eigenframes_own(system):
    tau = 100.0
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    dual = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    path = dual if system == "b" else ak.negate(dual)
    iv = spinhalf.initial_vectors(THETA)
    base = ak.eigenframe(h, tau, GRID, initial_vectors=iv)
    shared = _transported_frame(path, tau, base.grid, iv, base_frame=base)
    own = ak.eigenframe(path, tau, GRID, initial_vectors=iv)
    for name in ("grid", "values", "vectors", "generator_rates"):
        assert np.array_equal(getattr(shared, name), getattr(own, name))
    assert (shared.tau, shared.min_gap, shared.construction) == \
        (own.tau, own.min_gap, own.construction)


def test_replaced_tau_rebinds_the_cached_phases():
    # the frame caches int_0^s E, which does not depend on tau: phases read
    # at tau = 10 and the frame re-bound to tau = 100 by dataclasses.replace
    # give the phases, resonance peak and w_deviation of a fresh frame at
    # tau = 100 (a cache of tau int E was 283 rad off, and its resonance
    # max_abs 0.066 against 0.0070)
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.linspace(0.0, WINDOW, 257)
    iv = spinhalf.initial_vectors(THETA)
    frame = ak.eigenframe(h, 10.0, grid, initial_vectors=iv)
    frame.phase_integrals()
    rebound = dataclasses.replace(frame, tau=100.0)
    fresh = ak.eigenframe(h, 100.0, grid, initial_vectors=iv)
    u = spinhalf.exact_propagator(THETA, OMEGA0)
    assert np.array_equal(rebound.phase_integrals(), fresh.phase_integrals())
    assert (ak.resonance_max_abs(rebound, 1, 0)
            == ak.resonance_max_abs(fresh, 1, 0))
    assert ak.w_deviation(u, rebound) == ak.w_deviation(u, fresh)


def test_rebound_base_frame_equals_a_fresh_build():
    # the sweep builds the base once and re-binds tau; each tau's frames,
    # phase integrals and couplings equal a fresh eigenframe at that tau,
    # although the phase integrals were cached at the tau before
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    dual = ak.dual_of(h, spinhalf.exact_propagator(THETA, OMEGA0))
    paths = {"a": h, "b": dual, "c": ak.negate(dual)}
    iv = spinhalf.initial_vectors(THETA)
    taus = [100.0, 1000.0, 10000.0]
    for tau, frames in zip(taus, _spin_sweep(THETA, OMEGA0, taus, len(GRID),
                                             systems=("a", "b", "c"))):
        for sys_, fr in frames.items():
            fresh = ak.eigenframe(paths[sys_], tau, GRID, initial_vectors=iv)
            assert fr.tau == fresh.tau == tau
            assert np.array_equal(fr.vectors, fresh.vectors)
            assert np.array_equal(fr.phase_integrals(),
                                  fresh.phase_integrals())
            assert np.array_equal(ak.couplings(fr), ak.couplings(fresh))


def test_sweep_evaluates_one_unitary_per_tau(monkeypatch):
    # the dual and the negated dual share U_tau: the sweep evaluates it on
    # the grid once per tau for both frames (the generator spot-check
    # probes three points)
    calls = []
    original = spinhalf.propagator_matrix

    def counted(theta, omega0, omega, s):
        if len(s) == len(GRID):
            calls.append(omega)
        return original(theta, omega0, omega, s)

    monkeypatch.setattr(spinhalf, "propagator_matrix", counted)
    taus = [100.0, 1000.0]
    for _ in _spin_sweep(THETA, OMEGA0, taus, len(GRID),
                         systems=("a", "b", "c")):
        pass
    assert calls == [1.0 / tau for tau in taus]


def test_one_level_frame_has_no_coupling():
    # a single level has no pair: its couplings are zero and its adiabatic
    # ratio is 0, where a reduction over the empty pairs raised
    fr = ak.eigenframe(constant_hamiltonian([[1.0]]), 1.0, GRID)
    assert fr.min_gap == np.inf
    C = ak.couplings(fr)
    assert C.shape == (len(GRID), 1, 1) and not np.any(C)
    assert ak.qac_max(fr) == ak.qac_max(fr, C) == 0.0


def test_diagnostics_leave_shared_frame_arrays_untouched():
    # the base frame's arrays are shared by every tau of a sweep and by the
    # duals built on it: made read-only, any diagnostic writing into them
    # would raise
    frames = next(_spin_sweep(THETA, OMEGA0, [100.0], len(GRID),
                              systems=("a", "b", "c")))
    for fr in frames.values():
        for name in ("grid", "values", "vectors", "generator_rates"):
            arr = getattr(fr, name)
            if arr is not None:
                arr.flags.writeable = False
    props = {"a": spinhalf.exact_propagator(THETA, OMEGA0),
             "b": spinhalf.dual_propagator(THETA, OMEGA0),
             "c": spinhalf.negated_dual_propagator(THETA, OMEGA0)}
    for sys_, fr in frames.items():
        C = ak.couplings(fr)
        ak.couplings(fr, method="fd")
        kernel_coefficients(fr)
        kernel_coefficients(fr, C)
        diagnostics._kernel_summary(fr, C)
        diagnostics._premises(fr, 2)
        ak.qac_max(fr)
        ak.phase_rate_per_step(fr)
        ak.resonance_series(fr, 1, 0)
        ak.f_norm(fr)
        diagnostics.f_norm_max(fr)
        ak.projector_drift(fr)
        ak.kato_operator(fr)
        ak.intertwining_defect(props[sys_], fr)
        ak.w_deviation(props[sys_], fr)
        fr.gauge_residual()
        fr.completeness_defect()


def _min_pairwise_gap_by_pairs(values):
    """The O(n^2) reference: every |E_i - E_j|, i != j."""
    diff = np.abs(values[:, :, None] - values[:, None, :])
    n = values.shape[1]
    diff[:, np.arange(n), np.arange(n)] = np.inf
    per_point = diff.min(axis=(1, 2))
    k = int(np.argmin(per_point))
    return float(per_point[k]), k


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(min_value=2, max_value=6),
       npts=st.integers(min_value=1, max_value=12),
       data=st.data())
def test_gap_search_matches_every_pair(n, npts, data):
    # values from a few levels (ties within a point and across points) or
    # from any finite floats
    pool = st.one_of(st.sampled_from([-1.5, -0.25, 0.0, 0.1, 0.25, 3.0]),
                     st.floats(min_value=-1e6, max_value=1e6))
    values = np.array(data.draw(st.lists(
        st.lists(pool, min_size=n, max_size=n),
        min_size=npts, max_size=npts)))
    assert _min_pairwise_gap(values) == _min_pairwise_gap_by_pairs(values)


def test_nonuniform_grid_frame_and_integrals():
    # frames and trapezoid diagnostics accept non-uniform grids; the
    # finite-difference coupling route demands uniformity and says so
    h = spinhalf.hamiltonian(THETA, OMEGA0)
    grid = np.sort(np.concatenate([
        np.linspace(0.0, WINDOW, 700),
        0.5 * (np.linspace(0.0, WINDOW, 700)[:-1]
               + np.linspace(0.0, WINDOW, 700)[1:])[::3]]))
    fr = ak.eigenframe(h, 50.0, grid,
                       initial_vectors=spinhalf.initial_vectors(THETA))
    C = ak.couplings(fr)
    ref = spinhalf.coupling_upper_lower(THETA, fr.grid)
    assert np.max(np.abs(C[:, 1, 0] - ref)) <= 1e-6
    ser = ak.resonance_series(fr, 1, 0)
    assert np.isfinite(ser).all()
    with pytest.raises(ValueError, match="uniform"):
        ak.couplings(fr, method="fd")


def test_cumtrapz_is_fourth_order_on_uniform_grids():
    # oscillatory smooth integrand with a closed-form antiderivative; the
    # Euler-Maclaurin end correction lifts the trapezoid to order 4
    a = 0.3 + 7.0j

    def antiderivative(t):
        return np.exp(a * t) * ((1.0 + t**2) / a - 2.0 * t / a**2 + 2.0 / a**3)

    errs = []
    for npts in (129, 257, 513):
        x = np.linspace(0.0, 2.0, npts)
        ser = _cumtrapz(np.exp(a * x) * (1.0 + x**2), x)
        exact = antiderivative(x) - antiderivative(0.0)
        errs.append(np.max(np.abs(ser - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 4.0) <= 0.2), orders


@pytest.mark.parametrize("rad", [0.0, 0.5, 1.9, 2.1, 30.0, 300.0, 1000.0])
def test_cumtrapz_integrates_a_cubic_under_a_linear_phase_exactly(rad):
    # column 0 carries e^{+i w x} and column 1 e^{-i w x}, w = rad per
    # step; the Filon-Hermite rule is exact for a cubic amplitude at any
    # phase step (the moments switch from series to closed form at 2 rad)
    x = np.linspace(0.0, 2.0, 65)
    w = rad / (x[1] - x[0])
    p = np.polynomial.Polynomial([0.3 - 1.1j, 1.4 + 0.2j, -0.7 + 0.5j,
                                  0.9 - 0.4j])
    phase = np.stack([w * x, -w * x], axis=1)
    out = _cumtrapz(p(x)[:, None] * np.exp(1j * phase), x, phase)

    def antiderivative(z, t):
        if z == 0:
            return p.integ()(t)
        return np.exp(z * t) * sum((-1) ** k * p.deriv(k)(t) / z ** (k + 1)
                                   for k in range(4))

    for z, got in ((1j * w, out[:, 0]), (-1j * w, out[:, 1])):
        exact = antiderivative(z, x) - antiderivative(z, 0.0)
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("x", [
    np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(
        0.0, 2.0, 200)), [2.0]]),
    np.linspace(0.0, 2.0, 5),     # too short for the one-sided stencils
], ids=["nonuniform", "5-points"])
def test_cumtrapz_keeps_the_plain_trapezoid_elsewhere(x):
    y = np.exp(5.0j * x)[:, None, None] * np.arange(1.0, 5.0).reshape(2, 2)
    plain = np.zeros_like(y)
    plain[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x)[:, None, None],
                          axis=0)
    assert np.max(np.abs(_cumtrapz(y, x) - plain)) <= 1e-14
