"""The cumulative quadrature and its running maxima do not depend on how
the grid is cut into blocks."""

import tracemalloc

import numpy as np
import pytest

import adiakit as ak
from adiakit import linalg, quadrature
from adiakit.diagnostics import _kernel_summary
from adiakit.models import random_smooth_hamiltonian
from adiakit.quadrature import _cumtrapz


@pytest.mark.parametrize("npts", [4098, 4099])
def test_cumtrapz_on_a_grid_whose_last_block_is_short(npts, monkeypatch):
    # the default blocks of 4,096 intervals leave one or two intervals for
    # the last block, whose one-sided stencils read rows of the block before
    x = np.linspace(0.0, 2.0, npts)
    w = 300.0
    amp = (1.0 + x**2) * np.exp(0.4j * x)
    phase = np.stack([w * x, -w * x], axis=1)
    y = np.stack([amp, amp.conj()], axis=1) * np.exp(1j * phase)
    blocked = [_cumtrapz(amp, x), _cumtrapz(y, x, phase)]
    monkeypatch.setattr(linalg, "_BLOCK", npts)
    whole = [_cumtrapz(amp, x), _cumtrapz(y, x, phase)]
    for got, want in zip(blocked, whole):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_kernel_summary_does_not_depend_on_the_block_size(monkeypatch):
    # 1,024 intervals in blocks of 7 end on a block of two; every block
    # searches its intervals against the maxima found so far
    path = random_smooth_hamiltonian(3, np.random.default_rng(5),
                                     base_gap=1.0, wobble=0.3)
    frame = ak.eigenframe(path, 60.0, np.linspace(0.0, 2 * np.pi, 1025))
    whole = _kernel_summary(frame)
    monkeypatch.setattr(linalg, "_BLOCK", 7)
    blocked = _kernel_summary(frame)
    K, peaks, norms, norm_max = whole
    assert np.max(np.abs(blocked[0] - K)) <= 1e-14 * np.max(peaks)
    assert np.max(np.abs(blocked[1] - peaks)) <= 1e-14 * np.max(peaks)
    assert np.max(np.abs(blocked[2] - norms)) <= 1e-14 * norm_max
    assert abs(blocked[3] - norm_max) <= 1e-14 * norm_max
    # the public (m, n) reader finds the peak of the pair (2, 0), column 1
    # of 1,0 2,0 2,1, from either side
    for m, n in ((0, 2), (2, 0)):
        assert ak.resonance_max_abs(frame, m, n) == pytest.approx(
            peaks[1], rel=1e-14)


def test_maxima_pass_holds_one_block_at_a_time(monkeypatch):
    # a block's Filon-Hermite data and its search temporaries are released
    # before the next block is built: 16,384 intervals of 6 columns in
    # blocks of 1,024 peak at 3.19 MB traced (the 1.57 MB integral
    # included), and at 4.15 MB when the previous block stays alive while
    # the next is built
    monkeypatch.setattr(linalg, "_BLOCK", 1024)
    x = np.linspace(0.0, 2.0, 16385)
    phase = 40.0 * np.arange(1, 7) * x[:, None]
    y = (1.0 + x[:, None] ** 2) * np.exp(
        0.4j * np.arange(6) * x[:, None]) * np.exp(1j * phase)
    tracemalloc.start()
    try:
        quadrature._cumtrapz_with_maxima(y, x, phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6
