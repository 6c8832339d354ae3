"""The folded-LLR kernels compute in place: the same bits, no touched inputs, few buffers.

quadrature.llr_integral hands its integrand a fresh LLR array that the
integrand may overwrite, and scales the integrand's result in place. These
tests pin that design three ways: every kernel equals its out-of-place
reference in tests/oracles.py bit for bit, no public entry point writes into
an array its caller passed, and one kernel call holds only a few node-sized
buffers at once (tracemalloc counts bytes, so the limits are deterministic).
"""

import tracemalloc
from contextlib import ExitStack
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    e0_integrand_reference,
    folded_loss_reference,
    llr_integral_reference,
    psi_excess_reference,
)
from satwiretap import capacity, leakage
from satwiretap.capacity import _mi_bits, capacity_curves, cs_gamma_sweep, mi_biawgn
from satwiretap.channel import WiretapChannelParams
from satwiretap.leakage import (
    CodeParams,
    _e0_h,
    _e0_nats,
    _e0_terms,
    _psi_excess,
    e0,
    leakage_bound,
    psi,
)
from satwiretap.quadrature import NODES, WEIGHTS, llr_integral

_R = st.floats(min_value=1e-3, max_value=16.0)
_S = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, max_side=5)


def _batch(elements):
    return hnp.arrays(float, _SHAPES, elements=elements)


def _node_llrs(r, t):
    """The LLR array llr_integral_reference hands its integrand at (r, t)."""
    seen = []

    def capture(llr):
        seen.append(llr.copy())
        return np.zeros_like(llr)

    llr_integral_reference(r, capture, t)
    return seen[0]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(r=_R, s=_batch(_S), derivatives=st.booleans())
def test_e0_integrand_matches_reference_bits(r, s, derivatives):
    t = 1.0 - s
    col = t[..., None]
    llr = _node_llrs(r, t)
    got = (_e0_terms if derivatives else _e0_h)(llr.copy(), col)
    _same_bits(got, e0_integrand_reference(llr, col, derivatives))


@settings(max_examples=60, deadline=None)
@given(r=_R, s=_batch(_S))
def test_psi_excess_matches_reference_bits(r, s):
    col = s[..., None]
    llr = _node_llrs(r, np.ones_like(s))
    _same_bits(_psi_excess(llr.copy(), col), psi_excess_reference(llr, col))


@settings(max_examples=60, deadline=None)
@given(r=_batch(_R))
def test_folded_loss_matches_reference_bits(r):
    llr = _node_llrs(r, 1.0)
    _same_bits(capacity._folded_loss(llr.copy()), folded_loss_reference(llr))


@settings(max_examples=60, deadline=None)
@given(r=_batch(_R), s=_batch(_S))
def test_llr_integral_matches_reference_bits(r, s):
    # r batches alone, t batches alone, and an r-by-t grid
    loss = folded_loss_reference
    _same_bits(llr_integral(r, loss), llr_integral_reference(r, loss))
    t = 1.0 - s
    e0_terms = partial(e0_integrand_reference, col=t[..., None], derivatives=True)
    r0 = float(r.flat[0])
    _same_bits(llr_integral(r0, e0_terms, t), llr_integral_reference(r0, e0_terms, t))
    flat_t = t.ravel()
    grid_terms = partial(e0_integrand_reference, col=flat_t[:, None], derivatives=False)
    _same_bits(
        llr_integral(r[..., None], grid_terms, flat_t),
        llr_integral_reference(r[..., None], grid_terms, flat_t),
    )


def _exponents(s, r, derivatives):
    """E0 (with E0' and E0'' if `derivatives`) and psi at Eve's a/sigma = r."""
    e0_parts = _e0_nats(s, r, derivatives)
    eve = WiretapChannelParams(gamma_g=r, gamma_n=1.0)
    return (*(e0_parts if derivatives else (e0_parts,)), psi(s, eve))


@settings(max_examples=60, deadline=None)
@given(r=_R, s=_batch(_S), derivatives=st.booleans())
def test_exponents_match_reference_bits(r, s, derivatives):
    got = _exponents(s, r, derivatives)
    with ExitStack() as stack:
        for name, reference in (
            ("llr_integral", llr_integral_reference),
            ("_e0_h", partial(e0_integrand_reference, derivatives=False)),
            ("_e0_terms", partial(e0_integrand_reference, derivatives=True)),
            ("_psi_excess", psi_excess_reference),
        ):
            stack.enter_context(mock.patch.object(leakage, name, reference))
        want = _exponents(s, r, derivatives)
    for got_part, want_part in zip(got, want, strict=True):
        _same_bits(got_part, want_part)


@settings(max_examples=60, deadline=None)
@given(r=_batch(_R))
def test_mutual_information_matches_reference_bits(r):
    ratios = r.ravel()
    got = _mi_bits(ratios)
    with mock.patch.object(capacity, "llr_integral", llr_integral_reference):
        with mock.patch.object(capacity, "_folded_loss", folded_loss_reference):
            want = _mi_bits(ratios)
    _same_bits(got, want)


def _unchanged(call, *arrays):
    before = [a.tobytes() for a in arrays]
    call(*arrays)
    assert [a.tobytes() for a in arrays] == before


def test_entry_points_leave_their_inputs_unchanged():
    rule = NODES.tobytes(), WEIGHTS.tobytes()
    eve = WiretapChannelParams(gamma_g=0.8, gamma_n=1.5)
    s = np.array([1e-6, 0.2, 0.5, 0.9, 1.0 - 1e-6])
    _unchanged(lambda v: e0(v, eve), s)
    _unchanged(lambda v: psi(v, eve), np.append(s, 1.0))
    _unchanged(lambda v: psi(v, eve), np.array(0.4))
    _unchanged(lambda v: leakage_bound(v, CodeParams(512, 64, 32), eve), np.array(0.3))
    _unchanged(mi_biawgn, np.array(0.7), np.array(1.3))
    _unchanged(lambda snr: capacity_curves(snr, eve), np.array([0.1, 1.0, 10.0]))
    _unchanged(cs_gamma_sweep, np.array([0.0, 0.5, 1.2]), np.array([0.5, 2.0]))

    def overwriting(llr):
        np.multiply(llr, -1.0, out=llr)
        return np.exp(llr, out=llr)

    r = np.array([[0.05], [1.0], [7.5]])
    t = np.array([0.25, 1.0])
    _unchanged(lambda r, t: llr_integral(r, overwriting, t), r, t)
    assert (rule[0], rule[1]) == (NODES.tobytes(), WEIGHTS.tobytes())
    assert not NODES.flags.writeable and not WEIGHTS.flags.writeable


def _peak_buffers(call, rows):
    """Traced peak bytes of call() above what it started with, in (rows x nodes) float buffers."""
    call()  # warm: first-call caches are not the kernel's working set
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - start) / (rows * NODES.size * 8)


def test_kernel_buffers_stay_few():
    # limits fixed before measuring, against 8.1, 15.1 and 7.1 buffers for the
    # out-of-place kernels (one fresh array per ufunc)
    scan = np.linspace(1e-6, 1.0 - 1e-6, 400)[:64]
    assert _peak_buffers(lambda: _e0_nats(scan, 0.8), 64) <= 4.0
    newton = np.linspace(0.05, 0.95, 60)
    assert _peak_buffers(lambda: _e0_nats(newton, 0.8, derivatives=True), 60) <= 10.0
    ratios = np.linspace(0.01, 5.0, 271)
    assert _peak_buffers(lambda: _mi_bits(ratios), 271) <= 6.0
