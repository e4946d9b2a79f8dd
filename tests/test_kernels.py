import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo import blind, kernels


def test_python_kernel_single_step_hand_oracle():
    w = np.array([1.0 + 0j, 0.0 + 0j])
    x = np.array([[2.0 + 0j, 1.0j]])
    norms = np.array([5.0])
    s_out = np.empty(1)
    kernels.track_segment(w, x, norms, 0, 1, 0.1, 0.0, 1.0, True, s_out)
    assert s_out[0] == 2.0
    assert np.allclose(w, [0.92 + 0j, -0.04j], atol=1e-15)


def test_python_kernel_decision_is_pre_update():
    # the logged decision must come from the weights before that update
    w = np.array([1.0 + 0j])
    x = np.array([[3.0 + 0j], [3.0 + 0j]])
    norms = np.array([9.0, 9.0])
    s_out = np.empty(2)
    kernels.track_segment(w, x, norms, 0, 2, 0.1, 0.0, 1.0, True, s_out)
    # first decision 3.0; then w -= (2*0.1/9) * sign(3) * (3-1) * 3
    assert s_out[0] == 3.0
    assert s_out[1] == pytest.approx((1.0 - 0.2 / 9.0 * 2.0 * 3.0) * 3.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    packet_len=st.integers(1, 9),
    start_laps=st.floats(0.0, 3.0),
    count_laps=st.floats(0.0, 3.0),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    normalized=st.booleans(),
    eps=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
    r=st.floats(0.25, 4.0),
    w_scale=st.sampled_from([0.0, 1.0]),
)
def test_kernel_matches_blind_step(
    seed, n, packet_len, start_laps, count_laps, mu, normalized, eps, r, w_scale
):
    # start and count are drawn in packet lengths so segments begin
    # anywhere and wrap past the end of the packet several times
    start = int(start_laps * packet_len)
    count = int(count_laps * packet_len)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(2.0 * n)  # ||x||^2 near 1 keeps unnormalized steps stable
    x = scale * (rng.standard_normal((packet_len, n)) + 1j * rng.standard_normal((packet_len, n)))
    # zero weights give y = 0 exactly, where sign(y) = 0 freezes the tracker
    w0 = w_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    norms = np.ascontiguousarray(np.einsum("ij,ij->i", x, x.conj()).real)

    w = w0.copy()
    s_out = np.empty(count)
    kernels.track_segment(w, x, norms, start, count, mu, eps, r, normalized, s_out)

    state = blind.BlindTrackerState(w=w0.copy(), mu=mu, epsilon=eps, R=r)
    expected = np.empty(count)
    for i in range(count):
        _, expected[i] = blind.blind_step(state, x[(start + i) % packet_len], normalized)

    np.testing.assert_allclose(s_out, expected, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(w, state.w, rtol=1e-10, atol=1e-13)
    if mu == 0.0:
        assert np.array_equal(w, w0)
