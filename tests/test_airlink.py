import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo import airlink, channel, topology


def fixed_setup(m=3, k=2, n=4, seed=0):
    rng = np.random.default_rng(seed)
    topo = topology.build_topology(m, k, 0.2, 0.9, rng)
    taps = channel.draw_channels(topo, channel.COST207_TU6, n, rng)
    return topo, channel.matrix_stack(taps, channel.COST207_TU6, 7), rng


def receive_frame(topo, h_stack, symbols):
    """Oracle for ``uplink_batch``: the noiseless received vector at every BS
    for one symbol time, x_j = sum_m H_mj A_mj t_m, one BS at a time.

    ``symbols`` has shape (M, K); returns shape (M, N), row j for BS j.
    """
    return np.stack(
        [
            np.einsum("mnk,mk->n", h_stack[:, j], topo.gains_at(j) * symbols)
            for j in range(topo.num_cells)
        ]
    )


def uplink_oracle(topo, h_stack, receiving_bs, symbols):
    """Oracle for ``uplink_batch`` without noise: the (num_symbols, N)
    contraction x[t, n] = sum_{m,k} H_mj[n, k] A_mj[k] t_mk[t] as an einsum."""
    scaled = topo.gains_at(receiving_bs)[:, :, None] * np.asarray(symbols, dtype=complex)
    return np.einsum("mnk,mkt->tn", h_stack[:, receiving_bs], scaled)


def complex_noise(shape, var, rng):
    """Oracle for the receive noise: a complex array drawn real parts first,
    then imaginary parts, scaled to total variance ``var`` per entry."""
    draw = np.empty(shape, dtype=complex)
    draw.real = rng.standard_normal(shape)
    draw.imag = rng.standard_normal(shape)
    draw *= np.sqrt(var / 2.0)
    return draw


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_symbols=st.integers(1, 40),
    var=st.floats(0.0, 4.0),
)
def test_noise_in_place_matches_complex_oracle(seed, num_symbols, var):
    # in-place noise must add the very numbers the complex-array oracle
    # adds and leave the generator in the same state
    topo, h_stack, _ = fixed_setup()
    symbols = airlink.make_transmit_symbol(
        np.random.default_rng(seed).choice([-1.0, 1.0], size=(3, 2, num_symbols)),
        0.3,
        np.random.default_rng(seed + 1),
    )
    # noise_var = 0 adds only zeros, so this is the noiseless signal
    clean = airlink.uplink_batch(topo, h_stack, 1, symbols, 0.0, np.random.default_rng(0))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = airlink.uplink_batch(topo, h_stack, 1, symbols, var, rng)
    assert np.array_equal(x, clean + complex_noise(clean.shape, var, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    est = airlink.estimate_channels_direct(topo, h_stack, 1, var, 4, rng)
    noiseless = airlink.estimate_channels_direct(
        topo, h_stack, 1, 0.0, 4, np.random.default_rng(0)
    )
    expected = noiseless + complex_noise(noiseless.shape, var / 4, oracle_rng)
    assert np.array_equal(est, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_make_transmit_symbol_structure():
    rng = np.random.default_rng(0)
    s = np.array([1.0, -1.0, 1.0])
    t = airlink.make_transmit_symbol(s, 0.5, rng)
    assert np.array_equal(t, s + 1j * t.imag)
    assert np.all(t.real == s)
    big = airlink.make_transmit_symbol(np.ones(200_000), 0.5, rng)
    assert abs(np.var(big.imag) - 0.25) < 0.01
    silent = airlink.make_transmit_symbol(s, 0.0, rng)
    assert np.all(silent.imag == 0.0)
    with pytest.raises(ValueError):
        airlink.make_transmit_symbol(s, -0.1, rng)


def test_dft_pilot_book_orthogonality():
    seq = airlink.dft_pilot_book(3, 8)
    assert seq.shape == (3, 8)
    gram = seq @ seq.conj().T / 8
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        airlink.dft_pilot_book(9, 8)


def test_receive_frame_hand_oracle():
    # M=2, K=1, N=2: x_j = sum_m alpha_mj * H_mj t_m, written out by hand
    gains = np.ones((2, 2, 1))
    gains[0, 1, 0] = 0.5
    gains[1, 0, 0] = 0.25
    topo = topology.explicit_topology(gains)
    h = np.zeros((2, 2, 2, 1), dtype=complex)
    h[0, 0, :, 0] = [1.0 + 0j, 2.0j]
    h[1, 0, :, 0] = [1.0 - 1.0j, 3.0 + 0j]
    h[0, 1, :, 0] = [2.0 + 0j, 1.0j]
    h[1, 1, :, 0] = [1.0 + 0j, 1.0 + 0j]
    t = np.array([[1.0 + 1.0j], [2.0 - 1.0j]])
    frames = receive_frame(topo, h, t)
    expected_0 = 1.0 * h[0, 0, :, 0] * t[0, 0] + 0.25 * h[1, 0, :, 0] * t[1, 0]
    expected_1 = 0.5 * h[0, 1, :, 0] * t[0, 0] + 1.0 * h[1, 1, :, 0] * t[1, 0]
    assert np.allclose(frames[0], expected_0, atol=1e-14)
    assert np.allclose(frames[1], expected_1, atol=1e-14)


def test_uplink_batch_matches_receive_frame():
    topo, stack, rng = fixed_setup()
    t = rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5))
    batch = airlink.uplink_batch(topo, stack, 1, t, 0.0, np.random.default_rng(1))
    assert batch.shape == (5, 4)
    for i in range(5):
        assert np.allclose(batch[i], receive_frame(topo, stack, t[:, :, i])[1], atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 7),
    k=st.integers(1, 4),
    n=st.integers(1, 16),
    num_symbols=st.integers(1, 50),
    data=st.data(),
    broadcast=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.integers(-6, 6),
)
def test_uplink_batch_matches_einsum_oracle(
    m, k, n, num_symbols, data, broadcast, seed, log_scale
):
    rng = np.random.default_rng(seed)
    topo = topology.build_topology(m, k, 0.0, 1.0, rng)
    scale = 10.0**log_scale
    shape = (m, m, n, k)
    h_stack = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if broadcast:
        # read-only zero-stride symbols, as send_pilots passes its pilot book
        book = rng.standard_normal((k, num_symbols)) + 1j * rng.standard_normal((k, num_symbols))
        t = np.broadcast_to(book[None], (m, k, num_symbols))
    else:
        shape = (m, k, num_symbols)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bs = data.draw(st.integers(0, m - 1))
    x = airlink.uplink_batch(topo, h_stack, bs, t, 0.0, np.random.default_rng(0))
    expected = uplink_oracle(topo, h_stack, bs, t)
    assert x.shape == (num_symbols, n)
    # rounding of a sum of M*K products scales with the sum of their magnitudes
    magnitude = uplink_oracle(topo, np.abs(h_stack), bs, np.abs(t)).real
    assert np.all(np.abs(x - expected) <= 1e-12 * magnitude)


def test_noise_variance_scaling():
    topo, stack, _ = fixed_setup(n=2)
    t = np.zeros((3, 2, 50_000), dtype=complex)
    batch = airlink.uplink_batch(topo, stack, 0, t, 0.8, np.random.default_rng(2))
    assert abs(np.mean(np.abs(batch) ** 2) - 0.8) < 0.02
    # per complex entry: half the variance in each real dimension
    assert abs(np.var(batch.real) - 0.4) < 0.02


def test_direct_estimate_noiseless_decomposition():
    # own-cell channel plus gain-weighted copies of every cross channel
    topo, stack, _ = fixed_setup()
    est = airlink.estimate_channels_direct(
        topo, stack, 0, 0.0, 8, np.random.default_rng(3)
    )
    expected = stack[0, 0].copy()
    for m in (1, 2):
        expected = expected + topo.cross_gain[m, 0, :][None, :] * stack[m, 0]
    assert np.allclose(est, expected, atol=1e-12)


def test_direct_estimate_noise_level():
    topo, stack, _ = fixed_setup(m=2, k=1, n=2)
    clean = airlink.estimate_channels_direct(
        topo, stack, 0, 0.0, 4, np.random.default_rng(4)
    )
    trials = 4000
    errs = np.empty((trials, 2, 1), dtype=complex)
    rng = np.random.default_rng(5)
    for i in range(trials):
        noisy = airlink.estimate_channels_direct(topo, stack, 0, 0.6, 4, rng)
        errs[i] = noisy - clean
    assert abs(np.var(errs) - 0.6 / 4) < 0.01


def test_correlate_noise_level_matches_direct_model():
    topo, stack, _ = fixed_setup(m=2, k=1, n=2)
    tau = 4
    book = airlink.dft_pilot_book(1, tau)
    clean = airlink.estimate_channels_direct(
        topo, stack, 0, 0.0, tau, np.random.default_rng(7)
    )
    rng = np.random.default_rng(8)
    errs = []
    for _ in range(4000):
        frames = airlink.send_pilots(topo, stack, 0, book, 0.6, rng)
        est = airlink.estimate_channels_correlate(book, frames)
        errs.append(est - clean)
    assert abs(np.var(np.asarray(errs)) - 0.6 / 4) < 0.01

