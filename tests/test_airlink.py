import numpy as np
import pytest

from cmtmimo import airlink, channel, topology


def fixed_setup(m=3, k=2, n=4, seed=0):
    rng = np.random.default_rng(seed)
    topo = topology.build_topology(m, k, 0.2, 0.9, rng)
    real = channel.draw_channels(topo, channel.COST207_TU6, n, rng)
    return topo, channel.matrix_stack(real, 7), rng


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
    book = airlink.dft_pilot_book(3, 8)
    seq = book.sequences
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
    assert np.allclose(est.H_hat, expected, atol=1e-12)
    assert est.mode == "direct"
    assert est.est_noise_var == 0.0


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
        errs[i] = noisy.H_hat - clean.H_hat
        assert noisy.est_noise_var == pytest.approx(0.6 / 4)
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
        est = airlink.estimate_channels_correlate(book, frames, 0.6)
        errs.append(est.H_hat - clean.H_hat)
        assert est.est_noise_var == pytest.approx(0.6 / 4)
    assert abs(np.var(np.asarray(errs)) - 0.6 / 4) < 0.01


def test_pilot_book_validation():
    # all-ones rows are not mutually orthogonal
    with pytest.raises(ValueError):
        airlink.PilotBook(sequences=np.ones((2, 4), dtype=complex), pilot_len=4)
    with pytest.raises(ValueError):
        airlink.PilotBook(
            sequences=airlink.dft_pilot_book(2, 4).sequences, pilot_len=8
        )
