import numpy as np
import pytest

from cmtmimo import channel, topology


def small_topo(m=2, k=1, seed=0):
    return topology.build_topology(m, k, 0.2, 0.8, np.random.default_rng(seed))


def test_pdp_from_db_normalizes_to_unit_energy():
    pdp = channel.PowerDelayProfile.from_db([0.0, 1.0, 2.0], [0.0, -3.0, -10.0])
    lin = 10.0 ** (np.array([0.0, -3.0, -10.0]) / 10.0)
    assert np.allclose(pdp.tap_powers, lin / lin.sum(), atol=1e-15)
    assert np.allclose(pdp.tap_delays, np.array([0.0, 1.0, 2.0]) * 1e-6)
    assert abs(pdp.tap_powers.sum() - 1.0) < 1e-12


def test_cost207_tu6_profile_values():
    pdp = channel.COST207_TU6
    assert np.allclose(pdp.tap_delays, np.array([0.0, 0.2, 0.5, 1.6, 2.3, 5.0]) * 1e-6)
    lin = 10.0 ** (np.array([-3.0, 0.0, -2.0, -6.0, -8.0, -10.0]) / 10.0)
    assert np.allclose(pdp.tap_powers, lin / lin.sum(), atol=1e-15)


def test_pdp_validation():
    with pytest.raises(ValueError):
        channel.PowerDelayProfile(
            tap_delays=np.array([0.0, 1e-6]), tap_powers=np.array([0.5, 0.6])
        )
    with pytest.raises(ValueError):
        channel.PowerDelayProfile(
            tap_delays=np.array([0.0, -1e-6]), tap_powers=np.array([0.5, 0.5])
        )
    with pytest.raises(ValueError):
        channel.PowerDelayProfile(
            tap_delays=np.array([0.0]), tap_powers=np.array([0.5, 0.5])
        )


def test_draw_channels_shapes_and_determinism():
    topo = small_topo(m=3, k=2)
    real_a = channel.draw_channels(
        topo, channel.COST207_TU6, 4, np.random.default_rng(1)
    )
    real_b = channel.draw_channels(
        topo, channel.COST207_TU6, 4, np.random.default_rng(1)
    )
    assert real_a.taps.shape == (3, 3, 2, 4, 6)
    assert np.array_equal(real_a.taps, real_b.taps)
    assert real_a.num_antennas == 4


def test_draw_channels_tap_statistics():
    topo = small_topo(m=1, k=1)
    pdp = channel.COST207_TU6
    real = channel.draw_channels(topo, pdp, 20000, np.random.default_rng(2))
    taps = real.taps[0, 0, 0]
    per_tap_power = np.mean(np.abs(taps) ** 2, axis=0)
    assert np.allclose(per_tap_power, pdp.tap_powers, rtol=0.05)
    # circular symmetry: real/imag parts carry half the power each
    assert np.allclose(np.mean(taps.real**2, axis=0), pdp.tap_powers / 2, rtol=0.07)
    assert abs(np.mean(taps)) < 0.01


def test_freq_response_single_tap_is_flat():
    taps = np.array([0.7 - 0.2j])
    for k in (0, 3, 7):
        resp = channel.freq_response(taps, np.array([0.0]), k, 8, 5e6)
        assert resp == taps[0]


def test_freq_response_double_sum_oracle():
    # two taps, hand-expanded H(f_k) = g0 e^{-2 pi i f_k tau0} + g1 e^{-2 pi i f_k tau1}
    g = np.array([0.5 + 0.1j, -0.3 + 0.4j])
    tau = np.array([0.0, 1.7e-6])
    bandwidth, num_sub, k = 5e6, 64, 9
    f_k = k * bandwidth / num_sub
    expected = g[0] * np.exp(-2j * np.pi * f_k * tau[0]) + g[1] * np.exp(
        -2j * np.pi * f_k * tau[1]
    )
    got = channel.freq_response(g, tau, k, num_sub, bandwidth)
    assert abs(got - expected) < 1e-15


def test_freq_response_parseval_at_sample_aligned_delays():
    # delays on the sampling grid make subcarrier responses a unitary DFT
    bw, num_sub = 5e6, 32
    rng = np.random.default_rng(3)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    tau = np.array([0.0, 1.0, 2.0, 5.0]) / bw
    resp = np.array(
        [channel.freq_response(g, tau, k, num_sub, bw) for k in range(num_sub)]
    )
    assert abs(np.mean(np.abs(resp) ** 2) - np.sum(np.abs(g) ** 2)) < 1e-12


def test_channel_matrix_and_stack_consistency():
    topo = small_topo(m=3, k=2)
    real = channel.draw_channels(topo, channel.COST207_TU6, 4, np.random.default_rng(4))
    stack = channel.matrix_stack(real, 10)
    assert stack.shape == (3, 3, 4, 2)
    for m in range(3):
        for j in range(3):
            for l in range(2):
                direct = channel.freq_response(
                    real.taps[m, j, l], real.pdp.tap_delays, 10,
                    real.num_subcarriers, real.sample_rate,
                )
                assert np.allclose(stack[m, j][:, l], direct, atol=1e-15)


def test_matrix_stack_rejects_bad_subcarrier():
    topo = small_topo()
    real = channel.draw_channels(topo, channel.COST207_TU6, 2, np.random.default_rng(5))
    with pytest.raises(ValueError):
        channel.matrix_stack(real, real.num_subcarriers)
