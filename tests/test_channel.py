import numpy as np
import pytest

from cmtmimo import channel, topology


def freq_response(taps, tap_delays, subcarrier_index, num_subcarriers, bandwidth):
    """Oracle for ``matrix_stack``, one link at a time.

    H(f_k) = sum_t g_t exp(-2i pi f_k tau_t) at f_k = k * bandwidth / L;
    ``taps`` may carry leading axes, the tap axis is the last one.
    """
    f_k = subcarrier_index * bandwidth / num_subcarriers
    return np.asarray(taps) @ np.exp(-2j * np.pi * f_k * np.asarray(tap_delays))


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
    taps_a = channel.draw_channels(topo, channel.COST207_TU6, 4, np.random.default_rng(1))
    taps_b = channel.draw_channels(topo, channel.COST207_TU6, 4, np.random.default_rng(1))
    assert taps_a.shape == (3, 3, 2, 4, 6)
    assert np.array_equal(taps_a, taps_b)


def test_freq_response_single_tap_is_flat():
    taps = np.array([0.7 - 0.2j])
    for k in (0, 3, 7):
        resp = freq_response(taps, np.array([0.0]), k, 8, 5e6)
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
    got = freq_response(g, tau, k, num_sub, bandwidth)
    assert abs(got - expected) < 1e-15


def test_channel_matrix_and_stack_consistency():
    topo = small_topo(m=3, k=2)
    pdp = channel.COST207_TU6
    taps = channel.draw_channels(topo, pdp, 4, np.random.default_rng(4))
    # the default 5 MHz over 256 subcarriers, then another grid
    for grid in ((), (3e6, 64)):
        bandwidth, num_sub = grid or (5e6, 256)
        stack = channel.matrix_stack(taps, pdp, 10, *grid)
        assert stack.shape == (3, 3, 4, 2)
        for m in range(3):
            for j in range(3):
                for l in range(2):
                    direct = freq_response(taps[m, j, l], pdp.tap_delays, 10, num_sub, bandwidth)
                    assert np.allclose(stack[m, j][:, l], direct, atol=1e-15)


def test_matrix_stack_rejects_bad_subcarrier_or_sample_rate():
    topo = small_topo()
    pdp = channel.COST207_TU6
    taps = channel.draw_channels(topo, pdp, 2, np.random.default_rng(5))
    for index in (-1, 64):
        with pytest.raises(ValueError, match=f"subcarrier_index {index} outside"):
            channel.matrix_stack(taps, pdp, index, 5e6, 64)
    for rate in (0.0, -5e6, np.nan):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            channel.matrix_stack(taps, pdp, 3, rate, 64)
