import numpy as np
import pytest

from cmtmimo import blind


def test_binary_alphabet_moments():
    alpha = blind.PamAlphabet.binary()
    assert np.array_equal(alpha.levels, [-1.0, 1.0])
    assert alpha.moment(1) == 1.0
    assert alpha.moment(2) == 1.0
    assert alpha.second_moment == 1.0


def test_uniform_alphabet_and_draw():
    alpha = blind.PamAlphabet.uniform([-3.0, -1.0, 1.0, 3.0])
    assert alpha.second_moment == pytest.approx(5.0)
    draws = alpha.draw(np.random.default_rng(0), 100_000)
    values, counts = np.unique(draws, return_counts=True)
    assert np.array_equal(values, [-3.0, -1.0, 1.0, 3.0])
    assert np.all(np.abs(counts / draws.size - 0.25) < 0.01)
    assert abs(np.mean(draws**2) - 5.0) < 0.1


def test_alphabet_validation():
    with pytest.raises(ValueError):
        blind.PamAlphabet(levels=np.array([]), probabilities=np.array([]))
    with pytest.raises(ValueError):
        blind.PamAlphabet(
            levels=np.array([-1.0, 1.0]), probabilities=np.array([1.0])
        )
    with pytest.raises(ValueError):
        blind.PamAlphabet(
            levels=np.array([-1.0, 1.0]), probabilities=np.array([0.7, 0.7])
        )
    with pytest.raises(ValueError):
        blind.PamAlphabet(levels=np.array([0.0]), probabilities=np.array([1.0]))


def test_dispersion_constant_exact_values():
    binary = blind.PamAlphabet.binary()
    assert blind.dispersion_constant(binary, 1) == 1.0
    assert blind.dispersion_constant(binary, 2) == 1.0
    pam4 = blind.PamAlphabet.uniform([-3.0, -1.0, 1.0, 3.0])
    # E|s|^2 / E|s| = 5 / 2
    assert blind.dispersion_constant(pam4, 1) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        blind.dispersion_constant(binary, 0)


def test_init_weights_gain_identity():
    rng = np.random.default_rng(1)
    h_hat = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    state = blind.init_weights(h_hat)
    assert np.real(np.vdot(state.w, h_hat)) == pytest.approx(1.0, abs=1e-12)
    assert state.iteration == 0
    assert state.mu == blind.DEFAULT_MU
    assert state.epsilon == pytest.approx(1e-12 * 32)
    assert state.R == 1.0


def test_blind_step_hand_oracle_normalized():
    # w = (1, 0), x = (2, i): s_hat = 2, ||x||^2 = 5,
    # step = (2 * 0.1 / 5) * sign(2) * (2 - 1) * x = 0.04 * x
    state = blind.BlindTrackerState(
        w=np.array([1.0 + 0j, 0.0 + 0j]), mu=0.1, epsilon=0.0, R=1.0
    )
    state, s_hat = blind.blind_step(state, np.array([2.0 + 0j, 1.0j]))
    assert s_hat == 2.0
    assert np.allclose(state.w, [0.92 + 0j, -0.04j], atol=1e-15)
    assert state.iteration == 1


def test_blind_step_hand_oracle_unnormalized():
    # same input without normalization: step = 2 * 0.1 * 1 * x = 0.2 * x
    state = blind.BlindTrackerState(
        w=np.array([1.0 + 0j, 0.0 + 0j]), mu=0.1, epsilon=0.0, R=1.0
    )
    state, s_hat = blind.blind_step(state, np.array([2.0 + 0j, 1.0j]), normalized=False)
    assert s_hat == 2.0
    assert np.allclose(state.w, [0.6 + 0j, -0.2j], atol=1e-15)


def test_blind_step_zero_output_is_a_fixed_point():
    # sign(0) = 0: no update when the output lands exactly on zero
    state = blind.BlindTrackerState(
        w=np.array([0.0 + 0j, 1.0 + 0j]), mu=0.1, epsilon=0.0, R=1.0
    )
    w_before = state.w.copy()
    state, s_hat = blind.blind_step(state, np.array([1.0 + 0j, 1.0j]))
    assert s_hat == 0.0
    assert np.array_equal(state.w, w_before)


def test_blind_step_on_circle_no_update():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = 1.0 * w / np.real(np.vdot(w, w))
    state = blind.BlindTrackerState(w=w.copy(), mu=0.2, epsilon=0.0, R=1.0)
    state, s_hat = blind.blind_step(state, x)
    assert abs(s_hat - 1.0) < 1e-14
    assert np.max(np.abs(state.w - w)) < 1e-14


def test_tracker_state_validation():
    w = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        blind.BlindTrackerState(w=w, mu=-0.1, epsilon=0.0, R=1.0)
    with pytest.raises(ValueError):
        blind.BlindTrackerState(w=w, mu=0.1, epsilon=-1.0, R=1.0)
    with pytest.raises(ValueError):
        blind.BlindTrackerState(w=w, mu=0.1, epsilon=0.0, R=0.0)
    with pytest.raises(ValueError):
        blind.BlindTrackerState(w=w, mu=0.1, epsilon=0.0, R=1.0, p=0)


def test_run_packet_probe_every_iteration():
    rng = np.random.default_rng(3)
    packet = rng.standard_normal((25, 4)) + 1j * rng.standard_normal((25, 4))
    state = blind.init_weights(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    trajectory, state = blind.run_packet(
        state, packet, passes=1, probe=lambda w: float(np.linalg.norm(w)), probe_at=1
    )
    assert len(trajectory) == 25
    assert [it for it, _ in trajectory] == list(range(1, 26))
    assert state.iteration == 25


def test_run_packet_cadence_and_final_probe():
    rng = np.random.default_rng(4)
    packet = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    state = blind.init_weights(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    trajectory, _ = blind.run_packet(
        state, packet, passes=3, probe=lambda w: 0.0, probe_at=7
    )
    assert [it for it, _ in trajectory] == [7, 14, 21, 28, 30]


def test_run_packet_explicit_probe_iterations_with_zero():
    rng = np.random.default_rng(5)
    packet = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = blind.init_weights(h)
    w0 = state.w.copy()
    seen = []

    def probe(w):
        seen.append(w.copy())
        return 0.0

    trajectory, _ = blind.run_packet(
        state, packet, passes=1, probe=probe, probe_at=[0, 5, 10]
    )
    assert [it for it, _ in trajectory] == [0, 5, 10]
    assert np.array_equal(seen[0], w0)  # probed before any update
    with pytest.raises(ValueError):
        blind.run_packet(state, packet, passes=1, probe=probe, probe_at=[4, 99])


def test_run_packet_frozen_tracker_with_zero_mu():
    rng = np.random.default_rng(6)
    packet = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = blind.init_weights(h, mu=0.0)
    w0 = state.w.copy()
    trajectory, state = blind.run_packet(
        state, packet, passes=2, probe=lambda w: float(np.linalg.norm(w)), probe_at=10
    )
    assert np.array_equal(state.w, w0)
    assert state.iteration == 40
    values = [v for _, v in trajectory]
    assert all(v == values[0] for v in values)


def test_run_packet_state_continuity_across_calls():
    rng = np.random.default_rng(7)
    packet = rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    one = blind.init_weights(h)
    blind.run_packet(one, packet, passes=2)
    two = blind.init_weights(h)
    blind.run_packet(two, packet, passes=1)
    blind.run_packet(two, packet, passes=1)
    assert one.iteration == two.iteration == 60
    assert np.allclose(one.w, two.w, rtol=1e-12, atol=0.0)


def test_run_packet_decisions_match_reference_steps():
    rng = np.random.default_rng(8)
    packet = rng.standard_normal((15, 4)) + 1j * rng.standard_normal((15, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    fast = blind.init_weights(h, mu=0.04)
    _, fast, decisions = blind.run_packet(fast, packet, passes=3, collect_decisions=True)

    slow = blind.init_weights(h, mu=0.04)
    expected = []
    for i in range(45):
        slow, s_hat = blind.blind_step(slow, packet[i % 15])
        expected.append(s_hat)
    assert np.allclose(decisions, expected, rtol=1e-10, atol=1e-14)
    assert np.allclose(fast.w, slow.w, rtol=1e-10, atol=1e-14)


def test_run_packet_input_validation():
    state = blind.init_weights(np.ones(4, dtype=complex))
    good = np.ones((5, 4), dtype=complex)
    with pytest.raises(ValueError):
        blind.run_packet(state, np.ones((5, 3), dtype=complex), passes=1)
    with pytest.raises(ValueError):
        blind.run_packet(state, good, passes=0)
    bad = good.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        blind.run_packet(state, bad, passes=1)


def test_descent_on_stationary_mixture():
    # tracking from a mismatched start must lower the dispersion cost
    rng = np.random.default_rng(9)
    n = 16
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    s = rng.choice([-1.0, 1.0], size=400)
    x = np.outer(s + 1j * rng.standard_normal(400), h)
    x += 0.05 * (rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n)))
    h_hat = h + 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    state = blind.init_weights(h_hat, mu=0.05)

    def dispersion_cost():
        # sample Godard cost at p = 1: mean of (|y| - R)^2
        y = np.real(x @ state.w.conj())
        return np.mean((np.abs(y) - state.R) ** 2)

    before = dispersion_cost()
    blind.run_packet(state, x, passes=10)
    after = dispersion_cost()
    assert after < before


def test_run_packet_raises_on_divergence():
    # an unnormalized step this large overflows the weights; the run must
    # stop with the iteration reached instead of probing non-finite weights
    rng = np.random.default_rng(10)
    n = 16
    packet = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
    state = blind.init_weights(packet[0], mu=3.0)
    probed = []
    with pytest.raises(FloatingPointError, match=r"iteration \d+"):
        blind.run_packet(
            state, packet, passes=10,
            probe=lambda w: probed.append(w.copy()) or 0.0, probe_at=50,
            normalized=False,
        )
    assert all(np.all(np.isfinite(w)) for w in probed)
    assert not np.all(np.isfinite(state.w))
