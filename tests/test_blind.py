import numpy as np
import pytest

from cmtmimo import blind, combine


def start(h, mu=0.05):
    """Tracker state at the matched filter on ``h``: the experiments' start."""
    return blind.BlindTrackerState(w=combine.mf_weights(h), mu=mu, epsilon=1e-12 * h.size)


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


def test_run_packet_probe_every_iteration():
    # a snapshot after every update equals stepping one update per call
    rng = np.random.default_rng(3)
    packet = rng.standard_normal((25, 4)) + 1j * rng.standard_normal((25, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = start(h)
    weights, decisions = blind.run_packet(state, packet, passes=1, snapshots=range(1, 26))
    assert weights.shape == (25, 4)
    assert decisions is None
    assert state.iteration == 25
    assert np.array_equal(weights[-1], state.w)
    step = start(h)
    for i in range(25):
        blind.run_packet(step, packet[i : i + 1], passes=1)
        assert np.array_equal(weights[i], step.w)


def test_run_packet_cadence_and_final_probe():
    # snapshots are copies at their iterations; the run still ends at passes * P
    rng = np.random.default_rng(4)
    packet = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = start(h)
    weights, _ = blind.run_packet(state, packet, passes=3, snapshots=[7, 14, 21, 28])
    assert weights.shape == (4, 4)
    assert state.iteration == 30
    for stop, w in zip([7, 14, 21, 28], weights):
        ref = start(h)
        full, rest = divmod(stop, 10)
        if full:
            blind.run_packet(ref, packet, passes=full)
        if rest:
            blind.run_packet(ref, packet[:rest], passes=1)
        np.testing.assert_allclose(w, ref.w, rtol=1e-12, atol=0.0)
    assert not np.array_equal(weights[-1], state.w)


def test_run_packet_explicit_probe_iterations_with_zero():
    rng = np.random.default_rng(5)
    packet = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = start(h)
    w0 = state.w.copy()
    weights, _ = blind.run_packet(state, packet, passes=1, snapshots=[0, 5, 10])
    assert np.array_equal(weights[0], w0)  # taken before any update
    assert np.array_equal(weights[2], state.w)
    for bad in ([4, 99], [-1, 4], [5, 5], [6, 2]):
        with pytest.raises(ValueError):
            blind.run_packet(state, packet, passes=1, snapshots=bad)


def test_run_packet_frozen_tracker_with_zero_mu():
    rng = np.random.default_rng(6)
    packet = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = start(h, mu=0.0)
    w0 = state.w.copy()
    weights, _ = blind.run_packet(state, packet, passes=2, snapshots=[10, 20, 30, 40])
    assert np.array_equal(state.w, w0)
    assert state.iteration == 40
    assert all(np.array_equal(w, w0) for w in weights)


def test_run_packet_batch_rows_match_single_trials():
    # a (T, N) batch tracks each row exactly as a run of that trial alone
    rng = np.random.default_rng(11)
    trials, n = 3, 6
    packets = rng.standard_normal((12, trials, n)) + 1j * rng.standard_normal((12, trials, n))
    hs = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    batch = blind.BlindTrackerState(
        w=np.stack([combine.mf_weights(h) for h in hs]), mu=0.05, epsilon=1e-12 * n
    )
    weights, decisions = blind.run_packet(
        batch, packets, passes=2, snapshots=[0, 9, 24], collect_decisions=True
    )
    assert weights.shape == (3, trials, n)
    assert decisions.shape == (24, trials)
    for t in range(trials):
        one = start(hs[t])
        w_one, d_one = blind.run_packet(
            one, packets[:, t], passes=2, snapshots=[0, 9, 24], collect_decisions=True
        )
        assert np.array_equal(weights[:, t], w_one)
        assert np.array_equal(decisions[:, t], d_one)
        assert np.array_equal(batch.w[t], one.w)


def test_run_packet_state_continuity_across_calls():
    rng = np.random.default_rng(7)
    packet = rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    one = start(h)
    blind.run_packet(one, packet, passes=2)
    two = start(h)
    blind.run_packet(two, packet, passes=1)
    blind.run_packet(two, packet, passes=1)
    assert one.iteration == two.iteration == 60
    assert np.allclose(one.w, two.w, rtol=1e-12, atol=0.0)


def test_run_packet_decisions_match_reference_steps():
    rng = np.random.default_rng(8)
    packet = rng.standard_normal((15, 4)) + 1j * rng.standard_normal((15, 4))
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    fast = start(h, mu=0.04)
    _, decisions = blind.run_packet(fast, packet, passes=3, collect_decisions=True)
    assert decisions.shape == (45,)

    slow = start(h, mu=0.04)
    expected = []
    for i in range(45):
        slow, s_hat = blind.blind_step(slow, packet[i % 15])
        expected.append(s_hat)
    assert np.allclose(decisions, expected, rtol=1e-10, atol=1e-14)
    assert np.allclose(fast.w, slow.w, rtol=1e-10, atol=1e-14)


def test_run_packet_input_validation():
    state = start(np.ones(4, dtype=complex))
    good = np.ones((5, 4), dtype=complex)
    with pytest.raises(ValueError):
        blind.run_packet(state, np.ones((5, 3), dtype=complex), passes=1)
    with pytest.raises(ValueError):
        blind.run_packet(state, good, passes=0)
    bad = good.copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="^packet of trial 0 contains non-finite entries$"):
        blind.run_packet(state, bad, passes=1)
    # a batch's packet check names the first bad trial, counted from first_trial
    batch = np.ones((5, 3, 4), dtype=complex)
    batch[4, 2, 0] = np.inf
    batch[1, 1, 3] = np.nan
    trio = blind.BlindTrackerState(w=np.ones((3, 4), dtype=complex), mu=0.05, epsilon=0.0)
    with pytest.raises(ValueError, match="^packet of trial 8 contains non-finite entries$"):
        blind.run_packet(trio, batch, passes=1, first_trial=7)
    assert trio.iteration == 0


def test_descent_on_stationary_mixture():
    # tracking from a mismatched start must lower the dispersion cost
    rng = np.random.default_rng(9)
    n = 16
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    s = rng.choice([-1.0, 1.0], size=400)
    x = np.outer(s + 1j * rng.standard_normal(400), h)
    x += 0.05 * (rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n)))
    h_hat = h + 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    state = start(h_hat, mu=0.05)

    def dispersion_cost():
        # sample Godard cost at p = 1: mean of (|y| - R)^2
        y = np.real(x @ state.w.conj())
        return np.mean((np.abs(y) - state.R) ** 2)

    before = dispersion_cost()
    blind.run_packet(state, x, passes=10)
    after = dispersion_cost()
    assert after < before


def test_run_packet_raises_on_divergence():
    # an unnormalized step this large overflows the weights of one trial;
    # the run must stop naming that trial and the iteration reached
    rng = np.random.default_rng(10)
    n = 16
    packet = rng.standard_normal((50, 3, n)) + 1j * rng.standard_normal((50, 3, n))
    packet[:, 0] *= 1e-3
    packet[:, 2] *= 1e-3
    w = np.stack([combine.mf_weights(packet[0, t]) for t in range(3)])
    state = blind.BlindTrackerState(w=w, mu=3.0, epsilon=0.0)
    with pytest.raises(FloatingPointError, match=r"trial 5 are non-finite at iteration \d+ "):
        blind.run_packet(
            state, packet, passes=10, snapshots=[50, 100, 150],
            normalized=False, first_trial=4,
        )
    assert np.all(np.isfinite(state.w[[0, 2]]))
    assert not np.all(np.isfinite(state.w[1]))
