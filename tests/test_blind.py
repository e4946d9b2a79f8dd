import numpy as np
import pytest

from cmtmimo import blind, combine


def start(h):
    """A batch of one trial at the matched filter on ``h``: the experiments' start."""
    return combine.mf_weights(h)[None]


def track(w, packet, passes, mu=0.05, **kwargs):
    """``run_packet`` at the experiments' epsilon and the binary R = 1."""
    return blind.run_packet(w, packet, passes, mu, 1e-12 * w.shape[-1], 1.0, **kwargs)


def final(w, packet, passes, mu=0.05):
    """The weights after ``passes`` passes over ``packet``."""
    return track(w, packet, passes, mu, snapshots=[passes * len(packet)])[0][-1]


def one_trial(rng, packet_len, n):
    """A (P, 1, N) packet and a channel to start from, for a batch of one."""
    packet = rng.standard_normal((packet_len, 1, n)) + 1j * rng.standard_normal((packet_len, 1, n))
    return packet, rng.standard_normal(n) + 1j * rng.standard_normal(n)


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
    w = np.array([1.0 + 0j, 0.0 + 0j])
    w_new, s_hat = blind.blind_step(w, np.array([2.0 + 0j, 1.0j]), 0.1, 0.0, 1.0)
    assert s_hat == 2.0
    assert np.allclose(w_new, [0.92 + 0j, -0.04j], atol=1e-15)
    assert np.array_equal(w, [1.0, 0.0])  # the update is a copy


def test_blind_step_hand_oracle_unnormalized():
    # same input without normalization: step = 2 * 0.1 * 1 * x = 0.2 * x
    w = np.array([1.0 + 0j, 0.0 + 0j])
    w_new, s_hat = blind.blind_step(w, np.array([2.0 + 0j, 1.0j]), 0.1, 0.0, 1.0, False)
    assert s_hat == 2.0
    assert np.allclose(w_new, [0.6 + 0j, -0.2j], atol=1e-15)


def test_blind_step_zero_output_is_a_fixed_point():
    # sign(0) = 0: no update when the output lands exactly on zero
    w = np.array([0.0 + 0j, 1.0 + 0j])
    w_new, s_hat = blind.blind_step(w, np.array([1.0 + 0j, 1.0j]), 0.1, 0.0, 1.0)
    assert s_hat == 0.0
    assert np.array_equal(w_new, w)


def test_blind_step_on_circle_no_update():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = 1.0 * w / np.real(np.vdot(w, w))
    w_new, s_hat = blind.blind_step(w, x, 0.2, 0.0, 1.0)
    assert abs(s_hat - 1.0) < 1e-14
    assert np.max(np.abs(w_new - w)) < 1e-14


def test_run_packet_rejects_bad_weights_and_constants():
    w = np.ones((1, 4), dtype=complex)
    packet = np.ones((5, 1, 4), dtype=complex)
    for args, message in [
        ((w, packet, 1, -0.1, 0.0, 1.0), "mu and epsilon must be >= 0"),
        ((w, packet, 1, 0.1, -1.0, 1.0), "mu and epsilon must be >= 0"),
        ((w, packet, 1, 0.1, 0.0, 0.0), "dispersion constant must be positive"),
        ((np.full((1, 4), np.nan), packet, 1, 0.1, 0.0, 1.0), "weights must be finite"),
        ((w[0], packet[:, 0], 1, 0.1, 0.0, 1.0), r"weights must be a \(T, N\) array"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            blind.run_packet(*args)


def test_run_packet_probe_every_iteration():
    # a snapshot after every update equals stepping one update per call,
    # and the caller's weights are left as they were
    packet, h = one_trial(np.random.default_rng(3), 25, 4)
    w0 = start(h)
    weights, decisions = track(w0, packet, passes=1, snapshots=range(1, 26))
    assert weights.shape == (25, 1, 4)
    assert decisions is None
    assert np.array_equal(w0, start(h))
    w = w0
    for i in range(25):
        w = final(w, packet[i : i + 1], 1)
        assert np.array_equal(weights[i], w)


def test_run_packet_cadence_and_final_probe():
    # snapshots are copies at their iterations, up to passes * P
    packet, h = one_trial(np.random.default_rng(4), 10, 4)
    weights, _ = track(start(h), packet, passes=3, snapshots=[7, 14, 21, 28, 30])
    assert weights.shape == (5, 1, 4)
    for stop, w in zip([7, 14, 21, 28, 30], weights):
        ref = start(h)
        full, rest = divmod(stop, 10)
        if full:
            ref = final(ref, packet, full)
        if rest:
            ref = final(ref, packet[:rest], 1)
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0.0)
    assert not np.array_equal(weights[-2], weights[-1])


def test_run_packet_explicit_probe_iterations_with_zero():
    packet, h = one_trial(np.random.default_rng(5), 10, 4)
    w0 = start(h)
    weights, _ = track(w0, packet, passes=1, snapshots=[0, 5, 10])
    assert np.array_equal(weights[0], w0)  # taken before any update
    np.testing.assert_allclose(weights[2], final(w0, packet, 1), rtol=1e-12, atol=0.0)
    for bad in ([4, 99], [-1, 4], [5, 5], [6, 2]):
        with pytest.raises(ValueError):
            track(w0, packet, passes=1, snapshots=bad)


def test_run_packet_frozen_tracker_with_zero_mu():
    packet, h = one_trial(np.random.default_rng(6), 20, 4)
    w0 = start(h)
    weights, _ = track(w0, packet, passes=2, mu=0.0, snapshots=[0, 10, 20, 30, 40])
    assert all(np.array_equal(w, w0) for w in weights)


def test_run_packet_batch_rows_match_single_trials():
    # a (T, N) batch tracks each row exactly as a run of that trial alone
    rng = np.random.default_rng(11)
    trials, n = 3, 6
    packets = rng.standard_normal((12, trials, n)) + 1j * rng.standard_normal((12, trials, n))
    hs = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    w0 = np.stack([combine.mf_weights(h) for h in hs])
    weights, decisions = track(
        w0, packets, passes=2, snapshots=[0, 9, 24], collect_decisions=True
    )
    assert weights.shape == (3, trials, n)
    assert decisions.shape == (24, trials)
    for t in range(trials):
        w_one, d_one = track(
            start(hs[t]), packets[:, t : t + 1], passes=2, snapshots=[0, 9, 24],
            collect_decisions=True,
        )
        assert np.array_equal(weights[:, t], w_one[:, 0])
        assert np.array_equal(decisions[:, t], d_one[:, 0])


def test_run_packet_state_continuity_across_calls():
    packet, h = one_trial(np.random.default_rng(7), 30, 8)
    one = final(start(h), packet, 2)
    two = final(final(start(h), packet, 1), packet, 1)
    assert np.allclose(one, two, rtol=1e-12, atol=0.0)


def test_run_packet_decisions_match_reference_steps():
    packet, h = one_trial(np.random.default_rng(8), 15, 4)
    weights, decisions = track(
        start(h), packet, passes=3, mu=0.04, snapshots=[45], collect_decisions=True
    )
    assert decisions.shape == (45, 1)

    slow = start(h)[0]
    expected = []
    for i in range(45):
        slow, s_hat = blind.blind_step(slow, packet[i % 15, 0], 0.04, 1e-12 * 4, 1.0)
        expected.append(s_hat)
    assert np.allclose(decisions[:, 0], expected, rtol=1e-10, atol=1e-14)
    assert np.allclose(weights[-1, 0], slow, rtol=1e-10, atol=1e-14)


def test_run_packet_input_validation():
    w = start(np.ones(4, dtype=complex))
    good = np.ones((5, 1, 4), dtype=complex)
    with pytest.raises(ValueError):
        track(w, np.ones((5, 1, 3), dtype=complex), passes=1)
    with pytest.raises(ValueError):
        track(w, good[:, 0], passes=1)
    with pytest.raises(ValueError):
        track(w, good, passes=0)
    bad = good.copy()
    bad[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="^packet of trial 0 contains non-finite entries$"):
        track(w, bad, passes=1)
    # a batch's packet checks name the first bad trial, counted from first_trial
    batch = np.ones((5, 3, 4), dtype=complex)
    batch[4, 2, 0] = np.inf
    batch[1, 1, 3] = np.nan
    trio = np.ones((3, 4), dtype=complex)
    with pytest.raises(ValueError, match="^packet of trial 8 contains non-finite entries$"):
        track(trio, batch, passes=1, first_trial=7)
    # finite entries whose squared norm x^H x overflows
    batch = np.ones((5, 3, 4), dtype=complex)
    batch[3, 2] *= 1e160
    batch[4, 1, 0] = 1e150  # 1e300: large, but finite
    with pytest.raises(
        ValueError, match="^packet of trial 9 has a squared norm beyond the float range$"
    ):
        track(trio, batch, passes=1, first_trial=7)
    assert np.array_equal(trio, np.ones((3, 4)))


def test_descent_on_stationary_mixture():
    # tracking from a mismatched start must lower the dispersion cost
    rng = np.random.default_rng(9)
    n = 16
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    s = rng.choice([-1.0, 1.0], size=400)
    x = np.outer(s + 1j * rng.standard_normal(400), h)
    x += 0.05 * (rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n)))
    h_hat = h + 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def dispersion_cost(w):
        # sample Godard cost at p = 1 and R = 1: mean of (|y| - R)^2
        y = np.real(x @ w[0].conj())
        return np.mean((np.abs(y) - 1.0) ** 2)

    w0 = start(h_hat)
    assert dispersion_cost(final(w0, x[:, None], 10)) < dispersion_cost(w0)


def test_run_packet_raises_on_divergence():
    # an unnormalized step this large overflows the weights of one trial;
    # the run must stop naming that trial and the iteration reached
    rng = np.random.default_rng(10)
    n = 16
    packet = rng.standard_normal((50, 3, n)) + 1j * rng.standard_normal((50, 3, n))
    packet[:, 0] *= 1e-3
    packet[:, 2] *= 1e-3
    w = np.stack([combine.mf_weights(packet[0, t]) for t in range(3)])
    w0 = w.copy()
    with pytest.raises(
        FloatingPointError, match=r"trial 5 are non-finite at iteration \d+ \(mu=3.0\)$"
    ):
        blind.run_packet(
            w, packet, 10, 3.0, 0.0, 1.0, snapshots=[50, 100, 150],
            normalized=False, first_trial=4,
        )
    assert np.array_equal(w, w0)
