import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo import blind, kernels


def _track(w, x, start, count, mu, eps, r, normalized, s_out=None):
    """``track_segment`` on the steps and factors ``blind.run_packet`` builds."""
    eta = kernels.step_sizes(x, mu, eps, normalized)
    kernels.track_segment(w, x, eta, kernels.block_factors(x, eta), start, count, r, s_out)


def test_python_kernel_single_step_hand_oracle():
    # ||x||^2 = 5, so the step is 2 * 0.1 / 5
    w = np.array([[1.0 + 0j, 0.0 + 0j]])
    x = np.array([[[2.0 + 0j, 1.0j]]])
    s_out = np.empty((1, 1))
    _track(w, x, 0, 1, 0.1, 0.0, 1.0, True, s_out)
    assert s_out[0, 0] == 2.0
    assert np.allclose(w, [[0.92 + 0j, -0.04j]], atol=1e-15)


def test_python_kernel_decision_is_pre_update():
    # the logged decision must come from the weights before that update
    w = np.array([[1.0 + 0j]])
    x = np.array([[[3.0 + 0j]], [[3.0 + 0j]]])
    s_out = np.empty((2, 1))
    _track(w, x, 0, 2, 0.1, 0.0, 1.0, True, s_out)
    # first decision 3.0; then w -= (2*0.1/9) * sign(3) * (3-1) * 3
    assert s_out[0, 0] == 3.0
    assert s_out[1, 0] == pytest.approx((1.0 - 0.2 / 9.0 * 2.0 * 3.0) * 3.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    packet_len=st.integers(1, 3 * kernels.BLOCK + 1),
    start_laps=st.floats(0.0, 3.0),
    count_laps=st.floats(0.0, 3.0),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    normalized=st.booleans(),
    eps=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
    r=st.floats(0.25, 4.0),
    w_scales=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=4),
    diverging=st.one_of(st.none(), st.integers(0, 3)),
)
def test_kernel_matches_blind_step(
    seed, n, packet_len, start_laps, count_laps, mu, normalized, eps, r, w_scales, diverging
):
    # every row of the batch is an independent trial: it must follow
    # blind_step on its own packet column, whatever the other rows do
    trials = len(w_scales)
    if diverging is not None and diverging >= trials:
        diverging = None
    # start and count are drawn in packet lengths so segments begin
    # anywhere and wrap past the end of the packet several times; packets
    # up to three blocks long cross block boundaries and end in short blocks
    start = int(start_laps * packet_len)
    count = int(count_laps * packet_len)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(2.0 * n)  # ||x||^2 near 1 keeps unnormalized steps stable
    shape = (packet_len, trials, n)
    x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # zero weights give y = 0 exactly, where sign(y) = 0 freezes that row
    w0 = np.array(w_scales)[:, None] * (
        rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    )
    if diverging is not None:
        # a huge unnormalized step overflows this row within two updates
        x[:, diverging] *= 1e155
        w0[diverging] = 1.0
        mu, normalized = max(mu, 0.1), False

    w = w0.copy()
    s_out = np.empty((count, trials))
    with np.errstate(over="ignore", invalid="ignore"):
        _track(w, x, start, count, mu, eps, r, normalized, s_out)

    for t in range(trials):
        w_ref = w0[t]
        expected = np.empty(count)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(count):
                w_ref, expected[i] = blind.blind_step(
                    w_ref, x[(start + i) % packet_len, t], mu, eps, r, normalized
                )
        if t == diverging:
            if count >= 2:
                assert not np.all(np.isfinite(w[t]))
            continue
        np.testing.assert_allclose(s_out[:, t], expected, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(w[t], w_ref, rtol=1e-10, atol=1e-13)
        if mu == 0.0 or w_scales[t] == 0.0:
            assert np.array_equal(w[t], w0[t])


def _packet(rng, packet_len, trials, n):
    shape = (packet_len, trials, n)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0 * n)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    packet_len=st.integers(1, 3 * kernels.BLOCK + 1),
    trials=st.integers(1, 3),
    mu=st.floats(0.0, 0.5),
    normalized=st.booleans(),
)
def test_block_factors_invert_each_block(seed, n, packet_len, trials, mu, normalized):
    # I + F[t, b] must be the inverse of I + tril(eta G, -1) on every block,
    # with G the block's Gram matrix Re{x_i^H x_j}, and the steps must be
    # 2 mu / (x^H x + eps) (or 2 mu) for every trial and packet row
    rng = np.random.default_rng(seed)
    x = _packet(rng, packet_len, trials, n)
    eps = 1e-3
    norms = np.einsum("ptn,ptn->pt", x, x.conj()).real
    eta = 2.0 * mu / (norms + eps) if normalized else np.full(norms.shape, 2.0 * mu)
    np.testing.assert_allclose(
        kernels.step_sizes(x, mu, eps, normalized), eta.T, rtol=1e-12, atol=0.0
    )
    factors = kernels.block_factors(x, np.ascontiguousarray(eta.T))
    num_blocks = -(-packet_len // kernels.BLOCK)
    assert factors.shape == (trials, num_blocks, kernels.BLOCK, kernels.BLOCK)
    for t in range(trials):
        for b in range(num_blocks):
            rows = slice(b * kernels.BLOCK, min((b + 1) * kernels.BLOCK, packet_len))
            xb = x[rows, t]
            size = xb.shape[0]
            gram = (xb.conj() @ xb.T).real
            lower = np.tril(gram * eta[rows, t][None, :], -1)
            m = np.eye(size) + factors[t, b, :size, :size]
            np.testing.assert_allclose(m @ (np.eye(size) + lower), np.eye(size), atol=1e-12)
            assert np.all(np.triu(factors[t, b]) == 0.0)
            assert np.all(factors[t, b, size:] == 0.0)


def test_block_factors_rows_are_independent():
    # an overflowing unnormalized row must not leak into the other rows'
    # factors: each must equal the factors of its trial tracked alone
    rng = np.random.default_rng(5)
    x = _packet(rng, 2 * kernels.BLOCK + 7, 3, 6)
    x[:, 1] *= 1e155
    eta = kernels.step_sizes(x, 0.1, 0.0, False)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = kernels.block_factors(x, eta)
        for t in range(3):
            alone = kernels.block_factors(np.ascontiguousarray(x[:, t : t + 1]), eta[t : t + 1])
            if t == 1:
                assert not np.all(np.isfinite(factors[t]))
            else:
                assert np.array_equal(factors[t], alone[0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    blocks=st.integers(0, 2),
    tail=st.integers(0, kernels.BLOCK - 1),
    trials=st.integers(1, 5),
    mu=st.floats(0.0, 0.5),
    eps=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
    normalized=st.booleans(),
    overflowing=st.one_of(st.none(), st.integers(0, 4)),
)
def test_tracker_inputs_built_per_trial_equal_the_group_build(
    seed, n, blocks, tail, trials, mu, eps, normalized, overflowing
):
    # row t of the steps and block factors depends only on packet column t:
    # built from that (P, 1, N) column alone, it is bit-equal to row t of
    # one build over the (P, T, N) group, short tail block included.  An
    # overflowing column stays in its own rows; ``run_packet``, which
    # builds the same inputs, rejects its packet naming its trial, with
    # no warning (pytest turns RuntimeWarning into an error).
    packet_len = max(1, blocks * kernels.BLOCK + tail)
    x = _packet(np.random.default_rng(seed), packet_len, trials, n)
    if overflowing is not None and overflowing < trials:
        x[:, overflowing] *= 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        eta = kernels.step_sizes(x, mu, eps, normalized)
        factors = kernels.block_factors(x, eta)
        for t in range(trials):
            column = np.ascontiguousarray(x[:, t : t + 1])
            alone = kernels.step_sizes(column, mu, eps, normalized)
            assert np.array_equal(alone, eta[t : t + 1], equal_nan=True)
            assert np.array_equal(
                kernels.block_factors(column, alone), factors[t : t + 1], equal_nan=True
            )
    if overflowing is None or overflowing >= trials:
        return
    if packet_len > 1:
        assert not np.all(np.isfinite(factors[overflowing]))
    w = np.ones((trials, n), dtype=complex)
    message = f"^packet of trial {overflowing} has a squared norm beyond the float range$"
    with pytest.raises(ValueError, match=message):
        blind.run_packet(w, x, 1, mu, eps, 1.0, normalized=normalized)
