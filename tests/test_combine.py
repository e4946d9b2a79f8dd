import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo import combine, harness


def block_sinr_oracle(w, x_block, s_block):
    """Oracle for ``harness.probe_sinrs``: one combiner as a complex matvec,
    the sums in Python floats."""
    n = s_block.size
    y = np.real(x_block @ np.conj(w))
    sum_ss = float(s_block @ s_block)
    gain = float(y @ s_block) / sum_ss
    e = y - gain * s_block
    residual = float(e @ e) / n
    if gain == 0.0:
        return -np.inf
    if residual <= 0.0:
        return np.inf
    return float(10.0 * np.log10(gain * gain * (sum_ss / n) / residual))


def test_mf_weights_rejects_zero_channel():
    with pytest.raises(ValueError):
        combine.mf_weights(np.zeros(4, dtype=complex))


def test_mf_weights_rejects_non_finite_channel():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite channel"):
            combine.mf_weights(np.array([1.0, bad]))


def test_mmse_reduces_to_mf_without_interference():
    # single cell, single user: the covariance is rank-one plus identity,
    # so the MMSE direction is collinear with h
    rng = np.random.default_rng(3)
    h = (rng.standard_normal(16) + 1j * rng.standard_normal(16)).reshape(16, 1)
    w = combine.mmse_weights(h[None], np.ones((1, 1)), 0, 0.3, 2.0)[0]
    cos = abs(np.vdot(w, h[:, 0])) / (
        np.linalg.norm(w) * np.linalg.norm(h[:, 0])
    )
    assert abs(cos - 1.0) < 1e-10
    assert np.real(np.vdot(w, h[:, 0])) == pytest.approx(1.0, abs=1e-12)


def test_block_sinr_exact_construction():
    # residual orthogonal to the symbols by construction: the fitted gain
    # equals the true gain and the SINR is exact, at 13.7 dB and at 64.6 dB
    n = 1000
    g = 1.7
    s = np.tile([1.0, -1.0, 1.0, -1.0], n // 4)
    for sigma in (0.35, 1e-3):
        e = np.tile([sigma, sigma, -sigma, -sigma], n // 4)
        assert abs(np.dot(e, s)) < 1e-12
        x = (g * s + e).astype(complex).reshape(-1, 1)

        sinr = harness.probe_sinrs(np.array([[1.0 + 0j]]), x, s)[0]
        expected = 10 * np.log10(g * g * np.mean(s * s) / sigma**2)
        assert sinr == pytest.approx(expected, abs=1e-10)


def test_block_sinr_sentinels():
    n = 1000
    s = np.tile([1.0, -1.0], n // 2)
    clean = (2.0 * s).astype(complex).reshape(-1, 1)
    assert harness.probe_sinrs(np.array([[1.0 + 0j]]), clean, s)[0] == np.inf

    e = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    orthogonal = e.astype(complex).reshape(-1, 1)
    assert harness.probe_sinrs(np.array([[1.0 + 0j]]), orthogonal, s)[0] == -np.inf


def test_block_sinr_rejects_bad_blocks():
    w = np.array([[1.0 + 0j]])
    with pytest.raises(ValueError, match="1000"):
        harness.probe_sinrs(w, np.ones((10, 1), dtype=complex), np.ones(10))
    with pytest.raises(ValueError, match="zero"):
        harness.probe_sinrs(w, np.ones((1000, 1), dtype=complex), np.zeros(1000))
    with pytest.raises(ValueError, match="rows"):
        harness.probe_sinrs(w, np.ones((1001, 1), dtype=complex), np.ones(1000))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1000, 1100),
    ant=st.integers(3, 6),
    num_random=st.integers(1, 5),
    sentinels=st.lists(st.sampled_from(["clean", "orthogonal", "zero"]), max_size=3),
    noise=st.floats(0.1, 3.0),
)
def test_probe_sinrs_matches_oracle_per_row(seed, n, ant, num_random, sentinels, noise):
    rng = np.random.default_rng(seed)
    s = rng.choice([-1.0, 1.0], size=n)
    u = np.resize([1.0, -1.0], n)
    if n % 2:
        u[-1] = 0.0  # balanced: sum(u) = 0 exactly
    rng.shuffle(u)
    # column 0 is pure signal (residual exactly 0), column 1 is orthogonal
    # to the symbols (gain exactly 0), the rest are signal plus noise, whose
    # floor keeps the SINR moderate, where both summation orders agree to
    # rtol 1e-10
    x = np.empty((n, ant), dtype=complex)
    x[:, 0] = 2.0 * s
    x[:, 1] = s * u
    shape = (n, ant - 2)
    x[:, 2:] = s[:, None] + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    rows = [rng.standard_normal(ant) + 1j * rng.standard_normal(ant) for _ in range(num_random)]
    # sentinel rows: pure signal (+inf), orthogonal output (-inf), and zero
    # weights, whose output is 0 with zero gain and zero residual (-inf)
    for kind in sentinels:
        w = np.zeros(ant, dtype=complex)
        if kind != "zero":
            w[0 if kind == "clean" else 1] = 0.5
        rows.insert(int(rng.integers(len(rows) + 1)), w)
    ws = np.array(rows)
    with np.errstate(all="raise"):
        got = harness.probe_sinrs(ws, x, s)
    assert got.shape == (len(rows),)
    expected = np.array([block_sinr_oracle(w, x, s) for w in ws])
    finite = np.isfinite(expected)
    assert np.array_equal(got[~finite], expected[~finite])
    np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-10, atol=1e-12)
    for w, value in zip(ws, got):
        if np.count_nonzero(w) <= 1:
            assert value == (np.inf if w[0] != 0.0 else -np.inf)
