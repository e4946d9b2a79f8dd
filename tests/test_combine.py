import numpy as np
import pytest

from cmtmimo import combine, harness


def test_mf_weights_rejects_zero_channel():
    with pytest.raises(ValueError):
        combine.mf_weights(np.zeros(4, dtype=complex))


def test_mmse_reduces_to_mf_without_interference():
    # single cell, single user: the covariance is rank-one plus identity,
    # so the MMSE direction is collinear with h
    rng = np.random.default_rng(3)
    h = (rng.standard_normal(16) + 1j * rng.standard_normal(16)).reshape(16, 1)
    w = combine.mmse_weights(h[None], np.ones((1, 1)), 0, 0.3, 2.0)[0]
    cos = abs(np.vdot(w.w, h[:, 0])) / (
        np.linalg.norm(w.w) * np.linalg.norm(h[:, 0])
    )
    assert abs(cos - 1.0) < 1e-10
    assert np.real(np.vdot(w.w, h[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert w.kind == "MMSE"


def test_block_sinr_exact_construction():
    # residual orthogonal to the symbols by construction: the fitted gain
    # equals the true gain and the SINR is exact
    n = 1000
    g, sigma = 1.7, 0.35
    s = np.tile([1.0, -1.0, 1.0, -1.0], n // 4)
    e = np.tile([sigma, sigma, -sigma, -sigma], n // 4)
    assert abs(np.dot(e, s)) < 1e-12
    x = (g * s + e).astype(complex).reshape(-1, 1)

    sinr = harness.block_sinr(np.array([1.0 + 0j]), x, s)
    expected = 10 * np.log10(g * g * np.mean(s * s) / sigma**2)
    assert sinr == pytest.approx(expected, abs=1e-10)


def test_block_sinr_sentinels():
    n = 1000
    s = np.tile([1.0, -1.0], n // 2)
    clean = (2.0 * s).astype(complex).reshape(-1, 1)
    assert harness.block_sinr(np.array([1.0 + 0j]), clean, s) == np.inf

    e = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    orthogonal = e.astype(complex).reshape(-1, 1)
    assert harness.block_sinr(np.array([1.0 + 0j]), orthogonal, s) == -np.inf


def test_block_sinr_rejects_bad_blocks():
    w = np.array([1.0 + 0j])
    with pytest.raises(ValueError, match="1000"):
        harness.block_sinr(w, np.ones((10, 1), dtype=complex), np.ones(10))
    with pytest.raises(ValueError, match="zero"):
        harness.block_sinr(w, np.ones((1000, 1), dtype=complex), np.zeros(1000))
    with pytest.raises(ValueError, match="rows"):
        harness.block_sinr(w, np.ones((1001, 1), dtype=complex), np.ones(1000))
