import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtmimo import cmt


def _carrier(cfg, k, num_samples):
    """Subcarrier k's phase-toggled carrier i**k e^{j2 pi k n / L}."""
    # k * n is reduced mod L in integers so the phase stays exact for long streams
    n = np.arange(num_samples)
    return (1j**k) * np.exp(2j * np.pi * (k * n % cfg.num_subcarriers) / cfg.num_subcarriers)


def direct_synthesize(frames, cfg):
    """Direct-form oracle: upsample, filter and up-convert each subcarrier."""
    L = cfg.num_subcarriers
    proto = cmt.design_prototype(cfg)
    num_symbols = frames.shape[1]
    out = np.zeros((num_symbols + cfg.overlap_factor) * L, dtype=complex)
    for k in range(L):
        upsampled = np.zeros((num_symbols - 1) * L + 1)
        upsampled[::L] = frames[k]
        stream = np.convolve(upsampled, proto)
        out[: stream.size] += stream * _carrier(cfg, k, stream.size)
    return out


def direct_demodulate(samples, k, cfg, num_symbols):
    """Direct-form oracle: down-convert subcarrier k, matched-filter, sample."""
    L = cfg.num_subcarriers
    down = samples * np.conj(_carrier(cfg, k, samples.size))
    filtered = np.convolve(down, cmt.design_prototype(cfg))
    return filtered[cfg.overlap_factor * L + np.arange(num_symbols) * L]


def make_cfg(num_subcarriers=16, overlap=32, rolloff=0.25):
    return cmt.CmtConfig(
        num_subcarriers=num_subcarriers,
        overlap_factor=overlap,
        rolloff=rolloff,
    )


def test_prototype_basic_properties():
    cfg = make_cfg()
    c = cmt.design_prototype(cfg)
    assert c.size == cfg.overlap_factor * cfg.num_subcarriers + 1
    assert abs(np.sum(c * c) - 1.0) < 1e-12
    assert np.max(np.abs(c - c[::-1])) < 1e-12


def _nyquist_leakage(overlap):
    # p * p is a raised cosine: zero at every nonzero multiple of L up to
    # the truncation error of the finite span
    cfg = make_cfg(num_subcarriers=16, overlap=overlap)
    c = cmt.design_prototype(cfg)
    rc = np.convolve(c, c)
    center = c.size - 1
    peaks = rc[center :: cfg.num_subcarriers]
    assert abs(peaks[0] - 1.0) < 1e-12
    return np.max(np.abs(peaks[1:]))


def test_prototype_nyquist_self_convolution():
    leak_32 = _nyquist_leakage(32)
    leak_64 = _nyquist_leakage(64)
    assert leak_32 < 5e-4
    assert leak_64 < leak_32


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(rolloff=0.0)
    with pytest.raises(ValueError):
        make_cfg(rolloff=1.2)
    with pytest.raises(ValueError):
        make_cfg(overlap=2)
    with pytest.raises(ValueError):
        make_cfg(num_subcarriers=1)
    # an odd span leaves the prototype without a center sample
    with pytest.raises(ValueError, match="num_subcarriers \\* overlap_factor must be even"):
        make_cfg(num_subcarriers=5, overlap=5)
    make_cfg(num_subcarriers=5, overlap=4)


def test_one_tap_equalizer_inverts_flat_gain():
    cfg = make_cfg(num_subcarriers=8)
    rng = np.random.default_rng(1)
    num_frames = 80
    frames = rng.choice([-1.0, 1.0], size=(8, num_frames))
    x = cmt.cmt_synthesize(frames, cfg)
    gain = 0.8 * np.exp(0.3j)
    k = 3
    y = cmt.cmt_demodulate(x * gain, cfg, num_symbols=num_frames)[k] / gain
    interior = slice(cfg.overlap_factor, num_frames - cfg.overlap_factor)
    assert np.mean((y.real[interior] - frames[k][interior]) ** 2) < 1e-4


def test_synthesize_is_linear_across_subcarriers():
    cfg = make_cfg(num_subcarriers=8)
    rng = np.random.default_rng(2)
    frames = rng.choice([-1.0, 1.0], size=(8, 40))
    low = frames.copy()
    low[4:] = 0.0
    high = frames.copy()
    high[:4] = 0.0
    full = cmt.cmt_synthesize(frames, cfg)
    split = cmt.cmt_synthesize(low, cfg) + cmt.cmt_synthesize(high, cfg)
    assert np.max(np.abs(full - split)) < 1e-12
    silent = cmt.cmt_synthesize(np.zeros((8, 40)), cfg)
    assert silent.shape == full.shape
    assert np.all(silent == 0.0)


def _leakage_coefficients(cfg, target):
    """Imaginary-part response at the decision point to every unit symbol
    within one overlap window, measured one impulse at a time."""
    window = cfg.overlap_factor
    num_frames = 2 * window + 1
    center = window
    coeffs = []
    for source in range(cfg.num_subcarriers):
        if abs(source - target) > 1:
            continue
        for pos in range(num_frames):
            frames = np.zeros((cfg.num_subcarriers, num_frames))
            frames[source, pos] = 1.0
            x = cmt.cmt_synthesize(frames, cfg)
            y = cmt.cmt_demodulate(x, cfg, num_symbols=num_frames)
            coeffs.append(y.imag[target, center])
    return np.asarray(coeffs)


def test_intrinsic_interference_matches_independence_oracle():
    """q at one subcarrier is a weighted sum of independent binary symbols,
    so its variance and kurtosis follow from the leakage coefficients:
    var = sum c^2, kurt = 3 - 2 sum c^4 / (sum c^2)^2."""
    cfg = make_cfg(num_subcarriers=16, overlap=32, rolloff=0.25)
    coeffs = _leakage_coefficients(cfg, target=8)
    var_pred = np.sum(coeffs**2)
    kurt_pred = 3.0 - 2.0 * np.sum(coeffs**4) / var_pred**2

    rng = np.random.default_rng(3)
    num_frames = 10100
    frames = rng.choice([-1.0, 1.0], size=(16, num_frames))
    x = cmt.cmt_synthesize(frames, cfg)
    y = cmt.cmt_demodulate(x, cfg, num_symbols=num_frames)[8]
    interior = slice(cfg.overlap_factor * 2, num_frames - cfg.overlap_factor * 2)
    q = y.imag[interior]

    assert abs(np.var(q) / var_pred - 1.0) < 0.05
    kurt_meas = np.mean(q**4) / np.mean(q**2) ** 2
    assert abs(kurt_meas - kurt_pred) < 0.15
    # construction properties of the vestigial-sideband leakage
    assert abs(var_pred / (cfg.rolloff / 4.0) - 1.0) < 0.05
    assert 2.7 < kurt_pred < 3.0


def test_loopback_sigma_q_is_the_stats_sigma_q():
    # the calibrated sigma_q needs only the loopback, which draws the frames
    # before the stats' multipath channel, so it keeps every bit
    cfg = make_cfg(num_subcarriers=32)
    loopback = cmt.intrinsic_loopback(cfg, np.random.default_rng(3), 100, min_samples=1)
    stats = cmt.measure_intrinsic_stats(cfg, np.random.default_rng(3), 100, min_samples=1)
    assert loopback.sigma_q_sq == stats.sigma_q_sq
    assert loopback.interior.shape == (32, 100 - 2 * cfg.overlap_factor)


def test_measure_intrinsic_stats_rejects_short_runs():
    cfg = make_cfg(num_subcarriers=16)
    with pytest.raises(ValueError):
        cmt.measure_intrinsic_stats(
            cfg, np.random.default_rng(0), num_frames=80, min_samples=100_000
        )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_subcarriers=st.integers(2, 40),
    overlap=st.integers(4, 12),
    num_symbols=st.integers(1, 12),
    silent_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_polyphase_matches_direct_form(
    seed, num_subcarriers, overlap, num_symbols, silent_fraction, scale
):
    assume(num_subcarriers * overlap % 2 == 0)
    cfg = make_cfg(num_subcarriers=num_subcarriers, overlap=overlap)
    rng = np.random.default_rng(seed)
    frames = scale * rng.standard_normal((num_subcarriers, num_symbols))
    frames[rng.random(num_subcarriers) < silent_fraction] = 0.0
    tol = 1e-12 * scale

    x = cmt.cmt_synthesize(frames, cfg)
    x_direct = direct_synthesize(frames, cfg)
    assert x.shape == x_direct.shape
    assert np.max(np.abs(x - x_direct)) <= tol

    # analysis of an arbitrary complex stream, not only a synthesized one
    samples = x_direct + scale * (
        rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    )
    y = cmt.cmt_demodulate(samples, cfg, num_symbols)
    assert y.shape == (num_subcarriers, num_symbols)
    for k in range(num_subcarriers):
        y_direct = direct_demodulate(samples, k, cfg, num_symbols)
        assert np.max(np.abs(y[k] - y_direct)) <= tol
