import numpy as np
import pytest

from cmtmimo import cmt


def make_cfg(num_subcarriers=16, overlap=32, rolloff=0.25):
    return cmt.CmtConfig(
        num_subcarriers=num_subcarriers,
        subcarrier_spacing=1e3,
        overlap_factor=overlap,
        rolloff=rolloff,
    )


def test_prototype_basic_properties():
    cfg = make_cfg()
    proto = cmt.design_prototype(cfg)
    c = proto.coefficients
    assert proto.length == cfg.overlap_factor * cfg.num_subcarriers + 1
    assert abs(np.sum(c * c) - 1.0) < 1e-12
    assert np.max(np.abs(c - c[::-1])) < 1e-12


def _nyquist_leakage(overlap):
    # p * p is a raised cosine: zero at every nonzero multiple of L up to
    # the truncation error of the finite span
    cfg = make_cfg(num_subcarriers=16, overlap=overlap)
    c = cmt.design_prototype(cfg).coefficients
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


def test_prototype_filter_rejects_broken_invariants():
    cfg = make_cfg()
    c = cmt.design_prototype(cfg).coefficients
    with pytest.raises(ValueError):
        cmt.PrototypeFilter(coefficients=2.0 * c, length=c.size)
    broken = c.copy()
    broken[0] += 0.05
    broken /= np.sqrt(np.sum(broken**2))
    with pytest.raises(ValueError):
        cmt.PrototypeFilter(coefficients=broken, length=broken.size)


def test_one_tap_equalizer_inverts_flat_gain():
    cfg = make_cfg(num_subcarriers=8)
    proto = cmt.design_prototype(cfg)
    rng = np.random.default_rng(1)
    num_frames = 80
    frames = rng.choice([-1.0, 1.0], size=(8, num_frames))
    x = cmt.cmt_synthesize(frames, cfg, proto)
    gain = 0.8 * np.exp(0.3j)
    k = 3
    y = cmt.cmt_demodulate(
        x * gain, k, cfg, proto, one_tap_equalizer=1.0 / gain, num_symbols=num_frames
    )
    interior = slice(cfg.overlap_factor, num_frames - cfg.overlap_factor)
    assert np.mean((y.real[interior] - frames[k][interior]) ** 2) < 1e-4


def test_synthesize_is_linear_across_subcarriers():
    cfg = make_cfg(num_subcarriers=8)
    proto = cmt.design_prototype(cfg)
    rng = np.random.default_rng(2)
    frames = rng.choice([-1.0, 1.0], size=(8, 40))
    low = frames.copy()
    low[4:] = 0.0
    high = frames.copy()
    high[:4] = 0.0
    full = cmt.cmt_synthesize(frames, cfg, proto)
    split = cmt.cmt_synthesize(low, cfg, proto) + cmt.cmt_synthesize(high, cfg, proto)
    assert np.max(np.abs(full - split)) < 1e-12
    silent = cmt.cmt_synthesize(np.zeros((8, 40)), cfg, proto)
    assert silent.shape == full.shape
    assert np.all(silent == 0.0)


def _leakage_coefficients(cfg, proto, target):
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
            x = cmt.cmt_synthesize(frames, cfg, proto)
            y = cmt.cmt_demodulate(x, target, cfg, proto, num_symbols=num_frames)
            coeffs.append(y.imag[center])
    return np.asarray(coeffs)


def test_intrinsic_interference_matches_independence_oracle():
    """q at one subcarrier is a weighted sum of independent binary symbols,
    so its variance and kurtosis follow from the leakage coefficients:
    var = sum c^2, kurt = 3 - 2 sum c^4 / (sum c^2)^2."""
    cfg = make_cfg(num_subcarriers=16, overlap=32, rolloff=0.25)
    proto = cmt.design_prototype(cfg)
    coeffs = _leakage_coefficients(cfg, proto, target=8)
    var_pred = np.sum(coeffs**2)
    kurt_pred = 3.0 - 2.0 * np.sum(coeffs**4) / var_pred**2

    rng = np.random.default_rng(3)
    num_frames = 10100
    frames = rng.choice([-1.0, 1.0], size=(16, num_frames))
    x = cmt.cmt_synthesize(frames, cfg, proto)
    y = cmt.cmt_demodulate(x, 8, cfg, proto, num_symbols=num_frames)
    interior = slice(cfg.overlap_factor * 2, num_frames - cfg.overlap_factor * 2)
    q = y.imag[interior]

    assert abs(np.var(q) / var_pred - 1.0) < 0.05
    kurt_meas = np.mean(q**4) / np.mean(q**2) ** 2
    assert abs(kurt_meas - kurt_pred) < 0.15
    # construction properties of the vestigial-sideband leakage
    assert abs(var_pred / (cfg.rolloff / 4.0) - 1.0) < 0.05
    assert 2.7 < kurt_pred < 3.0


def test_measure_intrinsic_stats_rejects_short_runs():
    cfg = make_cfg(num_subcarriers=16)
    proto = cmt.design_prototype(cfg)
    with pytest.raises(ValueError):
        cmt.measure_intrinsic_stats(
            cfg, proto, np.random.default_rng(0), num_frames=80, min_samples=100_000
        )
