"""Cross-module invariant suite at desk scale (N <= 32 where possible).

Each check is small enough to run on every commit; together they pin the
identities and statistical properties the experiments rely on, through
the same functions the experiments call.  The link checks (``airlink.*``,
``combine.mmse_dominance``, ``combine.sinr_scale_invariance``,
``harness.calibration``) draw their scenarios with ``harness.build_scenario``
and their blocks with ``TrialScenario.draw_block``; ``mmse_dominance``
scores ``harness.reference_weights``.  ``blind.cost_descent`` runs
``harness.run_fig3`` itself, with cross-gains at or below 0.7, where no
trial has been seen to lock onto a mixture of cells.  The tracker checks
call ``blind.blind_step`` and ``blind.run_packet`` with R given
explicitly, as the experiments do.  The unit tests run each check
as its own item; acceptance criteria 1, 2 and 8 re-check four of them
(MF identity, direct/correlate agreement, gradient at N = 8, determinism).
The CLI ``verify`` subcommand prints one row per check with wall-clock
time and exits nonzero on any failure.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import airlink, blind, channel, cmt, combine, harness, topology
from .config import load_config


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_topology_determinism(seed):
    a = topology.build_topology(7, 2, 0.0, 1.0, np.random.default_rng(seed))
    b = topology.build_topology(7, 2, 0.0, 1.0, np.random.default_rng(seed))
    assert np.array_equal(a.cross_gain, b.cross_gain), "same seed gave different gains"
    g = a.cross_gain
    assert g.min() >= 0.0 and g.max() <= 1.0, "gains escape [0, 1]"
    assert np.all(g[np.arange(7), np.arange(7), :] == 1.0), "in-cell gains not 1"
    return "bounds and same-seed equality hold"


def _check_channel_parseval(seed):
    bw = 5e6
    num_sub = 64
    pdp = channel.PowerDelayProfile(
        tap_delays=np.array([0.0, 1.0, 3.0, 5.0]) / bw,
        tap_powers=np.array([0.4, 0.3, 0.2, 0.1]),
    )
    topo = topology.build_topology(1, 1, 0.0, 1.0, np.random.default_rng(seed))
    taps = channel.draw_channels(topo, pdp, 4, np.random.default_rng(seed))
    # delays on the sampling grid make the subcarrier responses a unitary DFT
    responses = np.stack(
        [channel.matrix_stack(taps, pdp, k, bw, num_sub)[0, 0][:, 0] for k in range(num_sub)]
    )  # (subcarriers, 4 antennas)
    mean_power = np.mean(np.abs(responses) ** 2, axis=0)
    energy = np.sum(np.abs(taps[0, 0, 0]) ** 2, axis=1)
    err = np.max(np.abs(mean_power - energy))
    assert err < 1e-12, f"Parseval mismatch {err:.2e}"
    return f"mismatch {err:.1e} at tap energies {energy.min():.2f}-{energy.max():.2f}"


def _check_channel_rayleigh(seed):
    pdp = channel.COST207_TU6
    topo = topology.build_topology(1, 1, 0.0, 1.0, np.random.default_rng(seed))
    # one link's taps, (20000 antennas, 6 taps)
    taps = channel.draw_channels(topo, pdp, 20000, np.random.default_rng(seed))[0, 0, 0]
    energy = np.sum(np.abs(taps) ** 2, axis=1)
    assert abs(energy.mean() - 1.0) < 0.02, f"link energy {energy.mean():.4f}"
    mag_sq = np.abs(taps) ** 2
    ratio = np.mean(mag_sq**2, axis=0) / np.mean(mag_sq, axis=0) ** 2
    assert np.all(np.abs(ratio - 2.0) < 0.05 * 2.0), f"kurtosis ratios {ratio}"
    per_tap = np.mean(mag_sq, axis=0)
    rel = np.max(np.abs(per_tap - pdp.tap_powers) / pdp.tap_powers)
    assert rel < 0.05, f"tap power mismatch {rel:.3f}"
    # circular symmetry: the real part carries half of each tap's power
    half = np.mean(taps.real**2, axis=0)
    rel_half = np.max(np.abs(half - pdp.tap_powers / 2) / (pdp.tap_powers / 2))
    assert rel_half < 0.07, f"real-part power mismatch {rel_half:.3f}"
    assert abs(np.mean(taps)) < 0.01, f"tap mean {abs(np.mean(taps)):.4f}"
    return f"energy {energy.mean():.3f}, |g|^4 ratio within {np.max(np.abs(ratio - 2)):.3f}"


def _check_channel_antenna_independence(seed):
    pdp = channel.COST207_TU6
    topo = topology.build_topology(1, 1, 0.0, 1.0, np.random.default_rng(seed))
    draws = 30000
    taps = channel.draw_channels(topo, pdp, 2 * draws, np.random.default_rng(seed))
    h = channel.matrix_stack(taps, pdp, 16, 5e6, 64)[0, 0][:, 0]
    h = h.reshape(draws, 2)  # antenna pairs, one draw each
    corr = np.abs(np.mean(h[:, 0] * np.conj(h[:, 1])))
    assert corr < 0.02, f"antenna cross-correlation {corr:.4f}"
    return f"cross-correlation {corr:.4f} over {draws} draws"


def _check_cmt_reconstruction(seed):
    cfg = cmt.CmtConfig(num_subcarriers=32, overlap_factor=32, rolloff=0.25)
    rng = np.random.default_rng(seed)
    num_frames = 84
    frames = rng.choice([-1.0, 1.0], size=(32, num_frames))
    x = cmt.cmt_synthesize(frames, cfg)
    interior = slice(cfg.overlap_factor, num_frames - cfg.overlap_factor)
    y = cmt.cmt_demodulate(x, cfg, num_symbols=num_frames)
    # without the i**k toggle the leakage reaches the real part: MSE ~ 0.05
    mse = np.mean((y.real - frames)[:, interior] ** 2)
    assert mse < 1e-4, f"loopback MSE {mse:.2e}"
    return f"MSE {mse:.1e}"


def _check_cmt_gaussianity(seed):
    cfg = cmt.CmtConfig(num_subcarriers=64, overlap_factor=32, rolloff=0.25)
    stats = cmt.measure_intrinsic_stats(
        cfg, np.random.default_rng(seed), num_frames=540, min_samples=30000
    )
    assert abs(stats.kurtosis_imag - 3.0) < 0.3, f"kurtosis {stats.kurtosis_imag:.3f}"
    assert stats.real_part_alphabet_error_rate == 0.0, "noiseless decode errors"
    # the vestigial-sideband leakage puts sigma_q^2 near rolloff / 4
    ratio = stats.sigma_q_sq / (cfg.rolloff / 4.0)
    assert abs(ratio - 1.0) < 0.1, f"sigma_q^2 is {ratio:.3f} x rolloff/4"
    kurt_raw = stats.kurtosis_real_unequalized
    assert kurt_raw > 1.0, f"unequalized kurtosis {kurt_raw:.3f}"
    return (
        f"kurt(q) {stats.kurtosis_imag:.2f}, sigma_q^2 {ratio:.3f} x rolloff/4, "
        f"kurt(raw) {kurt_raw:.2f}, err rate {stats.real_part_alphabet_error_rate:g}"
    )


def _small_config():
    """The default config cut to 3 cells of 2 users, gains on [0.2, 0.9], N = 16."""
    cfg = load_config(None)
    cfg.topology.num_cells = 3
    cfg.topology.users_per_cell = 2
    cfg.topology.gain_low = 0.2
    cfg.topology.gain_high = 0.9
    cfg.channel.num_antennas = 16
    return cfg


def _scenario(cfg, seed):
    """``harness.build_scenario`` on ``default_rng(seed)``, at the sigma_q
    and noise variance the experiments resolve from ``cfg``."""
    sigma_q = float(np.sqrt(harness.resolve_sigma_q_sq(cfg)))
    rng = np.random.default_rng(seed)
    return harness.build_scenario(cfg, rng, sigma_q, harness.calibrate_noise(cfg))


def _check_airlink_mode_equivalence(seed):
    scen = _scenario(_small_config(), seed)
    topo, stack = scen.topo, scen.h_stack
    tau = 4
    direct = airlink.estimate_channels_direct(
        topo, stack, 0, 0.0, tau, np.random.default_rng(0)
    )
    pilots = airlink.dft_pilot_book(topo.users_per_cell, tau)
    frames = airlink.send_pilots(topo, stack, 0, pilots, 0.0, np.random.default_rng(0))
    assert frames.shape == (tau, stack.shape[2]), f"pilot frames {frames.shape}"
    correlate = airlink.estimate_channels_correlate(pilots, frames)
    rel = np.max(np.abs(direct - correlate)) / np.max(np.abs(direct))
    assert rel < 1e-10, f"mode disagreement {rel:.2e}"
    return f"direct vs correlate within {rel:.1e}"


def _check_airlink_linearity(seed):
    scen = _scenario(_small_config(), seed)
    topo, stack, rng = scen.topo, scen.h_stack, scen.rng
    shape = (3, 2, 8)  # (cells, users, symbol times)
    t1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z = np.random.default_rng(0)
    err = 0.0
    for bs in range(3):
        x_sum = airlink.uplink_batch(topo, stack, bs, t1 + t2, 0.0, z)
        x1 = airlink.uplink_batch(topo, stack, bs, t1, 0.0, z)
        x2 = airlink.uplink_batch(topo, stack, bs, t2, 0.0, z)
        err = max(err, np.max(np.abs(x_sum - x1 - x2)))
    assert err < 1e-12, f"linearity violated by {err:.2e}"
    return f"superposition within {err:.1e} at every BS"


def _check_airlink_contamination_monotonic(seed):
    stack = _scenario(_small_config(), seed).h_stack
    h_own = stack[0, 0]
    norms = []
    for a in np.linspace(0.0, 1.0, 6):
        gains = np.full((3, 3, 2), a)
        gains[np.arange(3), np.arange(3), :] = 1.0
        topo = topology.explicit_topology(gains)
        est = airlink.estimate_channels_direct(
            topo, stack, 0, 0.0, 4, np.random.default_rng(0)
        )
        norms.append(np.linalg.norm(est - h_own))
    diffs = np.diff(norms)
    assert np.all(diffs >= -1e-12), f"contamination norm not monotonic: {norms}"
    return f"Frobenius norm rises {norms[0]:.2f} -> {norms[-1]:.2f}"


def _check_combine_mf_identity(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        weights = combine.mf_weights(h)
        assert abs(np.vdot(weights, h) - 1.0) < 1e-12, "w^H h != 1"
    return "w^H h = 1 to 1e-12 on 50 random vectors"


def _check_combine_q_immunity(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = combine.mf_weights(h)
    q = rng.standard_normal()
    for s in (-1.0, 1.0):
        out = np.real(np.vdot(w, h * (s + 1j * q)))
        assert abs(out - s) < 1e-12, f"q leaked {out - s:.2e}"
    return "desired q-term contributes 0 under perfect-CSI MF"


def _check_combine_mmse_dominance(seed):
    cfg = _small_config()
    worst = np.inf
    for i in range(10):
        scen = _scenario(cfg, seed + i)
        x_block, s_block = scen.draw_block(20000)
        mf, mm, _ = harness.probe_sinrs(harness.reference_weights(scen, cfg), x_block, s_block)
        worst = min(worst, mm - mf)
    assert worst >= -0.1, f"MMSE below MF by {-worst:.2f} dB"
    return f"min(MMSE - MF) = {worst:.2f} dB over 10 realizations"


def _check_combine_scale_invariance(seed):
    scen = _scenario(_small_config(), seed)
    x, s = scen.draw_block(5000)
    w = combine.mf_weights(scen.h_desired)
    a = harness.probe_sinrs(w[None], x, s)[0]
    worst = max(abs(harness.probe_sinrs(c * w[None], x, s)[0] - a) for c in (7.3, -3.7))
    assert worst < 1e-9, f"scale changed SINR by {worst:.2e} dB"
    return f"scaling w by 7.3 and -3.7 leaves SINR unchanged ({worst:.1e} dB)"


def _check_blind_gradient(seed):
    rng = np.random.default_rng(seed)
    n = 8
    r = 1.0
    worst = 0.0
    checked = 0
    while checked < 20:
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = np.vdot(w, x).real
        if abs(y) < 0.3 or abs(abs(y) - r) < 0.3:
            continue
        w_new, _ = blind.blind_step(w, x, 0.25, 0.0, r, normalized=False)
        update = w_new - w  # -2 mu sign(y)(|y|-r) x
        grad_analytic = -update / (2 * 0.25)

        def cost(w_ri):
            wc = w_ri[:n] + 1j * w_ri[n:]
            yy = np.vdot(wc, x).real
            return (abs(yy) - r) ** 2

        w_ri = np.concatenate([w.real, w.imag])
        fd = np.empty(2 * n)
        h = 1e-6
        for i in range(2 * n):
            e = np.zeros(2 * n)
            e[i] = h
            fd[i] = (cost(w_ri + e) - cost(w_ri - e)) / (2 * h)
        # gradient wrt w as complex: d/dRe + i d/dIm equals 2 * conj-gradient;
        # the update applies x itself, so compare against (fd_re + i fd_im)
        grad_fd = fd[:n] + 1j * fd[n:]
        rel = np.max(np.abs(grad_fd - 2 * grad_analytic)) / np.max(np.abs(grad_fd))
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-4, f"gradient mismatch {worst:.2e}"
    return f"finite differences match on 20 pairs (worst rel {worst:.1e})"


def _check_blind_equilibrium(seed):
    rng = np.random.default_rng(seed)
    n = 8
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r = 1.0
    x = r * w / np.real(np.vdot(w, w))  # makes Re{w^H x} = r exactly
    packet = np.tile(x, (5, 1, 1))  # (P, T, N) for a batch of one trial
    weights, _ = blind.run_packet(w[None], packet, 3, 0.1, 1e-12, r, snapshots=[15])
    drift = np.max(np.abs(weights[0, 0] - w)) / np.max(np.abs(w))
    assert drift < 1e-12, f"fixed point drifted {drift:.2e}"
    return f"packet on the dispersion circle leaves w unchanged ({drift:.1e})"


def _check_blind_normalization_safety(seed):
    rng = np.random.default_rng(seed)
    n = 16
    mu = 0.3
    r = 1.0
    for _ in range(100):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w_new, s_hat = blind.blind_step(w, x, mu, 1e-9, r)
        bound = 2 * mu * (abs(s_hat) + r) / np.linalg.norm(x)
        step = np.linalg.norm(w_new - w)
        assert step <= bound + 1e-12, f"step {step:.3e} exceeds bound {bound:.3e}"
    return "per-step weight change bounded by 2 mu (|s|+R)/||x||"


def _check_blind_cost_descent(seed):
    # simulate's own trials: the default config cut to 20 trials at N = 32
    # with cross-gains on [0, 0.7], probed every 50 updates over 4 passes
    # of a 500-symbol packet
    cfg = load_config(None)
    cfg.channel.num_antennas = 32
    cfg.topology.gain_low = 0.0
    cfg.topology.gain_high = 0.7
    cfg.run.num_trials = 20
    cfg.run.master_seed = seed
    cfg.blind.packet_len = 500
    cfg.blind.passes = 4
    cfg.blind.probe_dense_every = 50
    cfg.blind.probe_dense_until = 2000
    cfg.blind.probe_symbols = 2000
    with tempfile.TemporaryDirectory() as tmp:
        result = harness.run_fig3(cfg, tmp)
    median = np.median(result["sinrs"][:, 3:][:, result["iterations"] >= 50], axis=0)
    smooth = np.convolve(median, np.ones(5) / 5, mode="valid")
    drops = np.diff(smooth)
    assert np.all(drops >= -0.1), f"smoothed median SINR drops by {-drops.min():.2f} dB"
    rise = median[-1] - median[0]
    assert rise >= 10.0, f"median SINR rises by only {rise:.2f} dB from iteration 50"
    return f"median trajectory nondecreasing ({median[0]:.1f} -> {median[-1]:.1f} dB)"


def _check_harness_determinism(seed):
    cfg = load_config(None)
    cfg.channel.num_antennas = 8
    cfg.channel.num_subcarriers = 16
    cfg.channel.subcarrier_index = 4
    cfg.run.num_trials = 2
    cfg.run.master_seed = seed
    cfg.blind.packet_len = 50
    cfg.blind.passes = 2
    cfg.blind.probe_symbols = 1000
    outputs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            paths = harness.run_fig3(cfg, tmp)
            outputs.append(
                {key: Path(paths[key]).read_bytes() for key in ("trajectory_csv", "summary_csv")}
            )
    for key, data in outputs[0].items():
        assert data == outputs[1][key], f"same config+seed gave different {key} bytes"
    sizes = " + ".join(str(len(data)) for data in outputs[0].values())
    return f"two runs byte-identical ({sizes} bytes)"


def _check_harness_calibration(seed):
    cfg = load_config(None)
    cfg.channel.num_antennas = 32
    cfg.topology.num_cells = 1
    sigma_v = harness.calibrate_noise(cfg)
    errors = []
    for i in range(20):
        scen = _scenario(cfg, [seed, i])
        h = scen.h_desired
        # single user, perfect CSI: closed-form MF SINR is 2 ||h||^2 E[s^2]/sigma_v^2
        closed = 10 * np.log10(2 * np.real(np.vdot(h, h)) / sigma_v)
        x, s = scen.draw_block(5000)
        measured = harness.probe_sinrs(combine.mf_weights(h)[None], x, s)[0]
        errors.append(measured - closed)
    worst = np.max(np.abs(errors))
    bias = np.mean(errors)
    assert worst < 0.5, f"closed-form mismatch up to {worst:.2f} dB"
    assert abs(bias) < 0.1, f"systematic bias {bias:.3f} dB"
    # at the average channel energy the calibration hits the target exactly
    nominal = 10 * np.log10(2 * cfg.channel.num_antennas / sigma_v)
    assert abs(nominal - cfg.noise.target_sinr_db) < 1e-9, f"nominal {nominal:.3f} dB"
    return (
        f"nominal {nominal:.1f} dB; per-draw closed form matched "
        f"(worst {worst:.2f} dB, bias {bias:+.3f} dB)"
    )


_CHECKS = [
    ("topology.determinism_and_bounds", _check_topology_determinism),
    ("channel.parseval", _check_channel_parseval),
    ("channel.rayleigh_moments", _check_channel_rayleigh),
    ("channel.antenna_independence", _check_channel_antenna_independence),
    ("cmt.perfect_reconstruction", _check_cmt_reconstruction),
    ("cmt.gaussianity_moments", _check_cmt_gaussianity),
    ("airlink.mode_equivalence", _check_airlink_mode_equivalence),
    ("airlink.receive_linearity", _check_airlink_linearity),
    ("airlink.contamination_monotonicity", _check_airlink_contamination_monotonic),
    ("combine.mf_identity", _check_combine_mf_identity),
    ("combine.q_immunity", _check_combine_q_immunity),
    ("combine.mmse_dominance", _check_combine_mmse_dominance),
    ("combine.sinr_scale_invariance", _check_combine_scale_invariance),
    ("blind.gradient_check", _check_blind_gradient),
    ("blind.equilibrium", _check_blind_equilibrium),
    ("blind.normalization_safety", _check_blind_normalization_safety),
    ("blind.cost_descent", _check_blind_cost_descent),
    ("harness.determinism", _check_harness_determinism),
    ("harness.calibration", _check_harness_calibration),
]


def run_verify(seed: int) -> list[CheckResult]:
    """Run every invariant check in order; each derives its seeds from ``seed``."""
    results = []
    for name, check in _CHECKS:
        start = time.perf_counter()
        try:
            detail = check(seed)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(
            CheckResult(name, passed, detail, time.perf_counter() - start)
        )
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(
        f"{'OK' if passed == len(results) else 'FAILED'}: "
        f"{passed}/{len(results)} checks passed"
    )
    return "\n".join(lines)
