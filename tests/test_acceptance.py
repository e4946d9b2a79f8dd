"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single PASS/FAIL line with
the measured numbers (bypassing capture so the line always shows), then
asserts.  Criteria 5 and 6 run the full default experiments, so this file
takes a couple of minutes; everything is seeded and deterministic.
"""

import sys

import numpy as np
import pytest

from cmtmimo import airlink, blind, channel, cli, combine, harness, topology
from cmtmimo.config import load_config


@pytest.fixture
def report(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(number, name, passed, detail):
        line = f"{'PASS' if passed else 'FAIL'} criterion {number} ({name}): {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                sys.stdout.write("\n" + line + "\n")
                sys.stdout.flush()
        else:
            print(line)

    return emit


def test_criterion_1_exact_identities(report):
    binary = blind.PamAlphabet.binary()
    r_errs = [abs(blind.dispersion_constant(binary, p) - 1.0) for p in (1, 2)]

    rng = np.random.default_rng(1001)
    mf_err = 0.0
    for _ in range(50):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        mf_err = max(mf_err, abs(np.vdot(combine.mf_weights(h), h) - 1.0))

    topo = topology.build_topology(3, 2, 0.2, 0.9, rng)
    taps = channel.draw_channels(topo, channel.COST207_TU6, 8, rng)
    stack = channel.matrix_stack(taps, channel.COST207_TU6, 12)
    est = airlink.estimate_channels_direct(topo, stack, 0, 0.0, 8, rng)
    expected = stack[0, 0] + sum(
        topo.cross_gain[m, 0, :][None, :] * stack[m, 0] for m in (1, 2)
    )
    decomp_err = np.max(np.abs(est - expected))

    book = airlink.dft_pilot_book(2, 8)
    frames = airlink.send_pilots(topo, stack, 0, book, 0.0, rng)
    corr = airlink.estimate_channels_correlate(book, frames)
    mode_err = np.max(np.abs(corr - est)) / np.max(np.abs(est))

    ok = (
        max(r_errs) == 0.0
        and mf_err < 1e-12
        and decomp_err < 1e-12
        and mode_err < 1e-10
    )
    report(
        1,
        "exact identities",
        ok,
        f"R binary err {max(r_errs):g}; w^H h err {mf_err:.1e}; "
        f"pilot decomposition err {decomp_err:.1e}; "
        f"correlate vs direct {mode_err:.1e}",
    )
    assert ok


def test_criterion_2_gradient_direction(report):
    rng = np.random.default_rng(1002)
    n, r = 8, 1.0
    worst = 0.0
    checked = 0
    while checked < 100:
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = np.vdot(w, x).real
        if abs(y) < 0.2 or abs(abs(y) - r) < 0.2:
            continue  # keep clear of the cost's kinks
        w_new, _ = blind.blind_step(w, x, 0.25, 0.0, r, normalized=False)
        update = w_new - w  # -2 mu sign(y)(|y| - r) x
        grad_analytic = -update / (2 * 0.25)

        def cost(w_ri):
            wc = w_ri[:n] + 1j * w_ri[n:]
            return (abs(np.vdot(wc, x).real) - r) ** 2

        w_ri = np.concatenate([w.real, w.imag])
        step = 1e-6
        fd = np.empty(2 * n)
        for i in range(2 * n):
            e = np.zeros(2 * n)
            e[i] = step
            fd[i] = (cost(w_ri + e) - cost(w_ri - e)) / (2 * step)
        grad_fd = fd[:n] + 1j * fd[n:]
        rel = np.max(np.abs(grad_fd - 2 * grad_analytic)) / np.max(np.abs(grad_fd))
        worst = max(worst, rel)
        checked += 1
    ok = worst < 1e-4
    report(
        2,
        "gradient direction",
        ok,
        f"100 random (w, x) pairs at N=8, worst relative error {worst:.2e}",
    )
    assert ok


def test_criterion_3_sinr_oracle(report):
    rng = np.random.default_rng(1003)

    topo1 = topology.build_topology(1, 1, 0.0, 1.0, rng)
    taps = channel.draw_channels(topo1, channel.COST207_TU6, 32, rng)
    stack = channel.matrix_stack(taps, channel.COST207_TU6, 5)
    h = stack[0, 0][:, 0]
    sigma_v = 0.05
    closed = 10 * np.log10(2 * np.real(np.vdot(h, h)) / sigma_v)
    s = rng.choice([-1.0, 1.0], size=(1, 1, 100_000))
    t = s + 1j * rng.standard_normal((1, 1, 100_000))
    x = airlink.uplink_batch(topo1, stack, 0, t, sigma_v, rng)
    measured = harness.probe_sinrs(combine.mf_weights(h)[None], x, s[0, 0])[0]
    oracle_err = abs(measured - closed)

    worst_gap = np.inf
    for _ in range(100):
        topo = topology.build_topology(7, 1, 0.0, 1.0, rng)
        taps = channel.draw_channels(topo, channel.COST207_TU6, 32, rng)
        stack = channel.matrix_stack(taps, channel.COST207_TU6, 5)
        h = stack[0, 0][:, 0]
        s = rng.choice([-1.0, 1.0], size=(7, 1, 10_000))
        t = s + 1j * rng.standard_normal((7, 1, 10_000))
        x = airlink.uplink_batch(topo, stack, 0, t, sigma_v, rng)
        mf = harness.probe_sinrs(combine.mf_weights(h)[None], x, s[0, 0])[0]
        mmse = harness.probe_sinrs(
            combine.mmse_weights(stack[:, 0], topo.gains_at(0), 0, sigma_v, 2.0)[0][None],
            x,
            s[0, 0],
        )[0]
        worst_gap = min(worst_gap, mmse - mf)
    ok = oracle_err < 0.3 and worst_gap >= -0.1
    report(
        3,
        "SINR oracle",
        ok,
        f"closed form vs measured {oracle_err:.3f} dB at 1e5 symbols; "
        f"min(MMSE - MF) {worst_gap:.2f} dB over 100 seven-cell realizations",
    )
    assert ok


def test_criterion_4_noise_calibration(report):
    cfg = load_config(None)
    cfg.topology.num_cells = 1
    sigma_v = harness.calibrate_noise(cfg)
    rng = np.random.default_rng(1004)
    sinrs = []
    for _ in range(50):
        topo = topology.build_topology(1, 1, 0.0, 1.0, rng)
        taps = channel.draw_channels(topo, channel.COST207_TU6, 128, rng)
        stack = channel.matrix_stack(taps, channel.COST207_TU6, cfg.channel.subcarrier_index)
        h = stack[0, 0][:, 0]
        s = rng.choice([-1.0, 1.0], size=(1, 1, 4000))
        t = s + 1j * rng.standard_normal((1, 1, 4000))
        x = airlink.uplink_batch(topo, stack, 0, t, sigma_v, rng)
        sinrs.append(harness.probe_sinrs(combine.mf_weights(h)[None], x, s[0, 0])[0])
    mean = float(np.mean(sinrs))
    ok = 31.7 <= mean <= 32.3
    report(
        4,
        "noise calibration",
        ok,
        f"target 32 dB; contamination-free MF measured {mean:.2f} dB "
        f"over 50 realizations",
    )
    assert ok


def test_criterion_5_sinr_trajectory(report, tmp_path):
    cfg = load_config(None)
    result = harness.run_fig3(cfg, str(tmp_path))
    iters, sinrs = result["iterations"], result["sinrs"]
    num = len(sinrs)

    # columns: the MF-perfect, MMSE-perfect and MF-contaminated levels, then the blind curve
    levels, curves = sinrs[:, :3], sinrs[:, 3:]
    level_exact = bool(
        iters[0] == 0
        and np.array_equal(curves[:, 0], levels[:, 2])
    )
    median = np.median(curves, axis=0)
    mf = float(np.median(levels[:, 0]))
    mmse = float(np.median(levels[:, 1]))
    crossing = next((it for it, v in zip(iters, median) if v >= mf), None)
    final = float(median[-1])
    total_updates = cfg.blind.packet_len * cfg.blind.passes

    ok_a = level_exact
    ok_b = crossing is not None and crossing <= 500
    gap_applies = (mmse - mf) > 6.0
    ok_c = total_updates >= 100_000 and (
        not gap_applies or (mmse - final <= 3.0 and final - mf >= 3.0)
    )
    ok = num >= 20 and ok_a and ok_b and ok_c
    report(
        5,
        "SINR trajectory",
        ok,
        f"{num} trials; start = contaminated level: {level_exact}; "
        f"median crosses MF ({mf:.1f} dB) at iteration {crossing}; "
        f"final median {final:.1f} dB vs MMSE {mmse:.1f} dB "
        f"(gap {mmse - final:.2f} dB, {final - mf:.2f} dB above MF) "
        f"after {total_updates} updates",
    )
    assert ok


def test_criterion_6_eye_opening(report, tmp_path):
    cfg = load_config(None)
    result = harness.run_eye(cfg, str(tmp_path))
    openings = result["openings"]
    improved = openings[:, -1] > openings[:, 0]
    frac = float(np.mean(improved))
    ok = frac >= 0.8
    report(
        6,
        "eye opening",
        ok,
        f"opening grows first to last bucket in {int(improved.sum())}/"
        f"{len(improved)} trials ({100 * frac:.0f}%)",
    )
    assert ok


def test_criterion_7_intrinsic_gaussianity(report, tmp_path):
    cfg = load_config(None)
    samples = (cfg.cmt.num_frames - 2 * cfg.cmt.overlap_factor) * (
        cfg.channel.num_subcarriers
    )
    result = harness.run_gaussianity(cfg, str(tmp_path))
    stats = result["stats"]
    excess = stats.kurtosis_imag - 3.0
    ok = samples >= 100_000 and abs(excess) <= 0.3 and (
        stats.real_part_alphabet_error_rate == 0.0
    )
    report(
        7,
        "intrinsic-interference gaussianity",
        ok,
        f"excess kurtosis {excess:+.3f} over {samples} samples; "
        f"noiseless decode error rate {stats.real_part_alphabet_error_rate:g}",
    )
    assert ok


def test_criterion_8_determinism(report, tmp_path):
    args = ["--trials", "6"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--out", str(dir_a), *args])
    cli.main(["simulate", "--out", str(dir_b), *args])
    files = ["trajectory.csv", "summary.csv"]
    same = {
        f: (dir_a / f).read_bytes() == (dir_b / f).read_bytes() for f in files
    }
    ok = all(same.values())
    sizes = ", ".join(f"{f} ({len((dir_a / f).read_bytes())} bytes)" for f in files)
    report(
        8,
        "determinism",
        ok,
        f"two simulate runs byte-identical: {sizes}"
        if ok
        else f"mismatch in {[f for f, eq in same.items() if not eq]}",
    )
    assert ok
