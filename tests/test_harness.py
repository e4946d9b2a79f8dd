import numpy as np
import pytest

from cmtmimo import cmt, harness
from cmtmimo.config import load_config


def tiny_config(seed=7, trials=2):
    cfg = load_config(None)
    cfg.channel.num_antennas = 8
    cfg.channel.num_subcarriers = 16
    cfg.channel.subcarrier_index = 4
    cfg.run.master_seed = seed
    cfg.run.num_trials = trials
    cfg.blind.packet_len = 50
    cfg.blind.passes = 4
    cfg.blind.probe_symbols = 1000
    cfg.blind.probe_dense_every = 25
    cfg.blind.probe_dense_until = 100
    cfg.blind.probe_mid_every = 100
    cfg.blind.probe_mid_until = 200
    cfg.blind.probe_sparse_every = 200
    cfg.eye.updates = 200
    cfg.eye.num_buckets = 4
    cfg.eye.samples_per_bucket = 10
    return cfg


def test_trial_rng_is_deterministic_and_distinct():
    a = harness.trial_rng(123, 0, 4).standard_normal(5)
    b = harness.trial_rng(123, 0, 4).standard_normal(5)
    c = harness.trial_rng(123, 3, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_calibrate_noise_closed_form_and_precedence():
    cfg = load_config(None)
    expected = 2.0 * 128 * 1.0 / 10.0**3.2
    assert harness.calibrate_noise(cfg) == pytest.approx(expected, rel=1e-12)
    assert harness.calibrate_noise(cfg, channel_energy=64.0) == pytest.approx(
        expected / 2, rel=1e-12
    )
    cfg.noise.sigma_v_sq = 0.125
    assert harness.calibrate_noise(cfg) == 0.125
    cfg.noise.sigma_v_sq = None
    cfg.noise.target_sinr_db = np.inf
    assert harness.calibrate_noise(cfg) == 0.0


def test_resolve_sigma_q_modes():
    cfg = tiny_config()
    cfg.signaling.sigma_q_sq = 0.4
    assert harness.resolve_sigma_q_sq(cfg) == 0.4
    cfg.signaling.sigma_q_mode = "calibrated"
    cfg.channel.num_subcarriers = 64
    cfg.cmt.num_frames = 200
    first = harness.resolve_sigma_q_sq(cfg)
    second = harness.resolve_sigma_q_sq(cfg)
    assert first == second  # pure function of config + seed
    assert abs(first / (cfg.cmt.rolloff / 4.0) - 1.0) < 0.2


def test_calibrated_sigma_q_is_resolved_once_per_run(tmp_path, monkeypatch):
    cfg = tiny_config(trials=3)
    cfg.signaling.sigma_q_mode = "calibrated"
    cfg.cmt.num_frames = 100
    resolved = harness.resolve_sigma_q_sq(cfg)
    calls = []
    measure = cmt.measure_intrinsic_stats

    def counted(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(cmt, "measure_intrinsic_stats", counted)
    harness.run_fig3(cfg, str(tmp_path / "calibrated"))
    assert len(calls) == 1

    cfg.signaling.sigma_q_mode = "fixed"
    cfg.signaling.sigma_q_sq = resolved
    harness.run_fig3(cfg, str(tmp_path / "fixed"))
    assert len(calls) == 1
    assert (tmp_path / "calibrated" / "trajectory.csv").read_bytes() == (
        tmp_path / "fixed" / "trajectory.csv"
    ).read_bytes()


def test_build_scenario_shapes_and_contamination():
    cfg = tiny_config()
    rng = harness.trial_rng(cfg.run.master_seed, 0, 2)
    scen = harness.build_scenario(cfg, rng, 1.0)
    n = cfg.channel.num_antennas
    m = cfg.topology.num_cells
    assert scen.h_stack.shape == (m, m, n, 1)
    assert scen.h_desired.shape == (n,)
    assert scen.h_hat.shape == (n,)
    assert np.array_equal(scen.h_desired, scen.h_stack[0, 0][:, 0])
    # contamination pushes the estimate well away from the true channel
    assert np.linalg.norm(scen.h_hat - scen.h_desired) > 0.1 * np.linalg.norm(
        scen.h_desired
    )
    x, s = scen.draw_block(64)
    assert x.shape == (64, n)
    assert set(np.unique(s)) <= {-1.0, 1.0}


def test_build_scenario_estimator_modes_agree_statistically():
    cfg = tiny_config()
    cfg.noise.target_sinr_db = np.inf  # noiseless: modes coincide exactly
    rng_a = harness.trial_rng(1, 0, 1)
    direct = harness.build_scenario(cfg, rng_a, 1.0)
    cfg.pilot.estimator = "correlate"
    rng_b = harness.trial_rng(1, 0, 1)
    correlate = harness.build_scenario(cfg, rng_b, 1.0)
    assert np.allclose(direct.h_hat, correlate.h_hat, rtol=1e-9, atol=1e-12)


def test_run_fig3_outputs(tmp_path):
    cfg = tiny_config()
    result = harness.run_fig3(cfg, str(tmp_path))
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == harness.TRAJECTORY_HEADER
    probes = len(harness._probe_schedule(cfg, 200))
    assert len(traj) == 1 + cfg.run.num_trials * probes
    first = traj[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    # iteration-0 SINR equals the contaminated-MF reference column exactly
    assert first[2] == first[5]

    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == harness.SUMMARY_HEADER
    assert len(summary) == 1 + cfg.run.num_trials
    assert result["trials"][0]["trajectory"][0][0] == 0


def test_run_fig3_never_crossing_writes_sentinel(tmp_path):
    cfg = tiny_config()
    cfg.blind.mu = 0.0  # frozen tracker stays at the contaminated level
    harness.run_fig3(cfg, str(tmp_path))
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "-1" for r in rows)


def test_run_eye_outputs(tmp_path):
    cfg = tiny_config()
    result = harness.run_eye(cfg, str(tmp_path))
    opening = (tmp_path / "eye_opening.csv").read_text().splitlines()
    assert opening[0] == harness.EYE_OPENING_HEADER
    assert len(opening) == 1 + cfg.run.num_trials * cfg.eye.num_buckets
    eye = (tmp_path / "eye.csv").read_text().splitlines()
    assert eye[0] == harness.EYE_HEADER
    # eye.updates=200 over packets of 50 gives 4 passes, 50 updates per bucket
    assert len(eye) == 1 + cfg.run.num_trials * cfg.eye.num_buckets * 10
    assert result["openings"].shape == (cfg.run.num_trials, cfg.eye.num_buckets)
    buckets = {int(r.split(",")[0]) for r in eye[1:]}
    assert buckets == {0, 50, 100, 150}


def test_run_eye_rejects_empty_buckets():
    cfg = tiny_config()
    cfg.eye.num_buckets = 500
    cfg.eye.updates = 100
    with pytest.raises(ValueError):
        harness.run_eye(cfg, "unused")


def test_run_gaussianity_output(tmp_path):
    cfg = tiny_config()
    cfg.channel.num_subcarriers = 64
    cfg.cmt.num_frames = 1700  # keeps the interior above the sample floor
    result = harness.run_gaussianity(cfg, str(tmp_path))
    lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert lines[0] == harness.STATS_HEADER
    assert len(lines) == 2
    values = [float(v) for v in lines[1].split(",")]
    assert values[0] == pytest.approx(result["stats"].sigma_q_sq, rel=1e-10)
    assert values[3] == 0.0


def test_csv_number_format_is_locale_independent():
    assert harness._fmt(3) == "3"
    assert harness._fmt(np.int64(-1)) == "-1"
    assert harness._fmt(0.25) == "0.25"
    assert "," not in harness._fmt(1234567.25)


def test_probe_schedule_structure():
    cfg = tiny_config()
    schedule = harness._probe_schedule(cfg, 200)
    assert schedule[0] == 0
    assert schedule[-1] == 200
    assert schedule == sorted(set(schedule))
    assert set(range(0, 101, 25)) <= set(schedule)
