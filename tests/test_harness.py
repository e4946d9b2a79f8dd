import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo import cmt, harness, kernels
from cmtmimo.config import load_config


def _fmt(x) -> str:
    """Oracle for the CSV row templates: one locale-independent number,
    12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _oracle_row(row) -> str:
    return ",".join(_fmt(v) for v in row) + "\n"


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
    a = harness.trial_rng(123, 0).standard_normal(5)
    b = harness.trial_rng(123, 0).standard_normal(5)
    c = harness.trial_rng(123, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # trial t draws child t of the master seed's spawn, however many are spawned
    for seed, trial in [(123, 0), (123, 3), (7, 19), (12345, 199)]:
        drawn = harness.trial_rng(seed, trial).standard_normal(8)
        for n in (trial + 1, 200):
            child = np.random.SeedSequence(seed).spawn(n)[trial]
            assert np.array_equal(np.random.default_rng(child).standard_normal(8), drawn)


def test_calibrate_noise_closed_form():
    cfg = load_config(None)
    expected = 2.0 * 128 * 1.0 / 10.0**3.2
    assert harness.calibrate_noise(cfg) == pytest.approx(expected, rel=1e-12)
    cfg.channel.num_antennas = 64
    assert harness.calibrate_noise(cfg) == pytest.approx(expected / 2, rel=1e-12)
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
    loopback = cmt.intrinsic_loopback

    def counted(*args, **kwargs):
        calls.append(args)
        return loopback(*args, **kwargs)

    monkeypatch.setattr(cmt, "intrinsic_loopback", counted)
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
    rng = harness.trial_rng(cfg.run.master_seed, 0)
    scen = harness.build_scenario(cfg, rng, 1.0, harness.calibrate_noise(cfg))
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
    rng_a = harness.trial_rng(1, 0)
    direct = harness.build_scenario(cfg, rng_a, 1.0, 0.0)
    cfg.pilot.estimator = "correlate"
    rng_b = harness.trial_rng(1, 0)
    correlate = harness.build_scenario(cfg, rng_b, 1.0, 0.0)
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


def test_csv_bytes_do_not_depend_on_group_width(tmp_path, monkeypatch):
    # one batch of 3 trials against groups of 2 and 1: each trial's rows
    # come from its own generator and its own row of the batched kernel
    cfg = tiny_config(trials=3)
    harness.run_fig3(cfg, str(tmp_path / "one"))
    harness.run_eye(cfg, str(tmp_path / "one"))
    trial_bytes = cfg.blind.packet_len * cfg.channel.num_antennas * 16
    monkeypatch.setattr(harness, "GROUP_BYTES", 2 * trial_bytes)
    assert [list(g) for g in harness._trial_groups(cfg)] == [[0, 1], [2]]
    harness.run_fig3(cfg, str(tmp_path / "split"))
    harness.run_eye(cfg, str(tmp_path / "split"))
    for name in ("trajectory.csv", "summary.csv", "eye.csv", "eye_opening.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "split" / name
        ).read_bytes(), name


def test_csv_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    # a pool of one and a pool wider than the group write the same bytes:
    # each task draws only from its own trial's generator, and the rows
    # come back in trial order; a short switch interval interleaves the
    # workers as finely as the interpreter allows
    cfg = tiny_config(trials=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 3):
            monkeypatch.setattr(harness, "WORKERS", workers)
            harness.run_fig3(cfg, str(tmp_path / str(workers)))
            harness.run_eye(cfg, str(tmp_path / str(workers)))
    finally:
        sys.setswitchinterval(interval)
    for name in ("trajectory.csv", "summary.csv", "eye.csv", "eye_opening.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (
            tmp_path / "3" / name
        ).read_bytes(), name


def test_tracker_inputs_are_built_on_the_pool(tmp_path, monkeypatch):
    # every trial's steps and block factors are built in its assembly task,
    # never on the main thread, whatever the pool's size
    names = []
    for name in ("step_sizes", "block_factors"):
        build = getattr(kernels, name)

        def recorded(*args, build=build):
            names.append(threading.current_thread().name)
            return build(*args)

        monkeypatch.setattr(kernels, name, recorded)
    cfg = tiny_config(trials=3)
    for workers in (1, 2):
        monkeypatch.setattr(harness, "WORKERS", workers)
        for run in (harness.run_fig3, harness.run_eye):
            names.clear()
            run(cfg, str(tmp_path / str(workers)))
            assert len(names) == 2 * cfg.run.num_trials
            assert "MainThread" not in names
            assert threading.main_thread().name == "MainThread"


def test_trial_rows_do_not_depend_on_num_trials(tmp_path):
    runs = {}
    for trials in (2, 3):
        out = tmp_path / str(trials)
        harness.run_fig3(tiny_config(trials=trials), str(out))
        runs[trials] = {
            name: [
                row
                for row in (out / name).read_text().splitlines()[1:]
                if row.split(",")[0] in ("0", "1")
            ]
            for name in ("trajectory.csv", "summary.csv")
        }
    assert runs[2] == runs[3]
    assert len(runs[2]["summary.csv"]) == 2


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


def test_eye_bucket_bounds_are_exact(tmp_path):
    # 1000 updates in 38 buckets: bucket b starts at b * 1000 // 38, with no
    # bound floored from an inexact float (bucket 19 starts at 500, not 499)
    cfg = tiny_config()
    cfg.eye.updates = 1000
    cfg.eye.num_buckets = 38
    harness.run_eye(cfg, str(tmp_path))
    rows = (tmp_path / "eye_opening.csv").read_text().splitlines()[1:]
    labels = [int(row.split(",")[1]) for row in rows if row.startswith("0,")]
    assert labels == [b * 1000 // 38 for b in range(38)]


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


_ints = st.one_of(
    st.integers(-(10**12), 10**12),
    st.integers(-(2**62), 2**62).map(np.int64),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e300, 1e-300, -1e300]),
)
_ROW_KINDS = {
    harness.TRAJECTORY_ROW: (_ints, _ints, _floats, _floats, _floats, _floats),
    harness.SUMMARY_ROW: (_ints, _ints, _floats, _floats),
    harness.EYE_OPENING_ROW: (_ints, _ints, _floats),
    harness.STATS_ROW: (_floats, _floats, _floats, _floats),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_csv_number_format_is_locale_independent(data):
    assert _fmt(3) == "3"
    assert _fmt(np.int64(-1)) == "-1"
    assert _fmt(0.25) == "0.25"
    assert "," not in _fmt(1234567.25)
    # every row template writes what the per-value oracle writes
    for template, kinds in _ROW_KINDS.items():
        row = data.draw(st.tuples(*kinds))
        assert template % row == _oracle_row(row), template
    lo = data.draw(st.integers(0, 10**6))
    samples = data.draw(st.lists(_floats, max_size=30))
    assert harness._eye_rows(lo, samples) == "".join(_oracle_row((lo, v)) for v in samples)


def test_probe_schedule_structure():
    cfg = tiny_config()
    schedule = harness._probe_schedule(cfg, 200)
    assert schedule[0] == 0
    assert schedule[-1] == 200
    assert schedule == sorted(set(schedule))
    assert set(range(0, 101, 25)) <= set(schedule)
