import inspect
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo import blas, blind, cmt, harness, kernels
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


def test_calibrated_sigma_q_is_the_gaussianity_sigma_q(tmp_path):
    # one seeded loopback feeds both: stats.csv's sigma_q_sq times E[s^2]
    cfg = tiny_config()
    cfg.signaling.pam_levels = [-3, -1, 1, 3]  # E[s^2] = 5
    cfg.signaling.sigma_q_mode = "calibrated"
    cfg.channel.num_subcarriers = 64
    cfg.cmt.num_frames = 1700
    for seed in (12345, 7):
        cfg.run.master_seed = seed
        stats = harness.run_gaussianity(cfg, str(tmp_path / str(seed)))["stats"]
        assert harness.resolve_sigma_q_sq(cfg) == stats.sigma_q_sq * 5.0


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
    harness.run_fig3(cfg, str(tmp_path))
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


def test_run_fig3_returns_the_trajectory_values(tmp_path):
    # iterations and sinrs are trajectory.csv's iteration column and its
    # blind, MF-perfect, MMSE-perfect and MF-contaminated columns, as written
    cfg = tiny_config(trials=3)
    result = harness.run_fig3(cfg, str(tmp_path))
    iterations, sinrs = result["iterations"], result["sinrs"]
    assert sinrs.shape == (cfg.run.num_trials, 3 + len(iterations))
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == sinrs.shape[0] * len(iterations)
    for n, row in enumerate(rows):
        trial, probe = divmod(n, len(iterations))
        fields = row.split(",")
        assert fields[:2] == [str(trial), "%d" % iterations[probe]], row
        values = [sinrs[trial, 3 + probe], *sinrs[trial, :3]]
        assert fields[2:] == ["%.12g" % v for v in values], row


def test_csv_bytes_do_not_depend_on_group_width(tmp_path, monkeypatch):
    # one batch of 3 trials against groups of 2 and 1: each trial's rows
    # come from its own generator and its own row of the batched kernel.
    # One worker takes the whole budget, so the split is the budget's.
    monkeypatch.setattr(harness, "WORKERS", 1)
    cfg = tiny_config(trials=3)
    harness.run_fig3(cfg, str(tmp_path / "one"))
    harness.run_eye(cfg, str(tmp_path / "one"))
    trial_bytes = cfg.blind.packet_len * cfg.channel.num_antennas * 16
    monkeypatch.setattr(harness, "GROUP_BYTES", 2 * trial_bytes)
    groups = harness._trial_groups(cfg)
    assert [list(g) for g in groups] == [[0, 1], [2]]
    harness.run_fig3(cfg, str(tmp_path / "split"))
    harness.run_eye(cfg, str(tmp_path / "split"))
    for name in ("trajectory.csv", "summary.csv", "eye.csv", "eye_opening.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "split" / name
        ).read_bytes(), name


def test_trial_groups_share_one_packet_budget(monkeypatch):
    # every worker tracks a group at once, so min(WORKERS, trials) times
    # the widest group fits in GROUP_BYTES, unless that group is a single
    # trial; every worker gets a group, and the widest group is as wide
    # as the budget and the trials over the workers allow
    cfg = tiny_config()
    trial_bytes = cfg.blind.packet_len * cfg.channel.num_antennas * 16
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "WORKERS", workers)
        for trials in range(1, 13):
            cfg.run.num_trials = trials
            busy = min(workers, trials)
            for scale in (0.5, 1, 2, 2.5, 3, 7, 40):
                budget = int(scale * trial_bytes)
                monkeypatch.setattr(harness, "GROUP_BYTES", budget)
                groups = harness._trial_groups(cfg)
                key = (workers, trials, budget)
                assert [t for group in groups for t in group] == list(range(trials)), key
                assert len(groups) >= busy, key
                widest = max(len(group) for group in groups)
                assert widest == 1 or busy * widest * trial_bytes <= budget, key
                assert (
                    widest == trials // busy or busy * (widest + 1) * trial_bytes > budget
                ), key


def test_csv_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    # one worker and a worker per trial write the same bytes: each group
    # draws only from its own trials' generators, and the rows come back
    # in trial order
    cfg = tiny_config(trials=3)
    for workers in (1, 3):
        monkeypatch.setattr(harness, "WORKERS", workers)
        harness.run_fig3(cfg, str(tmp_path / str(workers)))
        harness.run_eye(cfg, str(tmp_path / str(workers)))
    for name in ("trajectory.csv", "summary.csv", "eye.csv", "eye_opening.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (
            tmp_path / "3" / name
        ).read_bytes(), name


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the MMSE reference's LAPACK solve rounds differently on one OpenBLAS
    # thread than on two, which shows in summary.csv for trial 2 of seed 1
    # at the default size; the groups run on one thread whatever this
    # process was set to, and leave its setting as they found it
    libraries = blas._openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS loaded")
    cfg = load_config(None)
    cfg.run.master_seed = 1
    cfg.run.num_trials = 3
    cfg.blind.passes = 2
    before = [get() for get, _ in libraries]
    try:
        for count in (1, 2):
            for _, set_ in libraries:
                set_(count)
            harness.run_fig3(cfg, str(tmp_path / str(count)))
            assert [get() for get, _ in libraries] == [count] * len(libraries)
    finally:
        for (_, set_), count in zip(libraries, before):
            set_(count)
    for name in ("trajectory.csv", "summary.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_tracker_inputs_are_built_once_per_group_where_it_runs(tmp_path, monkeypatch):
    # a group's steps and block factors are built once, over the whole
    # group, by the process that runs the group: with several workers
    # that is a worker process, never this one; with one worker it is
    # this process.  The 4 trials make one group on one worker and two
    # groups of 2 on two.
    log = tmp_path / "pids"
    for name in ("step_sizes", "block_factors"):
        build = getattr(kernels, name)

        def recorded(*args, build=build):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(*args)

        monkeypatch.setattr(kernels, name, recorded)
    cfg = tiny_config(trials=4)
    parent = str(os.getpid())
    for workers in (1, 2):
        monkeypatch.setattr(harness, "WORKERS", workers)
        for run in (harness.run_fig3, harness.run_eye):
            log.write_text("")
            run(cfg, str(tmp_path / str(workers)))
            pids = log.read_text().split()
            assert len(pids) == 2 * workers
            if workers == 1:
                assert set(pids) == {parent}
            else:
                assert parent not in pids
                assert 1 <= len(set(pids)) <= workers


def test_stages_count_the_work(tmp_path, monkeypatch):
    # the summed stage counts are the run's work, however it is grouped
    cfg = tiny_config(trials=3)
    trials, packet_len = cfg.run.num_trials, cfg.blind.packet_len
    schedule = harness._probe_schedule(cfg, packet_len * cfg.blind.passes)
    eye_passes = -(-cfg.eye.updates // packet_len)
    for workers in (1, 2, 3):
        monkeypatch.setattr(harness, "WORKERS", workers)
        fig3 = harness.run_fig3(cfg, str(tmp_path))["stages"]
        assert {name: stage.count for name, stage in fig3.items()} == {
            "assemble": trials,
            "track": trials * cfg.blind.passes * packet_len,
            "score": trials * (3 + len(schedule)),
        }
        eye = harness.run_eye(cfg, str(tmp_path))["stages"]
        assert {name: stage.count for name, stage in eye.items()} == {
            "assemble": trials,
            "track": trials * eye_passes * packet_len,
            "format": trials * cfg.eye.num_buckets * cfg.eye.samples_per_bucket,
        }
        assert [stage.unit for stage in fig3.values()] == ["trials", "trial-updates", "combiners"]
        assert [stage.unit for stage in eye.values()] == ["trials", "trial-updates", "rows"]
        assert all(stage.seconds > 0.0 for stage in [*fig3.values(), *eye.values()])


def test_trial_rows_do_not_depend_on_num_trials(tmp_path, monkeypatch):
    # trials 0 and 1 write the same rows in a run of 2 trials and of 3, on
    # one worker or two: trial 1 is the second trial of the first group
    # or the only trial of the second.
    # eye.csv has no trial column, but its rows come in trial order.
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(harness, "WORKERS", workers)
        for trials in (2, 3):
            out = tmp_path / f"{workers}-{trials}"
            cfg = tiny_config(trials=trials)
            harness.run_fig3(cfg, str(out))
            harness.run_eye(cfg, str(out))
            rows = {
                name: [
                    row
                    for row in (out / name).read_text().splitlines()[1:]
                    if row.split(",")[0] in ("0", "1")
                ]
                for name in ("trajectory.csv", "summary.csv", "eye_opening.csv")
            }
            eye = (out / "eye.csv").read_text().splitlines()[1:]
            assert len(eye) % trials == 0
            rows["eye.csv"] = eye[: 2 * len(eye) // trials]
            runs[workers, trials] = rows
    assert len(runs[1, 2]["summary.csv"]) == 2
    assert len(runs[1, 2]["eye_opening.csv"]) == 2 * tiny_config().eye.num_buckets
    for key, rows in runs.items():
        assert rows == runs[1, 2], key


def test_summary_is_derived_from_the_trajectory(tmp_path):
    # every summary.csv row follows from its trial's trajectory.csv rows:
    # the first probe whose blind SINR reaches the MF-perfect level (-1 if
    # none does), the last blind SINR, and the MMSE level minus it.  These
    # 4 trials include crossings and a trial that never crosses.
    harness.run_fig3(tiny_config(trials=4), str(tmp_path))
    trajectories = {}
    for row in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]:
        trial, iteration, blind_db, mf_db, mmse_db, _ = row.split(",")
        trajectories.setdefault(int(trial), []).append(
            (int(iteration), float(blind_db), float(mf_db), float(mmse_db), blind_db)
        )
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert len(summary) == len(trajectories) == 4
    crossings = []
    for row in summary:
        trial, crossing, final, gap = row.split(",")
        probes = trajectories[int(trial)]
        expected = next((it for it, b, mf, _, _ in probes if b >= mf), -1)
        assert int(crossing) == expected, row
        crossings.append(expected)
        assert final == probes[-1][4], row
        assert float(gap) == pytest.approx(probes[-1][3] - probes[-1][1], rel=1e-10, abs=1e-10)
    assert -1 in crossings and max(crossings) > 0


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


def test_eye_openings_are_derived_from_the_eye_rows(tmp_path):
    # with every decision logged, each eye_opening.csv value is, as text,
    # the min |sample| over its trial's bucket rows in eye.csv; 200 updates
    # in 30 buckets gives buckets of 6 and 7 decisions, so a bucket bound
    # one decision off moves some minimum
    cfg = tiny_config(trials=3)
    cfg.eye.num_buckets = 30
    cfg.eye.samples_per_bucket = cfg.eye.updates
    harness.run_eye(cfg, str(tmp_path))
    eye = [row.split(",") for row in (tmp_path / "eye.csv").read_text().splitlines()[1:]]
    per_trial = len(eye) // cfg.run.num_trials
    assert per_trial == cfg.eye.updates and len(eye) == per_trial * cfg.run.num_trials
    expected = {}
    for i, (bucket, sample) in enumerate(eye):
        key = (i // per_trial, int(bucket))
        expected[key] = min(expected.get(key, np.inf), abs(float(sample)))
    openings = (tmp_path / "eye_opening.csv").read_text().splitlines()[1:]
    assert len(openings) == len(expected) == cfg.run.num_trials * cfg.eye.num_buckets
    for row in openings:
        trial, bucket, opening = row.split(",")
        assert opening == "%.12g" % expected[int(trial), int(bucket)], row


def test_eye_openings_cover_every_decision(tmp_path):
    # with one decision per bucket, each eye_opening.csv value is, as
    # text, the magnitude of its bucket's one eye.csv sample, so an
    # opening that skips any decision (each trial's last, say) shows
    cfg = tiny_config(trials=2)
    cfg.blind.packet_len = cfg.eye.updates = cfg.eye.num_buckets = 6
    cfg.eye.samples_per_bucket = 1
    harness.run_eye(cfg, str(tmp_path))
    eye = [row.split(",") for row in (tmp_path / "eye.csv").read_text().splitlines()[1:]]
    openings = (tmp_path / "eye_opening.csv").read_text().splitlines()[1:]
    assert len(eye) == len(openings) == 2 * 6
    for i, ((bucket, sample), row) in enumerate(zip(eye, openings)):
        assert row == f"{i // 6},{bucket},{'%.12g' % abs(float(sample))}"


def test_tracker_aims_at_the_alphabets_dispersion_constant(tmp_path, monkeypatch):
    # R = E[s^2] / E|s|: 1 for binary PAM, 5 / 2 = 2.5 for 4-PAM; the
    # tracker of every group of both experiments gets it
    seen = []
    run_packet = blind.run_packet

    def recorded(*args, **kwargs):
        seen.append(inspect.signature(run_packet).bind(*args, **kwargs).arguments["R"])
        return run_packet(*args, **kwargs)

    monkeypatch.setattr(blind, "run_packet", recorded)
    monkeypatch.setattr(harness, "WORKERS", 1)
    for levels, R in (([-1.0, 1.0], 1.0), ([-3.0, -1.0, 1.0, 3.0], 2.5)):
        cfg = tiny_config()
        cfg.signaling.pam_levels = levels
        seen.clear()
        harness.run_fig3(cfg, str(tmp_path))
        harness.run_eye(cfg, str(tmp_path))
        assert seen == [R, R], levels


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
    cfg.eye.updates = 99
    # 99 updates round up to two 50-vector packets, 100 decisions
    message = (
        "eye.updates, rounded up to whole packets of blind.packet_len = 50, "
        "must be >= eye.num_buckets = 500 (got 100)"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
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
    # the last iteration is probed even when it lies on none of the grids
    assert harness._probe_schedule(cfg, 199) == [0, 25, 50, 75, 100, 199]
