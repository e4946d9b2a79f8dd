import re
import statistics
import threading

import numpy as np

from cmtmimo import cli, harness, verify


def test_parser_knows_all_subcommands():
    parser = cli.build_parser()
    for name in ("simulate", "eye", "gaussianity", "verify"):
        args = parser.parse_args([name])
        assert args.command == name


def small_args(tmp_path, extra=()):
    return [
        "--out",
        str(tmp_path),
        "--trials",
        "2",
        "--seed",
        "7",
        "--override",
        "channel.num_antennas=8",
        "--override",
        "channel.num_subcarriers=16",
        "--override",
        "channel.subcarrier_index=4",
        "--override",
        "blind.packet_len=50",
        "--override",
        "blind.passes=4",
        "--override",
        "blind.probe_symbols=1000",
        *extra,
    ]


def test_simulate_writes_csvs(tmp_path, capsys):
    rc = cli.main(["simulate", *small_args(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "trajectory.csv" in out
    # two trials: the median is the mean of the two final SINRs
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    finals = [float(row.split(",")[2]) for row in summary]
    assert f"2 trials, final blind SINR median {statistics.median(finals):.2f} dB" in out


def test_seed_changes_output(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", *small_args(dir_a)])
    # argparse keeps the last occurrence of --seed
    cli.main(["simulate", *small_args(dir_b), "--seed", "8"])
    assert (dir_a / "trajectory.csv").read_bytes() != (
        dir_b / "trajectory.csv"
    ).read_bytes()


def test_eye_subcommand(tmp_path, capsys):
    extra = (
        "--override",
        "eye.updates=200",
        "--override",
        "eye.num_buckets=4",
        "--override",
        "eye.samples_per_bucket=5",
    )
    rc = cli.main(["eye", *small_args(tmp_path, extra)])
    assert rc == 0
    assert (tmp_path / "eye.csv").exists()
    assert (tmp_path / "eye_opening.csv").exists()
    assert "eye opening improved" in capsys.readouterr().out


def test_gaussianity_subcommand(tmp_path, capsys):
    # any number of subcarriers works, not only powers of two
    for num_subcarriers, num_frames in [(64, 1700), (200, 600)]:
        out_dir = tmp_path / str(num_subcarriers)
        extra = (
            "--override",
            f"channel.num_subcarriers={num_subcarriers}",
            "--override",
            f"cmt.num_frames={num_frames}",
        )
        rc = cli.main(["gaussianity", *small_args(out_dir, extra)])
        assert rc == 0
        assert (out_dir / "stats.csv").exists()
        assert "kurt(q)" in capsys.readouterr().out


def test_gaussianity_with_fewer_subcarriers_than_multipath_taps(tmp_path, capsys):
    # L = 4 leaves room for only 3 distinct delays after the tap at 0
    args = (
        "gaussianity --override channel.num_subcarriers=4"
        " --override channel.subcarrier_index=1 --override cmt.num_frames=25100"
    )
    rc = cli.main([*args.split(), "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "stats.csv").exists()


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [verify.CheckResult("x", True, "", 0.0)]
    bad = [verify.CheckResult("x", True, "", 0.0), verify.CheckResult("y", False, "boom", 0.0)]
    monkeypatch.setattr(verify, "run_verify", lambda seed: ok)
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr(verify, "run_verify", lambda seed: bad)
    assert cli.main(["verify"]) == 1
    assert "boom" in capsys.readouterr().out


def test_bad_override_raises(tmp_path, capsys):
    # a config error is one stderr line naming the key (and its bound), exit 2;
    # so is a config the CMT loopback rejects once the experiment runs
    for command, expected in [
        ("simulate --override blind.zeta=1", "blind.zeta"),
        (
            "simulate --override blind.mu=3",
            "blind.mu must be < 1 when blind.normalized is true (got 3.0)",
        ),
        ("simulate --override blind.probe_dense_every=0", "blind.probe_dense_every must be >= 1"),
        ("simulate --override blind.probe_mid_every=-5", "blind.probe_mid_every must be >= 1"),
        ("simulate --seed -1", "run.master_seed must be >= 0 (got -1)"),
        # keys whose value the code derives from other keys
        ("simulate --override noise.sigma_v_sq=0.1", "unknown config key 'noise.sigma_v_sq'"),
        ("simulate --override blind.epsilon=1e-9", "unknown config key 'blind.epsilon'"),
        ("simulate --override blind.p=2", "unknown config key 'blind.p'"),
        ("simulate --override run.out_dir=5", "config key 'run.out_dir' expects a string, got 5"),
        # a bad explicit tensor is named before any trial is assembled
        (
            "simulate --override topology.explicit_gains=[[1.0]]",
            "topology.explicit_gains: cross_gain must have shape (M, M, K)",
        ),
        (
            "simulate --override topology.explicit_gains=[[[1.0,1.0]]]"
            " --override pilot.pilot_len=1",
            "pilot.pilot_len must be >= the users per cell of topology.explicit_gains = 2",
        ),
        # 416 interior symbols x 100 subcarriers is below the sample floor
        (
            "gaussianity --override channel.num_subcarriers=100"
            " --override channel.subcarrier_index=4",
            "yields 41600 interior symbols; need at least 100000",
        ),
        # 101 * 33 is odd: the prototype would have no center sample
        (
            "gaussianity --override channel.num_subcarriers=101"
            " --override cmt.overlap_factor=33 --override cmt.num_frames=100",
            "num_subcarriers * overlap_factor must be even",
        ),
    ]:
        rc = cli.main([*command.split(), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cmtmimo: error: ") and expected in err
        assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_noiseless_simulate_fails_but_eye_runs(tmp_path, capsys, monkeypatch):
    # at target_sinr_db = inf the MMSE reference is undefined, so simulate
    # fails before it assembles a trial; the eye needs no MMSE reference
    def unreached(*args):
        raise AssertionError("a noiseless simulate assembled a trial")

    monkeypatch.setattr(harness, "build_scenario", unreached)
    extra = ("--override", "noise.target_sinr_db=.inf")
    rc = cli.main(["simulate", *small_args(tmp_path / "simulate", extra)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (
        "cmtmimo: error: noise.target_sinr_db must be finite for simulate "
        "(got inf): a noiseless run has no MMSE reference\n"
    )
    assert not (tmp_path / "simulate").exists()
    monkeypatch.undo()
    extra += ("--override", "eye.updates=200", "--override", "eye.num_buckets=4")
    assert cli.main(["eye", *small_args(tmp_path / "eye", extra)]) == 0
    assert (tmp_path / "eye" / "eye_opening.csv").exists()


def test_divergence_exits_one_without_csv(tmp_path, capsys):
    extra = ("--override", "blind.mu=3", "--override", "blind.normalized=false")
    rc = cli.main(["simulate", *small_args(tmp_path, extra)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("cmtmimo: error: blind tracker diverged")
    assert re.search(r"weights of trial [01] are non-finite at iteration \d+", err)
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_worker_error_exits_two_and_leaves_no_thread(tmp_path, capsys, monkeypatch):
    # a ValueError raised inside a pool worker reaches main as one line;
    # every run, failed or not, joins its worker threads before returning
    monkeypatch.setattr(harness, "WORKERS", 3)
    before = threading.active_count()
    for command in ("simulate", "eye"):
        assert cli.main([command, *small_args(tmp_path / "ok")]) == 0
        assert threading.active_count() == before
    capsys.readouterr()

    build = harness.build_scenario

    def failing(config, rng, sigma_q, sigma_v_sq):
        if rng.bit_generator.seed_seq.spawn_key == (1,):
            raise ValueError("planted failure in trial 1")
        return build(config, rng, sigma_q, sigma_v_sq)

    monkeypatch.setattr(harness, "build_scenario", failing)
    for command in ("simulate", "eye"):
        rc = cli.main([command, *small_args(tmp_path / "bad")])
        assert rc == 2
        assert capsys.readouterr().err == "cmtmimo: error: planted failure in trial 1\n"
        assert threading.active_count() == before
    assert not (tmp_path / "bad").exists()


def test_nonfinite_packet_names_its_trial(tmp_path, capsys, monkeypatch):
    # a NaN in trial 1's packet is caught in that trial's assembly task:
    # one line naming the trial, exit 2, no CSV and no thread left behind
    monkeypatch.setattr(harness, "WORKERS", 3)
    before = threading.active_count()
    draw = harness.TrialScenario.draw_block

    def planted(scen, num_symbols):
        x, s = draw(scen, num_symbols)
        # blind.packet_len is 50 in small_args; probe blocks are longer
        if scen.rng.bit_generator.seed_seq.spawn_key == (1,) and num_symbols == 50:
            x[25, 3] = np.nan
        return x, s

    monkeypatch.setattr(harness.TrialScenario, "draw_block", planted)
    for command in ("simulate", "eye"):
        rc = cli.main([command, *small_args(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "cmtmimo: error: packet of trial 1 contains non-finite entries\n"
        assert threading.active_count() == before
    assert not any(tmp_path.iterdir())


def test_flag_overrides_apply_after_file(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text("run:\n  master_seed: 1\n  num_trials: 9\n")
    parser = cli.build_parser()
    args = parser.parse_args(
        ["simulate", "--config", str(cfg_path), "--seed", "5", "--trials", "3"]
    )
    config = cli._resolve_config(args)
    assert config.run.master_seed == 5
    assert config.run.num_trials == 3
