import re

from cmtmimo import cli, verify


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
    extra = (
        "--override",
        "channel.num_subcarriers=64",
        "--override",
        "cmt.num_frames=1700",
    )
    rc = cli.main(["gaussianity", *small_args(tmp_path, extra)])
    assert rc == 0
    assert (tmp_path / "stats.csv").exists()
    assert "kurt(q)" in capsys.readouterr().out


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [verify.CheckResult("x", True, "", 0.0)]
    bad = [verify.CheckResult("x", True, "", 0.0), verify.CheckResult("y", False, "boom", 0.0)]
    monkeypatch.setattr(verify, "run_verify", lambda seed: ok)
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr(verify, "run_verify", lambda seed: bad)
    assert cli.main(["verify"]) == 1
    assert "boom" in capsys.readouterr().out


def test_bad_override_raises(tmp_path, capsys):
    # a config error is one stderr line naming the key (and its bound), exit 2
    for override, expected in [
        ("blind.zeta=1", "blind.zeta"),
        ("blind.mu=3", "blind.mu must be < 1 when blind.normalized is true (got 3.0)"),
    ]:
        rc = cli.main(["simulate", "--out", str(tmp_path), "--override", override])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cmtmimo: error: ") and expected in err
        assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_divergence_exits_one_without_csv(tmp_path, capsys):
    extra = ("--override", "blind.mu=3", "--override", "blind.normalized=false")
    rc = cli.main(["simulate", *small_args(tmp_path, extra)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("cmtmimo: error: blind tracker diverged")
    assert re.search(r"at iteration \d+", err)
    assert err.count("\n") == 1
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
