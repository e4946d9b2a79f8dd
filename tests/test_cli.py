import numpy as np
import pytest

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


def test_simulate_is_reproducible(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", *small_args(dir_a)])
    cli.main(["simulate", *small_args(dir_b)])
    assert (dir_a / "trajectory.csv").read_bytes() == (
        dir_b / "trajectory.csv"
    ).read_bytes()
    assert (dir_a / "summary.csv").read_bytes() == (dir_b / "summary.csv").read_bytes()


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
    ok = verify.VerifyReport(
        results=[verify.CheckResult("x", True, "", 0.0)], passed=True
    )
    bad = verify.VerifyReport(
        results=[verify.CheckResult("x", False, "boom", 0.0)], passed=False
    )
    monkeypatch.setattr(verify, "run_verify", lambda config: ok)
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr(verify, "run_verify", lambda config: bad)
    assert cli.main(["verify"]) == 1
    assert "boom" in capsys.readouterr().out


def test_bad_override_raises(tmp_path):
    with pytest.raises(ValueError):
        cli.main(["simulate", "--out", str(tmp_path), "--override", "blind.zeta=1"])


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
