import dataclasses
import json
import multiprocessing
import re
import statistics
import tempfile
import threading
import typing

import numpy as np
import pytest

from cmtmimo import cli, harness, verify
from cmtmimo.config import ExperimentConfig


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
    # one line per stage with its work count: 2 trials of 4 passes over
    # 50-vector packets, and 3 reference levels plus one SINR per probe row
    probe_rows = len((tmp_path / "trajectory.csv").read_text().splitlines()) - 1
    stages = [line.split(" in ")[0] for line in out.splitlines() if line.startswith("stage ")]
    assert stages == [
        "stage assemble: 2 trials",
        "stage track: 400 trial-updates",
        f"stage score: {2 * 3 + probe_rows} combiners",
    ]


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
    out = capsys.readouterr().out
    assert "eye opening improved" in out
    # 200 updates are 4 passes over 50-vector packets; 4 buckets of 5 rows
    stages = [line.split(" in ")[0] for line in out.splitlines() if line.startswith("stage ")]
    assert stages == [
        "stage assemble: 2 trials",
        "stage track: 400 trial-updates",
        "stage format: 40 rows",
    ]


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


def test_simulate_probes_after_every_update(tmp_path, capsys):
    # blind.probe_dense_every's floor: a probe after each dense-phase update
    extra = ("--trials", "1", "--override", "blind.probe_dense_every=1")
    rc = cli.main(["simulate", *small_args(tmp_path, extra)])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "trajectory.csv").exists()


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
            "cmt.num_frames: num_frames=480 yields 41600 interior symbols; "
            "need at least 100000",
        ),
        # 101 * 33 is odd: the prototype would have no center sample
        (
            "gaussianity --override channel.num_subcarriers=101"
            " --override cmt.overlap_factor=33 --override cmt.num_frames=100",
            "channel.num_subcarriers/cmt.overlap_factor: num_subcarriers * overlap_factor "
            "must be even",
        ),
        # and so is 3 * 5, which a calibrated sigma_q meets before any trial
        (
            "simulate --override signaling.sigma_q_mode=calibrated"
            " --override channel.num_subcarriers=3 --override channel.subcarrier_index=1"
            " --override cmt.overlap_factor=5",
            "channel.num_subcarriers/cmt.overlap_factor: num_subcarriers * overlap_factor "
            "must be even so the prototype has a center sample (got 3 * 5)",
        ),
    ]:
        rc = cli.main([*command.split(), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("cmtmimo: error: ") and expected in err
        assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


# an integer beyond the float range: a number, but no finite float
BIG = "1" + "0" * 400


def _bad_values():
    """(subcommand, override, key, what its value must be): nan, +inf and
    -inf for every float key and as the last number of every list key,
    ``BIG`` in a list and as a float key, and an empty and a nested
    ``signaling.pam_levels`` under every subcommand."""
    config = ExperimentConfig()
    # a valid 2-cell, 1-user tensor stands in for the key whose default is None
    defaults = {"topology.explicit_gains": [[[1.0], [0.5]], [[0.5], [1.0]]]}
    cases = []
    for section in dataclasses.fields(config):
        values = getattr(config, section.name)
        for key, kind in typing.get_type_hints(type(values)).items():
            path = f"{section.name}.{key}"
            value = defaults.get(path, getattr(values, key))
            for bad in (".nan", ".inf", "-.inf"):
                if kind is float and (path, bad) != ("noise.target_sinr_db", ".inf"):
                    cases.append(("simulate", f"{path}={bad}", path, "finite"))
                elif isinstance(value, list):
                    text = re.sub(r"[-+.0-9e]+(?=\]*$)", bad, json.dumps(value))
                    cases.append(("simulate", f"{path}={text}", path, "finite numbers"))
    cases.append(("simulate", f"signaling.pam_levels=[-1, {BIG}]", "signaling.pam_levels", "finite"))
    cases.append(("simulate", f"blind.mu={BIG}", "blind.mu", "finite"))
    for command in ("simulate", "eye", "gaussianity", "verify"):
        for levels in ("[]", "[[1.0, -1.0]]"):
            override = f"signaling.pam_levels={levels}"
            cases.append((command, override, "signaling.pam_levels", "non-empty flat list"))
    return cases


BAD_VALUES = _bad_values()


@pytest.mark.parametrize(
    "command, override, key, must",
    BAD_VALUES,
    ids=[f"{command}:{override.replace(BIG, 'BIG')}" for command, override, _, _ in BAD_VALUES],
)
def test_bad_config_value_exits_two_naming_its_key(
    tmp_path, capsys, monkeypatch, command, override, key, must
):
    # a non-finite or malformed value ends the run before any work: main
    # returns (no exception escapes) 2 after one line that names the key
    # and what its value must be, and no CSV is written
    def unreached(*args):
        raise AssertionError(f"a run with {override} started")

    monkeypatch.setattr(harness, "build_scenario", unreached)
    monkeypatch.setattr(harness, "_intrinsic_stats", unreached)
    monkeypatch.setattr(verify, "run_verify", unreached)
    out = tmp_path / "out"
    rc = cli.main([command, "--trials", "2", "--out", str(out), "--override", override])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"cmtmimo: error: {key} must ") and must in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_infinite_target_sinr_is_still_accepted(monkeypatch):
    # +inf is the noiseless operating point, the one infinite value a key takes
    monkeypatch.setattr(verify, "run_verify", lambda seed: [verify.CheckResult("x", True, "", 0.0)])
    assert cli.main(["verify", "--override", "noise.target_sinr_db=.inf"]) == 0


def test_out_blocked_by_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch):
    # a file where --out or one of its parents would be a directory ends
    # the run before it starts: one line naming the path, exit 2, no CSV
    def unreached(*args):
        raise AssertionError("a run with a blocked --out started")

    monkeypatch.setattr(harness, "build_scenario", unreached)
    monkeypatch.setattr(harness, "_intrinsic_stats", unreached)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for command in ("simulate", "eye", "gaussianity"):
        for out in (blocker, blocker / "sub"):
            rc = cli.main([command, *small_args(out)])
            err = capsys.readouterr().err
            assert rc == 2, (command, out)
            assert err == (
                f"cmtmimo: error: run.out_dir: cannot write to {out}: "
                f"{blocker} is not a directory\n"
            )
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "kept\n"


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
    # a FloatingPointError raised in a worker process reaches main as one
    # line, and the run leaves no worker process behind
    extra = ("--override", "blind.mu=3", "--override", "blind.normalized=false")
    rc = cli.main(["simulate", *small_args(tmp_path, extra)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("cmtmimo: error: blind tracker diverged")
    assert re.search(r"weights of trial [01] are non-finite at iteration \d+", err)
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())
    assert multiprocessing.active_children() == []


def test_worker_error_exits_two_and_leaves_no_thread(tmp_path, capsys, monkeypatch):
    # a ValueError raised inside a worker process reaches main as one line;
    # every run, failed or not, joins its worker processes and the pool's
    # threads and leaves no temporary file behind
    monkeypatch.setattr(harness, "WORKERS", 3)
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    before = threading.active_count()
    for command in ("simulate", "eye"):
        assert cli.main([command, *small_args(tmp_path / "ok")]) == 0
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []
        assert not any(temp.iterdir())
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
        assert multiprocessing.active_children() == []
        assert not any(temp.iterdir())
    assert not (tmp_path / "bad").exists()


def test_nonfinite_packet_names_its_trial(tmp_path, capsys, monkeypatch):
    # a NaN in trial 1's packet is caught when its group is tracked, in
    # its worker process: one line naming the trial, exit 2, no CSV and no
    # process, thread or temporary file left behind
    monkeypatch.setattr(harness, "WORKERS", 3)
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    out = tmp_path / "out"
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
        rc = cli.main([command, *small_args(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "cmtmimo: error: packet of trial 1 contains non-finite entries\n"
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []
        assert not any(temp.iterdir())
    assert not out.exists()


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
