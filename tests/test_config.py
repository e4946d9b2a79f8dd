import numpy as np
import pytest

from cmtmimo.config import assign_override, load_config, validate_config


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg.topology.num_cells == 7
    assert cfg.topology.users_per_cell == 1
    assert cfg.channel.num_antennas == 128
    assert cfg.channel.num_subcarriers == 256
    assert cfg.noise.target_sinr_db == 32.0
    assert cfg.signaling.sigma_q_mode == "fixed"
    assert cfg.blind.packet_len * cfg.blind.passes >= 100_000
    assert cfg.run.master_seed == 12345
    assert cfg.run.num_trials == 20


def test_yaml_roundtrip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "channel:\n"
        "  num_antennas: 64\n"
        "blind:\n"
        "  mu: 0.02\n"
        "  normalized: false\n"
        "run:\n"
        "  master_seed: 99\n"
    )
    cfg = load_config(str(path))
    assert cfg.channel.num_antennas == 64
    assert cfg.blind.mu == 0.02
    assert cfg.blind.normalized is False
    assert cfg.run.master_seed == 99
    # untouched sections keep defaults
    assert cfg.topology.num_cells == 7


def test_unknown_keys_are_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("channel:\n  antennas: 64\n")
    with pytest.raises(ValueError, match="channel.antennas"):
        load_config(str(path))
    path.write_text("chanel:\n  num_antennas: 64\n")
    with pytest.raises(ValueError, match="chanel"):
        load_config(str(path))


def apply_override(cfg, spec):
    """One override through the CLI's path: assign, then validate."""
    return validate_config(assign_override(cfg, spec))


def test_apply_override_parses_yaml_values():
    cfg = load_config(None)
    apply_override(cfg, "blind.mu=0.01")
    assert cfg.blind.mu == 0.01
    apply_override(cfg, "channel.num_antennas=32")
    assert cfg.channel.num_antennas == 32
    apply_override(cfg, "blind.normalized=false")
    assert cfg.blind.normalized is False
    apply_override(cfg, "pilot.estimator=correlate")
    assert cfg.pilot.estimator == "correlate"
    apply_override(cfg, "signaling.pam_levels=[-3.0, -1.0, 1.0, 3.0]")
    assert cfg.signaling.pam_levels == [-3.0, -1.0, 1.0, 3.0]


def test_apply_override_rejects_malformed_input():
    cfg = load_config(None)
    with pytest.raises(ValueError):
        apply_override(cfg, "blind.mu")
    with pytest.raises(ValueError):
        apply_override(cfg, "blind.zeta=1.0")
    with pytest.raises(ValueError):
        apply_override(cfg, "mu=0.01")
    with pytest.raises(ValueError):
        apply_override(cfg, "blind.mu=fast")
    with pytest.raises(ValueError):
        apply_override(cfg, "blind.packet_len=12.5")


def test_normalized_step_must_stay_below_one():
    # the normalized (NLMS) step 2 mu must stay below 2; unnormalized runs are not bound
    cfg = load_config(None)
    with pytest.raises(ValueError, match="blind.mu must be < 1 when blind.normalized is true"):
        apply_override(cfg, "blind.mu=1.0")
    cfg = load_config(None)
    apply_override(cfg, "blind.mu=0.999")
    cfg = load_config(None)
    assign_override(cfg, "blind.mu=3")
    assign_override(cfg, "blind.normalized=false")
    assert validate_config(cfg).blind.mu == 3.0


def test_validation_rejects_inconsistent_configs():
    cfg = load_config(None)
    cfg.channel.subcarrier_index = 256
    with pytest.raises(ValueError, match=r"subcarrier_index must be in .*\[0, 256\) \(got 256\)"):
        validate_config(cfg)

    cfg = load_config(None)
    cfg.pilot.pilot_len = 0
    with pytest.raises(ValueError, match="pilot.pilot_len must be >= topology.users_per_cell"):
        validate_config(cfg)

    cfg = load_config(None)
    cfg.blind.mu = -1.0
    with pytest.raises(ValueError, match=r"blind.mu must be >= 0 \(got -1.0\)"):
        validate_config(cfg)

    cfg = load_config(None)
    cfg.pilot.estimator = "genie"
    with pytest.raises(ValueError, match="pilot.estimator must be 'direct' or 'correlate'"):
        validate_config(cfg)

    cfg = load_config(None)
    cfg.signaling.sigma_q_mode = "guess"
    with pytest.raises(ValueError, match="signaling.sigma_q_mode"):
        validate_config(cfg)


def test_pilot_len_must_cover_users(tmp_path):
    path = tmp_path / "crowded.yaml"
    path.write_text("topology:\n  users_per_cell: 9\npilot:\n  pilot_len: 8\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_helper_constructors():
    cfg = load_config(None)
    alpha = cfg.alphabet()
    assert np.array_equal(alpha.levels, [-1.0, 1.0])
    pdp = cfg.pdp()
    assert pdp.tap_delays.size == 6
    cmt_cfg = cfg.cmt_config()
    assert cmt_cfg.num_subcarriers == 256
    assert cmt_cfg.subcarrier_spacing == pytest.approx(5e6 / 256)
    assert cfg.blind_epsilon() == pytest.approx(1e-12 * 128)
    cfg.blind.epsilon = 1e-6
    assert cfg.blind_epsilon() == 1e-6
    cfg.channel.num_subcarriers = 100
    with pytest.raises(ValueError):
        cfg.cmt_config()
