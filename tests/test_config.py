import dataclasses
import re
import typing

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtmimo.config import (
    ExperimentConfig,
    assign_override,
    load_config,
    read_config,
    validate_config,
)

# Every leaf key of the config tree and its type.  A new knob, a removed
# one or a changed type needs a deliberate edit here.
CONFIG_KEYS = {
    "topology.num_cells": int,
    "topology.users_per_cell": int,
    "topology.gain_low": float,
    "topology.gain_high": float,
    "topology.explicit_gains": list | None,
    "channel.bandwidth_hz": float,
    "channel.num_subcarriers": int,
    "channel.num_antennas": int,
    "channel.subcarrier_index": int,
    "channel.pdp_delays_us": list,
    "channel.pdp_powers_db": list,
    "cmt.overlap_factor": int,
    "cmt.rolloff": float,
    "cmt.num_frames": int,
    "signaling.pam_levels": list,
    "signaling.sigma_q_mode": str,
    "signaling.sigma_q_sq": float,
    "noise.target_sinr_db": float,
    "pilot.pilot_len": int,
    "pilot.estimator": str,
    "blind.mu": float,
    "blind.normalized": bool,
    "blind.packet_len": int,
    "blind.passes": int,
    "blind.probe_symbols": int,
    "blind.probe_dense_every": int,
    "blind.probe_dense_until": int,
    "blind.probe_mid_every": int,
    "blind.probe_mid_until": int,
    "blind.probe_sparse_every": int,
    "eye.updates": int,
    "eye.num_buckets": int,
    "eye.samples_per_bucket": int,
    "run.master_seed": int,
    "run.num_trials": int,
    "run.out_dir": str,
}

# noise.sigma_v_sq restated noise.target_sinr_db; blind.epsilon and blind.p
# restated what harness._track_group derives
REMOVED_KEYS = ("noise.sigma_v_sq", "blind.epsilon", "blind.p")


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
    # overrides and YAML share one walker, so they fail with the same messages
    with pytest.raises(ValueError, match="unknown config key 'chanel'"):
        apply_override(cfg, "chanel.num_antennas=8")
    with pytest.raises(ValueError, match="config key 'blind.mu' is not a section"):
        apply_override(cfg, "blind.mu.x=1")
    with pytest.raises(ValueError, match="config key 'topology.explicit_gains' is not a section"):
        apply_override(cfg, "topology.explicit_gains.x=1")


@pytest.mark.parametrize(
    "key, text, value",
    [
        ("blind.mu", "1e-3", 1e-3),
        ("channel.bandwidth_hz", "5e6", 5e6),
        ("noise.target_sinr_db", "-2E+4", -2e4),
        ("topology.gain_high", "1.5e-1", 0.15),
        ("channel.pdp_delays_us", "[0, 2e-1, 1E0]", [0, 0.2, 1.0]),
    ],
)
def test_exponent_notation_is_a_number_in_files_and_overrides(tmp_path, key, text, value):
    # YAML 1.1 reads 1e-3 (no dot, or no exponent sign) as a string; a
    # config file and an override both read it as the float it writes
    section, name = key.split(".")
    path = tmp_path / "config.yaml"
    path.write_text(f"{section}:\n  {name}: {text}\n")
    from_file = read_config(str(path))
    from_override = assign_override(ExperimentConfig(), f"{key}={text}")
    for cfg in (from_file, from_override):
        assert getattr(getattr(cfg, section), name) == value


def test_exponent_notation_is_not_an_integer(tmp_path):
    # 1e3 is the float 1000.0, so an integer key still rejects it
    path = tmp_path / "config.yaml"
    path.write_text("run:\n  num_trials: 1e3\n")
    message = re.escape("config key 'run.num_trials' expects an integer, got 1000.0")
    with pytest.raises(ValueError, match=message):
        read_config(str(path))
    with pytest.raises(ValueError, match=message):
        assign_override(ExperimentConfig(), "run.num_trials=1e3")


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

    for section, key, value, message in [
        ("blind", "probe_dense_every", 0, r"blind.probe_dense_every must be >= 1 \(got 0\)"),
        ("blind", "probe_dense_until", -1, r"blind.probe_dense_until must be >= 0 \(got -1\)"),
        ("blind", "probe_mid_every", -5, r"blind.probe_mid_every must be >= 1 \(got -5\)"),
        ("blind", "probe_mid_until", -1, r"blind.probe_mid_until must be >= 0 \(got -1\)"),
        ("blind", "probe_sparse_every", 0, r"blind.probe_sparse_every must be >= 1 \(got 0\)"),
        ("run", "master_seed", -1, r"run.master_seed must be >= 0 \(got -1\)"),
        (
            "topology",
            "explicit_gains",
            [[1.0]],
            r"topology.explicit_gains: cross_gain must have shape \(M, M, K\)",
        ),
        (
            "topology",
            "explicit_gains",
            [[[1.0], [2.0]], [[0.5], [1.0]]],
            r"topology.explicit_gains: cross-gains must lie in \[0, 1\]",
        ),
    ]:
        cfg = load_config(None)
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ValueError, match=message):
            validate_config(cfg)

    # pilot_len must cover the explicit tensor's K, not the configured users_per_cell
    cfg = load_config(None)
    cfg.topology.explicit_gains = [[[1.0, 1.0]]]
    cfg.pilot.pilot_len = 1
    with pytest.raises(
        ValueError,
        match=r"pilot.pilot_len must be >= the users per cell of topology.explicit_gains = 2",
    ):
        validate_config(cfg)
    cfg.pilot.pilot_len = 2
    assert validate_config(cfg).explicit_topology().users_per_cell == 2


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
    # the FFT takes any L, not only powers of two
    cfg.channel.num_subcarriers = 100
    assert cfg.cmt_config().num_subcarriers == 100


def _leaf_types(cls, prefix=""):
    for name, kind in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(kind):
            yield from _leaf_types(kind, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", kind


def test_config_surface_is_pinned():
    assert dict(_leaf_types(ExperimentConfig)) == CONFIG_KEYS


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_unknown(key, tmp_path):
    section, name = key.split(".")
    path = tmp_path / "old.yaml"
    path.write_text(f"{section}:\n  {name}: 1\n")
    message = re.escape(f"unknown config key '{key}'")
    with pytest.raises(ValueError, match=message):
        load_config(str(path))
    with pytest.raises(ValueError, match=message):
        assign_override(load_config(None), f"{key}=1")


_text = st.text("abcxyz019 _-./", min_size=1, max_size=8)
_numbers = st.integers(-(10**6), 10**6) | st.floats(allow_nan=False)
_VALUES = {
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False) | st.integers(),
    str: _text,
    list: st.lists(_numbers, max_size=4),
    list | None: st.none() | st.lists(_numbers, max_size=4),
}
_ANY = (
    st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | _text
    | st.none()
    | st.lists(_numbers, max_size=3)
    | st.dictionaries(_text, st.integers(), min_size=1, max_size=2)
)


def _right_type(kind, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind == list | None:
        return value is None or isinstance(value, list)
    return isinstance(value, kind)


def _override(key, value) -> str:
    """``key=value`` with ``value`` written as the YAML that reads back as it."""
    text = yaml.safe_dump(value, default_flow_style=True).removesuffix("...\n")
    return f"{key}={text.strip()}"


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(CONFIG_KEYS)), data=st.data())
def test_every_key_accepts_its_type_and_rejects_others(key, data):
    kind = CONFIG_KEYS[key]
    section, name = key.split(".")
    cfg = load_config(None)
    right = data.draw(_VALUES[kind], label="right")
    assign_override(cfg, _override(key, right))
    stored = float(right) if kind is float else right
    assert getattr(getattr(cfg, section), name) == stored

    wrong = data.draw(_ANY.filter(lambda v: not _right_type(kind, v)), label="wrong")
    with pytest.raises(ValueError, match=re.escape(f"config key '{key}' ")):
        assign_override(cfg, _override(key, wrong))
    assert getattr(getattr(cfg, section), name) == stored
