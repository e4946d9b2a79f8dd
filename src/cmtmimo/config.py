"""Experiment configuration: defaults, YAML loading, and overrides.

Defaults reproduce the 7-cell scenario: one interfering user per
neighboring cell with cross-gains uniform on [0, 1], N = 128 antennas,
L = 256 subcarriers over 5 MHz (19.531 kHz spacing), binary PAM, and a
32 dB operating-point calibration.  Every field can be set from a YAML
file or a dotted-path override; an unknown key, or a value that is not
of the type the field is annotated with, is rejected with its full path.
``validate_config`` then rejects, naming the key, a non-finite number
(only ``noise.target_sinr_db`` takes +inf) before any bound or object
built from the config sees it.

A value the code derives from other keys has no key of its own: the
noise variance follows from ``noise.target_sinr_db``, and the tracker's
regularizer and dispersion constant from the antenna count and the
alphabet (see ``harness.calibrate_noise`` and ``harness._track_group``).
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import topology
from .blind import PamAlphabet
from .channel import PowerDelayProfile
from .cmt import CmtConfig


@dataclass
class TopologySection:
    num_cells: int = 7
    users_per_cell: int = 1
    gain_low: float = 0.0
    gain_high: float = 1.0
    # explicit (M, M, K) nested list pinning a scenario; overrides the range
    explicit_gains: list | None = None


@dataclass
class ChannelSection:
    bandwidth_hz: float = 5e6
    num_subcarriers: int = 256
    num_antennas: int = 128
    subcarrier_index: int = 64
    pdp_delays_us: list = field(default_factory=lambda: [0.0, 0.2, 0.5, 1.6, 2.3, 5.0])
    pdp_powers_db: list = field(default_factory=lambda: [-3.0, 0.0, -2.0, -6.0, -8.0, -10.0])


@dataclass
class CmtSection:
    overlap_factor: int = 32
    rolloff: float = 0.25
    # multicarrier symbol instants for the gaussianity measurement
    num_frames: int = 480


@dataclass
class SignalingSection:
    pam_levels: list = field(default_factory=lambda: [-1.0, 1.0])
    # fixed: use sigma_q_sq below; calibrated: measure it from the CMT
    # loopback at experiment start (seeded from the master seed)
    sigma_q_mode: str = "fixed"
    sigma_q_sq: float = 1.0


@dataclass
class NoiseSection:
    # perfect-CSI MF operating point that fixes the noise variance; +inf is noiseless
    target_sinr_db: float = 32.0


@dataclass
class PilotSection:
    pilot_len: int = 8
    estimator: str = "direct"  # direct | correlate


@dataclass
class BlindSection:
    mu: float = 0.05
    normalized: bool = True
    packet_len: int = 1000
    passes: int = 120
    probe_symbols: int = 4000
    probe_dense_every: int = 25
    probe_dense_until: int = 1000
    probe_mid_every: int = 250
    probe_mid_until: int = 10000
    probe_sparse_every: int = 4000


@dataclass
class EyeSection:
    updates: int = 3000
    num_buckets: int = 6
    samples_per_bucket: int = 500


@dataclass
class RunSection:
    master_seed: int = 12345
    num_trials: int = 20
    out_dir: str = "out"


@dataclass
class ExperimentConfig:
    topology: TopologySection = field(default_factory=TopologySection)
    channel: ChannelSection = field(default_factory=ChannelSection)
    cmt: CmtSection = field(default_factory=CmtSection)
    signaling: SignalingSection = field(default_factory=SignalingSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    pilot: PilotSection = field(default_factory=PilotSection)
    blind: BlindSection = field(default_factory=BlindSection)
    eye: EyeSection = field(default_factory=EyeSection)
    run: RunSection = field(default_factory=RunSection)

    def alphabet(self) -> PamAlphabet:
        return PamAlphabet.uniform(self.signaling.pam_levels)

    def pdp(self) -> PowerDelayProfile:
        return PowerDelayProfile.from_db(
            self.channel.pdp_delays_us, self.channel.pdp_powers_db
        )

    def cmt_config(self) -> CmtConfig:
        return CmtConfig(
            num_subcarriers=self.channel.num_subcarriers,
            overlap_factor=self.cmt.overlap_factor,
            rolloff=self.cmt.rolloff,
        )

    def explicit_topology(self) -> topology.CellTopology | None:
        """The topology pinned by ``topology.explicit_gains``, or None if unset."""
        if self.topology.explicit_gains is None:
            return None
        return topology.explicit_topology(self.topology.explicit_gains)


# the YAML values each annotated leaf type takes, and how its error names the type
_LEAF_TYPES = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    list | None: ((list, type(None)), "a list or null"),
}


def _assign(section, key: str, value, path: str) -> None:
    kinds = typing.get_type_hints(type(section))
    if key not in kinds:
        raise ValueError(f"unknown config key '{path}'")
    kind = kinds[key]
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"config key '{path}' expects a mapping")
        for sub_key, sub_value in value.items():
            _assign(getattr(section, key), str(sub_key), sub_value, f"{path}.{sub_key}")
        return
    if isinstance(value, dict):
        raise ValueError(f"config key '{path}' is not a section")
    accepted, noun = _LEAF_TYPES[kind]
    # bool is an int subclass, so only a bool key takes True or False
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"config key '{path}' expects {noun}, got {value!r}")
    # a non-finite number stays as given, for _check_numbers to reject by its
    # key: float() of an integer beyond the float range would raise
    setattr(section, key, float(value) if kind is float and _all_finite(value) else value)


def _build(path: str, build):
    """``build()``, with a ValueError it raises prefixed by the config ``path``."""
    try:
        return build()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _all_finite(value) -> bool:
    """Whether ``value``, a number or a nested list, holds only numbers
    (not bools) with finite float values."""
    if isinstance(value, list):
        return all(_all_finite(item) for item in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_numbers(config: ExperimentConfig) -> None:
    """Reject a non-finite float key (``noise.target_sinr_db`` may be
    +inf), a list key holding anything but finite numbers, and a nested
    or empty ``signaling.pam_levels``, naming the key."""
    for section in dataclasses.fields(config):
        values = getattr(config, section.name)
        for key, kind in typing.get_type_hints(type(values)).items():
            path, value = f"{section.name}.{key}", getattr(values, key)
            if kind is float and path != "noise.target_sinr_db" and not _all_finite(value):
                raise ValueError(f"{path} must be finite (got {value!r})")
            if isinstance(value, list) and not _all_finite(value):
                raise ValueError(f"{path} must hold only finite numbers (got {value!r})")
    levels = config.signaling.pam_levels
    if not levels or any(isinstance(x, list) for x in levels):
        raise ValueError(f"signaling.pam_levels must be a non-empty flat list (got {levels!r})")


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check every value and cross-field constraint; raises naming the key
    and what its value must be."""
    topo, ch, cm, sig = config.topology, config.channel, config.cmt, config.signaling
    noise, pilot, b, eye = config.noise, config.pilot, config.blind, config.eye
    _check_numbers(config)
    _build("signaling.pam_levels", config.alphabet)
    _build("channel.pdp_delays_us/pdp_powers_db", config.pdp)
    explicit = _build("topology.explicit_gains", config.explicit_topology)
    users_key, users = "topology.users_per_cell", topo.users_per_cell
    if explicit is not None:
        users_key, users = "the users per cell of topology.explicit_gains", explicit.users_per_cell
    checks = [
        ("topology.num_cells", topo.num_cells >= 1, ">= 1"),
        ("topology.users_per_cell", topo.users_per_cell >= 1, ">= 1"),
        (
            "topology.gain_low",
            0.0 <= topo.gain_low <= topo.gain_high,
            f"in [0, topology.gain_high] = [0, {topo.gain_high}]",
        ),
        ("topology.gain_high", topo.gain_high <= 1.0, "<= 1"),
        ("channel.bandwidth_hz", ch.bandwidth_hz > 0, "> 0"),
        ("channel.num_subcarriers", ch.num_subcarriers >= 2, ">= 2"),
        ("channel.num_antennas", ch.num_antennas >= 1, ">= 1"),
        (
            "channel.subcarrier_index",
            0 <= ch.subcarrier_index < ch.num_subcarriers,
            f"in [0, channel.num_subcarriers) = [0, {ch.num_subcarriers})",
        ),
        ("cmt.overlap_factor", cm.overlap_factor >= 4, ">= 4"),
        ("cmt.rolloff", 0.0 < cm.rolloff <= 1.0, "in (0, 1]"),
        (
            "cmt.num_frames",
            cm.num_frames > 2 * cm.overlap_factor,
            f"> 2 * cmt.overlap_factor = {2 * cm.overlap_factor}",
        ),
        (
            "signaling.sigma_q_mode",
            sig.sigma_q_mode in ("fixed", "calibrated"),
            "'fixed' or 'calibrated'",
        ),
        ("signaling.sigma_q_sq", sig.sigma_q_sq >= 0.0, ">= 0"),
        (
            "noise.target_sinr_db",
            np.isfinite(noise.target_sinr_db) or noise.target_sinr_db == np.inf,
            "finite or +inf",
        ),
        ("pilot.pilot_len", pilot.pilot_len >= users, f">= {users_key} = {users}"),
        ("pilot.estimator", pilot.estimator in ("direct", "correlate"), "'direct' or 'correlate'"),
        ("blind.mu", b.mu >= 0.0, ">= 0"),
        # the normalized (NLMS) step 2 mu must stay below 2 to converge
        ("blind.mu", not b.normalized or b.mu < 1.0, "< 1 when blind.normalized is true"),
        ("blind.packet_len", b.packet_len >= 1, ">= 1"),
        ("blind.passes", b.passes >= 1, ">= 1"),
        ("blind.probe_symbols", b.probe_symbols >= 1000, ">= 1000"),
        ("blind.probe_dense_every", b.probe_dense_every >= 1, ">= 1"),
        ("blind.probe_dense_until", b.probe_dense_until >= 0, ">= 0"),
        ("blind.probe_mid_every", b.probe_mid_every >= 1, ">= 1"),
        ("blind.probe_mid_until", b.probe_mid_until >= 0, ">= 0"),
        ("blind.probe_sparse_every", b.probe_sparse_every >= 1, ">= 1"),
        ("eye.updates", eye.updates >= 1, ">= 1"),
        ("eye.num_buckets", eye.num_buckets >= 2, ">= 2"),
        ("eye.samples_per_bucket", eye.samples_per_bucket >= 1, ">= 1"),
        ("run.master_seed", config.run.master_seed >= 0, ">= 0"),
        ("run.num_trials", config.run.num_trials >= 1, ">= 1"),
    ]
    for path, ok, bound in checks:
        if not ok:
            section, key = path.split(".")
            value = getattr(getattr(config, section), key)
            raise ValueError(f"{path} must be {bound} (got {value!r})")
    return config


def load_config(path: str | None = None) -> ExperimentConfig:
    """Load a YAML config file; missing keys fall back to the defaults.

    ``path=None`` or an empty file yields the full default configuration.
    Unknown keys and type mismatches raise with the offending dotted path.
    """
    config = ExperimentConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ValueError("config file must contain a mapping at top level")
        for key, value in data.items():
            _assign(config, str(key), value, str(key))
    return validate_config(config)


def assign_override(config: ExperimentConfig, spec: str) -> ExperimentConfig:
    """Assign one override without re-validating the whole config.

    Lets a batch of overrides that is only consistent as a whole (say,
    shrinking ``channel.num_subcarriers`` and ``channel.subcarrier_index``
    together) be applied in any order; call ``validate_config`` once after
    the last one.
    """
    if "=" not in spec:
        raise ValueError(f"override '{spec}' is not of the form key=value")
    dotted, raw = spec.split("=", 1)
    parts = dotted.strip().split(".")
    if not all(parts):
        raise ValueError(f"override '{spec}' has an empty path component")
    # a.b.c=v is the YAML mapping {a: {b: {c: v}}}
    value = yaml.safe_load(raw)
    for part in reversed(parts[1:]):
        value = {part: value}
    _assign(config, parts[0], value, parts[0])
    return config
