"""Experiment configuration: defaults, YAML loading, and overrides.

Defaults reproduce the 7-cell scenario: one interfering user per
neighboring cell with cross-gains uniform on [0, 1], N = 128 antennas,
L = 256 subcarriers over 5 MHz (19.531 kHz spacing), binary PAM, and a
32 dB operating-point calibration.  Every field can be set from a YAML
file or a dotted-path override; unknown keys are rejected with their
full path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import yaml

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
    target_sinr_db: float = 32.0
    # explicit variance wins over the target when set
    sigma_v_sq: float | None = None


@dataclass
class PilotSection:
    pilot_len: int = 8
    estimator: str = "direct"  # direct | correlate


@dataclass
class BlindSection:
    mu: float = 0.05
    epsilon: float | None = None  # default 1e-12 per tap at runtime
    p: int = 1
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
        ch = self.channel
        if ch.num_subcarriers & (ch.num_subcarriers - 1) != 0:
            raise ValueError(
                "channel.num_subcarriers must be a power of two when the CMT "
                "transmultiplexer is engaged"
            )
        return CmtConfig(
            num_subcarriers=ch.num_subcarriers,
            subcarrier_spacing=ch.bandwidth_hz / ch.num_subcarriers,
            overlap_factor=self.cmt.overlap_factor,
            rolloff=self.cmt.rolloff,
        )

    def blind_epsilon(self) -> float:
        if self.blind.epsilon is not None:
            return self.blind.epsilon
        return 1e-12 * self.channel.num_antennas


_INT_OK = (int, np.integer)
_FLOAT_OK = (int, float, np.integer, np.floating)


def _assign(section, key: str, value, path: str) -> None:
    fields = {f.name: f for f in dataclasses.fields(section)}
    if key not in fields:
        raise ValueError(f"unknown config key '{path}'")
    current = getattr(section, key)
    if dataclasses.is_dataclass(current):
        if not isinstance(value, dict):
            raise ValueError(f"config key '{path}' expects a mapping")
        for sub_key, sub_value in value.items():
            _assign(current, str(sub_key), sub_value, f"{path}.{sub_key}")
        return
    if isinstance(value, bool):
        if not isinstance(current, bool):
            raise ValueError(f"config key '{path}' does not take a boolean")
    elif isinstance(current, bool):
        raise ValueError(f"config key '{path}' expects a boolean")
    elif isinstance(current, int) and not isinstance(value, _INT_OK):
        raise ValueError(f"config key '{path}' expects an integer, got {value!r}")
    elif isinstance(current, float):
        if not isinstance(value, _FLOAT_OK):
            raise ValueError(f"config key '{path}' expects a number, got {value!r}")
        value = float(value)
    setattr(section, key, value)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check every cross-field constraint; raises naming the key and its bound."""
    topo, ch, cm, sig = config.topology, config.channel, config.cmt, config.signaling
    noise, pilot, b, eye = config.noise, config.pilot, config.blind, config.eye
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
        ("noise.sigma_v_sq", noise.sigma_v_sq is None or noise.sigma_v_sq >= 0.0, "null or >= 0"),
        (
            "pilot.pilot_len",
            pilot.pilot_len >= topo.users_per_cell,
            f">= topology.users_per_cell = {topo.users_per_cell}",
        ),
        ("pilot.estimator", pilot.estimator in ("direct", "correlate"), "'direct' or 'correlate'"),
        ("blind.mu", b.mu >= 0.0, ">= 0"),
        # the normalized (NLMS) step 2 mu must stay below 2 to converge
        ("blind.mu", not b.normalized or b.mu < 1.0, "< 1 when blind.normalized is true"),
        ("blind.epsilon", b.epsilon is None or b.epsilon >= 0.0, "null or >= 0"),
        ("blind.p", b.p >= 1, ">= 1"),
        ("blind.packet_len", b.packet_len >= 1, ">= 1"),
        ("blind.passes", b.passes >= 1, ">= 1"),
        ("blind.probe_symbols", b.probe_symbols >= 1000, ">= 1000"),
        ("eye.updates", eye.updates >= 1, ">= 1"),
        ("eye.num_buckets", eye.num_buckets >= 2, ">= 2"),
        ("eye.samples_per_bucket", eye.samples_per_bucket >= 1, ">= 1"),
        ("run.num_trials", config.run.num_trials >= 1, ">= 1"),
    ]
    for path, ok, bound in checks:
        if not ok:
            section, key = path.split(".")
            value = getattr(getattr(config, section), key)
            raise ValueError(f"{path} must be {bound} (got {value!r})")
    for path, build in (
        ("signaling.pam_levels", config.alphabet),
        ("channel.pdp_delays_us/pdp_powers_db", config.pdp),
    ):
        try:
            build()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
    value = yaml.safe_load(raw)
    target = config
    for part in parts[:-1]:
        names = {f.name for f in dataclasses.fields(target)}
        if part not in names or not dataclasses.is_dataclass(getattr(target, part)):
            raise ValueError(f"unknown config section '{'.'.join(parts[:-1])}'")
        target = getattr(target, part)
    _assign(target, parts[-1], value, dotted.strip())
    return config
