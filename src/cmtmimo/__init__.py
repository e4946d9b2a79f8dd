"""Multi-cell massive-MIMO uplink simulator with CMT signaling and a
Godard-style blind tap-weight tracker.

The package models one uplink subcarrier: cross-cell gains (topology),
COST 207 multipath draws (channel), cosine-modulated multitone loopback
statistics (cmt), pilot-contaminated estimation (airlink), reference
combiners (combine), the blind tracker (blind) and its NumPy tracking
kernel (kernels), and the canonical experiments with the SINR metric
``probe_sinrs`` and its one-combiner form ``block_sinr`` (harness).
"""

from .airlink import (
    ChannelEstimate,
    PilotBook,
    dft_pilot_book,
    estimate_channels_correlate,
    estimate_channels_direct,
    make_transmit_symbol,
    send_pilots,
    uplink_batch,
)
from .blind import (
    BlindTrackerState,
    PamAlphabet,
    blind_step,
    dispersion_constant,
    run_packet,
)
from .channel import (
    COST207_TU6,
    ChannelRealization,
    PowerDelayProfile,
    draw_channels,
    matrix_stack,
)
from .cmt import (
    CmtConfig,
    IntrinsicStats,
    PrototypeFilter,
    cmt_demodulate,
    cmt_synthesize,
    design_prototype,
    measure_intrinsic_stats,
)
from .combine import CombinerWeights, mf_weights, mmse_weights
from .config import ExperimentConfig, load_config
from .harness import (
    block_sinr,
    build_scenario,
    calibrate_noise,
    probe_sinrs,
    resolve_sigma_q_sq,
    run_eye,
    run_fig3,
    run_gaussianity,
    trial_rng,
)
from .topology import CellTopology, build_topology, explicit_topology
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "BlindTrackerState",
    "COST207_TU6",
    "CellTopology",
    "ChannelEstimate",
    "ChannelRealization",
    "CmtConfig",
    "CombinerWeights",
    "ExperimentConfig",
    "IntrinsicStats",
    "PamAlphabet",
    "PilotBook",
    "PowerDelayProfile",
    "PrototypeFilter",
    "blind_step",
    "block_sinr",
    "build_scenario",
    "build_topology",
    "calibrate_noise",
    "cmt_demodulate",
    "cmt_synthesize",
    "design_prototype",
    "dft_pilot_book",
    "dispersion_constant",
    "draw_channels",
    "estimate_channels_correlate",
    "estimate_channels_direct",
    "explicit_topology",
    "load_config",
    "make_transmit_symbol",
    "matrix_stack",
    "measure_intrinsic_stats",
    "mf_weights",
    "mmse_weights",
    "probe_sinrs",
    "resolve_sigma_q_sq",
    "run_eye",
    "run_fig3",
    "run_gaussianity",
    "run_packet",
    "run_verify",
    "send_pilots",
    "trial_rng",
    "uplink_batch",
]
