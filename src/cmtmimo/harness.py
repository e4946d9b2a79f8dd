"""Experiment orchestration: scenario assembly, the three canonical
experiments, and CSV emission.

Each trial derives its own generator from (master seed, trial index) via
``SeedSequence.spawn``, so trials are independent and reruns are
byte-identical.  Experiments work on one representative subcarrier; the
per-subcarrier model is independent across subcarriers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import airlink, blind, channel, cmt, combine, topology
from .config import ExperimentConfig

TRAJECTORY_HEADER = (
    "trial_id,iteration,sinr_blind_db,sinr_mf_perfect_db,"
    "sinr_mmse_perfect_db,sinr_mf_contaminated_db"
)
SUMMARY_HEADER = "trial_id,cross_iteration,final_sinr_blind_db,final_gap_to_mmse_db"
EYE_HEADER = "iteration_bucket,sample_value"
EYE_OPENING_HEADER = "trial_id,iteration_bucket,eye_opening"
STATS_HEADER = "sigma_q_sq,kurtosis_imag,kurtosis_real_unequalized,err_rate"


def _fmt(x) -> str:
    """Locale-independent CSV number: 12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path: str, header: str, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def trial_rng(master_seed: int, trial: int, num_trials: int) -> np.random.Generator:
    """Generator for one trial, derived from (master seed, trial index)."""
    children = np.random.SeedSequence(master_seed).spawn(num_trials)
    return np.random.default_rng(children[trial])


def calibrate_noise(config: ExperimentConfig, channel_energy: float | None = None) -> float:
    """Receive-noise variance for the configured operating point.

    An explicit ``noise.sigma_v_sq`` wins.  Otherwise the target SINR is
    read as the contamination-free perfect-CSI MF operating point, giving

        sigma_v_sq = 2 E[||h||^2] E[s^2] / 10^(target/10).

    ``channel_energy`` defaults to N (exact for a unit-energy profile); a
    measured average over sample draws may be passed instead.  A target of
    +inf means noiseless operation.
    """
    if config.noise.sigma_v_sq is not None:
        return float(config.noise.sigma_v_sq)
    target = config.noise.target_sinr_db
    if not (np.isfinite(target) or target == np.inf):
        raise ValueError("noise.target_sinr_db must be finite or +inf")
    if target == np.inf:
        return 0.0
    if channel_energy is None:
        channel_energy = float(config.channel.num_antennas)
    es = config.alphabet().second_moment
    return 2.0 * channel_energy * es / 10.0 ** (target / 10.0)


def resolve_sigma_q_sq(config: ExperimentConfig) -> float:
    """The intrinsic-interference variance the abstract model should use.

    Mode "fixed" returns ``signaling.sigma_q_sq``.  Mode "calibrated"
    measures it from the CMT loopback, seeded from the master seed so the
    result is a pure function of config + seed.
    """
    if config.signaling.sigma_q_mode == "fixed":
        return float(config.signaling.sigma_q_sq)
    cmt_cfg = config.cmt_config()
    proto = cmt.design_prototype(cmt_cfg)
    rng = np.random.default_rng(np.random.SeedSequence(config.run.master_seed))
    stats = cmt.measure_intrinsic_stats(
        cmt_cfg, proto, rng, config.cmt.num_frames, min_samples=1
    )
    return stats.sigma_q_sq * config.alphabet().second_moment


@dataclass
class TrialScenario:
    """Everything one trial needs, frozen after assembly (BS 0, user 0)."""

    topo: topology.CellTopology
    h_stack: np.ndarray  # (M, M, N, K) at the working subcarrier
    h_desired: np.ndarray  # (N,) perfect CSI of the desired user
    h_hat: np.ndarray  # (N,) contaminated estimate of the desired user
    sigma_v_sq: float
    sigma_q: float
    alphabet: blind.PamAlphabet
    rng: np.random.Generator

    def draw_block(self, num_symbols: int) -> tuple[np.ndarray, np.ndarray]:
        """Received block (n, N) at BS 0 and the desired user's symbols."""
        topo = self.topo
        shape = (topo.num_cells, topo.users_per_cell, num_symbols)
        s = self.alphabet.draw(self.rng, shape)
        t = airlink.make_transmit_symbol(s, self.sigma_q, self.rng)
        x = airlink.uplink_batch(topo, self.h_stack, 0, t, self.sigma_v_sq, self.rng)
        return x, s[0, 0]


def build_scenario(
    config: ExperimentConfig, rng: np.random.Generator, sigma_q: float
) -> TrialScenario:
    """Draw topology, channels, and the contaminated estimate for one trial.

    ``sigma_q`` is the intrinsic-interference standard deviation, the
    square root of ``resolve_sigma_q_sq(config)``; experiments resolve it
    once per run because it does not depend on the trial.
    """
    topo_cfg = config.topology
    if topo_cfg.explicit_gains is not None:
        topo = topology.explicit_topology(np.asarray(topo_cfg.explicit_gains, dtype=float))
    else:
        topo = topology.build_topology(
            topo_cfg.num_cells,
            topo_cfg.users_per_cell,
            topo_cfg.gain_low,
            topo_cfg.gain_high,
            rng,
        )
    realization = channel.draw_channels(
        topo,
        config.pdp(),
        config.channel.num_antennas,
        rng,
        sample_rate=config.channel.bandwidth_hz,
        num_subcarriers=config.channel.num_subcarriers,
    )
    h_stack = channel.matrix_stack(realization, config.channel.subcarrier_index)
    sigma_v_sq = calibrate_noise(config)
    if config.pilot.estimator == "direct":
        estimate = airlink.estimate_channels_direct(
            topo, h_stack, 0, sigma_v_sq, config.pilot.pilot_len, rng
        )
    else:
        pilots = airlink.dft_pilot_book(topo.users_per_cell, config.pilot.pilot_len)
        frames = airlink.send_pilots(topo, h_stack, 0, pilots, sigma_v_sq, rng)
        estimate = airlink.estimate_channels_correlate(pilots, frames, sigma_v_sq)
    return TrialScenario(
        topo=topo,
        h_stack=h_stack,
        h_desired=h_stack[0, 0][:, 0].copy(),
        h_hat=estimate.H_hat[:, 0].copy(),
        sigma_v_sq=sigma_v_sq,
        sigma_q=sigma_q,
        alphabet=config.alphabet(),
        rng=rng,
    )


def block_sinr(w, x_block: np.ndarray, s_block: np.ndarray) -> float:
    """Empirical output SINR of a combiner on a fixed held-out block.

    Parameters
    ----------
    w : CombinerWeights or ndarray
        Combiner to evaluate.
    x_block : ndarray, shape (n, N)
        Received vectors.
    s_block : ndarray, shape (n,)
        The desired user's true PAM symbols (n >= 1000 for a stable
        estimate).

    The output is y = Re{w^H x}; the least-squares gain g = sum(y s)/sum(s^2)
    splits y into signal and residual, and sinr = g^2 E[s^2] / residual, so
    the metric applies to weights of any scale and rotation.  Zero residual
    reports +inf; zero gain reports -inf.
    """
    n = s_block.size
    if n < 1000:
        raise ValueError("block_sinr needs at least 1000 symbols")
    if x_block.shape[0] != n:
        raise ValueError("x_block rows disagree with the length of s_block")
    w_vec = w.w if isinstance(w, combine.CombinerWeights) else np.asarray(w, dtype=complex)
    y = np.real(x_block @ w_vec.conj())
    sum_ys = float(y @ s_block)
    sum_ss = float(s_block @ s_block)
    sum_yy = float(y @ y)
    if sum_ss == 0.0:
        raise ValueError("s_block holds only zero symbols")
    gain = sum_ys / sum_ss
    residual = (sum_yy - gain * sum_ys) / n
    symbol_energy = sum_ss / n
    if gain == 0.0:
        return -np.inf
    if residual <= 0.0:
        return np.inf
    return float(10.0 * np.log10(gain * gain * symbol_energy / residual))


def reference_weights(scen: TrialScenario, config: ExperimentConfig):
    """MF-perfect, MMSE-perfect, MF-contaminated combiners for user 0."""
    et2 = config.alphabet().second_moment + scen.sigma_q**2
    w_mf = combine.mf_weights(scen.h_desired)
    w_mmse = combine.mmse_weights(
        scen.h_stack[:, 0], scen.topo.gains_at(0), 0, scen.sigma_v_sq, et2
    )[0]
    w_contam = combine.mf_weights(scen.h_hat)
    return w_mf, w_mmse, w_contam


def initial_state(config: ExperimentConfig, scen: TrialScenario) -> blind.BlindTrackerState:
    """Tracker state at the contaminated MF with the configured step and R."""
    return blind.init_weights(
        scen.h_hat,
        mu=config.blind.mu,
        epsilon=config.blind_epsilon(),
        p=config.blind.p,
        R=blind.dispersion_constant(config.alphabet(), config.blind.p),
    )


def _probe_schedule(config: ExperimentConfig, total: int) -> list[int]:
    b = config.blind
    stops = set(range(0, min(b.probe_dense_until, total) + 1, b.probe_dense_every))
    stops.update(range(0, min(b.probe_mid_until, total) + 1, b.probe_mid_every))
    stops.update(range(0, total + 1, b.probe_sparse_every))
    stops.add(total)
    return sorted(stops)


def run_fig3(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """SINR-trajectory experiment; writes trajectory.csv and summary.csv.

    Per trial: assemble the scenario, measure the three reference levels
    on a held-out block, track blind weights over a cyclically reused
    packet with SINR probes on the same block, and record the crossing of
    the MF-perfect level plus the final gap to MMSE.

    Returns the output paths and the per-trial trajectories.
    """
    out_dir = out_dir or config.run.out_dir
    total = config.blind.packet_len * config.blind.passes
    schedule = _probe_schedule(config, total)
    sigma_q = float(np.sqrt(resolve_sigma_q_sq(config)))
    traj_rows = []
    summary_rows = []
    trajectories = []
    for trial in range(config.run.num_trials):
        rng = trial_rng(config.run.master_seed, trial, config.run.num_trials)
        scen = build_scenario(config, rng, sigma_q)
        packet, _ = scen.draw_block(config.blind.packet_len)
        x_probe, s_probe = scen.draw_block(config.blind.probe_symbols)
        w_mf, w_mmse, w_contam = reference_weights(scen, config)
        level_mf = block_sinr(w_mf, x_probe, s_probe)
        level_mmse = block_sinr(w_mmse, x_probe, s_probe)
        level_contam = block_sinr(w_contam, x_probe, s_probe)

        trajectory, _ = blind.run_packet(
            initial_state(config, scen),
            packet,
            config.blind.passes,
            probe=lambda w: block_sinr(w, x_probe, s_probe),
            probe_at=schedule,
            normalized=config.blind.normalized,
        )
        trajectories.append(
            {
                "trial": trial,
                "trajectory": trajectory,
                "mf": level_mf,
                "mmse": level_mmse,
                "contam": level_contam,
            }
        )
        for iteration, sinr in trajectory:
            traj_rows.append(
                (trial, iteration, sinr, level_mf, level_mmse, level_contam)
            )
        crossing = next((it for it, v in trajectory if v >= level_mf), -1)
        final = trajectory[-1][1]
        summary_rows.append((trial, crossing, final, level_mmse - final))

    traj_path = os.path.join(out_dir, "trajectory.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_csv(traj_path, TRAJECTORY_HEADER, traj_rows)
    _write_csv(summary_path, SUMMARY_HEADER, summary_rows)
    return {
        "trajectory_csv": traj_path,
        "summary_csv": summary_path,
        "trials": trajectories,
    }


def run_eye(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Eye-pattern experiment; writes eye.csv and eye_opening.csv.

    Pre-decision outputs s_hat are collected during adaptation and split
    into equal iteration buckets (labeled by their start iteration).  The
    per-bucket eye opening is min |s_hat| over all decisions in the bucket
    (the closest approach to the decision threshold, as read off a classic
    eye diagram); eye.csv logs up to ``eye.samples_per_bucket`` samples
    per bucket for plotting.
    """
    out_dir = out_dir or config.run.out_dir
    passes = -(-config.eye.updates // config.blind.packet_len)
    total = passes * config.blind.packet_len
    if total < config.eye.num_buckets:
        raise ValueError("eye.updates must provide at least one decision per bucket")
    bounds = np.linspace(0, total, config.eye.num_buckets + 1).astype(int)
    sigma_q = float(np.sqrt(resolve_sigma_q_sq(config)))
    eye_rows = []
    opening_rows = []
    openings = []
    for trial in range(config.run.num_trials):
        rng = trial_rng(config.run.master_seed, trial, config.run.num_trials)
        scen = build_scenario(config, rng, sigma_q)
        packet, _ = scen.draw_block(config.blind.packet_len)
        _, _, decisions = blind.run_packet(
            initial_state(config, scen),
            packet,
            passes,
            normalized=config.blind.normalized,
            collect_decisions=True,
        )
        per_trial = []
        for b in range(config.eye.num_buckets):
            lo, hi = bounds[b], bounds[b + 1]
            bucket = decisions[lo:hi]
            opening = float(np.min(np.abs(bucket)))
            per_trial.append(opening)
            opening_rows.append((trial, lo, opening))
            for v in bucket[: config.eye.samples_per_bucket]:
                eye_rows.append((lo, v))
        openings.append(per_trial)

    eye_path = os.path.join(out_dir, "eye.csv")
    opening_path = os.path.join(out_dir, "eye_opening.csv")
    _write_csv(eye_path, EYE_HEADER, eye_rows)
    _write_csv(opening_path, EYE_OPENING_HEADER, opening_rows)
    return {
        "eye_csv": eye_path,
        "eye_opening_csv": opening_path,
        "openings": np.asarray(openings),
    }


def run_gaussianity(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """CMT loopback statistics; writes stats.csv (one row)."""
    out_dir = out_dir or config.run.out_dir
    cmt_cfg = config.cmt_config()
    proto = cmt.design_prototype(cmt_cfg)
    rng = np.random.default_rng(np.random.SeedSequence(config.run.master_seed))
    stats = cmt.measure_intrinsic_stats(cmt_cfg, proto, rng, config.cmt.num_frames)
    path = os.path.join(out_dir, "stats.csv")
    _write_csv(
        path,
        STATS_HEADER,
        [
            (
                stats.sigma_q_sq,
                stats.kurtosis_imag,
                stats.kurtosis_real_unequalized,
                stats.real_part_alphabet_error_rate,
            )
        ],
    )
    return {"stats_csv": path, "stats": stats}
