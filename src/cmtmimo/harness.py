"""Experiment orchestration: scenario assembly, the three canonical
experiments, and CSV emission.

Each trial derives its own generator from (master seed, trial index): the
child ``SeedSequence(master_seed).spawn(n)[trial]`` for any n > trial,
built directly from its spawn key.  So trials are independent, a trial's
stream does not depend on how many trials run, and reruns are
byte-identical.  Experiments work on one representative subcarrier; the
per-subcarrier model is independent across subcarriers.

``run_fig3`` and ``run_eye`` each open one thread pool of ``WORKERS``
threads for the run.  Its workers do the per-trial work: assembling a
trial's scenario and packet, checking the packet and building its
tracker inputs (steps and block factors) and, in ``run_fig3``, scoring
its probe block.  Between those stages the main thread runs the batched
tracking kernel on the whole group.  A task touches only its own trial's
generator, in the order a serial loop would, and results come back in
trial order, so the CSV bytes do not depend on the number of workers.
The generator fills, GEMMs and LAPACK solves of that work release the
GIL, so the workers run in parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import airlink, blind, channel, cmt, combine, kernels, topology
from .config import ExperimentConfig

TRAJECTORY_HEADER = (
    "trial_id,iteration,sinr_blind_db,sinr_mf_perfect_db,"
    "sinr_mmse_perfect_db,sinr_mf_contaminated_db"
)
SUMMARY_HEADER = "trial_id,cross_iteration,final_sinr_blind_db,final_gap_to_mmse_db"
EYE_HEADER = "iteration_bucket,sample_value"
EYE_OPENING_HEADER = "trial_id,iteration_bucket,eye_opening"
STATS_HEADER = "sigma_q_sq,kurtosis_imag,kurtosis_real_unequalized,err_rate"


# printf-style row templates.  %d and %.12g write the same text as
# str(int(x)) and f"{x:.12g}": locale-independent, 12 significant digits.
TRAJECTORY_ROW = "%d,%d,%.12g,%.12g,%.12g,%.12g\n"
SUMMARY_ROW = "%d,%d,%.12g,%.12g\n"
EYE_OPENING_ROW = "%d,%d,%.12g\n"
STATS_ROW = "%.12g,%.12g,%.12g,%.12g\n"


def _eye_rows(lo: int, samples: list[float]) -> str:
    """eye.csv rows ``lo,sample`` for one bucket's samples, formatted at once."""
    return (f"{lo},%.12g\n" * len(samples)) % tuple(samples)


def _write_csv(path: str, header: str, lines) -> None:
    """Write the header, then the already formatted ``lines`` (an iterable of str)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, derived from (master seed, trial index).

    It draws the same stream as ``SeedSequence(master_seed).spawn(n)[trial]``
    for any n > trial, without spawning the other children.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial,)))


def calibrate_noise(config: ExperimentConfig) -> float:
    """Receive-noise variance for the configured operating point.

    ``noise.target_sinr_db`` is read as the contamination-free
    perfect-CSI MF operating point, giving

        sigma_v_sq = 2 E[||h||^2] E[s^2] / 10^(target/10),

    with E[||h||^2] = N for the unit-energy profile.  A target of +inf
    means noiseless operation.
    """
    target = config.noise.target_sinr_db
    if not (np.isfinite(target) or target == np.inf):
        raise ValueError("noise.target_sinr_db must be finite or +inf")
    if target == np.inf:
        return 0.0
    es = config.alphabet().second_moment
    return 2.0 * float(config.channel.num_antennas) * es / 10.0 ** (target / 10.0)


def resolve_sigma_q_sq(config: ExperimentConfig) -> float:
    """The intrinsic-interference variance the abstract model should use.

    Mode "fixed" returns ``signaling.sigma_q_sq``.  Mode "calibrated"
    measures it from the CMT loopback, seeded from the master seed so the
    result is a pure function of config + seed.  It runs only the
    loopback of ``cmt.measure_intrinsic_stats``, which draws its frames
    first, so it equals that function's ``sigma_q_sq`` bit for bit.
    """
    if config.signaling.sigma_q_mode == "fixed":
        return float(config.signaling.sigma_q_sq)
    rng = np.random.default_rng(np.random.SeedSequence(config.run.master_seed))
    loopback = cmt.intrinsic_loopback(
        config.cmt_config(), rng, config.cmt.num_frames, min_samples=1
    )
    return loopback.sigma_q_sq * config.alphabet().second_moment


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
    config: ExperimentConfig, rng: np.random.Generator, sigma_q: float, sigma_v_sq: float
) -> TrialScenario:
    """Draw topology, channels, and the contaminated estimate for one trial.

    ``sigma_q`` is the intrinsic-interference standard deviation, the
    square root of ``resolve_sigma_q_sq(config)``, and ``sigma_v_sq`` the
    receive-noise variance of ``calibrate_noise(config)``; experiments
    resolve both once per run because they do not depend on the trial.
    """
    topo_cfg = config.topology
    topo = config.explicit_topology()
    if topo is None:
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
    if config.pilot.estimator == "direct":
        estimate = airlink.estimate_channels_direct(
            topo, h_stack, 0, sigma_v_sq, config.pilot.pilot_len, rng
        )
    else:
        pilots = airlink.dft_pilot_book(topo.users_per_cell, config.pilot.pilot_len)
        frames = airlink.send_pilots(topo, h_stack, 0, pilots, sigma_v_sq, rng)
        estimate = airlink.estimate_channels_correlate(pilots, frames)
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


def probe_sinrs(ws: np.ndarray, x_block: np.ndarray, s_block: np.ndarray) -> np.ndarray:
    """Empirical output SINR of every combiner in ``ws`` on one held-out block.

    Parameters
    ----------
    ws : ndarray, shape (K, N)
        Weight vectors, one combiner per row.
    x_block : ndarray, shape (n, N)
        Received vectors.
    s_block : ndarray, shape (n,)
        The desired user's true PAM symbols (n >= 1000 for a stable
        estimate).

    Returns the (K,) SINRs in dB.  Combiner k outputs y = Re{w_k^H x}; the
    least-squares gain g = sum(y s)/sum(s^2) splits y into signal g s and
    residual y - g s, and sinr = g^2 E[s^2] / mean((y - g s)^2), so the
    metric applies to weights of any scale and rotation.  Zero residual reports +inf; zero
    gain reports -inf.  All outputs come from one real GEMM on the
    interleaved (re, im) parts: Re{x w^H} = x_re @ w_re^T.
    """
    n = s_block.size
    if n < 1000:
        raise ValueError("a SINR probe block needs at least 1000 symbols")
    if x_block.shape[0] != n:
        raise ValueError("x_block rows disagree with the length of s_block")
    sum_ss = float(s_block @ s_block)
    if sum_ss == 0.0:
        raise ValueError("s_block holds only zero symbols")
    x_re = np.ascontiguousarray(x_block, dtype=complex).view(np.float64)
    w_re = np.ascontiguousarray(ws, dtype=complex).view(np.float64)
    y = x_re @ w_re.T  # (n, K)
    gain = (s_block @ y) / sum_ss
    # sum(y^2) - g sum(y s) is the same residual, but as a difference of
    # near-equal sums it loses digits at high SINR
    y -= np.outer(s_block, gain)
    residual = np.einsum("nk,nk->k", y, y) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = 10.0 * np.log10(gain * gain * (sum_ss / n) / residual)
    sinr[residual <= 0.0] = np.inf
    sinr[gain == 0.0] = -np.inf
    return sinr


def block_sinr(w, x_block: np.ndarray, s_block: np.ndarray) -> float:
    """``probe_sinrs`` of one combiner (CombinerWeights or an (N,) array)."""
    w_vec = w.w if isinstance(w, combine.CombinerWeights) else np.asarray(w, dtype=complex)
    return float(probe_sinrs(w_vec[None, :], x_block, s_block)[0])


def reference_weights(scen: TrialScenario, config: ExperimentConfig):
    """MF-perfect, MMSE-perfect, MF-contaminated combiners for user 0."""
    et2 = config.alphabet().second_moment + scen.sigma_q**2
    w_mf = combine.mf_weights(scen.h_desired)
    w_mmse = combine.mmse_weights(
        scen.h_stack[:, 0], scen.topo.gains_at(0), 0, scen.sigma_v_sq, et2
    )[0]
    w_contam = combine.mf_weights(scen.h_hat)
    return w_mf, w_mmse, w_contam


def initial_state(config: ExperimentConfig, num_trials: int) -> blind.BlindTrackerState:
    """Batched tracker state for a group of ``num_trials`` trials.  Its
    weights are zero until trial t's assembly task starts row t at the MF
    on the trial's contaminated estimate.  The step is ``blind.mu``, the
    regularizer epsilon is 1e-12 per antenna and R is the alphabet's
    p = 1 dispersion constant."""
    return blind.BlindTrackerState(
        w=np.zeros((num_trials, config.channel.num_antennas), dtype=complex),
        mu=config.blind.mu,
        epsilon=1e-12 * config.channel.num_antennas,
        R=blind.dispersion_constant(config.alphabet(), 1),
    )


def _probe_schedule(config: ExperimentConfig, total: int) -> list[int]:
    b = config.blind
    stops = set(range(0, min(b.probe_dense_until, total) + 1, b.probe_dense_every))
    stops.update(range(0, min(b.probe_mid_until, total) + 1, b.probe_mid_every))
    stops.update(range(0, total + 1, b.probe_sparse_every))
    stops.add(total)
    return sorted(stops)


# Packet-stack bytes tracked as one batch: 20 trials of the default
# 1000 x 128 complex packet.  Wider batches add memory, not speed.
GROUP_BYTES = 40 * 2**20

# Threads that assemble and score trials: one per CPU this process may run on.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _trial_groups(config: ExperimentConfig) -> list[range]:
    """Consecutive trial ranges whose packet stacks fit in ``GROUP_BYTES``."""
    trial_bytes = config.blind.packet_len * config.channel.num_antennas * 16
    width = max(1, GROUP_BYTES // trial_bytes)
    num_trials = config.run.num_trials
    return [range(lo, min(lo + width, num_trials)) for lo in range(0, num_trials, width)]


def _track_group(
    config: ExperimentConfig,
    trials: range,
    sigma_q: float,
    sigma_v_sq: float,
    passes: int,
    pool: Executor,
    snapshots=(),
    collect_decisions: bool = False,
) -> tuple[list[TrialScenario], np.ndarray, np.ndarray | None]:
    """Assemble a group of trials on ``pool``, then track them as one batch.

    Each pool task builds one trial's scenario from its own generator and
    draws its packet; the generator is left right after the packet, where
    the trial's probe block comes from.  The task then fills the trial's
    share of the group's tracker inputs: row t of the starting weights,
    column t of the (P, T, N) packet stack, and row t of the steps and
    block factors of ``blind.tracker_inputs``, built from the packet alone
    (which also rejects a non-finite packet, naming the trial).  So the
    calling thread only tracks.  The stack lives only while the group is
    tracked.  Returns the scenarios in trial order plus the weight
    snapshots and decisions of ``blind.run_packet``.
    """
    packet_len = config.blind.packet_len
    width = len(trials)
    state = initial_state(config, width)
    packets = np.empty((packet_len, width, config.channel.num_antennas), dtype=complex)
    eta = np.empty((width, packet_len))
    num_blocks = -(-packet_len // kernels.BLOCK)
    factors = np.empty((width, num_blocks, kernels.BLOCK, kernels.BLOCK))

    def assemble(t: int) -> TrialScenario:
        rng = trial_rng(config.run.master_seed, trials[t])
        scen = build_scenario(config, rng, sigma_q, sigma_v_sq)
        packet = scen.draw_block(packet_len)[0]
        eta[t : t + 1], factors[t : t + 1] = blind.tracker_inputs(
            packet, state.mu, state.epsilon, config.blind.normalized, trials[t]
        )
        state.w[t] = combine.mf_weights(scen.h_hat).w
        packets[:, t] = packet
        return scen

    scens = list(pool.map(assemble, range(width)))
    weights, decisions = blind.run_packet(
        state,
        packets,
        eta,
        factors,
        passes,
        snapshots=snapshots,
        collect_decisions=collect_decisions,
        first_trial=trials[0],
    )
    return scens, weights, decisions


def run_fig3(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """SINR-trajectory experiment; writes trajectory.csv and summary.csv.

    Trials run in groups of ``_trial_groups``, each in three stages:
    assemble every trial's scenario, packet and tracker inputs on the
    run's thread pool; track the whole group over its cyclically reused
    packets, keeping the weights at every point of the probe schedule;
    then score on the pool, one task per trial: draw the trial's held-out
    block, and measure the three reference levels and the SINR of each
    kept weight vector on it with one ``probe_sinrs`` call.  The main thread turns the SINR rows,
    in trial order, into the crossing of the MF-perfect level and the
    final gap to MMSE.  One probe block per worker is alive at a time.

    A noiseless config (``noise.target_sinr_db`` = inf) has no MMSE
    reference, so it fails before any trial runs.

    Returns the output paths and the per-trial trajectories.
    """
    out_dir = out_dir or config.run.out_dir
    sigma_v_sq = calibrate_noise(config)
    if sigma_v_sq == 0.0:
        raise ValueError(
            f"noise.target_sinr_db must be finite for simulate (got "
            f"{config.noise.target_sinr_db}): a noiseless run has no MMSE reference"
        )
    total = config.blind.packet_len * config.blind.passes
    schedule = _probe_schedule(config, total)
    sigma_q = float(np.sqrt(resolve_sigma_q_sq(config)))
    traj_rows = []
    summary_rows = []
    trajectories = []
    with ThreadPoolExecutor(WORKERS) as pool:
        for trials in _trial_groups(config):
            scens, weights, _ = _track_group(
                config,
                trials,
                sigma_q,
                sigma_v_sq,
                config.blind.passes,
                pool,
                snapshots=schedule,
            )

            def score(t: int) -> np.ndarray:
                scen = scens[t]
                x_probe, s_probe = scen.draw_block(config.blind.probe_symbols)
                refs = [w.w for w in reference_weights(scen, config)]
                return probe_sinrs(np.vstack(refs + [weights[:, t]]), x_probe, s_probe)

            for trial, sinrs in zip(trials, pool.map(score, range(len(trials)))):
                level_mf, level_mmse, level_contam = sinrs[:3].tolist()
                trajectory = list(zip(schedule, sinrs[3:].tolist()))
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
    _write_csv(traj_path, TRAJECTORY_HEADER, (TRAJECTORY_ROW % row for row in traj_rows))
    _write_csv(summary_path, SUMMARY_HEADER, (SUMMARY_ROW % row for row in summary_rows))
    return {
        "trajectory_csv": traj_path,
        "summary_csv": summary_path,
        "trials": trajectories,
    }


def run_eye(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Eye-pattern experiment; writes eye.csv and eye_opening.csv.

    Pre-decision outputs s_hat are collected during adaptation, for a
    group of trials at a time (assembled, with their tracker inputs, on
    the run's thread pool), and split into iteration buckets
    b * total // num_buckets (labeled by their start iteration).  The per-bucket eye opening is
    min |s_hat| over all decisions in the bucket (the closest approach to
    the decision threshold, as read off a classic eye diagram); eye.csv
    logs up to ``eye.samples_per_bucket`` samples per bucket for plotting.
    """
    out_dir = out_dir or config.run.out_dir
    passes = -(-config.eye.updates // config.blind.packet_len)
    total = passes * config.blind.packet_len
    num_buckets = config.eye.num_buckets
    if total < num_buckets:
        raise ValueError("eye.updates must provide at least one decision per bucket")
    bounds = np.arange(num_buckets + 1) * total // num_buckets
    sigma_q = float(np.sqrt(resolve_sigma_q_sq(config)))
    sigma_v_sq = calibrate_noise(config)
    num_trials = config.run.num_trials
    decisions = np.empty((num_trials, total))
    with ThreadPoolExecutor(WORKERS) as pool:
        for trials in _trial_groups(config):
            _, _, group = _track_group(
                config, trials, sigma_q, sigma_v_sq, passes, pool, collect_decisions=True
            )
            decisions[trials.start : trials.stop] = group.T
    openings = np.minimum.reduceat(np.abs(decisions), bounds[:-1], axis=1)

    spb = config.eye.samples_per_bucket
    starts = bounds[:-1].tolist()
    ends = [min(lo + spb, hi) for lo, hi in zip(starts, bounds[1:].tolist())]
    eye_lines = (
        _eye_rows(lo, row[lo:end].tolist())
        for row in decisions
        for lo, end in zip(starts, ends)
    )
    opening_lines = (
        EYE_OPENING_ROW % (trial, lo, opening)
        for trial in range(num_trials)
        for lo, opening in zip(starts, openings[trial].tolist())
    )
    eye_path = os.path.join(out_dir, "eye.csv")
    opening_path = os.path.join(out_dir, "eye_opening.csv")
    _write_csv(eye_path, EYE_HEADER, eye_lines)
    _write_csv(opening_path, EYE_OPENING_HEADER, opening_lines)
    return {
        "eye_csv": eye_path,
        "eye_opening_csv": opening_path,
        "openings": openings,
    }


def run_gaussianity(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """CMT loopback statistics; writes stats.csv (one row)."""
    out_dir = out_dir or config.run.out_dir
    rng = np.random.default_rng(np.random.SeedSequence(config.run.master_seed))
    stats = cmt.measure_intrinsic_stats(config.cmt_config(), rng, config.cmt.num_frames)
    path = os.path.join(out_dir, "stats.csv")
    row = (
        stats.sigma_q_sq,
        stats.kurtosis_imag,
        stats.kurtosis_real_unequalized,
        stats.real_part_alphabet_error_rate,
    )
    _write_csv(path, STATS_HEADER, [STATS_ROW % row])
    return {"stats_csv": path, "stats": stats}
