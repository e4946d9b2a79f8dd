"""Experiment orchestration: scenario assembly, the three canonical
experiments, and CSV emission.

Each trial derives its own generator from (master seed, trial index): the
child ``SeedSequence(master_seed).spawn(n)[trial]`` for any n > trial,
built directly from its spawn key.  So trials are independent, a trial's
stream does not depend on how many trials run, and reruns are
byte-identical.  Experiments work on one representative subcarrier; the
per-subcarrier model is independent across subcarriers.

``run_fig3`` and ``run_eye`` cut the trials into consecutive groups
(``_trial_groups``) and run one task per group (``_run_groups``) on
forked worker processes (``WORKERS``).  A task assembles its trials'
scenarios and packets, tracks them as one batch with the batched
kernel, then finishes each trial: ``run_fig3`` scores its probe block,
``run_eye`` formats its eye.csv rows.  Tasks only compute: this process
takes their results back in trial order and writes every file.  The
run's packet stacks share one budget (``GROUP_BYTES``).  Each stage is
timed and counted, and a run returns the sums as ``stages``.  A group
draws only from its own trials' generators, so the CSV bytes depend
neither on the group width nor on the number of workers.  Workers are
forked processes, since the kernel's many small numpy calls hold the
GIL and so gain nothing from threads, and every group runs on one
OpenBLAS thread (``blas``).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import airlink, blas, blind, channel, cmt, combine, topology
from .config import ExperimentConfig, _build

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


def _out_dir(config: ExperimentConfig, out_dir: str | None) -> str:
    """``out_dir``, else ``run.out_dir``; raises naming it, before the run
    starts, if a file stands where it or one of its parents would go."""
    out_dir = out_dir or config.run.out_dir
    path = os.path.normpath(out_dir)
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise ValueError(f"run.out_dir: cannot write to {out_dir}: {path} is not a directory")
    return out_dir


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
    means noiseless operation.  A finite target so far out that this
    variance is not finite and positive raises, naming the key.
    """
    target = config.noise.target_sinr_db
    if not (np.isfinite(target) or target == np.inf):
        raise ValueError("noise.target_sinr_db must be finite or +inf")
    if target == np.inf:
        return 0.0
    es = config.alphabet().second_moment
    try:
        sigma_v_sq = 2.0 * float(config.channel.num_antennas) * es / 10.0 ** (target / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10^(target/10) leaves the float range
        sigma_v_sq = np.nan
    if not 0.0 < sigma_v_sq < np.inf:
        raise ValueError(
            f"noise.target_sinr_db must give a finite, positive noise variance (got {target!r})"
        )
    return sigma_v_sq


def _intrinsic_stats(config: ExperimentConfig, min_samples: int) -> cmt.IntrinsicStats:
    """``cmt.measure_intrinsic_stats`` at the config's CMT dimensions and
    ``cmt.num_frames``, seeded from the master seed: a pure function of
    config + seed.  A config the loopback rejects raises naming its keys."""
    cmt_config = _build("channel.num_subcarriers/cmt.overlap_factor", config.cmt_config)
    rng = np.random.default_rng(np.random.SeedSequence(config.run.master_seed))
    return _build(
        "cmt.num_frames",
        partial(cmt.measure_intrinsic_stats, cmt_config, rng, config.cmt.num_frames, min_samples),
    )


def resolve_sigma_q_sq(config: ExperimentConfig) -> float:
    """The intrinsic-interference variance the abstract model should use.

    Mode "fixed" returns ``signaling.sigma_q_sq``.  Mode "calibrated"
    returns the ``sigma_q_sq`` that ``run_gaussianity`` writes to
    stats.csv for the same config and seed, without its sample floor,
    scaled by the alphabet's E[s^2].
    """
    if config.signaling.sigma_q_mode == "fixed":
        return float(config.signaling.sigma_q_sq)
    return _intrinsic_stats(config, min_samples=1).sigma_q_sq * config.alphabet().second_moment


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
    ch, pdp = config.channel, config.pdp()
    taps = channel.draw_channels(topo, pdp, ch.num_antennas, rng)
    h_stack = channel.matrix_stack(
        taps, pdp, ch.subcarrier_index, ch.bandwidth_hz, ch.num_subcarriers
    )
    if config.pilot.estimator == "direct":
        h_hat = airlink.estimate_channels_direct(
            topo, h_stack, 0, sigma_v_sq, config.pilot.pilot_len, rng
        )
    else:
        pilots = airlink.dft_pilot_book(topo.users_per_cell, config.pilot.pilot_len)
        frames = airlink.send_pilots(topo, h_stack, 0, pilots, sigma_v_sq, rng)
        h_hat = airlink.estimate_channels_correlate(pilots, frames)
    return TrialScenario(
        topo=topo,
        h_stack=h_stack,
        h_desired=h_stack[0, 0][:, 0].copy(),
        h_hat=h_hat[:, 0].copy(),
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


def reference_weights(scen: TrialScenario, config: ExperimentConfig) -> np.ndarray:
    """MF-perfect, MMSE-perfect and MF-contaminated weights for user 0,
    stacked in that order, shape (3, N)."""
    et2 = config.alphabet().second_moment + scen.sigma_q**2
    w_mf = combine.mf_weights(scen.h_desired)
    w_mmse = combine.mmse_weights(
        scen.h_stack[:, 0], scen.topo.gains_at(0), 0, scen.sigma_v_sq, et2
    )[0]
    w_contam = combine.mf_weights(scen.h_hat)
    return np.stack([w_mf, w_mmse, w_contam])


def _probe_schedule(config: ExperimentConfig, total: int) -> list[int]:
    b = config.blind
    stops = set(range(0, min(b.probe_dense_until, total) + 1, b.probe_dense_every))
    stops.update(range(0, min(b.probe_mid_until, total) + 1, b.probe_mid_every))
    stops.update(range(0, total + 1, b.probe_sparse_every))
    stops.add(total)
    return sorted(stops)


# Packet-stack bytes a run tracks at once.  Every worker tracks a group
# at a time, so a group gets the budget over the worker count: 20 trials
# of the default 1000 x 128 complex packet on one worker, 10 on two.
# Wider batches add memory, not speed.
GROUP_BYTES = 40 * 2**20

# Processes that run trial groups: one per CPU this process may run on
# where ``fork`` exists, else 1 (the run stays in this process).
WORKERS = (
    (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if hasattr(os, "fork")
    else 1
)


@dataclass
class Stage:
    """The work of one stage of a run: ``count`` units of ``unit`` in
    ``seconds`` of wall time, summed over the run's groups (so on several
    workers the stages can add up to more than the run's wall time)."""

    unit: str
    count: int = 0
    seconds: float = 0.0

    def add(self, count: int, since: float) -> float:
        """Count ``count`` units done since ``time.perf_counter()`` read
        ``since``; returns the current reading, where the next stage starts."""
        now = time.perf_counter()
        self.count += count
        self.seconds += now - since
        return now


def _stages(finish: str, unit: str) -> dict[str, Stage]:
    """A group's stages: assembly, tracking, then the experiment's ``finish``."""
    return {"assemble": Stage("trials"), "track": Stage("trial-updates"), finish: Stage(unit)}


def _trial_groups(config: ExperimentConfig) -> list[range]:
    """The run's trials cut into consecutive groups, one task each.  Every
    worker tracks a group at once, so a group's packet stack fits in
    ``GROUP_BYTES`` over the workers; a group holds at most the trials
    over the workers, so each gets one, and at least one trial."""
    num_trials = config.run.num_trials
    workers = min(WORKERS, num_trials)
    trial_bytes = config.blind.packet_len * config.channel.num_antennas * 16
    width = max(1, min(GROUP_BYTES // workers // trial_bytes, num_trials // workers))
    return [range(lo, min(lo + width, num_trials)) for lo in range(0, num_trials, width)]


def _run_groups(task, groups: list[range], take) -> dict[str, Stage]:
    """Run ``task(group)``, which returns a result and its stages, for
    every group; hand each result to ``take`` in trial order and return
    the stages summed over the groups.

    With one group or one worker the tasks run in this process, else on
    ``min(WORKERS, len(groups))`` forked worker processes, one group per
    worker at a time; a result is pickled back, so it should be small.
    An exception raised in a task is raised here, with its type and
    message, after every worker has exited; groups not yet started are
    dropped.

    Workers are forked rather than spawned: a spawned worker would import
    the package again (0.6 s, half of it scipy.fft) and would not see
    the caller's run-time state.  The pool forks every worker before it
    starts its own thread, so a caller that runs no other thread forks a
    single-threaded process.  Every task runs with one OpenBLAS thread
    (``blas.one_thread``; the workers inherit it), so the workers run as
    many threads as CPUs and the results do not depend on the BLAS
    thread count; this process's count is restored afterwards.
    """
    workers = min(WORKERS, len(groups))
    stages: dict[str, Stage] = {}
    with contextlib.ExitStack() as stack:
        stack.callback(blas.one_thread())
        if workers == 1:
            outputs = map(task, groups)
        else:
            # imported here so that importing the package loads no multiprocessing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            outputs = stack.enter_context(pool).map(task, groups)
        for result, group_stages in outputs:
            take(result)
            for name, stage in group_stages.items():
                total = stages.setdefault(name, Stage(stage.unit))
                total.count += stage.count
                total.seconds += stage.seconds
            del result  # before the next group's result arrives
    return stages


def _track_group(
    config: ExperimentConfig,
    trials: range,
    sigma_q: float,
    sigma_v_sq: float,
    passes: int,
    stages: dict[str, Stage],
    snapshots=(),
    collect_decisions: bool = False,
) -> tuple[list[TrialScenario], np.ndarray, np.ndarray | None]:
    """Assemble a group of trials, then track them as one batch.

    Assembly builds each trial's scenario from its own generator and draws
    its packet into column t of the group's (P, T, N) packet stack; the
    generator is left right after the packet, where the trial's probe
    block comes from.  Row t of the starting weights is the MF on trial
    t's contaminated estimate.  ``blind.run_packet`` then checks the
    stack (naming a trial whose packet is non-finite or whose squared
    norms overflow), builds its steps and block factors and tracks it,
    with step ``blind.mu``, regularizer epsilon 1e-12 per antenna and R
    the alphabet's p = 1 dispersion constant.  The stack lives only
    while the group is tracked.  Both stages are timed and counted into
    ``stages``.  Returns the scenarios in trial order plus the weight
    snapshots and decisions of ``blind.run_packet``.
    """
    start = time.perf_counter()
    packet_len = config.blind.packet_len
    width = len(trials)
    num_antennas = config.channel.num_antennas
    packets = np.empty((packet_len, width, num_antennas), dtype=complex)
    scens = []
    for t, trial in enumerate(trials):
        scen = build_scenario(config, trial_rng(config.run.master_seed, trial), sigma_q, sigma_v_sq)
        packets[:, t] = scen.draw_block(packet_len)[0]
        scens.append(scen)
    w = np.array([combine.mf_weights(scen.h_hat) for scen in scens])
    start = stages["assemble"].add(width, start)
    weights, decisions = blind.run_packet(
        w,
        packets,
        passes,
        mu=config.blind.mu,
        epsilon=1e-12 * num_antennas,
        R=blind.dispersion_constant(config.alphabet(), 1),
        snapshots=snapshots,
        normalized=config.blind.normalized,
        collect_decisions=collect_decisions,
        first_trial=trials[0],
    )
    stages["track"].add(width * passes * packet_len, start)
    return scens, weights, decisions


def _fig3_group(
    config: ExperimentConfig,
    trials: range,
    sigma_q: float,
    sigma_v_sq: float,
    schedule: list[int],
) -> tuple[np.ndarray, dict[str, Stage]]:
    """Assemble, track and score one group of ``run_fig3``'s trials.

    Returns a (len(trials), 3 + len(schedule)) array, one row per trial:
    its MF-perfect, MMSE-perfect and MF-contaminated levels, then the
    blind SINR at each point of ``schedule``; and the group's stages.
    """
    stages = _stages("score", "combiners")
    scens, weights, _ = _track_group(
        config, trials, sigma_q, sigma_v_sq, config.blind.passes, stages, snapshots=schedule
    )
    start = time.perf_counter()
    rows = []
    for t, scen in enumerate(scens):
        x_probe, s_probe = scen.draw_block(config.blind.probe_symbols)
        ws = np.vstack([reference_weights(scen, config), weights[:, t]])
        rows.append(probe_sinrs(ws, x_probe, s_probe))
    stages["score"].add(len(scens) * (3 + len(schedule)), start)
    return np.array(rows), stages


def run_fig3(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """SINR-trajectory experiment; writes trajectory.csv and summary.csv.

    The trials run in groups of ``_trial_groups``, one ``_run_groups``
    task each, in three stages: assemble every trial's scenario and
    packet; track the whole group over its cyclically reused packets,
    keeping the weights at every point of the probe schedule; then score
    each trial: draw its held-out block, and measure the three reference
    levels and the SINR of each kept weight vector on it with one
    ``probe_sinrs`` call.  This process turns the SINR rows, in trial
    order, into the crossing of the MF-perfect level and the final gap
    to MMSE, and writes the CSVs.

    A noiseless config (``noise.target_sinr_db`` = inf) has no MMSE
    reference, so it fails before any trial runs.

    Returns the output paths, the probe schedule as ``iterations``, the
    (num_trials, 3 + len(iterations)) ``sinrs`` (each trial's MF-perfect,
    MMSE-perfect and MF-contaminated levels, then its blind SINR at each
    iteration: trajectory.csv's values) and the summed ``stages``.
    """
    out_dir = _out_dir(config, out_dir)
    sigma_v_sq = calibrate_noise(config)
    if sigma_v_sq == 0.0:
        raise ValueError(
            f"noise.target_sinr_db must be finite for simulate (got "
            f"{config.noise.target_sinr_db}): a noiseless run has no MMSE reference"
        )
    total = config.blind.packet_len * config.blind.passes
    schedule = _probe_schedule(config, total)
    sigma_q = float(np.sqrt(resolve_sigma_q_sq(config)))
    task = partial(_fig3_group, config, sigma_q=sigma_q, sigma_v_sq=sigma_v_sq, schedule=schedule)
    results = []
    stages = _run_groups(task, _trial_groups(config), results.append)
    sinrs = np.vstack(results)
    rows = sinrs.tolist()
    # the first probe whose blind SINR reaches the MF-perfect level, else -1
    crossings = [next((it for it, v in zip(schedule, row[3:]) if v >= row[0]), -1) for row in rows]

    traj_path = os.path.join(out_dir, "trajectory.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    traj_lines = (
        TRAJECTORY_ROW % (trial, iteration, sinr, *row[:3])
        for trial, row in enumerate(rows)
        for iteration, sinr in zip(schedule, row[3:])
    )
    _write_csv(traj_path, TRAJECTORY_HEADER, traj_lines)
    summary_lines = (
        SUMMARY_ROW % (trial, crossing, row[-1], row[1] - row[-1])
        for trial, (crossing, row) in enumerate(zip(crossings, rows))
    )
    _write_csv(summary_path, SUMMARY_HEADER, summary_lines)
    return {
        "trajectory_csv": traj_path,
        "summary_csv": summary_path,
        "iterations": np.array(schedule),
        "sinrs": sinrs,
        "stages": stages,
    }


def _eye_group(
    config: ExperimentConfig,
    trials: range,
    sigma_q: float,
    sigma_v_sq: float,
    passes: int,
    bounds: np.ndarray,
) -> tuple[tuple[np.ndarray, bytes], dict[str, Stage]]:
    """Assemble and track one group of ``run_eye``'s trials, then format them.

    Returns the group's (len(trials), num_buckets) eye openings and its
    eye.csv rows, without the header and in trial order, as bytes; and
    the group's stages.
    """
    stages = _stages("format", "rows")
    spb = config.eye.samples_per_bucket
    starts = bounds[:-1].tolist()
    ends = [min(lo + spb, hi) for lo, hi in zip(starts, bounds[1:].tolist())]
    _, _, decisions = _track_group(
        config, trials, sigma_q, sigma_v_sq, passes, stages, collect_decisions=True
    )
    start = time.perf_counter()
    decisions = np.ascontiguousarray(decisions.T)
    openings = np.minimum.reduceat(np.abs(decisions), bounds[:-1], axis=1)
    rows = "".join(
        _eye_rows(lo, row[lo:end].tolist()) for row in decisions for lo, end in zip(starts, ends)
    )
    stages["format"].add(len(trials) * sum(end - lo for lo, end in zip(starts, ends)), start)
    return (openings, rows.encode()), stages


def run_eye(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Eye-pattern experiment; writes eye.csv and eye_opening.csv.

    Pre-decision outputs s_hat are collected during adaptation, for a
    group of trials at a time (``_trial_groups``, one ``_run_groups``
    task each), and split into iteration buckets b * total // num_buckets
    (labeled by their start iteration).  The per-bucket eye opening is
    min |s_hat| over all decisions in the bucket (the closest approach to
    the decision threshold, as read off a classic eye diagram); eye.csv
    logs up to ``eye.samples_per_bucket`` samples per bucket for
    plotting.  This process streams each group's eye.csv rows, in trial
    order, into an unnamed temporary file (the system's, so a failed run
    leaves no ``out_dir`` and no file), and copies it into eye.csv after
    the last group; then it writes the openings.

    Returns the output paths, the (num_trials, num_buckets) openings and
    the summed ``stages``.
    """
    out_dir = _out_dir(config, out_dir)
    passes = -(-config.eye.updates // config.blind.packet_len)
    total = passes * config.blind.packet_len
    num_buckets = config.eye.num_buckets
    if total < num_buckets:
        raise ValueError(
            f"eye.updates, rounded up to whole packets of blind.packet_len = "
            f"{config.blind.packet_len}, must be >= eye.num_buckets = {num_buckets} "
            f"(got {total})"
        )
    bounds = np.arange(num_buckets + 1) * total // num_buckets
    sigma_q = float(np.sqrt(resolve_sigma_q_sq(config)))
    sigma_v_sq = calibrate_noise(config)
    task = partial(
        _eye_group, config, sigma_q=sigma_q, sigma_v_sq=sigma_v_sq, passes=passes, bounds=bounds
    )
    group_openings = []
    eye_path = os.path.join(out_dir, "eye.csv")
    with tempfile.TemporaryFile() as rows:

        def take(result: tuple[np.ndarray, bytes]) -> None:
            group_openings.append(result[0])
            rows.write(result[1])

        stages = _run_groups(task, _trial_groups(config), take)
        _write_csv(eye_path, EYE_HEADER, ())
        rows.seek(0)
        with open(eye_path, "ab") as out:
            shutil.copyfileobj(rows, out)
    openings = np.vstack(group_openings)

    starts = bounds[:-1].tolist()
    opening_lines = (
        EYE_OPENING_ROW % (trial, lo, opening)
        for trial, row in enumerate(openings.tolist())
        for lo, opening in zip(starts, row)
    )
    opening_path = os.path.join(out_dir, "eye_opening.csv")
    _write_csv(opening_path, EYE_OPENING_HEADER, opening_lines)
    return {
        "eye_csv": eye_path,
        "eye_opening_csv": opening_path,
        "openings": openings,
        "stages": stages,
    }


def run_gaussianity(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """CMT loopback statistics; writes stats.csv (one row)."""
    out_dir = _out_dir(config, out_dir)
    stats = _intrinsic_stats(config, min_samples=100_000)
    path = os.path.join(out_dir, "stats.csv")
    row = (
        stats.sigma_q_sq,
        stats.kurtosis_imag,
        stats.kurtosis_real_unequalized,
        stats.real_part_alphabet_error_rate,
    )
    _write_csv(path, STATS_HEADER, [STATS_ROW % row])
    return {"stats_csv": path, "stats": stats}
