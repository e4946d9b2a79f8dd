"""Blind tap-weight tracking via the dispersion (Godard) criterion.

Weights start from the matched filter built on the contaminated estimate
(``combine.mf_weights``) and adapt with a normalized sign-LMS update that
needs no training data:

    y   = Re{w^H x}
    w  <- w - 2 mu / (x^H x + eps) * sign(y) * (|y| - R) * x

where R = E[s^2] / E[|s|] is the dispersion constant of the PAM alphabet
at p = 1.  The decision variable is the real part of the combiner output
(CMT decisions are real PAM), and the update is the instantaneous
gradient of the Godard p = 1 cost (|y| - R)^2.  ``blind_step`` is the
one-update reference; ``run_packet`` tracks one trial or a (T, N) batch
of trials with the block-exact ``kernels.track_segment`` and hands back
copies of the weights at requested iterations for the caller to score
(the experiments use ``harness.probe_sinrs``).  The kernel's per-packet
inputs come from ``tracker_inputs``, which every caller runs on the
packet first; they depend only on each trial's own packet column, so the
experiments build them one trial at a time on their worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class PamAlphabet:
    """Finite real symbol alphabet with selection probabilities."""

    levels: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if levels.size == 0 or levels.size != probs.size:
            raise ValueError("levels and probabilities must be nonempty and equal length")
        if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be >= 0 and sum to 1")
        if np.all(levels == 0.0):
            raise ValueError("alphabet must contain a nonzero level")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def binary(cls) -> "PamAlphabet":
        return cls(levels=np.array([-1.0, 1.0]), probabilities=np.array([0.5, 0.5]))

    @classmethod
    def uniform(cls, levels) -> "PamAlphabet":
        levels = np.asarray(levels, dtype=float)
        return cls(levels=levels, probabilities=np.full(levels.size, 1.0 / levels.size))

    def moment(self, order: float) -> float:
        """E[|s|^order] over the alphabet."""
        return float(np.sum(self.probabilities * np.abs(self.levels) ** order))

    @property
    def second_moment(self) -> float:
        return self.moment(2)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.choice(self.levels, size=size, p=self.probabilities)


def dispersion_constant(alphabet: PamAlphabet, p: int) -> float:
    """Dispersion constant R = E[|s|^(2p)] / E[|s|^p]; the tracker uses p = 1."""
    if p < 1:
        raise ValueError("p must be >= 1")
    denom = alphabet.moment(p)
    if denom == 0.0:
        raise ValueError("alphabet has zero |s|^p moment")
    return alphabet.moment(2 * p) / denom


@dataclass
class BlindTrackerState:
    """Mutable tracker state: weights plus the update's constants."""

    w: np.ndarray
    mu: float
    epsilon: float
    R: float = 1.0
    iteration: int = 0

    def __post_init__(self) -> None:
        self.w = np.ascontiguousarray(self.w, dtype=complex)
        if not np.all(np.isfinite(self.w)):
            raise ValueError("weights must be finite")
        # mu = 0 is allowed as the frozen-tracker degenerate case
        if self.mu < 0.0 or self.epsilon < 0.0:
            raise ValueError("mu and epsilon must be >= 0")
        if self.R <= 0.0:
            raise ValueError("dispersion constant must be positive")


def blind_step(
    state: BlindTrackerState, x: np.ndarray, normalized: bool = True
) -> tuple[BlindTrackerState, float]:
    """One tracking update; reference implementation of the kernel contract.

    Returns the state (mutated in place) and the pre-update decision
    s_hat = Re{w^H x}.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if x.size != state.w.size:
        raise ValueError("received vector length disagrees with weights")
    if not np.all(np.isfinite(x)):
        raise ValueError("received vector contains non-finite entries")
    s_hat = float(np.vdot(state.w, x).real)
    if normalized:
        eta = 2.0 * state.mu / (np.real(np.vdot(x, x)) + state.epsilon)
    else:
        eta = 2.0 * state.mu
    state.w -= eta * np.sign(s_hat) * (abs(s_hat) - state.R) * x
    state.iteration += 1
    return state, s_hat


def tracker_inputs(
    packet: np.ndarray, mu: float, epsilon: float, normalized: bool, first_trial: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Check a packet and build the kernel inputs ``run_packet`` tracks it with.

    ``packet`` is one trial's (P, N) received vectors or a (P, T, N) batch.
    Returns the (T, P) steps of ``kernels.step_sizes`` and the block factors
    of ``kernels.block_factors``, with T = 1 for one trial.  Row t of both
    depends only on packet column t, so trials built one at a time and
    stacked equal a build of the whole batch.

    Raises ValueError naming the first trial (counted from ``first_trial``)
    whose packet holds a non-finite entry.  An overflowing step or factor
    raises no numpy warning: a row that overflows diverges, and
    ``run_packet`` reports that once, naming the trial.
    """
    packet = np.ascontiguousarray(packet, dtype=complex)
    if packet.ndim not in (2, 3) or packet.shape[0] == 0:
        raise ValueError("packet must be a nonempty (P, N) or (P, T, N) array")
    batch = packet.reshape(packet.shape[0], -1, packet.shape[-1])
    finite = np.isfinite(batch)
    if not finite.all():
        trial = first_trial + int(np.argmin(finite.all(axis=(0, 2))))
        raise ValueError(f"packet of trial {trial} contains non-finite entries")
    # errstate is per thread, so it must wrap the build wherever it runs
    with np.errstate(over="ignore", invalid="ignore"):
        eta = kernels.step_sizes(batch, mu, epsilon, normalized)
        return eta, kernels.block_factors(batch, eta)


def run_packet(
    state: BlindTrackerState,
    packet: np.ndarray,
    eta: np.ndarray,
    factors: np.ndarray,
    passes: int,
    snapshots=(),
    collect_decisions: bool = False,
    first_trial: int = 0,
):
    """Track over a packet reused cyclically for ``passes`` passes.

    Parameters
    ----------
    state : BlindTrackerState
        Mutated in place; ``state.iteration`` advances by passes * P.  Its
        weights are one trial, shape (N,), or a batch of independent
        trials, shape (T, N), tracked together.
    packet : ndarray, shape (P,) + state.w.shape
        Received vectors: (P, N) for one trial, (P, T, N) for a batch (the
        hidden truth stays with the caller).
    eta, factors : ndarray
        The packet's steps and block factors from ``tracker_inputs``,
        built with ``state.mu`` and ``state.epsilon``.
    passes : int
        Number of cyclic passes (>= 1).
    snapshots : sequence of int
        Strictly increasing iterations (update counts relative to this
        call, 0 for the starting weights) at which to copy the weights.
    collect_decisions : bool
        Also return the full pre-update decision sequence, used by the
        eye-pattern experiment.
    first_trial : int
        Trial number of the first row, used to name a diverging trial.

    Returns
    -------
    weights : ndarray, shape (len(snapshots),) + state.w.shape
        The weights after each snapshot iteration.
    decisions : ndarray, shape (passes * P,) + state.w.shape[:-1], or None
        One decision per update and trial when ``collect_decisions``.

    Raises
    ------
    FloatingPointError
        When the weights turn non-finite; the message names the first
        trial affected and the iteration reached.  Checked after every
        kernel segment, so no snapshot holds non-finite weights.  Kernel
        segments run with numpy's overflow and invalid warnings off, so
        this error is the one signal of a divergence.
    """
    shape = state.w.shape
    packet = np.ascontiguousarray(packet, dtype=complex)
    if packet.ndim != len(shape) + 1 or packet.shape[0] == 0:
        raise ValueError(f"packet must be a nonempty (P,) + {shape} array")
    if packet.shape[1:] != shape:
        raise ValueError("packet shape disagrees with weights")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    total = passes * packet.shape[0]
    stops = [int(i) for i in snapshots]
    if any(b <= a for a, b in zip(stops, stops[1:])):
        raise ValueError("snapshot iterations must be strictly increasing")
    if stops and (stops[0] < 0 or stops[-1] > total):
        raise ValueError(f"snapshot iterations must lie in [0, {total}]")

    # the kernel works on a (T, N) batch; one trial is a batch of one
    w = state.w.reshape(-1, shape[-1])
    batch = packet.reshape(packet.shape[0], *w.shape)
    num_blocks = -(-packet.shape[0] // kernels.BLOCK)
    if eta.shape != (w.shape[0], packet.shape[0]) or factors.shape != (
        w.shape[0], num_blocks, kernels.BLOCK, kernels.BLOCK
    ):
        raise ValueError("steps or block factors disagree with the packet")
    weights = np.empty((len(stops),) + w.shape, dtype=complex)
    decisions = np.empty((total, w.shape[0])) if collect_decisions else None
    pos = 0

    def advance(stop: int) -> None:
        nonlocal pos
        seg = decisions[pos:stop] if collect_decisions else None
        kernels.track_segment(w, batch, eta, factors, pos, stop - pos, state.R, seg)
        state.iteration += stop - pos
        pos = stop
        finite = np.isfinite(w).all(axis=1)
        if not finite.all():
            trial = first_trial + int(np.argmin(finite))
            raise FloatingPointError(
                f"blind tracker diverged: weights of trial {trial} are non-finite "
                f"at iteration {state.iteration} (mu={state.mu})"
            )

    # overflow on the way to divergence is reported once, by the finite-weights
    # check after each segment, not as numpy warnings from the kernel
    with np.errstate(over="ignore", invalid="ignore"):
        for j, stop in enumerate(stops):
            if stop > pos:
                advance(stop)
            weights[j] = w
        if pos < total:
            advance(total)

    if collect_decisions:
        decisions = decisions.reshape((total,) + shape[:-1])
    return weights.reshape((len(stops),) + shape), decisions
