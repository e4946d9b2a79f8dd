"""Blind tap-weight tracking via the dispersion (Godard) criterion.

Weights start from the matched filter built on the contaminated estimate
and adapt with a normalized sign-LMS update that needs no training data:

    y   = Re{w^H x}
    w  <- w - 2 mu / (x^H x + eps) * sign(y) * (|y| - R) * x

where R is the dispersion constant of the PAM alphabet.  The decision
variable is the real part of the combiner output (CMT decisions are real
PAM), and the update is the instantaneous gradient of ((|y|^p) - R)^2 at
p = 1; the ``p`` field only changes R.  The recursion is strictly
sequential; ``run_packet`` runs the hot loop in ``kernels.track_segment``,
whose one-update reference is ``blind_step``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

DEFAULT_MU = 0.05
EPSILON_PER_TAP = 1e-12


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
    """Dispersion constant R = E[|s|^(2p)] / E[|s|^p]."""
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
    p: int = 1
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
        if self.p < 1:
            raise ValueError("p must be >= 1")


def init_weights(
    h_hat: np.ndarray,
    mu: float = DEFAULT_MU,
    epsilon: float | None = None,
    p: int = 1,
    R: float = 1.0,
) -> BlindTrackerState:
    """Tracker state initialized from the (contaminated) channel estimate.

    w(0) = h_hat / (h_hat^H h_hat): the matched filter on the estimate, so
    iteration 0 performs exactly as MF with contaminated CSI.  ``epsilon``
    defaults to 1e-12 per tap.
    """
    h_hat = np.asarray(h_hat, dtype=complex).ravel()
    energy = np.real(np.vdot(h_hat, h_hat))
    if energy == 0.0:
        raise ValueError("cannot initialize from a zero estimate")
    if epsilon is None:
        epsilon = EPSILON_PER_TAP * h_hat.size
    return BlindTrackerState(w=h_hat / energy, mu=mu, epsilon=epsilon, p=p, R=R)


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


def run_packet(
    state: BlindTrackerState,
    packet: np.ndarray,
    passes: int,
    probe=None,
    probe_at=None,
    normalized: bool = True,
    collect_decisions: bool = False,
):
    """Track over a packet reused cyclically for ``passes`` passes.

    Parameters
    ----------
    state : BlindTrackerState
        Mutated in place; ``state.iteration`` advances by passes * P.
    packet : ndarray, shape (P, N)
        Received vectors (the hidden truth stays with the caller).
    passes : int
        Number of cyclic passes (>= 1).
    probe : callable(w) -> float, optional
        Frozen-weight SINR probe on held-out data.
    probe_at : int or sequence of int, optional
        Iterations (update counts relative to this call) at which to call
        the probe.  An int c means every c updates: c, 2c, ..., plus the
        final iteration.  Ignored when ``probe`` is None.
    collect_decisions : bool
        Also return the full pre-update decision sequence (one float per
        update), used by the eye-pattern experiment.

    Returns
    -------
    trajectory : list of (iteration, sinr_db)
    state : BlindTrackerState
    decisions : ndarray, only when ``collect_decisions``

    Raises
    ------
    FloatingPointError
        When the weights turn non-finite; the message names the iteration
        reached.  Checked after every kernel segment, before any probe.
    """
    packet = np.ascontiguousarray(packet, dtype=complex)
    if packet.ndim != 2 or packet.shape[0] == 0:
        raise ValueError("packet must be a nonempty (P, N) array")
    if packet.shape[1] != state.w.size:
        raise ValueError("packet width disagrees with weights")
    if not np.all(np.isfinite(packet)):
        raise ValueError("packet contains non-finite entries")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    total = passes * packet.shape[0]

    if probe is None:
        stops = []
    elif probe_at is None:
        stops = [total]
    elif np.isscalar(probe_at):
        cadence = int(probe_at)
        if cadence < 1:
            raise ValueError("probe cadence must be >= 1")
        stops = list(range(cadence, total + 1, cadence))
        if not stops or stops[-1] != total:
            stops.append(total)
    else:
        stops = sorted(set(int(i) for i in probe_at))
        if stops and (stops[0] < 0 or stops[-1] > total):
            raise ValueError(f"probe iterations must lie in [0, {total}]")

    norms = np.ascontiguousarray(np.einsum("ij,ij->i", packet, packet.conj()).real)
    decisions = np.empty(total) if collect_decisions else None
    trajectory = []
    pos = 0

    def advance(stop: int) -> None:
        nonlocal pos
        seg = decisions[pos:stop] if collect_decisions else None
        kernels.track_segment(
            state.w, packet, norms, pos, stop - pos,
            state.mu, state.epsilon, state.R, normalized, seg,
        )
        state.iteration += stop - pos
        pos = stop
        if not np.all(np.isfinite(state.w)):
            raise FloatingPointError(
                f"blind tracker diverged: weights are non-finite at iteration "
                f"{state.iteration} (mu={state.mu}, normalized={normalized})"
            )

    for stop in stops:
        if stop > pos:
            advance(stop)
        trajectory.append((state.iteration, float(probe(state.w))))
    if pos < total:
        advance(total)

    if collect_decisions:
        return trajectory, state, decisions
    return trajectory, state
