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
one-update, one-trial reference; ``run_packet`` checks a (T, N) batch of
starting weights, the update's constants and a (P, T, N) packet, builds
the packet's per-update steps and block factors, and tracks the batch
with the block-exact ``kernels.track_segment``.  It hands back copies of
the weights at requested iterations for the caller to score (the
experiments use ``harness.probe_sinrs``).
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


def blind_step(
    w: np.ndarray, x: np.ndarray, mu: float, epsilon: float, R: float, normalized: bool = True
) -> tuple[np.ndarray, float]:
    """One tracking update; reference implementation of the kernel contract.

    Returns the updated copy of the (N,) weights ``w`` and the pre-update
    decision s_hat = Re{w^H x}.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if x.size != np.size(w):
        raise ValueError("received vector length disagrees with weights")
    if not np.all(np.isfinite(x)):
        raise ValueError("received vector contains non-finite entries")
    s_hat = float(np.vdot(w, x).real)
    if normalized:
        eta = 2.0 * mu / (np.real(np.vdot(x, x)) + epsilon)
    else:
        eta = 2.0 * mu
    return w - eta * np.sign(s_hat) * (abs(s_hat) - R) * x, s_hat


def run_packet(
    w: np.ndarray,
    packet: np.ndarray,
    passes: int,
    mu: float,
    epsilon: float,
    R: float,
    snapshots=(),
    normalized: bool = True,
    collect_decisions: bool = False,
    first_trial: int = 0,
):
    """Track a batch of trials over a packet reused cyclically for ``passes`` passes.

    Parameters
    ----------
    w : ndarray, shape (T, N)
        Starting weights, one independent trial per row; left unmodified.
    packet : ndarray, shape (P, T, N)
        Received vectors (the hidden truth stays with the caller).
    passes : int
        Number of cyclic passes (>= 1).
    mu, epsilon, R : float
        Step (>= 0; 0 freezes the tracker), regularizer (>= 0) and
        dispersion constant (> 0) of the update.
    snapshots : sequence of int
        Strictly increasing iterations (update counts, 0 for the starting
        weights) at which to copy the weights; the final weights are the
        snapshot at passes * P.
    normalized : bool
        Steps 2 mu / (x^H x + epsilon) when true, else 2 mu
        (``kernels.step_sizes``).
    collect_decisions : bool
        Also return the full pre-update decision sequence, used by the
        eye-pattern experiment.
    first_trial : int
        Trial number of the first row, used to name a bad or diverging
        trial.

    Returns
    -------
    weights : ndarray, shape (len(snapshots), T, N)
        The weights after each snapshot iteration.
    decisions : ndarray, shape (passes * P, T), or None
        One decision per update and trial when ``collect_decisions``.

    Raises
    ------
    ValueError
        On bad weights, constants, packet, pass count or snapshot list.
        For a packet that holds a non-finite entry, or whose squared norms
        x^H x overflow, the message names the first trial affected.
    FloatingPointError
        When the weights turn non-finite; the message names the first
        trial affected and the iteration reached.  Checked after every
        kernel segment, so no snapshot holds non-finite weights.  The
        steps, factors and kernel segments run with numpy's overflow and
        invalid warnings off, so this error is the one signal of a
        divergence.
    """
    # the kernel updates a C-contiguous copy in place
    w = np.array(w, dtype=complex, order="C")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    # mu = 0 is allowed as the frozen-tracker degenerate case
    if mu < 0.0 or epsilon < 0.0:
        raise ValueError("mu and epsilon must be >= 0")
    if R <= 0.0:
        raise ValueError("dispersion constant must be positive")
    if w.ndim != 2:
        raise ValueError("weights must be a (T, N) array, one trial per row")
    packet = np.ascontiguousarray(packet, dtype=complex)
    if packet.ndim != 3 or packet.shape[0] == 0:
        raise ValueError(f"packet must be a nonempty (P,) + {w.shape} array")
    if packet.shape[1:] != w.shape:
        raise ValueError("packet shape disagrees with weights")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    total = passes * packet.shape[0]
    stops = [int(i) for i in snapshots]
    if any(b <= a for a, b in zip(stops, stops[1:])):
        raise ValueError("snapshot iterations must be strictly increasing")
    if stops and (stops[0] < 0 or stops[-1] > total):
        raise ValueError(f"snapshot iterations must lie in [0, {total}]")
    finite = np.isfinite(packet)
    if not finite.all():
        trial = first_trial + int(np.argmin(finite.all(axis=(0, 2))))
        raise ValueError(f"packet of trial {trial} contains non-finite entries")
    # a norm that overflows would make every normalized step 0 (the
    # tracker freezes) and the block factors nan
    x_re = packet.view(np.float64)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.einsum("ptn,ptn->pt", x_re, x_re)).all(axis=0)
    if not finite.all():
        trial = first_trial + int(np.argmin(finite))
        raise ValueError(f"packet of trial {trial} has a squared norm beyond the float range")
    weights = np.empty((len(stops),) + w.shape, dtype=complex)
    decisions = np.empty((total, w.shape[0])) if collect_decisions else None
    pos = 0

    def advance(stop: int) -> None:
        nonlocal pos
        seg = decisions[pos:stop] if collect_decisions else None
        kernels.track_segment(w, packet, eta, factors, pos, stop - pos, R, seg)
        pos = stop
        finite = np.isfinite(w).all(axis=1)
        if not finite.all():
            trial = first_trial + int(np.argmin(finite))
            raise FloatingPointError(
                f"blind tracker diverged: weights of trial {trial} are non-finite "
                f"at iteration {pos} (mu={mu})"
            )

    # overflow on the way to divergence, in the steps, the factors or the
    # kernel, is reported once, by the finite-weights check after each
    # segment, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        eta = kernels.step_sizes(packet, mu, epsilon, normalized)
        factors = kernels.block_factors(packet, eta)
        for j, stop in enumerate(stops):
            if stop > pos:
                advance(stop)
            weights[j] = w
        if pos < total:
            advance(total)
    return weights, decisions
