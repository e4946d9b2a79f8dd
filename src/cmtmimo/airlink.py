"""Per-subcarrier uplink assembly: transmit symbols, received vectors, and
contaminated channel estimates.

The abstract model works on one subcarrier at a time.  Every user sends
t = s + i q (real PAM plus Gaussian intrinsic interference); BS j receives

    x_j = H_jj t_j + sum_{m != j} H_mj A_mj t_m + v,

and estimates its in-cell channels either directly from the contamination
decomposition (H_jj + sum H_mj A_mj + noise) or by correlating received
pilot frames against the pilot book.  Both modes agree in the noiseless
case; direct mode exists so experiments match the decomposition exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import CellTopology


@dataclass(frozen=True)
class PilotBook:
    """Mutually orthogonal pilot sequences, one per in-cell pilot index."""

    sequences: np.ndarray
    pilot_len: int

    def __post_init__(self) -> None:
        seqs = np.asarray(self.sequences, dtype=complex)
        if seqs.ndim != 2 or seqs.shape[1] != self.pilot_len:
            raise ValueError("sequences must have shape (K, pilot_len)")
        gram = seqs @ seqs.conj().T
        if not np.allclose(gram, self.pilot_len * np.eye(seqs.shape[0]), atol=1e-9):
            raise ValueError("pilot sequences must be mutually orthogonal")
        object.__setattr__(self, "sequences", seqs)


@dataclass(frozen=True)
class ChannelEstimate:
    """Estimated in-cell channel matrix with its estimation-noise level."""

    H_hat: np.ndarray
    mode: str
    est_noise_var: float

    def __post_init__(self) -> None:
        if self.mode not in ("direct", "correlate"):
            raise ValueError("mode must be 'direct' or 'correlate'")
        if not np.all(np.isfinite(self.H_hat)):
            raise ValueError("estimate contains non-finite entries")


def make_transmit_symbol(s, sigma_q: float, rng: np.random.Generator) -> np.ndarray:
    """Attach the intrinsic-interference term to PAM symbols.

    Returns t = s + i q with q ~ Normal(0, sigma_q**2), independent across
    symbols.  ``s`` may be a scalar or an array of symbols.
    """
    if sigma_q < 0.0:
        raise ValueError("sigma_q must be >= 0")
    s = np.asarray(s, dtype=float)
    q = sigma_q * rng.standard_normal(s.shape)
    return s + 1j * q


def dft_pilot_book(num_users: int, pilot_len: int) -> PilotBook:
    """Pilot book from rows of the DFT matrix (orthogonal for K <= tau)."""
    if pilot_len < num_users:
        raise ValueError(
            f"pilot_len {pilot_len} < num_users {num_users}: orthogonal sequences impossible"
        )
    n = np.arange(pilot_len)
    rows = np.exp(2j * np.pi * np.outer(np.arange(num_users), n) / pilot_len)
    return PilotBook(sequences=rows, pilot_len=pilot_len)


def _complex_noise(shape, var: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, total variance ``var`` per entry."""
    draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(var / 2.0) * draw


def uplink_batch(
    topology: CellTopology,
    h_stack: np.ndarray,
    receiving_bs: int,
    symbols: np.ndarray,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received vectors at one BS over a batch of symbol times, shape (num_symbols, N).

    Parameters
    ----------
    h_stack : ndarray, shape (M, M, N, K)
        ``h_stack[m, j]`` is the channel matrix from cell m's users to BS j
        at the working subcarrier (see ``channel.matrix_stack``).
    symbols : ndarray, shape (M, K, num_symbols), complex
        ``symbols[m, l, n]`` is t of user l in cell m at symbol time n.
    noise_var : float
        Total variance per complex receive entry.
    """
    symbols = np.asarray(symbols, dtype=complex)
    scaled = topology.gains_at(receiving_bs)[:, :, None] * symbols
    x = np.einsum("mnk,mkt->tn", h_stack[:, receiving_bs], scaled)
    return x + _complex_noise(x.shape, noise_var, rng)


def estimate_channels_direct(
    topology: CellTopology,
    h_stack: np.ndarray,
    receiving_bs: int,
    noise_var: float,
    pilot_len: int,
    rng: np.random.Generator,
) -> ChannelEstimate:
    """Contaminated estimate straight from its decomposition.

    Returns H_jj + sum_{m != j} H_mj A_mj + V_tilde with V_tilde entries of
    variance ``noise_var / pilot_len`` (the averaging gain of a length-tau
    pilot correlation).
    """
    k_users = topology.users_per_cell
    if pilot_len < k_users:
        raise ValueError(
            f"pilot_len {pilot_len} < users_per_cell {k_users}: orthogonal sequences impossible"
        )
    j = receiving_bs
    gains = topology.gains_at(j)  # (M, K)
    h_hat = np.einsum("mnk,mk->nk", h_stack[:, j], gains.astype(complex))
    est_var = noise_var / pilot_len
    h_hat = h_hat + _complex_noise(h_hat.shape, est_var, rng)
    return ChannelEstimate(H_hat=h_hat, mode="direct", est_noise_var=est_var)


def estimate_channels_correlate(
    pilots: PilotBook,
    pilot_frames: np.ndarray,
    noise_var: float = 0.0,
) -> ChannelEstimate:
    """Estimate by correlating received pilot frames with the pilot book.

    Parameters
    ----------
    pilots : PilotBook
        The book every cell reuses (the source of contamination).
    pilot_frames : ndarray, shape (pilot_len, N)
        Received vectors at the estimating BS over the tau pilot times.
    noise_var : float
        Receive noise variance, recorded as ``noise_var / pilot_len``.

    Column l of the estimate is (1/tau) sum_n x(n) conj(pilot_l(n)).
    """
    frames = np.asarray(pilot_frames, dtype=complex)
    tau = pilots.pilot_len
    if frames.ndim != 2 or frames.shape[0] != tau:
        raise ValueError(f"pilot_frames must have shape ({tau}, N)")
    h_hat = frames.T @ pilots.sequences.conj().T / tau  # (N, K)
    return ChannelEstimate(
        H_hat=h_hat, mode="correlate", est_noise_var=noise_var / tau
    )


def send_pilots(
    topology: CellTopology,
    h_stack: np.ndarray,
    receiving_bs: int,
    pilots: PilotBook,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received frames at one BS while every cell sends the shared pilots.

    Returns shape (pilot_len, N), ready for ``estimate_channels_correlate``.
    User l of every cell transmits pilot sequence l synchronously.
    """
    m_cells = topology.num_cells
    symbols = np.broadcast_to(
        pilots.sequences[None, :, :], (m_cells,) + pilots.sequences.shape
    )  # (M, K, tau)
    return uplink_batch(topology, h_stack, receiving_bs, symbols, noise_var, rng)
