"""Per-subcarrier uplink assembly: transmit symbols, received vectors, and
contaminated channel estimates.

The abstract model works on one subcarrier at a time.  Every user sends
t = s + i q (real PAM plus Gaussian intrinsic interference); BS j receives

    x_j = H_jj t_j + sum_{m != j} H_mj A_mj t_m + v,

and estimates its in-cell channels either directly from the contamination
decomposition (H_jj + sum H_mj A_mj + noise) or by correlating received
pilot frames against the pilot book, the (K, tau) rows that every cell
reuses.  Both modes return the (N, K) estimate as a plain array and agree
in the noiseless case; direct mode exists so experiments match the
decomposition exactly.
"""

from __future__ import annotations

import numpy as np

from .topology import CellTopology


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


def dft_pilot_book(num_users: int, pilot_len: int) -> np.ndarray:
    """Pilot book, shape (K, tau): rows of the DFT matrix, mutually
    orthogonal for K <= tau."""
    if pilot_len < num_users:
        raise ValueError(
            f"pilot_len {pilot_len} < num_users {num_users}: orthogonal sequences impossible"
        )
    n = np.arange(pilot_len)
    return np.exp(2j * np.pi * np.outer(np.arange(num_users), n) / pilot_len)


def _add_complex_noise(x: np.ndarray, var: float, rng: np.random.Generator) -> None:
    """Add circularly-symmetric complex Gaussian noise, total variance ``var``
    per entry, to the complex array ``x`` in place.

    The real parts draw first, then the imaginary parts, each through one
    reused float buffer, so no complex noise array is built.
    """
    buf = np.empty(x.shape)
    scale = np.sqrt(var / 2.0)
    for part in (x.real, x.imag):
        rng.standard_normal(out=buf)
        buf *= scale
        part += buf


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
    m_cells, _, n_ant, k_users = h_stack.shape
    # x[t] = sum over (m, k) of H_mj[:, k] A_mj[k] t_mk: one GEMM over the
    # M*K transmitters, (num_symbols, M*K) @ (M*K, N)
    h = np.moveaxis(h_stack[:, receiving_bs], 0, 1).reshape(n_ant, m_cells * k_users)
    x = scaled.reshape(m_cells * k_users, symbols.shape[-1]).T @ h.T
    _add_complex_noise(x, noise_var, rng)
    return x


def estimate_channels_direct(
    topology: CellTopology,
    h_stack: np.ndarray,
    receiving_bs: int,
    noise_var: float,
    pilot_len: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Contaminated estimate straight from its decomposition.

    Returns the (N, K) estimate H_jj + sum_{m != j} H_mj A_mj + V_tilde,
    with V_tilde entries of variance ``noise_var / pilot_len`` (the
    averaging gain of a length-tau pilot correlation).
    """
    k_users = topology.users_per_cell
    if pilot_len < k_users:
        raise ValueError(
            f"pilot_len {pilot_len} < users_per_cell {k_users}: orthogonal sequences impossible"
        )
    j = receiving_bs
    gains = topology.gains_at(j)  # (M, K)
    h_hat = np.einsum("mnk,mk->nk", h_stack[:, j], gains.astype(complex))
    _add_complex_noise(h_hat, noise_var / pilot_len, rng)
    return h_hat


def estimate_channels_correlate(
    pilots: np.ndarray,
    pilot_frames: np.ndarray,
) -> np.ndarray:
    """Estimate, shape (N, K), by correlating received pilot frames with
    the pilot book.

    Parameters
    ----------
    pilots : ndarray, shape (K, pilot_len)
        The book every cell reuses (the source of contamination).
    pilot_frames : ndarray, shape (pilot_len, N)
        Received vectors at the estimating BS over the tau pilot times.

    Column l of the estimate is (1/tau) sum_n x(n) conj(pilot_l(n)).
    """
    frames = np.asarray(pilot_frames, dtype=complex)
    tau = pilots.shape[1]
    if frames.ndim != 2 or frames.shape[0] != tau:
        raise ValueError(f"pilot_frames must have shape ({tau}, N)")
    return frames.T @ pilots.conj().T / tau


def send_pilots(
    topology: CellTopology,
    h_stack: np.ndarray,
    receiving_bs: int,
    pilots: np.ndarray,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received frames at one BS while every cell sends the shared pilots.

    ``pilots`` is the (K, pilot_len) book.  Returns shape (pilot_len, N),
    ready for ``estimate_channels_correlate``.  User l of every cell
    transmits pilot sequence l synchronously.
    """
    symbols = np.broadcast_to(pilots, (topology.num_cells,) + pilots.shape)  # (M, K, tau)
    return uplink_batch(topology, h_stack, receiving_bs, symbols, noise_var, rng)
