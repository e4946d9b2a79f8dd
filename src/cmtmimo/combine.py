"""Linear combining at the base station: the reference combiners.

Matched-filter weights maximize array gain without interference
suppression; MMSE weights invert the received covariance (built from
cross-cell channel knowledge) and dominate MF on every realization.
Weights are plain complex arrays, one (N,) row per combiner.  The SINR
metric that compares them with the blind weights is
``harness.probe_sinrs``.
"""

from __future__ import annotations

import numpy as np


def mf_weights(h: np.ndarray) -> np.ndarray:
    """Matched-filter weights w = h / ||h||^2, shape (N,), so that w^H h = 1."""
    h = np.asarray(h, dtype=complex)
    if not np.all(np.isfinite(h)):
        raise ValueError("cannot build MF weights from a non-finite channel vector")
    energy = np.real(np.vdot(h, h))
    if energy == 0.0:
        raise ValueError("cannot build MF weights from a zero channel vector")
    return h / energy


def mmse_weights(
    h_mj: np.ndarray,
    gains: np.ndarray,
    own_cell: int,
    sigma_v_sq: float,
    symbol_second_moment: float,
) -> np.ndarray:
    """MMSE weights of every in-cell user, shape (K, N), from cross-cell
    channel knowledge.

    Parameters
    ----------
    h_mj : ndarray, shape (M, N, K)
        Channel matrices from every cell's users to this BS.
    gains : ndarray, shape (M, K)
        Cross-gains of those users at this BS (own cell's row is 1).
    own_cell : int
        Index of the BS's own cell within the first axis.
    sigma_v_sq : float
        Receive noise variance per complex entry, > 0: without the noise
        term R_x has rank at most M K, so it is singular whenever M K < N.
    symbol_second_moment : float
        E|t|^2 of the transmitted symbols (PAM energy + sigma_q^2).

    Row l solves R_x w = h_l and is rescaled so Re{w^H h_l} = 1, with
    R_x = E|t|^2 sum_m H_mj A_mj^2 H_mj^H + sigma_v^2 I.
    """
    if not sigma_v_sq > 0.0:
        raise ValueError(
            f"MMSE weights need a positive noise variance (got sigma_v_sq={sigma_v_sq}); "
            "a noiseless run has no MMSE reference"
        )
    h_mj = np.asarray(h_mj, dtype=complex)
    m_cells, n_ant, _ = h_mj.shape
    weighted = h_mj * np.asarray(gains, dtype=float)[:, None, :]  # columns h * alpha
    cov = symbol_second_moment * np.einsum("mnk,mpk->np", weighted, weighted.conj())
    cov += sigma_v_sq * np.eye(n_ant)
    h_own = h_mj[own_cell]
    solved = np.linalg.solve(cov, h_own)
    scales = np.empty(h_own.shape[1])
    for l in range(h_own.shape[1]):
        scales[l] = np.real(np.vdot(solved[:, l], h_own[:, l]))
        if scales[l] == 0.0:
            raise ValueError(f"MMSE weights for user {l} are orthogonal to the channel")
    return (solved / scales).T

