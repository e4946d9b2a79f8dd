"""Linear combining at the base station: the reference combiners.

Matched-filter weights maximize array gain without interference
suppression; MMSE weights invert the received covariance (built from
cross-cell channel knowledge) and dominate MF on every realization.  The
SINR metric that compares them with the blind weights is
``harness.probe_sinrs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CombinerWeights:
    """Weight vector of one user's combiner."""

    w: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.w)):
            raise ValueError("weights must be finite")
        if np.linalg.norm(self.w) == 0.0:
            raise ValueError("weights must be nonzero")


def mf_weights(h: np.ndarray) -> CombinerWeights:
    """Matched-filter weights w = h / ||h||^2, so that w^H h = 1."""
    h = np.asarray(h, dtype=complex)
    energy = np.real(np.vdot(h, h))
    if energy == 0.0:
        raise ValueError("cannot build MF weights from a zero channel vector")
    return CombinerWeights(w=h / energy)


def mmse_weights(
    h_mj: np.ndarray,
    gains: np.ndarray,
    own_cell: int,
    sigma_v_sq: float,
    symbol_second_moment: float,
) -> list[CombinerWeights]:
    """MMSE combiner per in-cell user, from cross-cell channel knowledge.

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

    Weights solve R_x w = h and are rescaled so Re{w^H h} = 1, with
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
    out = []
    for l in range(h_own.shape[1]):
        w = solved[:, l]
        scale = np.real(np.vdot(w, h_own[:, l]))
        if scale == 0.0:
            raise ValueError(f"MMSE weights for user {l} are orthogonal to the channel")
        out.append(CombinerWeights(w=w / scale))
    return out

