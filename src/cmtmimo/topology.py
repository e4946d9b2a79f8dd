"""Multi-cell layout: cell/user counts and cross-gain factors.

The network is abstracted to scalar cross-gains alpha[m, j, l]: the power
scaling of user l of cell m as seen at base station j.  In-cell gains are
exactly 1 (perfect power control); cross-cell gains lie in [0, 1].  No
geometric layout or path-loss law is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CellTopology:
    """Cell counts and the cross-gain tensor between users and base stations.

    Attributes
    ----------
    num_cells : int
        Number of cells M (one base station each).
    users_per_cell : int
        Number of users K in every cell.
    cross_gain : ndarray, shape (M, M, K)
        ``cross_gain[m, j, l]`` is the gain of user l of cell m at BS j.
    """

    num_cells: int
    users_per_cell: int
    cross_gain: np.ndarray

    def __post_init__(self) -> None:
        m, k = self.num_cells, self.users_per_cell
        if m < 1 or k < 1:
            raise ValueError("num_cells and users_per_cell must be >= 1")
        gains = np.asarray(self.cross_gain, dtype=float)
        if gains.shape != (m, m, k):
            raise ValueError(
                f"cross_gain must have shape {(m, m, k)}, got {gains.shape}"
            )
        # written so that a nan gain fails too
        if not np.all((gains >= 0.0) & (gains <= 1.0)):
            raise ValueError("cross-gains must lie in [0, 1]")
        in_cell = gains[np.arange(m), np.arange(m), :]
        if not np.all(in_cell == 1.0):
            raise ValueError("in-cell gains must equal 1 exactly")
        object.__setattr__(self, "cross_gain", gains)

    def gains_at(self, receiving_bs: int) -> np.ndarray:
        """Gains of every user as seen at one BS, shape (M, K)."""
        return self.cross_gain[:, receiving_bs, :]


def build_topology(
    num_cells: int,
    users_per_cell: int,
    gain_low: float,
    gain_high: float,
    rng: np.random.Generator,
) -> CellTopology:
    """Draw a topology with uniform random cross-cell gains.

    Cross-cell gains are i.i.d. uniform on [gain_low, gain_high]; in-cell
    gains are set to 1.  Deterministic given the generator state.

    Parameters
    ----------
    num_cells, users_per_cell : int
        Layout dimensions (M and K).
    gain_low, gain_high : float
        Support of the cross-gain distribution; 0 <= low <= high <= 1.
    rng : numpy.random.Generator
        Seeded source for the gain draws.
    """
    if num_cells < 1 or users_per_cell < 1:
        raise ValueError("num_cells and users_per_cell must be >= 1")
    if not (0.0 <= gain_low <= gain_high <= 1.0):
        raise ValueError(
            f"invalid gain range [{gain_low}, {gain_high}]; need 0 <= low <= high <= 1"
        )
    m, k = num_cells, users_per_cell
    gains = rng.uniform(gain_low, gain_high, size=(m, m, k))
    gains[np.arange(m), np.arange(m), :] = 1.0
    return CellTopology(num_cells=m, users_per_cell=k, cross_gain=gains)


def explicit_topology(cross_gain: np.ndarray) -> CellTopology:
    """Build a topology from an explicit (M, M, K) gain tensor."""
    gains = np.asarray(cross_gain, dtype=float)
    if gains.ndim != 3 or gains.shape[0] != gains.shape[1]:
        raise ValueError("cross_gain must have shape (M, M, K)")
    return CellTopology(
        num_cells=gains.shape[0],
        users_per_cell=gains.shape[2],
        cross_gain=gains,
    )
