"""Frequency-selective Rayleigh channel generation from a power-delay profile.

Each (cell, BS, user, antenna) link gets an independent set of complex
Gaussian taps whose per-tap variances follow the profile; per-subcarrier
flat gains are the exact discrete frequency response of those taps at the
subcarrier center frequency.  Channels are block-constant (quasi-static).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import CellTopology


@dataclass(frozen=True)
class PowerDelayProfile:
    """Multipath tap delays and normalized linear powers.

    Attributes
    ----------
    tap_delays : ndarray
        Delays in seconds, nonnegative and strictly increasing.
    tap_powers : ndarray
        Linear powers summing to 1 (unit average channel energy).
    """

    tap_delays: np.ndarray
    tap_powers: np.ndarray

    def __post_init__(self) -> None:
        delays = np.asarray(self.tap_delays, dtype=float)
        powers = np.asarray(self.tap_powers, dtype=float)
        if delays.size == 0 or delays.size != powers.size:
            raise ValueError("delays and powers must be nonempty and equal length")
        if delays[0] < 0.0 or np.any(np.diff(delays) <= 0.0):
            raise ValueError("delays must be nonnegative and strictly increasing")
        if np.any(powers <= 0.0):
            raise ValueError("tap powers must be positive")
        if abs(powers.sum() - 1.0) > 1e-12:
            raise ValueError("tap powers must sum to 1 within 1e-12")
        object.__setattr__(self, "tap_delays", delays)
        object.__setattr__(self, "tap_powers", powers)

    @classmethod
    def from_db(cls, delays_us, powers_db) -> "PowerDelayProfile":
        """Build from delays in microseconds and relative powers in dB.

        Powers are converted to linear scale and normalized to unit sum.
        """
        delays = np.asarray(delays_us, dtype=float) * 1e-6
        powers = 10.0 ** (np.asarray(powers_db, dtype=float) / 10.0)
        total = powers.sum()
        if total <= 0.0:
            raise ValueError("profile has no power")
        return cls(tap_delays=delays, tap_powers=powers / total)

    @property
    def num_taps(self) -> int:
        return self.tap_delays.size


# COST 207 typical-urban reduced 6-tap profile, also the config's default
TU6_DELAYS_US = (0.0, 0.2, 0.5, 1.6, 2.3, 5.0)
TU6_POWERS_DB = (-3.0, 0.0, -2.0, -6.0, -8.0, -10.0)
COST207_TU6 = PowerDelayProfile.from_db(TU6_DELAYS_US, TU6_POWERS_DB)


def draw_channels(
    topology: CellTopology,
    pdp: PowerDelayProfile,
    num_antennas: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw i.i.d. Rayleigh taps for every link of the topology.

    Returns the (M, M, K, N, T) complex taps: ``taps[m, j, l, a, t]`` is
    tap t of the link from user l of cell m to antenna a of BS j.  Every
    tap is circularly-symmetric complex Gaussian with variance
    ``pdp.tap_powers[t]``, independent across all indices (uncorrelated
    array, uncorrelated links).
    """
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    m, k, t = topology.num_cells, topology.users_per_cell, pdp.num_taps
    shape = (m, m, k, num_antennas, t)
    scale = np.sqrt(pdp.tap_powers / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def matrix_stack(
    taps: np.ndarray,
    pdp: PowerDelayProfile,
    subcarrier_index: int,
    sample_rate: float = 5e6,
    num_subcarriers: int = 256,
) -> np.ndarray:
    """All channel matrices at one subcarrier, shape (M, M, N, K).

    ``taps`` are ``draw_channels``' (M, M, K, N, T) taps, drawn from
    ``pdp``.  ``stack[m, j]`` is the channel matrix H_mj from cell m's
    users to BS j: column l holds the discrete frequency response

        H(f_k) = sum_t g_t exp(-2i pi f_k tau_t),  f_k = k * sample_rate / L,

    of the taps g of user l of cell m at every antenna of BS j, where
    ``sample_rate`` is the total bandwidth in Hz and L ``num_subcarriers``.
    """
    if not 0 <= subcarrier_index < num_subcarriers:
        raise ValueError(f"subcarrier_index {subcarrier_index} outside [0, {num_subcarriers})")
    if not sample_rate > 0.0:
        raise ValueError(f"sample_rate must be positive (got {sample_rate})")
    f_k = subcarrier_index * sample_rate / num_subcarriers
    phase = np.exp(-2j * np.pi * f_k * pdp.tap_delays)
    h = taps @ phase  # (M, M, K, N)
    return np.swapaxes(h, 2, 3)
