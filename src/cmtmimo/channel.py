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


# COST 207 typical-urban reduced 6-tap profile (delays us, powers dB).
COST207_TU6 = PowerDelayProfile.from_db(
    delays_us=(0.0, 0.2, 0.5, 1.6, 2.3, 5.0),
    powers_db=(-3.0, 0.0, -2.0, -6.0, -8.0, -10.0),
)


@dataclass(frozen=True)
class ChannelRealization:
    """One quasi-static draw of every link's multipath taps.

    Attributes
    ----------
    taps : ndarray, shape (M, M, K, N, T), complex
        ``taps[m, j, l, a, t]``: tap t of the link from user l of cell m
        to antenna a of BS j.
    pdp : PowerDelayProfile
        The profile the taps were drawn from (delays are reused by
        frequency-response evaluation).
    num_antennas : int
    sample_rate : float
        Total bandwidth in Hz; subcarrier k sits at k * sample_rate / L.
    num_subcarriers : int
    """

    taps: np.ndarray
    pdp: PowerDelayProfile
    num_antennas: int
    sample_rate: float
    num_subcarriers: int

    def __post_init__(self) -> None:
        if self.taps.ndim != 5:
            raise ValueError("taps must have shape (M, M, K, N, T)")
        if self.taps.shape[3] != self.num_antennas:
            raise ValueError("antenna axis inconsistent with num_antennas")
        if self.taps.shape[4] != self.pdp.num_taps:
            raise ValueError("tap axis inconsistent with the profile")
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")


def draw_channels(
    topology: CellTopology,
    pdp: PowerDelayProfile,
    num_antennas: int,
    rng: np.random.Generator,
    sample_rate: float = 5e6,
    num_subcarriers: int = 256,
) -> ChannelRealization:
    """Draw i.i.d. Rayleigh taps for every link of the topology.

    Tap t of every (m, j, l, a) link is circularly-symmetric complex
    Gaussian with variance ``pdp.tap_powers[t]``, independent across all
    indices (uncorrelated array, uncorrelated links).
    """
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    m, k, t = topology.num_cells, topology.users_per_cell, pdp.num_taps
    shape = (m, m, k, num_antennas, t)
    scale = np.sqrt(pdp.tap_powers / 2.0)
    taps = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ChannelRealization(
        taps=taps,
        pdp=pdp,
        num_antennas=num_antennas,
        sample_rate=sample_rate,
        num_subcarriers=num_subcarriers,
    )


def matrix_stack(realization: ChannelRealization, subcarrier_index: int) -> np.ndarray:
    """All channel matrices at one subcarrier, shape (M, M, N, K).

    ``stack[m, j]`` is the channel matrix H_mj from cell m's users to BS j:
    column l holds the discrete frequency response

        H(f_k) = sum_t g_t exp(-2i pi f_k tau_t),  f_k = k * sample_rate / L,

    of the taps g of user l of cell m at every antenna of BS j.
    """
    if not 0 <= subcarrier_index < realization.num_subcarriers:
        raise ValueError(
            f"subcarrier_index {subcarrier_index} outside "
            f"[0, {realization.num_subcarriers})"
        )
    phase = np.exp(
        -2j
        * np.pi
        * (subcarrier_index * realization.sample_rate / realization.num_subcarriers)
        * realization.pdp.tap_delays
    )
    h = realization.taps @ phase  # (M, M, K, N)
    return np.swapaxes(h, 2, 3)
