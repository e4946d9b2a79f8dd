"""Compact CMT transmultiplexer: VSB subcarriers with 0/pi-2 phase toggling.

Real PAM frames ride on vestigial-sideband subcarriers spaced at the symbol
rate; adjacent subcarriers are phase-toggled by i**k so that, after matched
filtering and real-part extraction, inter-symbol and inter-carrier leakage
lands entirely in the imaginary part (the intrinsic interference q); the
``verify`` check ``cmt.perfect_reconstruction`` fails without the toggle.
This module runs single-antenna loopback only; the array experiments use
the abstract per-subcarrier model with sigma_q calibrated here.

Synthesis is critically sampled at L samples per symbol period.  The
carrier e^{j2 pi k n / L} has period L, so both directions run in the
standard filter-bank-multicarrier polyphase form (Siohan, Siclet & Lacroix,
IEEE TSP 2002; Farhang-Boroujeny, IEEE SPM 2011): one L-point IFFT or FFT
per symbol plus an (overlap_factor + 1)-tap filter along the symbol axis
for each of the L phases of the prototype.

The prototype is a function of ``CmtConfig`` alone, so the transforms
take only the config and build it themselves (``design_prototype``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import fftconvolve


@dataclass(frozen=True)
class CmtConfig:
    """Transmultiplexer dimensions.

    Attributes
    ----------
    num_subcarriers : int
        L; also the number of samples per symbol period.
    overlap_factor : int
        Prototype length in symbol periods.
    rolloff : float
        Excess-bandwidth factor of the prototype, in (0, 1].
    """

    num_subcarriers: int
    overlap_factor: int
    rolloff: float

    def __post_init__(self) -> None:
        if self.num_subcarriers < 2:
            raise ValueError("num_subcarriers must be >= 2")
        if self.overlap_factor < 4:
            raise ValueError("overlap_factor must be >= 4")
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError("rolloff must lie in (0, 1]")
        if self.num_subcarriers * self.overlap_factor % 2:
            raise ValueError(
                "num_subcarriers * overlap_factor must be even so the prototype "
                f"has a center sample (got {self.num_subcarriers} * {self.overlap_factor})"
            )


@dataclass(frozen=True)
class IntrinsicStats:
    """Loopback statistics of the intrinsic interference.

    ``sigma_q_sq`` is the variance of the imaginary part q in units of
    symbol energy; the kurtosis fields are plain (non-excess) kurtosis, 3
    for a Gaussian; ``real_part_alphabet_error_rate`` is the sign-decision
    error rate of the equalized real part in noiseless loopback.
    """

    sigma_q_sq: float
    kurtosis_imag: float
    kurtosis_real_unequalized: float
    real_part_alphabet_error_rate: float

    def __post_init__(self) -> None:
        if self.sigma_q_sq < 0.0:
            raise ValueError("sigma_q_sq must be >= 0")


def _srrc(t: np.ndarray, beta: float) -> np.ndarray:
    """Square-root raised-cosine impulse response; t in symbol periods."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    tol = 1e-10
    at_zero = np.abs(t) < tol
    at_knee = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) < tol
    regular = ~(at_zero | at_knee)
    tr = t[regular]
    num = np.sin(np.pi * tr * (1 - beta)) + 4 * beta * tr * np.cos(np.pi * tr * (1 + beta))
    den = np.pi * tr * (1.0 - (4.0 * beta * tr) ** 2)
    out[regular] = num / den
    out[at_zero] = 1.0 - beta + 4.0 * beta / np.pi
    out[at_knee] = (beta / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
    )
    return out


def design_prototype(config: CmtConfig) -> np.ndarray:
    """Square-root raised-cosine prototype sampled at L samples per symbol.

    Returns the overlap_factor * L + 1 coefficients: the filter spans
    ``overlap_factor`` symbol periods plus one sample so its center falls
    on a sample and the even symmetry is exact.  It has unit energy.  Its
    self-convolution satisfies the Nyquist zero-crossing property at
    nonzero integer symbol lags (how closely depends on rolloff and
    overlap; see the invariant tests).
    """
    span = config.overlap_factor * config.num_subcarriers
    idx = np.arange(span + 1)
    g = _srrc((idx - span // 2) / config.num_subcarriers, config.rolloff)
    g /= np.sqrt(np.sum(g * g))
    return g


def _toggle(config: CmtConfig) -> np.ndarray:
    """Per-subcarrier phase factors i**k."""
    return np.array([1, 1j, -1, -1j])[np.arange(config.num_subcarriers) % 4]


def _polyphase(coefficients: np.ndarray, config: CmtConfig) -> np.ndarray:
    """Filter as an (overlap_factor + 1, L) array: row q holds taps qL..qL+L-1.

    Column r is the r-th polyphase component; the final row carries only the
    last tap, zero-padded.
    """
    L = config.num_subcarriers
    rows = config.overlap_factor + 1
    padded = np.zeros(rows * L)
    padded[: coefficients.size] = coefficients
    return padded.reshape(rows, L)


def cmt_synthesize(pam_frames: np.ndarray, config: CmtConfig) -> np.ndarray:
    """Modulate real PAM frames onto all L subcarriers.

    Symbol n of every subcarrier goes through one L-point IFFT; sample
    pL + r of the output is then the r-th polyphase component of the
    prototype applied along the symbol axis at lag p.

    Parameters
    ----------
    pam_frames : ndarray, shape (L, num_symbols)
        Row k holds subcarrier k's PAM stream.

    Returns
    -------
    ndarray, complex, length (num_symbols + overlap_factor) * L
    """
    frames = np.asarray(pam_frames, dtype=float)
    L = config.num_subcarriers
    if frames.ndim != 2 or frames.shape[0] != L:
        raise ValueError(f"pam_frames must have shape ({L}, num_symbols)")
    num_symbols = frames.shape[1]
    # row n: sum_k i**k a_k[n] e^{j2 pi k r / L} for r = 0..L-1
    spectra = L * np.fft.ifft(frames * _toggle(config)[:, None], axis=0).T
    phases = _polyphase(design_prototype(config), config)
    out = np.zeros((num_symbols + config.overlap_factor, L), dtype=complex)
    for q, taps in enumerate(phases):
        out[q : q + num_symbols] += taps * spectra
    return out.ravel()


def cmt_demodulate(samples: np.ndarray, config: CmtConfig, num_symbols: int) -> np.ndarray:
    """Demodulate every subcarrier: down-convert and matched-filter.

    The matched filter is applied in polyphase form along the symbol axis,
    then one L-point FFT per decision instant down-converts all L
    subcarriers at once.

    Returns
    -------
    ndarray, complex, shape (L, num_symbols)
        Row k is subcarrier k's pre-decision sequence y_k(n); the real part
        is the PAM decision variable and the imaginary part is the intrinsic
        interference, left to the caller so both can be inspected.  Samples
        past the end of ``samples`` count as zero.
    """
    samples = np.asarray(samples)
    L = config.num_subcarriers
    overlap = config.overlap_factor
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be >= 1 (got {num_symbols})")
    # decision n reads samples nL .. nL + overlap*L against the reversed prototype
    blocks = np.zeros(((num_symbols + overlap) * L), dtype=complex)
    used = min(samples.size, blocks.size)
    blocks[:used] = samples[:used]
    blocks = blocks.reshape(num_symbols + overlap, L)
    phases = _polyphase(design_prototype(config)[::-1], config)
    filtered = np.zeros((num_symbols, L), dtype=complex)
    for q, taps in enumerate(phases):
        filtered += taps * blocks[q : q + num_symbols]
    spectra = np.fft.fft(filtered, axis=1)
    return spectra.T * np.conj(_toggle(config))[:, None]


def _random_multipath(config: CmtConfig, rng: np.random.Generator) -> np.ndarray:
    """Short random complex FIR used for the unequalized-statistics pass."""
    L = config.num_subcarriers
    num_taps = min(6, L)  # distinct delays 1..L-1 after the tap at 0
    delays = np.concatenate(([0], np.sort(rng.choice(np.arange(1, L), size=num_taps - 1, replace=False))))
    powers = np.exp(-delays / (L / 2.0))
    powers /= powers.sum()
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps))
    fir = np.zeros(delays[-1] + 1, dtype=complex)
    fir[delays] = gains
    return fir


class Loopback(NamedTuple):
    """One noiseless loopback run of ``intrinsic_loopback``."""

    frames: np.ndarray  # (L, num_frames) binary PAM sent on every subcarrier
    signal: np.ndarray  # the synthesized stream
    interior: np.ndarray  # (L, num_frames - 2 overlap) demodulated interior symbols
    sigma_q_sq: float  # variance of the interior's imaginary part q


def intrinsic_loopback(
    config: CmtConfig,
    rng: np.random.Generator,
    num_frames: int,
    min_samples: int = 100_000,
) -> Loopback:
    """Noiseless synthesize/demodulate loopback over i.i.d. binary PAM.

    Draws ``num_frames`` multicarrier symbols on all subcarriers (its only
    use of ``rng``), discards ``overlap_factor`` edge symbols on each side
    and pools the interior of every subcarrier.  This is the part of
    ``measure_intrinsic_stats`` that fixes sigma_q^2, so a caller that
    needs only sigma_q^2 skips the multipath pass and gets the same bits.

    Raises if the interior yields fewer than ``min_samples`` symbols.
    """
    L = config.num_subcarriers
    edge = config.overlap_factor
    interior_per_sub = num_frames - 2 * edge
    if interior_per_sub < 1 or interior_per_sub * L < min_samples:
        raise ValueError(
            f"num_frames={num_frames} yields {max(interior_per_sub, 0) * L} interior "
            f"symbols; need at least {min_samples}"
        )
    frames = rng.choice([-1.0, 1.0], size=(L, num_frames))
    x = cmt_synthesize(frames, config)
    y = cmt_demodulate(x, config, num_symbols=num_frames)[:, edge : num_frames - edge]
    return Loopback(frames, x, y, float(y.imag.ravel().var()))


def measure_intrinsic_stats(
    config: CmtConfig,
    rng: np.random.Generator,
    num_frames: int,
    min_samples: int = 100_000,
) -> IntrinsicStats:
    """Loopback statistics over i.i.d. binary PAM on all subcarriers.

    Runs the noiseless ``intrinsic_loopback`` and reports the variance and
    kurtosis of the imaginary part, the sign-decision error rate of the
    equalized real part, and the kurtosis of the real part after passing
    the same stream through a random multipath channel with no equalizer
    (the unequalized-symbol statistic).  The channel is drawn from ``rng``
    after the frames.

    Raises if the interior yields fewer than ``min_samples`` symbols.
    """
    frames, x, y, q_var = intrinsic_loopback(config, rng, num_frames, min_samples)
    interior = slice(config.overlap_factor, num_frames - config.overlap_factor)
    q = y.imag.ravel()
    kurtosis_imag = float(np.mean((q - q.mean()) ** 4) / q_var**2)
    error_rate = float(np.count_nonzero(np.sign(y.real) != frames[:, interior]) / q.size)
    # the multipath pass's FFT is the call's memory peak: free the loopback first
    del frames, y, q

    x_multipath = fftconvolve(x, _random_multipath(config, rng))[: x.size]
    u = cmt_demodulate(x_multipath, config, num_symbols=num_frames)[:, interior].real.ravel()
    u_c = u - u.mean()
    return IntrinsicStats(
        sigma_q_sq=q_var,
        kurtosis_imag=kurtosis_imag,
        kurtosis_real_unequalized=float(np.mean(u_c**4) / np.mean(u_c**2) ** 2),
        real_part_alphabet_error_rate=error_rate,
    )
