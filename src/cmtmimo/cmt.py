"""Compact CMT transmultiplexer: VSB subcarriers with 0/pi-2 phase toggling.

Real PAM frames ride on vestigial-sideband subcarriers spaced at the symbol
rate; adjacent subcarriers are phase-toggled by i**k so that, after matched
filtering and real-part extraction, inter-symbol and inter-carrier leakage
lands entirely in the imaginary part (the intrinsic interference q); the
``verify`` check ``cmt.perfect_reconstruction`` fails without the toggle.
This module runs single-antenna loopback only, in one function,
``measure_intrinsic_stats``: it measures the statistics of q, and its
sigma_q^2 calibrates the abstract per-subcarrier model that the array
experiments use.

Synthesis is critically sampled at L samples per symbol period.  The
carrier e^{j2 pi k n / L} has period L, so both directions run in the
standard filter-bank-multicarrier polyphase form (Siohan, Siclet & Lacroix,
IEEE TSP 2002; Farhang-Boroujeny, IEEE SPM 2011): one L-point IFFT or FFT
per symbol plus an (overlap_factor + 1)-tap filter along the symbol axis
for each of the L phases of the prototype.  Those L filters run at once as
one FFT convolution along the symbol axis, over num_symbols +
overlap_factor points: the full length of the synthesis convolution, and
enough that no analysis output the caller keeps wraps around.  Each
direction splits at that symbol-axis DFT into a private stage
(``_synthesis_spectrum``, ``_analysis``), so the loopback builds the
prototype's spectrum once, analyses the equalized stream straight from
the synthesis spectrum, and runs its multipath channel as a direct-form
sum over the channel's few nonzero taps.

The prototype is a function of ``CmtConfig`` alone, so the transforms
take only the config and build it themselves (``design_prototype``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft  # noqa: F401 - unused, but perfbench's set-up probe needs its import time


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
    # only when a sample sits on the knee: for a subnormal beta, pi / (4 beta)
    # overflows and its sine is nan
    if at_knee.any():
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


def _prototype_spectrum(config: CmtConfig, size: int) -> np.ndarray:
    """``size``-point DFT along the symbol axis of every polyphase component.

    The prototype, zero-padded to (overlap_factor + 1) L taps, is laid out
    as an (overlap_factor + 1, L) array whose row q holds taps qL..qL+L-1.
    Column r is the r-th polyphase component, the filter that sample r of
    every symbol period sees along the symbol axis.  Returns a complex
    (size, L) array; column r transforms column r.  The components are
    real, so one real FFT gives bins 0..size // 2 and the rest are their
    mirror, bin size - m the conjugate of bin m, for odd and even
    ``size``.  The prototype is even-symmetric bit for bit, so the
    matched filter has the same polyphase components and correlating
    with them multiplies by the conjugate of this spectrum.
    """
    L = config.num_subcarriers
    rows = config.overlap_factor + 1
    coefficients = design_prototype(config)
    padded = np.zeros(rows * L)
    padded[: coefficients.size] = coefficients
    half = np.fft.rfft(padded.reshape(rows, L), size, axis=0)  # bins 0 .. size // 2
    spectrum = np.empty((size, L), dtype=complex)
    spectrum[: half.shape[0]] = half
    np.conj(half[1 : (size + 1) // 2][::-1], out=spectrum[half.shape[0] :])
    return spectrum


def _synthesis_spectrum(frames: np.ndarray, config: CmtConfig, prototype: np.ndarray) -> np.ndarray:
    """Symbol-axis DFT of the synthesized polyphase blocks.

    ``frames`` is a real (L, num_symbols) array and ``prototype`` is
    ``_prototype_spectrum(config, num_symbols + overlap_factor)``.  Symbol
    n of every subcarrier goes through one L-point IFFT; the
    num_symbols + overlap_factor point DFT of those IFFTs along the symbol
    axis, times the prototype's spectrum, is the returned (size, L) array.
    Its inverse DFT along axis 0, read row by row, is the synthesized
    stream; it is also what the analysis needs of that stream
    (``_analysis``), so a loopback skips the round trip.
    """
    L = config.num_subcarriers
    # row n: sum_k i**k a_k[n] e^{j2 pi k r / L} for r = 0..L-1
    spectra = frames * _toggle(config)[:, None]
    np.fft.ifft(spectra, axis=0, out=spectra)
    spectra *= L
    out = np.fft.fft(spectra.T, prototype.shape[0], axis=0, out=np.empty(prototype.shape, dtype=complex))
    out *= prototype
    return out


def _analysis(blocks: np.ndarray, config: CmtConfig, num_symbols: int, matched: np.ndarray) -> np.ndarray:
    """Matched-filter and down-convert received polyphase blocks, in place.

    ``blocks`` is the (size, L) symbol-axis DFT of the received stream cut
    into L-sample blocks, and ``matched`` the conjugated
    ``_prototype_spectrum(config, size)``.  Their product is the FFT
    correlation with the prototype's polyphase components; back along the
    symbol axis, one L-point FFT per decision instant down-converts all L
    subcarriers.  Returns ``cmt_demodulate``'s (L, num_symbols) result, a
    view of ``blocks``.
    """
    blocks *= matched
    np.fft.ifft(blocks, axis=0, out=blocks)
    spectra = blocks[:num_symbols]
    np.fft.fft(spectra, axis=1, out=spectra)
    spectra *= np.conj(_toggle(config))
    return spectra.T


def cmt_synthesize(pam_frames: np.ndarray, config: CmtConfig) -> np.ndarray:
    """Modulate real PAM frames onto all L subcarriers.

    Symbol n of every subcarrier goes through one L-point IFFT; sample
    pL + r of the output is then the r-th polyphase component of the
    prototype convolved with column r of those IFFTs along the symbol
    axis, at lag p.  All L convolutions run as one FFT convolution of
    num_symbols + overlap_factor points, the full convolution length, so
    nothing wraps: ``_synthesis_spectrum``, then one inverse DFT.

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
    prototype = _prototype_spectrum(config, frames.shape[1] + config.overlap_factor)
    spectrum = _synthesis_spectrum(frames, config, prototype)
    # C order, so the samples come out as a view of it
    return np.fft.ifft(spectrum, axis=0, out=spectrum).ravel()


def cmt_demodulate(samples: np.ndarray, config: CmtConfig, num_symbols: int) -> np.ndarray:
    """Demodulate every subcarrier: down-convert and matched-filter.

    The stream is cut into num_symbols + overlap_factor blocks of L
    samples; their DFT along the symbol axis goes to ``_analysis``, which
    applies the matched filter in polyphase form as one FFT correlation
    with the conjugated ``_prototype_spectrum``, then one L-point FFT per
    decision instant down-converts all L subcarriers at once.

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
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be >= 1 (got {num_symbols})")
    size = num_symbols + config.overlap_factor
    # decision n reads blocks n .. n + overlap, all inside the size-point
    # transform, so the circular correlation does not wrap
    blocks = np.zeros((size, L), dtype=complex)
    used = min(samples.size, blocks.size)
    blocks.reshape(-1)[:used] = samples[:used]
    np.fft.fft(blocks, axis=0, out=blocks)
    prototype = _prototype_spectrum(config, size)
    return _analysis(blocks, config, num_symbols, np.conj(prototype, out=prototype))


def _random_multipath(config: CmtConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Short random complex FIR used for the unequalized-statistics pass.

    Returns its nonzero taps: the ascending delays, the first 0, and their
    complex gains.
    """
    L = config.num_subcarriers
    num_taps = min(6, L)  # distinct delays 1..L-1 after the tap at 0
    delays = np.concatenate(([0], np.sort(rng.choice(np.arange(1, L), size=num_taps - 1, replace=False))))
    powers = np.exp(-delays / (L / 2.0))
    powers /= powers.sum()
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps))
    return delays, gains


def _multipath_pass(x: np.ndarray, delays: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """``x`` convolved with the FIR whose nonzero taps are ``gains`` at
    ``delays`` (ascending, the first 0), cut to ``x.size`` samples.

    The direct form over the nonzero taps only: one scaled copy of ``x``,
    then one shifted, scaled add per further tap.  It rounds differently
    from an FFT convolution such as ``scipy.signal.fftconvolve``, within
    1e-12 of the largest output sample; no scipy is involved.
    """
    out = gains[0] * x
    for delay, gain in zip(delays[1:], gains[1:]):
        if delay < x.size:
            out[delay:] += gain * x[: x.size - delay]
    return out


def measure_intrinsic_stats(
    config: CmtConfig,
    rng: np.random.Generator,
    num_frames: int,
    min_samples: int = 100_000,
) -> IntrinsicStats:
    """Loopback statistics over i.i.d. binary PAM on all subcarriers.

    Draws ``num_frames`` multicarrier symbols on all subcarriers from
    ``rng``, runs them through the noiseless synthesize/demodulate
    loopback, discards ``overlap_factor`` edge symbols on each side and
    pools the interior of every subcarrier.  Reports the variance and
    kurtosis of the imaginary part q, the sign-decision error rate of the
    equalized real part, and the kurtosis of the real part after passing
    the same stream through a random multipath channel with no equalizer
    (the unequalized-symbol statistic).  The channel is drawn from ``rng``
    after the frames.  The three transforms share one prototype spectrum,
    and the equalized stream is analysed straight from the synthesis
    spectrum, which is the DFT of that stream's blocks.  Fourth moments
    are means of squared squares, which numpy computes far faster than a
    fourth power.

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
    interior = slice(edge, num_frames - edge)
    frames = rng.choice([-1.0, 1.0], size=(L, num_frames))
    prototype = _prototype_spectrum(config, num_frames + edge)
    spectrum = _synthesis_spectrum(frames, config, prototype)
    matched = np.conj(prototype, out=prototype)
    # the stream for the multipath pass, out of place: the analysis below
    # overwrites the spectrum, which is already the DFT of the stream's blocks
    x = np.fft.ifft(spectrum, axis=0).ravel()
    y = _analysis(spectrum, config, num_frames, matched)[:, interior]
    q = y.imag.ravel()
    q_var = float(q.var())
    kurtosis_imag = float(np.mean(np.square(np.square(q - q.mean()))) / q_var**2)
    error_rate = float(np.count_nonzero(np.sign(y.real) != frames[:, interior]) / q.size)
    # free the loopback before the multipath half
    del frames, spectrum, y, q

    blocks = _multipath_pass(x, *_random_multipath(config, rng)).reshape(-1, L)
    del x
    np.fft.fft(blocks, axis=0, out=blocks)
    u = _analysis(blocks, config, num_frames, matched)[:, interior].real.ravel()
    u_c = u - u.mean()
    return IntrinsicStats(
        sigma_q_sq=q_var,
        kurtosis_imag=kurtosis_imag,
        kurtosis_real_unequalized=float(np.mean(np.square(np.square(u_c))) / np.mean(u_c**2) ** 2),
        real_part_alphabet_error_rate=error_rate,
    )
