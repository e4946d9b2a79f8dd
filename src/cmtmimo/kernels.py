"""The tracking kernel: the sequential tap-weight recursion of the blind
tracker, run for a batch of independent trials at once.

``blind.blind_step`` is the one-update, one-trial reference this kernel
must match; a property test pins every row of the batch to it on random
inputs.
"""

from __future__ import annotations

import numpy as np


def track_segment(
    w: np.ndarray,
    x_packet: np.ndarray,
    x_norm_sq: np.ndarray,
    start: int,
    count: int,
    mu: float,
    eps: float,
    r: float,
    normalized: bool,
    s_out: np.ndarray | None = None,
) -> None:
    """Run ``count`` tap-weight updates in place on every row, cycling over the packet.

    ``w`` is a C-contiguous (T, N) complex array, one trial per row;
    ``x_packet`` is a C-contiguous (P, T, N) complex array and
    ``x_norm_sq`` its (P, T) squared norms.  Update i uses packet row
    k = (start + i) % P and, for each trial t:

        y   = Re{w[t]^H x[k, t]}
        eta = 2 mu / (x^H x + eps)   (or 2 mu unnormalized)
        w[t] -= eta * sign(y) * (|y| - r) * x[k, t]

    Rows share no arithmetic, so a diverging row leaves the others exact.
    ``s_out``, when given, is a (count, T) array that receives the
    pre-update decisions y.
    """
    packet_len = x_packet.shape[0]
    # real views: Re{w^H x} is the plain dot product of the interleaved
    # (re, im) parts, and scaling x by a real coefficient is elementwise
    w_re = w.view(np.float64)
    x_re = x_packet.view(np.float64)
    two_mu = 2.0 * mu
    eta = two_mu / (x_norm_sq + eps) if normalized else np.full(x_norm_sq.shape, two_mu)
    y = np.empty(w.shape[0])
    coef = np.empty(w.shape[0])
    step = np.empty_like(w_re)
    for i in range(count):
        k = (start + i) % packet_len
        x = x_re[k]
        np.einsum("ij,ij->i", w_re, x, out=y)
        if s_out is not None:
            s_out[i] = y
        np.abs(y, out=coef)
        coef -= r
        coef *= np.sign(y)
        coef *= eta[k]
        np.multiply(coef[:, None], x, out=step)
        w_re -= step
