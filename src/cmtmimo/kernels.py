"""The tracking kernel: the sequential tap-weight recursion of the blind
tracker.

``blind.blind_step`` is the one-update reference this kernel must match;
a property test pins the two together on random inputs.
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
    """Run ``count`` tap-weight updates in place, cycling over the packet.

    Update i uses packet row (start + i) % P:

        y   = Re{w^H x}
        eta = 2 mu / (x^H x + eps)   (or 2 mu unnormalized)
        w  -= eta * sign(y) * (|y| - r) * x

    ``s_out``, when given, receives the pre-update decisions y.
    """
    packet_len = x_packet.shape[0]
    two_mu = 2.0 * mu
    for i in range(count):
        k = (start + i) % packet_len
        x = x_packet[k]
        y = np.vdot(w, x).real
        if s_out is not None:
            s_out[i] = y
        eta = two_mu / (x_norm_sq[k] + eps) if normalized else two_mu
        sign = 1.0 if y > 0.0 else (-1.0 if y < 0.0 else 0.0)
        coef = eta * sign * (abs(y) - r)
        if coef != 0.0:
            w -= coef * x
