"""The tracking kernel: the sequential tap-weight recursion of the blind
tracker, run for a batch of independent trials at once.

``blind.blind_step`` is the one-update, one-trial reference this kernel
must match; a property test pins every row of the batch to it on random
inputs.

The kernel is block-exact (after Benesty & Duhamel's fast exact LMS):
it advances every row ``BLOCK`` updates at a time and gets the same
decisions and weights as the per-update recursion, up to rounding.
Within a block starting from weights w, with y0_i = Re{w^H x_i},
G_ij = Re{x_i^H x_j} and s_j = sign(y_j), the sequential decisions obey

    y_i = y0_i - sum_{j<i} eta_j G_ij (y_j - R s_j),

so for given signs y = y0 + (M - I)(y0 - R s) with the unit lower
triangular M = (I + tril(eta G, -1))^-1.  Since y_i depends only on
s_{<i}, iterating s <- sign(y) from s = sign(y0) reaches the sequential
signs in at most n + 1 rounds (about one in practice).  The block's
weight change is then one product, w -= sum_j eta_j (y_j - R s_j) x_j.

The steps eta (``step_sizes``) and the factors M - I (``block_factors``)
depend only on the packet and the step, so ``blind.run_packet``, the
one caller, builds both once per packet and passes them to every
``track_segment`` call on it, after checking that the packet's entries
and squared norms are finite.  Row t of each depends only on trial t's
packet column.
"""

from __future__ import annotations

import numpy as np

# Updates per block: the factor array is (T, ceil(P / BLOCK), BLOCK, BLOCK).
BLOCK = 25


def step_sizes(x_packet: np.ndarray, mu: float, eps: float, normalized: bool) -> np.ndarray:
    """Per-update steps eta, (T, P): 2 mu / (x^H x + eps), or 2 mu unnormalized.

    ``x_packet`` is the (P, T, N) complex stack; its squared norms are the
    plain dot products of the interleaved (re, im) parts.
    """
    two_mu = 2.0 * mu
    if not normalized:
        return np.full((x_packet.shape[1], x_packet.shape[0]), two_mu)
    x_re = x_packet.view(np.float64)
    return (two_mu / (np.einsum("ptn,ptn->pt", x_re, x_re) + eps)).T


def block_factors(x_packet: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """M - I for every packet-aligned block [b BLOCK, (b+1) BLOCK) and trial.

    Returns a (T, ceil(P / BLOCK), BLOCK, BLOCK) array F with
    F[t, b] = (I + tril(eta G, -1))^-1 - I, strictly lower triangular, for
    the block's Gram matrix G_ij = Re{x_i^H x_j} of trial t and the (T, P)
    steps ``eta`` of ``step_sizes``.  A short last block fills only its
    leading square.  The diagonal blocks of a triangular inverse are the
    inverses of its diagonal blocks, so a segment piece [a, a+n) inside a
    block uses F[t, b][a:a+n, a:a+n].

    The inverse is a forward substitution over all (trial, block) pairs at
    once, written over the Gram array; a non-finite row stays in its own
    factors.
    """
    packet_len, trials, _ = x_packet.shape
    full, tail = divmod(packet_len, BLOCK)
    num_blocks = full + (tail > 0)
    x_re = x_packet.view(np.float64)
    factors = np.zeros((trials, num_blocks, BLOCK, BLOCK))
    # strided (T, block, i, k) views of the (P, T, 2N) stack, no transposed copy
    if full:
        xb = x_re[: full * BLOCK].reshape(full, BLOCK, trials, -1).transpose(2, 0, 1, 3)
        np.matmul(xb, xb.swapaxes(-1, -2), out=factors[:, :full])
    if tail:
        xt = x_re[full * BLOCK :].transpose(1, 0, 2)
        factors[:, full, :tail, :tail] = xt @ xt.swapaxes(-1, -2)
    padded = np.zeros((trials, num_blocks * BLOCK))
    padded[:, :packet_len] = eta
    # L_ij = eta_j G_ij below the diagonal, zero elsewhere
    factors *= padded.reshape(trials, num_blocks, 1, BLOCK)
    factors[:, :, ~np.tri(BLOCK, k=-1, dtype=bool)] = 0.0
    # (I + L)(I + F) = I gives row i of F as -L_i (I + F_{<i})
    for i in range(1, BLOCK):
        row = factors[:, :, i : i + 1, :i]
        row += row @ factors[:, :, :i, :i]
        np.negative(row, out=row)
    return factors


def track_segment(
    w: np.ndarray,
    x_packet: np.ndarray,
    eta: np.ndarray,
    factors: np.ndarray,
    start: int,
    count: int,
    r: float,
    s_out: np.ndarray | None = None,
) -> None:
    """Run ``count`` tap-weight updates in place on every row, cycling over the packet.

    ``w`` is a C-contiguous (T, N) complex array, one trial per row;
    ``x_packet`` is a C-contiguous (P, T, N) complex array, ``eta`` its
    (T, P) ``step_sizes`` and ``factors`` its ``block_factors``.  Update i
    uses packet row k = (start + i) % P and, for each trial t:

        y   = Re{w[t]^H x[k, t]}
        w[t] -= eta[t, k] * sign(y) * (|y| - r) * x[k, t]

    The updates run a block at a time (see the module docstring); a
    segment may start and stop anywhere in a block.  Rows share no
    arithmetic, so a diverging row leaves the others exact.  ``s_out``,
    when given, is a (count, T) array that receives the pre-update
    decisions y.
    """
    packet_len = x_packet.shape[0]
    # real views: Re{w^H x} is the plain dot product of the interleaved
    # (re, im) parts, and scaling x by a real coefficient is elementwise
    w_re = w.view(np.float64)
    w_col = w_re[:, :, None]
    x_re = x_packet.view(np.float64)
    pos, done = start % packet_len, 0
    while done < count:
        # the piece [pos, pos + n) lies in one block and before the packet's end
        b, a = divmod(pos, BLOCK)
        n = min(count - done, BLOCK - a, packet_len - pos)
        xs = x_re[pos : pos + n].transpose(1, 0, 2)  # (T, n, 2N) view
        f = factors[:, b, a : a + n, a : a + n]
        y0 = (xs @ w_col)[:, :, 0]
        s = np.sign(y0)
        # y_i needs only s_{<i}, so n + 1 rounds always reach the fixed point;
        # a nan row never compares equal, so it runs all n + 1 rounds and
        # still fails the finite-weights check
        for _ in range(n + 1):
            v = y0 - r * s
            y = y0 + (f @ v[:, :, None])[:, :, 0]
            s_new = np.sign(y)
            if (s_new == s).all():
                break
            s = s_new
        coef = y - r * s
        coef *= eta[:, pos : pos + n]
        w_re -= (coef[:, None, :] @ xs)[:, 0]
        if s_out is not None:
            s_out[done : done + n] = y.T
        done += n
        pos = (pos + n) % packet_len
