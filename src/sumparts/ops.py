"""Dense numeric primitives: sparsemax, softmax, and the membership rows
of every subset of the features, in blocks.

All functions are pure and operate on float64 numpy arrays.  ``sparsemax``,
``sparsemax_vjp`` and ``softmax`` act on every row along the last axis of
an array of one or more dimensions, so one call covers a whole stack of
rows.  Inputs are validated at the boundary (shape, finiteness) and raise
``ValueError`` on contract violations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sparsemax",
    "sparsemax_vjp",
    "softmax",
    "powerset_blocks",
]

# powerset rows per block of :func:`powerset_blocks`, which bounds the memory
# of per-block work at d=20
POWERSET_BLOCK_ROWS = 1 << 16


def _as_rows(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 1:
        raise ValueError(f"{name} must have at least one axis, got a scalar")
    if v.shape[-1] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def sparsemax(v) -> np.ndarray:
    """Euclidean projection of each last-axis row of ``v`` onto the
    probability simplex.

    Uses the O(n log n) sort-and-threshold algorithm: with ``u`` the entries
    of a row sorted descending, the support size is the largest ``k`` with
    ``u_k > (sum(u_1..u_k) - 1) / k``, the threshold ``tau`` is
    ``(sum over the support - 1) / k``, and the output is
    ``max(v - tau, 0)``.  Unlike softmax, entries outside the support are
    exactly zero.

    Returns an array of the same shape whose rows have entries in [0, 1]
    summing to 1.  Raises ``ValueError`` for a row in which rounding leaves
    no entry passing the support test (k = 0), as happens when its entries
    are so large that subtracting 1 does not change their sum.
    """
    v = _as_rows(v, "v")
    if v.shape[-1] == 1:
        return np.ones_like(v)
    n = v.shape[-1]
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    cssv = np.cumsum(u, axis=-1) - 1.0
    k = np.count_nonzero(u - cssv / np.arange(1, n + 1) > 0, axis=-1)[..., None]
    if not k.all():
        largest = np.abs(u[k[..., 0] == 0]).max()
        raise ValueError(f"sparsemax cannot project a row of v whose entries reach "
                         f"{largest:.3g}: no entry passes the support test")
    # cssv[..., k - 1] of each row, gathered from the flat array
    tau = cssv.ravel()[np.arange(0, cssv.size, n) + (k.ravel() - 1)].reshape(k.shape) / k
    out = v - tau
    return np.clip(out, 0.0, 1.0, out=out)


def sparsemax_vjp(v, upstream, *, projection=None) -> np.ndarray:
    """Apply the transposed sparsemax Jacobian at each last-axis row of ``v``
    to the matching row of ``upstream``.

    On the support set Q of ``sparsemax(v)`` the Jacobian is
    ``I_Q - (1/|Q|) 11^T`` and zero elsewhere, so the product subtracts the
    support mean from the support entries of ``upstream`` and zeroes the
    rest.  At points where the support set changes the projection is not
    differentiable; the Jacobian of the current support (a valid generalized
    Jacobian) is used.  A caller that holds ``sparsemax(v)`` already, as a
    backward pass does from its forward, passes it as ``projection`` so
    that it is not worked out again.
    """
    v = _as_rows(v, "v")
    upstream = np.asarray(upstream, dtype=np.float64)
    projection = sparsemax(v) if projection is None else np.asarray(projection)
    if upstream.shape != v.shape or projection.shape != v.shape:
        raise ValueError(f"upstream shape {upstream.shape} or projection shape "
                         f"{projection.shape} does not match v shape {v.shape}")
    support = projection > 0
    masked = np.where(support, upstream, 0.0)
    mean = masked.sum(axis=-1, keepdims=True) / support.sum(axis=-1, keepdims=True)
    return np.where(support, upstream - mean, 0.0)


def softmax(v) -> np.ndarray:
    """Numerically stable softmax of each last-axis row (max-shifted before
    exponentiation).

    Output entries are strictly positive and each row sums to 1; the result
    is invariant to adding a constant to every entry of a row.
    """
    v = _as_rows(v, "v")
    shifted = np.exp(v - v.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def powerset_blocks(d: int):
    """The (2^d, d) boolean membership rows of every subset of the d
    features, row s holding the members of subset s (binary counting, bit
    i = feature i), in order, in blocks of ``POWERSET_BLOCK_ROWS``.

    Each block is filled from its own row range, a column at a time, so
    the whole matrix never exists.
    """
    for start in range(0, 1 << d, POWERSET_BLOCK_ROWS):
        rows = np.arange(start, min(start + POWERSET_BLOCK_ROWS, 1 << d), dtype=np.uint32)
        members = np.empty((rows.size, d), dtype=bool)
        for i in range(d):
            members[:, i] = (rows >> i) & 1
        yield members
