"""Dense numeric primitives: sparsemax, softmax, a central-difference
gradient, and the membership rows of every subset of the features.

All functions are pure and operate on float64 numpy arrays.  ``sparsemax``,
``sparsemax_vjp`` and ``softmax`` act on every row along the last axis of
an array of one or more dimensions, so one call covers a whole stack of
rows.  Inputs are validated at the boundary (shape, finiteness) and raise
``ValueError`` on contract violations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "sparsemax",
    "sparsemax_vjp",
    "softmax",
    "finite_diff_grad",
    "powerset_matrix",
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
    summing to 1.
    """
    v = _as_rows(v, "v")
    if v.shape[-1] == 1:
        return np.ones_like(v)
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    cssv = np.cumsum(u, axis=-1) - 1.0
    ind = np.arange(1, v.shape[-1] + 1)
    k = np.count_nonzero(u - cssv / ind > 0, axis=-1)[..., None]
    tau = np.take_along_axis(cssv, k - 1, axis=-1) / k
    return np.clip(v - tau, 0.0, 1.0)


def sparsemax_vjp(v, upstream) -> np.ndarray:
    """Apply the transposed sparsemax Jacobian at each last-axis row of ``v``
    to the matching row of ``upstream``.

    On the support set Q of ``sparsemax(v)`` the Jacobian is
    ``I_Q - (1/|Q|) 11^T`` and zero elsewhere, so the product subtracts the
    support mean from the support entries of ``upstream`` and zeroes the
    rest.  At points where the support set changes the projection is not
    differentiable; the Jacobian of the current support (a valid generalized
    Jacobian) is used.
    """
    v = _as_rows(v, "v")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != v.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match v shape {v.shape}"
        )
    support = sparsemax(v) > 0
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


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Training uses it for backbones without an ``embed_vjp`` hook, and the
    tests use it as a gradient oracle.  Evaluates ``(f(x + step*e_i) - f(x - step*e_i)) / (2*step)`` per
    coordinate.  Raises if ``f`` returns a non-finite value at any probe.
    """
    x = np.array(x, dtype=np.float64)  # private copy; probed in place below
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive real, got {step}")
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(x))
        flat[i] = orig - step
        lo = float(f(x))
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"f evaluated to a non-finite value near coordinate {i}")
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def powerset_matrix(d: int) -> np.ndarray:
    """Boolean (2^d, d) matrix whose row s holds the members of subset s.

    Binary counting with bit i = feature i, so row order is reproducible.
    Filled a column at a time so temporaries stay one column wide.
    """
    rows = np.arange(1 << d, dtype=np.uint32)
    members = np.empty((rows.size, d), dtype=bool)
    for i in range(d):
        members[:, i] = (rows >> i) & 1
    return members


def powerset_blocks(d: int):
    """The rows of :func:`powerset_matrix`, in order, in blocks of
    ``POWERSET_BLOCK_ROWS``."""
    members = powerset_matrix(d)
    for start in range(0, members.shape[0], POWERSET_BLOCK_ROWS):
        yield members[start:start + POWERSET_BLOCK_ROWS]
