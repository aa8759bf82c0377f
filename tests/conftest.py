"""Shared oracles and fixtures.

The projection oracles here are deliberately independent of the
library's own algorithms: the simplex projection is solved by enumerating
support sets of the underlying quadratic program, and training fixtures
are plain numpy constructions.  The row oracles (``sparsemax_row``,
``sparsemax_vjp_row``, ``softmax_row``) are the library's earlier
one-vector-at-a-time ops, kept to check the last-axis versions against.
"""

import numpy as np
import pytest

from sumparts.model import Segmentation, identity_backbone, linear_backbone


def brute_force_simplex_projection(v):
    """Exact Euclidean projection onto the simplex by support enumeration.

    For every non-empty candidate support Q the face-restricted minimizer
    is ``v_Q + (1 - sum(v_Q)) / |Q|`` (zero elsewhere); the feasible
    candidate closest to ``v`` is the projection.  Exponential in the
    length, intended for length <= 3.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    best, best_dist = None, np.inf
    for bits in range(1, 1 << n):
        support = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        p = np.zeros(n)
        p[support] = v[support] + (1.0 - v[support].sum()) / support.sum()
        if p.min() < -1e-12:
            continue
        dist = float(((p - v) ** 2).sum())
        if dist < best_dist:
            best, best_dist = np.clip(p, 0.0, None), dist
    return best


def grid_simplex_projection(v, resolution=400):
    """Coarse grid minimizer of ||p - v||^2 over the simplex (length 2 or 3)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 2:
        a = np.linspace(0.0, 1.0, resolution + 1)
        pts = np.column_stack([a, 1.0 - a])
    elif v.size == 3:
        a = np.linspace(0.0, 1.0, resolution + 1)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        keep = aa + bb <= 1.0 + 1e-12
        pts = np.column_stack([aa[keep], bb[keep], 1.0 - aa[keep] - bb[keep]])
    else:
        raise ValueError("grid oracle supports length 2 or 3")
    dists = ((pts - v) ** 2).sum(axis=1)
    return pts[np.argmin(dists)]


def projection_boundary_margin(v):
    """Distance of ``v`` from the nearest support-change boundary of the
    simplex projection: min over coordinates of |v_i - tau|."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    k = int(np.count_nonzero(u - cssv / ind > 0))
    tau = cssv[k - 1] / k
    return float(np.abs(v - tau).min())


def sparsemax_row(v):
    """Sparsemax of one 1-D vector by sort and threshold."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 1:
        return np.ones(1)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    k = int(np.count_nonzero(u - cssv / ind > 0))
    tau = cssv[k - 1] / k
    return np.clip(v - tau, 0.0, 1.0)


def sparsemax_vjp_row(v, upstream):
    """Sparsemax VJP of one 1-D vector: subtract the support mean on the
    support, zero elsewhere."""
    v = np.asarray(v, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    support = sparsemax_row(v) > 0
    out = np.zeros_like(v)
    masked = upstream[support]
    out[support] = masked - masked.mean()
    return out


def softmax_row(v):
    """Max-shifted softmax of one 1-D vector."""
    v = np.asarray(v, dtype=np.float64)
    shifted = np.exp(v - v.max())
    return shifted / shifted.sum()


def per_row(fn, *arrays):
    """Apply a 1-D row oracle to every last-axis row of same-shaped arrays."""
    shape = np.shape(arrays[0])
    rows = [np.asarray(a, dtype=np.float64).reshape(-1, shape[-1]) for a in arrays]
    return np.array([fn(*row) for row in zip(*rows)]).reshape(shape)


def make_blobs(n_per_class=30, d=8, noise=0.5, seed=123):
    """Two linearly separable Gaussian blobs at +/-mu."""
    rng = np.random.default_rng(seed)
    mu = np.concatenate([np.full(d // 2, 1.5), np.full(d - d // 2, -0.5)])
    x0 = mu + noise * rng.normal(size=(n_per_class, d))
    x1 = -mu + noise * rng.normal(size=(n_per_class, d))
    features = np.vstack([x0, x1])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return features, labels


def class_mean_identity_backbone(features, labels):
    n_classes = int(labels.max()) + 1
    classifier = np.vstack(
        [features[labels == k].mean(axis=0) for k in range(n_classes)]
    )
    return identity_backbone(classifier)


@pytest.fixture
def toy_linear_setup():
    """d=4, two segments, one head, hand-set weights; matches the golden
    forward trace fixture."""
    seg = Segmentation(assignment=np.array([0, 0, 1, 1]), n_segments=2)
    weights = np.array([[1.0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    classifier = np.array([[1.0, 0, -1], [0, 2, 1]])
    backbone = linear_backbone(weights, classifier)
    return seg, weights, classifier, backbone
