"""Grouped-attribution wrapper around a black-box predictor.

The wrapper decomposes a prediction into a weighted sum of per-group
partial logits: a group generator builds sparse masks over input segments,
the backbone embeds each masked input, and a group selector assigns sparse
scores to the groups.  The prediction is ``sum_i score_i * partial_logit_i``
computed on the same arithmetic path stored in the returned attribution,
so the explanation reconstructs the prediction exactly.

The forward arithmetic accepts a leading batch axis: :func:`sop_forward`
explains one input, and :func:`predict` runs the same arithmetic on a
(B, d) stack of inputs, with one backbone call for all B * G masked
inputs.  With a backbone that embeds each row alone, such as the
identity backbone, each row of ``predict`` equals the ``sop_forward``
prediction of that row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ops import sparsemax

__all__ = [
    "Backbone",
    "Segmentation",
    "GroupGenParams",
    "GroupSelectParams",
    "GroupedAttribution",
    "linear_backbone",
    "identity_backbone",
    "segment_pool",
    "generate_groups",
    "embed_groups",
    "select_groups",
    "sop_forward",
    "predict",
]


def _as_float_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class Backbone:
    """Black-box map from a stack of (masked) inputs to their embeddings.

    ``embed`` maps an (N, d) stack to the (N, h) stack of its rows'
    embeddings and must be deterministic and act on each row alone.
    ``classifier`` holds one weight row per class over the embedding, so
    plain logits are ``embed(x) @ classifier.T``.  ``embed_vjp``, when
    provided, maps ``(x, upstream)`` of shapes (N, d) and (N, h) to the
    (N, d) stack whose row i is the gradient of
    ``upstream[i] . embed(x)[i]`` with respect to ``x[i]``; training falls
    back to finite differences when it is absent.
    """

    embed: Callable[[np.ndarray], np.ndarray]
    classifier: np.ndarray
    h: int
    embed_vjp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        classifier = _as_float_matrix(self.classifier, "classifier")
        object.__setattr__(self, "classifier", classifier)
        if classifier.shape[1] != self.h:
            raise ValueError(
                f"classifier has {classifier.shape[1]} columns, expected h={self.h}"
            )

    @property
    def n_classes(self) -> int:
        return self.classifier.shape[0]


def linear_backbone(weights, classifier) -> Backbone:
    """Backbone with ``embed(x) = weights @ x`` per row and an exact
    gradient hook."""
    weights = _as_float_matrix(weights, "weights")
    return Backbone(
        embed=lambda x: x @ weights.T,
        classifier=classifier,
        h=weights.shape[0],
        embed_vjp=lambda x, upstream: upstream @ weights,
    )


def identity_backbone(classifier) -> Backbone:
    """Backbone whose embedding is the input itself (h = d)."""
    classifier = _as_float_matrix(classifier, "classifier")
    return Backbone(
        embed=lambda x: np.asarray(x, dtype=np.float64),
        classifier=classifier,
        h=classifier.shape[1],
        embed_vjp=lambda x, upstream: np.asarray(upstream, dtype=np.float64),
    )


@dataclass(frozen=True)
class Segmentation:
    """Partition of the feature axis into non-empty segments."""

    assignment: np.ndarray
    n_segments: int

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a non-empty 1-D index array")
        object.__setattr__(self, "assignment", assignment)
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if assignment.min() < 0 or assignment.max() >= self.n_segments:
            raise ValueError("segment indices must lie in [0, n_segments)")
        counts = np.bincount(assignment, minlength=self.n_segments)
        if np.any(counts == 0):
            empty = np.nonzero(counts == 0)[0].tolist()
            raise ValueError(f"segments {empty} contain no features")

    @property
    def n_features(self) -> int:
        return self.assignment.size

    @classmethod
    def contiguous(cls, n_features: int, n_segments: int) -> "Segmentation":
        """Patch-style segmenter: consecutive features in near-equal runs."""
        if not 1 <= n_segments <= n_features:
            raise ValueError(
                f"need 1 <= n_segments <= n_features, got {n_segments} of {n_features}"
            )
        assignment = np.minimum(
            np.arange(n_features) * n_segments // n_features, n_segments - 1
        )
        return cls(assignment=assignment, n_segments=n_segments)


@dataclass(frozen=True)
class GroupGenParams:
    """Per-head query/key weights over the segment dimension.

    ``w_q`` and ``w_k`` are stacked per head with shape
    (heads, n_segments, n_segments).
    """

    w_q: np.ndarray
    w_k: np.ndarray

    def __post_init__(self):
        w_q = np.asarray(self.w_q, dtype=np.float64)
        w_k = np.asarray(self.w_k, dtype=np.float64)
        if w_q.ndim != 3 or w_q.shape[1] != w_q.shape[2]:
            raise ValueError(f"w_q must have shape (heads, m, m), got {w_q.shape}")
        if w_k.shape != w_q.shape:
            raise ValueError(f"w_k shape {w_k.shape} differs from w_q {w_q.shape}")
        if w_q.shape[0] < 1:
            raise ValueError("need at least one head")
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def n_segments(self) -> int:
        return self.w_q.shape[1]

    @classmethod
    def random(cls, n_segments: int, heads: int, rng: np.random.Generator,
               std: float = 0.02) -> "GroupGenParams":
        shape = (heads, n_segments, n_segments)
        return cls(w_q=rng.normal(0.0, std, shape), w_k=rng.normal(0.0, std, shape))


@dataclass(frozen=True)
class GroupSelectParams:
    """Selector weights: query/key projections over the embedding plus the
    per-class value weights (initialized from the backbone classifier)."""

    w_q: np.ndarray
    w_k: np.ndarray
    classifier: np.ndarray

    def __post_init__(self):
        w_q = _as_float_matrix(self.w_q, "w_q")
        w_k = _as_float_matrix(self.w_k, "w_k")
        classifier = _as_float_matrix(self.classifier, "classifier")
        h = classifier.shape[1]
        for name, m in (("w_q", w_q), ("w_k", w_k)):
            if m.shape != (h, h):
                raise ValueError(f"{name} must be {h}x{h}, got {m.shape}")
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)
        object.__setattr__(self, "classifier", classifier)

    @property
    def h(self) -> int:
        return self.classifier.shape[1]

    @property
    def n_classes(self) -> int:
        return self.classifier.shape[0]

    @classmethod
    def random(cls, backbone: Backbone, rng: np.random.Generator,
               std: float = 0.02) -> "GroupSelectParams":
        h = backbone.h
        return cls(
            w_q=rng.normal(0.0, std, (h, h)),
            w_k=rng.normal(0.0, std, (h, h)),
            classifier=backbone.classifier.copy(),
        )


def _check_masks_and_scores(masks: np.ndarray, scores: np.ndarray) -> None:
    """Mask entries and scores in [0, 1], every per-class score column
    (the second-to-last axis) summing to 1; on single attributions and on
    stacks of them alike."""
    if masks.min() < 0.0 or masks.max() > 1.0:
        raise ValueError("mask entries must lie in [0, 1]")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise ValueError("scores must lie in [0, 1]")
    if np.any(np.abs(scores.sum(axis=-2) - 1.0) > 1e-9):
        raise ValueError("each per-class score column must sum to 1")


@dataclass(frozen=True)
class GroupedAttribution:
    """Groups with per-class scores and partial logits, plus the prediction.

    Invariants enforced on construction: mask entries and scores lie in
    [0, 1], each per-class score column sums to 1, and
    ``prediction == (scores * partial_logits).sum(axis=0)`` bit for bit
    (the prediction is that sum, stored as computed).
    """

    groups: np.ndarray
    scores: np.ndarray
    partial_logits: np.ndarray
    prediction: np.ndarray

    def __post_init__(self):
        groups = np.asarray(self.groups, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        logits = np.asarray(self.partial_logits, dtype=np.float64)
        prediction = np.asarray(self.prediction, dtype=np.float64)
        if groups.ndim != 2:
            raise ValueError("groups must be a (G, d) mask matrix")
        g = groups.shape[0]
        if scores.shape != logits.shape or scores.ndim != 2 or scores.shape[0] != g:
            raise ValueError("scores and partial_logits must both be (G, n_classes)")
        if prediction.shape != (scores.shape[1],):
            raise ValueError("prediction must have one entry per class")
        _check_masks_and_scores(groups, scores)
        if not np.array_equal(prediction, (scores * logits).sum(axis=0)):
            raise ValueError("prediction does not reconstruct from scores and logits")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "partial_logits", logits)
        object.__setattr__(self, "prediction", prediction)

    @property
    def n_groups(self) -> int:
        return self.groups.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


def _segment_sums(rows: np.ndarray, seg: Segmentation) -> np.ndarray:
    """Per-segment sums of every row of a (..., d) stack, as (..., m).

    One ``bincount`` over offset bins: bin ``r * m + s`` collects segment
    ``s`` of row ``r`` in feature order, as a per-row ``bincount`` would.
    """
    m = seg.n_segments
    flat = rows.reshape(-1, seg.n_features)
    bins = (np.arange(flat.shape[0])[:, None] * m + seg.assignment).ravel()
    sums = np.bincount(bins, weights=flat.ravel(), minlength=flat.shape[0] * m)
    return sums.reshape(rows.shape[:-1] + (m,))


def segment_pool(x: np.ndarray, seg: Segmentation) -> np.ndarray:
    """Mean of the input features within each segment, for one input or
    for every row of a (..., d) stack."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] != seg.n_features:
        raise ValueError(
            f"input shape {x.shape} does not match segmentation over {seg.n_features}"
        )
    return _segment_sums(x, seg) / np.bincount(seg.assignment, minlength=seg.n_segments)


def _generate(x, seg: Segmentation, params: GroupGenParams) -> dict:
    """Generator intermediates, from the pooled input to the group masks."""
    if params.n_segments != seg.n_segments:
        raise ValueError(
            f"params cover {params.n_segments} segments, segmentation has {seg.n_segments}"
        )
    pooled = segment_pool(x, seg)                       # (..., m)
    queries = params.w_q * pooled[..., None, None, :]   # (..., heads, m, m)
    keys = params.w_k * pooled[..., None, None, :]
    raw = queries @ np.swapaxes(keys, -1, -2) / np.sqrt(seg.n_segments)
    seg_weights = sparsemax(raw).reshape(raw.shape[:-3] + (-1, seg.n_segments))
    return {"pooled": pooled, "queries": queries, "keys": keys, "raw": raw,
            "seg_weights": seg_weights,                 # (..., G, m)
            # take keeps the (..., G, d) masks C-ordered, unlike fancy indexing
            "masks": np.take(seg_weights, seg.assignment, axis=-1)}


def _select(z, params: GroupSelectParams) -> dict:
    """Selector intermediates, from the group embeddings to the partial logits."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[-2] < 1:
        raise ValueError("need at least one group embedding")
    if z.shape[-1] != params.h:
        raise ValueError(f"embeddings have width {z.shape[-1]}, expected {params.h}")
    queries = params.classifier @ params.w_q.T          # (K, h)
    keys = z @ params.w_k.T                             # (..., G, h)
    affinities = keys @ queries.T / np.sqrt(params.h)   # (..., G, K)
    scores = np.swapaxes(sparsemax(np.swapaxes(affinities, -1, -2)), -1, -2)
    return {"sel_queries": queries, "sel_keys": keys, "affinities": affinities,
            "scores": scores, "partial_logits": z @ params.classifier.T}


def _forward(x, seg: Segmentation, gen: GroupGenParams, sel: GroupSelectParams,
             backbone: Backbone) -> dict:
    """The one forward pass, on one input or a (..., d) stack: every
    intermediate that the backward pass reads, keyed by name, ending with
    ``prediction``."""
    x = np.asarray(x, dtype=np.float64)
    cache = _generate(x, seg, gen)
    cache["z"] = embed_groups(x, cache["masks"], backbone)
    cache.update(_select(cache["z"], sel))
    cache["prediction"] = (cache["scores"] * cache["partial_logits"]).sum(axis=-2)
    return cache


def generate_groups(x, seg: Segmentation, params: GroupGenParams) -> np.ndarray:
    """Build sparse group masks from per-head attention over segments.

    The input is mean-pooled to one value per segment; each head scores
    segment pairs with scaled query-key products of the pooled vector and
    projects every score row onto the simplex with sparsemax.  Each of the
    ``n_segments * heads`` rows becomes one mask, with the segment weight
    broadcast to all features of that segment.
    """
    return _generate(x, seg, params)["masks"]


def embed_groups(x, masks, backbone: Backbone) -> np.ndarray:
    """Embed each masked input ``mask * x`` through the backbone.

    Takes one input (d,) with its masks (G, d), or a (..., d) stack with
    masks (..., G, d).  Every masked input goes to the backbone in one
    (N, d) call; the result has shape (..., G, h).
    """
    x = np.asarray(x, dtype=np.float64)
    masks = np.atleast_2d(np.asarray(masks, dtype=np.float64))
    if x.ndim < 1 or masks.shape[-1] != x.shape[-1]:
        raise ValueError(f"masks have width {masks.shape[-1]}, input has shape {x.shape}")
    masked = masks * x[..., None, :]
    n = int(np.prod(masked.shape[:-1]))
    z = np.asarray(backbone.embed(masked.reshape(n, x.shape[-1])), dtype=np.float64)
    if z.shape != (n, backbone.h):
        raise ValueError(
            f"backbone embed returned shape {z.shape}, expected ({n}, {backbone.h})"
        )
    return z.reshape(masked.shape[:-1] + (backbone.h,))


def select_groups(z, params: GroupSelectParams) -> tuple[np.ndarray, np.ndarray]:
    """Score groups per class with sparse attention and compute partial logits.

    For class k the query is the projected class weight ``w_q @ C_k`` and
    group i keys in with ``w_k @ z_i``; the affinity column is sparsemaxed
    over groups.  Partial logits are the plain per-group class logits
    ``C_k . z_i``.  Returns ``(scores, partial_logits)``, both
    (G, n_classes).
    """
    cache = _select(z, params)
    return cache["scores"], cache["partial_logits"]


def sop_forward(x, seg: Segmentation, gen_params: GroupGenParams,
                sel_params: GroupSelectParams, backbone: Backbone) -> GroupedAttribution:
    """Full forward pass: generate groups, embed, select, and predict.

    The returned attribution's prediction is exactly
    ``(scores * partial_logits).sum(axis=0)``.
    """
    if np.ndim(x) != 1:
        raise ValueError(f"sop_forward explains one input vector, got shape {np.shape(x)}")
    cache = _forward(x, seg, gen_params, sel_params, backbone)
    return GroupedAttribution(groups=cache["masks"], scores=cache["scores"],
                              partial_logits=cache["partial_logits"],
                              prediction=cache["prediction"])


def predict(inputs, seg: Segmentation, gen: GroupGenParams, sel: GroupSelectParams,
            backbone: Backbone) -> np.ndarray:
    """Predictions for a (B, d) stack of inputs, as a (B, n_classes) array.

    Runs the forward arithmetic of :func:`sop_forward` on the whole stack
    and checks the masks and scores as a :class:`GroupedAttribution` would.
    Row b equals ``sop_forward(inputs[b], ...).prediction`` bit for bit
    whenever the backbone's embedding of a row does not depend on the
    size of the stack it comes in, as for the identity backbone; a BLAS
    matrix product such as ``linear_backbone``'s may round differently
    for different stack sizes.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError(f"inputs must be a non-empty (B, d) stack, got shape {inputs.shape}")
    cache = _forward(inputs, seg, gen, sel, backbone)
    _check_masks_and_scores(cache["masks"], cache["scores"])
    return cache["prediction"]
