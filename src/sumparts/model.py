"""Grouped-attribution wrapper around a frozen linear predictor.

The wrapper decomposes a prediction into a weighted sum of per-group
partial logits: a group generator builds sparse masks over input segments,
and a group selector assigns sparse scores to the groups, reading each
masked input.  The prediction is ``sum_i score_i * partial_logit_i``
computed on the same arithmetic path stored in the returned attribution,
so the explanation reconstructs the prediction exactly.

The selector is linear in the masked input and each mask is constant on
each segment, so the selector's affinities and partial logits of a group
are segment-weighted sums of per-segment projections of the input: with
``seg_weights`` the (G, m) segment weights of the groups, they are
``seg_weights @ R`` and ``seg_weights @ P``, where R and P sum the input,
weighted by the selector folded onto the input, over each segment.  The
forward pass works in that segment space and never forms a masked input;
only :func:`sop_forward` and :func:`generate_groups` build the (G, d)
masks, which are the explanation.  :func:`predict` runs the same
arithmetic on a (B, d) stack, in blocks of ``PREDICT_BLOCK_ROWS`` rows,
and each of its rows equals the ``sop_forward`` prediction of that row bit
for bit; :func:`explain` does so for the groups and scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import sparsemax

__all__ = [
    "Backbone",
    "Segmentation",
    "GroupGenParams",
    "GroupSelectParams",
    "GroupedAttribution",
    "identity_backbone",
    "segment_pool",
    "generate_groups",
    "sop_forward",
    "explain",
    "predict",
]

# input rows per block of :func:`predict` and of a training step
# (``training.loss_and_gradients``), which bounds their working memory: a
# block's largest arrays are the (rows, 2 * n_classes, d) products of its
# inputs with the folded selector, and the segment bins of their sums
PREDICT_BLOCK_ROWS = 64

# most segment-bin entries a Segmentation keeps between calls (512 KB of
# int64): a block of the benchmark's eval-blobs model needs 24,576, and the
# 262,144 of a d = 1,024 block are built and freed per call, as bins kept
# there would add to the peak of each training step
SEGMENT_BINS_CACHED = 1 << 16


def _as_float_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_integers(a, name: str) -> np.ndarray:
    """``a`` as int64, refusing what the cast would truncate or wrap: a
    fraction, a non-finite or out-of-range float, a bool or a non-number."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integers, got {a.dtype} entries")
    # written to pass, so that NaN fails it
    bad = ~((a == np.trunc(a)) & (np.abs(a) < 2.0 ** 63))
    if bad.any():
        raise ValueError(f"{name} must hold integers, got {float(a[bad].flat[0])}")
    return a.astype(np.int64)


@dataclass(frozen=True)
class Backbone:
    """Frozen linear classifier over the input: one weight row per class,
    so plain logits are ``classifier @ x`` and ``h`` is the input width d.

    A linear embedding W (h x d) in front of it would add nothing: the
    selector reaches the forward pass only folded onto the input
    (:func:`_fold`), and a selector with value weights C folded through W
    is the fold of one over the input with value weights ``C @ W``.
    """

    classifier: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "classifier", _as_float_matrix(self.classifier, "classifier"))

    @property
    def h(self) -> int:
        return self.classifier.shape[1]


def identity_backbone(classifier) -> Backbone:
    """Backbone with the (n_classes, d) classifier over the input."""
    return Backbone(classifier=classifier)


@dataclass(frozen=True)
class Segmentation:
    """Partition of the feature axis into non-empty segments."""

    assignment: np.ndarray
    n_segments: int

    def __post_init__(self):
        # a read-only copy, so the segment bins built from it stay valid
        assignment = _as_integers(self.assignment, "assignment")
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a non-empty 1-D index array")
        assignment.flags.writeable = False
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
        for name, w in (("w_q", w_q), ("w_k", w_k)):
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} contains non-finite entries")
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
    """Selector weights: query/key projections over the input plus the
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
    stacks of them alike.  Each test is written to pass, so that NaN fails
    it."""
    if not (masks.min() >= 0.0 and masks.max() <= 1.0):
        raise ValueError("mask entries must lie in [0, 1]")
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):
        raise ValueError("scores must lie in [0, 1]")
    if not np.all(np.abs(scores.sum(axis=-2) - 1.0) <= 1e-9):
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


def _segment_bins(seg: Segmentation, n_rows: int) -> np.ndarray:
    """The bins of ``n_rows`` rows' segment sums: entry ``r * d + j`` is
    ``r * m + assignment[j]``.

    Fewer rows' bins are the start of more rows' bins, so the longest built
    is kept on ``seg``, up to ``SEGMENT_BINS_CACHED`` entries, and sliced.
    """
    size = n_rows * seg.n_features
    bins = seg.__dict__.get("_bins")
    if bins is None or bins.size < size:
        bins = (np.arange(n_rows)[:, None] * seg.n_segments + seg.assignment).ravel()
        if size <= SEGMENT_BINS_CACHED:
            object.__setattr__(seg, "_bins", bins)  # a cache, not a field
    return bins[:size]


def _segment_sums(rows: np.ndarray, seg: Segmentation) -> np.ndarray:
    """Per-segment sums of every row of a (..., d) stack, as (..., m).

    One ``bincount`` over offset bins: bin ``r * m + s`` collects segment
    ``s`` of row ``r`` in feature order, as a per-row ``bincount`` would.
    """
    m = seg.n_segments
    flat = rows.reshape(-1, seg.n_features)
    sums = np.bincount(_segment_bins(seg, flat.shape[0]), weights=flat.ravel(),
                       minlength=flat.shape[0] * m)
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
    """Generator intermediates, from the pooled input to the segment weights
    of the groups."""
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
            "seg_weights": seg_weights}                 # (..., G, m)


def _masks(seg_weights: np.ndarray, seg: Segmentation) -> np.ndarray:
    """The (..., G, d) group masks: each segment weight on every feature of
    its segment."""
    return np.take(seg_weights, seg.assignment, axis=-1)


def _fold(seg: Segmentation, sel: GroupSelectParams, backbone: Backbone) -> np.ndarray:
    """The selector folded onto the input: the (2K, d) matrix whose row k
    weighs the features into class k's affinity, ``(C w_q.T) w_k / sqrt(d)``,
    and whose row K + k weighs them into its partial logit, ``C`` (C the
    selector's classifier).  A group's affinities and partial logits are
    these rows applied to its masked input."""
    if backbone.h != sel.h:
        raise ValueError(
            f"selector has width {sel.h}, backbone takes {backbone.h} input features")
    if backbone.h != seg.n_features:
        raise ValueError(f"backbone takes {backbone.h} input features, "
                         f"segmentation covers {seg.n_features}")
    queries = sel.classifier @ sel.w_q.T                # (K, d)
    return np.vstack([queries @ sel.w_k / np.sqrt(sel.h), sel.classifier])


def _forward(x, seg: Segmentation, gen: GroupGenParams, folded: np.ndarray) -> dict:
    """The one forward pass, on one input or a (..., d) stack: every
    intermediate that the backward pass reads, keyed by name, ending with
    ``prediction``.  ``folded`` is :func:`_fold`'s matrix, which a caller
    that runs many blocks works out once."""
    x = np.asarray(x, dtype=np.float64)
    cache = _generate(x, seg, gen)
    k = folded.shape[0] // 2
    # R, then P, as (..., 2K, m): per segment, the sums of the input's
    # features weighted by each folded row
    projections = _segment_sums(x[..., None, :] * folded, seg)
    both = cache["seg_weights"] @ np.swapaxes(projections, -1, -2)  # (..., G, 2K)
    affinities, partial_logits = both[..., :k], both[..., k:]
    scores = np.swapaxes(sparsemax(np.swapaxes(affinities, -1, -2)), -1, -2)
    cache.update(projections=projections, affinities=affinities, scores=scores,
                 partial_logits=partial_logits,
                 prediction=(scores * partial_logits).sum(axis=-2))
    return cache


def generate_groups(x, seg: Segmentation, params: GroupGenParams) -> np.ndarray:
    """Build sparse group masks from per-head attention over segments.

    The input is mean-pooled to one value per segment; each head scores
    segment pairs with scaled query-key products of the pooled vector and
    projects every score row onto the simplex with sparsemax.  Each of the
    ``n_segments * heads`` rows becomes one mask, with the segment weight
    broadcast to all features of that segment.
    """
    return _masks(_generate(x, seg, params)["seg_weights"], seg)


def sop_forward(x, seg: Segmentation, gen_params: GroupGenParams,
                sel_params: GroupSelectParams, backbone: Backbone) -> GroupedAttribution:
    """Full forward pass: generate groups, select, and predict.

    For class k the selector's query is the projected class weight
    ``w_q @ C_k`` and group i keys in with ``w_k @ z_i``, where z_i is the
    masked input; each class's affinity column is sparsemaxed over the
    groups.  Partial logits are the plain per-group class logits
    ``C_k . z_i``.  The returned attribution's prediction is
    exactly ``(scores * partial_logits).sum(axis=0)``.
    """
    if np.ndim(x) != 1:
        raise ValueError(f"sop_forward explains one input vector, got shape {np.shape(x)}")
    cache = _forward(x, seg, gen_params, _fold(seg, sel_params, backbone))
    return GroupedAttribution(groups=_masks(cache["seg_weights"], seg),
                              scores=cache["scores"],
                              partial_logits=cache["partial_logits"],
                              prediction=cache["prediction"])


def _as_stack(inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError(f"inputs must be a non-empty (B, d) stack, got shape {inputs.shape}")
    return inputs


def _block_forwards(inputs: np.ndarray, seg: Segmentation, gen: GroupGenParams,
                    sel: GroupSelectParams, backbone: Backbone):
    """The forward pass of each block of ``PREDICT_BLOCK_ROWS`` rows of a
    (B, d) stack, as (row slice, cache), with the selector folded once and
    each block's segment weights and scores checked as a
    :class:`GroupedAttribution` checks masks and scores."""
    folded = _fold(seg, sel, backbone)
    for start in range(0, inputs.shape[0], PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        cache = _forward(inputs[rows], seg, gen, folded)
        # every segment holds a feature, so the masks span the segment weights' range
        _check_masks_and_scores(cache["seg_weights"], cache["scores"])
        yield rows, cache


def explain(inputs, seg: Segmentation, gen: GroupGenParams, sel: GroupSelectParams,
            backbone: Backbone) -> tuple[np.ndarray, np.ndarray]:
    """Groups and scores of every row of a (B, d) stack: the (B, G, d) masks
    and the (B, G, n_classes) scores.

    Runs :func:`predict`'s blocks and checks; ``groups[b]`` and ``scores[b]``
    equal those of ``sop_forward(inputs[b], ...)`` bit for bit.  The masks
    are the one array that grows with B, as a list of B attributions would.
    """
    inputs = _as_stack(inputs)
    n_groups = gen.heads * seg.n_segments
    groups = np.empty((inputs.shape[0], n_groups, seg.n_features))
    scores = np.empty((inputs.shape[0], n_groups, sel.n_classes))
    for rows, cache in _block_forwards(inputs, seg, gen, sel, backbone):
        groups[rows] = _masks(cache["seg_weights"], seg)
        scores[rows] = cache["scores"]
    return groups, scores


def predict(inputs, seg: Segmentation, gen: GroupGenParams, sel: GroupSelectParams,
            backbone: Backbone) -> np.ndarray:
    """Predictions for a (B, d) stack of inputs, as a (B, n_classes) array.

    Runs the forward arithmetic of :func:`sop_forward` on blocks of
    ``PREDICT_BLOCK_ROWS`` rows of the stack, so the working memory follows
    the block size and not B, and builds no masks.  Each block's segment
    weights and scores are checked as a :class:`GroupedAttribution` checks
    masks and scores.  Row b equals ``sop_forward(inputs[b], ...).prediction``
    bit for bit.
    """
    inputs = _as_stack(inputs)
    predictions = np.empty((inputs.shape[0], sel.n_classes))
    for rows, cache in _block_forwards(inputs, seg, gen, sel, backbone):
        predictions[rows] = cache["prediction"]
    return predictions
