"""Gradient-descent training of the group generator and selector.

The backbone stays frozen; only the generator query/key weights, the
selector query/key projections, and the value weights (initialized from
the backbone classifier) are updated.  The forward pass is the model's
own, so the loss is computed on the arithmetic path that ``sop_forward``
explains.  Gradients are derived by hand and flow through both sparsemax
blocks via their exact generalized Jacobians.  The backbone contributes
through its ``embed_vjp`` hook when present, otherwise through central
finite differences on ``embed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    Backbone,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    _forward,
    _segment_sums,
    predict,
)
from .ops import finite_diff_grad, softmax, sparsemax_vjp

__all__ = [
    "TrainConfig",
    "TrainResult",
    "init_params",
    "loss_and_gradients",
    "train",
    "training_accuracy",
    "pack_params",
    "unpack_params",
]

@dataclass(frozen=True)
class TrainConfig:
    steps: int
    learning_rate: float
    seed: int
    heads: int = 2
    init_std: float = 0.02

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")


@dataclass
class TrainResult:
    gen_params: GroupGenParams
    sel_params: GroupSelectParams
    loss_history: list[float] = field(default_factory=list)


def init_params(seg: Segmentation, backbone: Backbone,
                config: TrainConfig) -> tuple[GroupGenParams, GroupSelectParams]:
    """Seeded Gaussian init for the attention weights; value weights copied
    from the backbone classifier.  Draw order is fixed so checkpoints
    reproduce bit for bit per seed."""
    rng = np.random.default_rng(config.seed)
    gen = GroupGenParams.random(seg.n_segments, config.heads, rng, config.init_std)
    sel = GroupSelectParams.random(backbone, rng, config.init_std)
    return gen, sel


def _embed_vjp(backbone: Backbone, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Row i: the gradient of ``upstream[i] . embed(x)[i]`` at ``x[i]``, for
    (N, d) and (N, h) stacks."""
    if backbone.embed_vjp is not None:
        return np.asarray(backbone.embed_vjp(x, upstream), dtype=np.float64)
    return np.vstack([
        finite_diff_grad(lambda u: up @ backbone.embed(u[None])[0], row)
        for row, up in zip(x, upstream)
    ])


def _backward_one(x, seg, gen, sel, backbone, cache, d_pred):
    """Hand-derived gradients of one example's loss w.r.t. all parameters,
    from the intermediates of :func:`sumparts.model._forward`."""
    m = seg.n_segments
    z = cache["z"]

    d_scores = d_pred * cache["partial_logits"]
    d_logits = d_pred * cache["scores"]
    d_aff = sparsemax_vjp(cache["affinities"].T, d_scores.T).T       # (G, K)

    sel_scale = np.sqrt(sel.h)
    d_sel_keys = d_aff @ cache["sel_queries"] / sel_scale            # (G, h)
    d_sel_queries = d_aff.T @ cache["sel_keys"] / sel_scale          # (K, h)
    d_w_q_sel = d_sel_queries.T @ sel.classifier                      # (h, h)
    d_w_k_sel = d_sel_keys.T @ z                                      # (h, h)
    d_classifier = d_sel_queries @ sel.w_q + d_logits.T @ z           # (K, h)
    d_z = d_sel_keys @ sel.w_k + d_logits @ sel.classifier            # (G, h)

    d_masks = _embed_vjp(backbone, cache["masks"] * x, d_z) * x
    d_seg_weights = _segment_sums(d_masks, seg)                      # (G, m)
    d_raw = sparsemax_vjp(cache["raw"], d_seg_weights.reshape(cache["raw"].shape))
    gen_scale = np.sqrt(m)
    d_queries = d_raw @ cache["keys"] / gen_scale
    d_keys = np.swapaxes(d_raw, 1, 2) @ cache["queries"] / gen_scale
    pooled = cache["pooled"]

    return {
        "gen_w_q": d_queries * pooled, "gen_w_k": d_keys * pooled,
        "sel_w_q": d_w_q_sel, "sel_w_k": d_w_k_sel,
        "classifier": d_classifier,
    }


def loss_and_gradients(inputs, labels, seg: Segmentation, gen: GroupGenParams,
                       sel: GroupSelectParams, backbone: Backbone):
    """Mean cross-entropy of softmax(prediction) over the batch, with its
    gradient for every trainable parameter."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("dataset must be non-empty")
    if labels.shape != (n,):
        raise ValueError("labels must align with inputs")
    if labels.min() < 0 or labels.max() >= sel.n_classes:
        raise ValueError("labels must lie in [0, n_classes)")

    total_loss = 0.0
    grads = {
        "gen_w_q": np.zeros_like(gen.w_q), "gen_w_k": np.zeros_like(gen.w_k),
        "sel_w_q": np.zeros_like(sel.w_q), "sel_w_k": np.zeros_like(sel.w_k),
        "classifier": np.zeros_like(sel.classifier),
    }
    for x, label in zip(inputs, labels):
        cache = _forward(x, seg, gen, sel, backbone)
        probs = softmax(cache["prediction"])
        total_loss += -np.log(probs[label])
        d_pred = (probs - np.eye(sel.n_classes)[label]) / n
        g = _backward_one(x, seg, gen, sel, backbone, cache, d_pred)
        for key in grads:
            grads[key] += g[key]
    return total_loss / n, grads


def train(inputs, labels, seg: Segmentation, backbone: Backbone,
          config: TrainConfig) -> TrainResult:
    """Full-batch gradient descent with a fixed step size.

    Records the loss at the parameters of every step, in order.  Aborts
    with ``FloatingPointError`` if the loss turns non-finite.
    """
    gen, sel = init_params(seg, backbone, config)
    history: list[float] = []
    for step in range(config.steps):
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"loss became non-finite at step {step} "
                f"(lr={config.learning_rate}, last finite losses: {history[-3:]})"
            )
        history.append(float(loss))
        lr = config.learning_rate
        gen = GroupGenParams(
            w_q=gen.w_q - lr * grads["gen_w_q"],
            w_k=gen.w_k - lr * grads["gen_w_k"],
        )
        sel = GroupSelectParams(
            w_q=sel.w_q - lr * grads["sel_w_q"],
            w_k=sel.w_k - lr * grads["sel_w_k"],
            classifier=sel.classifier - lr * grads["classifier"],
        )
    return TrainResult(gen_params=gen, sel_params=sel, loss_history=history)


def training_accuracy(inputs, labels, seg: Segmentation, gen: GroupGenParams,
                      sel: GroupSelectParams, backbone: Backbone) -> float:
    """Fraction of examples whose argmax prediction matches the label."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    predictions = predict(inputs, seg, gen, sel, backbone)
    return int(np.count_nonzero(predictions.argmax(axis=1) == labels)) / inputs.shape[0]


def pack_params(gen: GroupGenParams, sel: GroupSelectParams) -> np.ndarray:
    """Flatten all trainable parameters into one vector (for gradient checks)."""
    return np.concatenate([
        gen.w_q.ravel(), gen.w_k.ravel(),
        sel.w_q.ravel(), sel.w_k.ravel(), sel.classifier.ravel(),
    ])


def unpack_params(vec, template_gen: GroupGenParams,
                  template_sel: GroupSelectParams) -> tuple[GroupGenParams, GroupSelectParams]:
    """Inverse of :func:`pack_params` using the templates' shapes."""
    vec = np.asarray(vec, dtype=np.float64)
    pieces = []
    offset = 0
    for shape in (template_gen.w_q.shape, template_gen.w_k.shape,
                  template_sel.w_q.shape, template_sel.w_k.shape,
                  template_sel.classifier.shape):
        size = int(np.prod(shape))
        pieces.append(vec[offset:offset + size].reshape(shape))
        offset += size
    if offset != vec.size:
        raise ValueError("parameter vector has the wrong length")
    gen = GroupGenParams(w_q=pieces[0], w_k=pieces[1])
    sel = GroupSelectParams(w_q=pieces[2], w_k=pieces[3], classifier=pieces[4])
    return gen, sel
