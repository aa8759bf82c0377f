"""Gradient-descent training of the group generator and selector.

The backbone stays frozen; only the generator query/key weights, the
selector query/key projections, and the value weights (initialized from
the backbone classifier) are updated.  The forward pass is the model's
own, so the loss is computed on the arithmetic path that ``sop_forward``
explains.  Gradients are derived by hand and flow through both sparsemax
blocks via their exact generalized Jacobians, and through the backbone
via its ``embed_vjp`` hook, which training requires.

Each step makes one forward pass and one backward pass on the whole (B, d)
stack, so the backward memory grows with B * G * d: the (B, G, d) masks and
masked inputs, the (B, G, h) embeddings, and their gradients.  Each
example's gradient is still formed alone and the B of them are added in
row order, so a step gives the result of a per-example loop.
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
from .ops import softmax, sparsemax_vjp

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


def _trainable(gen: GroupGenParams, sel: GroupSelectParams) -> dict[str, np.ndarray]:
    """The trainable arrays by gradient name, in pack order."""
    return {"gen_w_q": gen.w_q, "gen_w_k": gen.w_k,
            "sel_w_q": sel.w_q, "sel_w_k": sel.w_k, "classifier": sel.classifier}


def _from_trainable(arrays: dict) -> tuple[GroupGenParams, GroupSelectParams]:
    """The params holding the arrays of a :func:`_trainable` mapping, which
    lists each class's arrays in its field order."""
    values = list(arrays.values())
    return GroupGenParams(*values[:2]), GroupSelectParams(*values[2:])


def _check_labels(inputs, labels, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (B, d) input stack and its (B,) labels, each in [0, n_classes)."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("dataset must be non-empty")
    if labels.shape != (n,):
        raise ValueError(f"labels must align with inputs: {labels.shape} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, n_classes) = [0, {n_classes})")
    return inputs, labels


def loss_and_gradients(inputs, labels, seg: Segmentation, gen: GroupGenParams,
                       sel: GroupSelectParams, backbone: Backbone):
    """Mean cross-entropy of softmax(prediction) over the batch, with its
    gradient for every trainable parameter, from one forward and one
    backward pass on the whole stack.  Per-example losses and gradients are
    added in row order, as a loop over the examples would add them.  The
    backbone must have an ``embed_vjp`` hook."""
    if backbone.embed_vjp is None:
        raise ValueError("training needs the backbone's embed_vjp gradient hook, "
                         "and this backbone has none")
    inputs, labels = _check_labels(inputs, labels, sel.n_classes)
    n = inputs.shape[0]
    cache = _forward(inputs, seg, gen, sel, backbone)
    probs = softmax(cache["prediction"])                              # (B, K)
    # the loss and every gradient are running totals that start at zero and
    # add the examples in row order, so they keep the bits (and the signs of
    # zeros) of a per-example loop
    total_loss = sum((-np.log(p[label]) for p, label in zip(probs, labels)), 0.0)
    d_pred = ((probs - np.eye(sel.n_classes)[labels]) / n)[:, None, :]

    z = cache.pop("z")                                                # (B, G, h)
    d_scores = d_pred * cache["partial_logits"]
    d_logits = d_pred * cache["scores"]
    d_aff = np.swapaxes(sparsemax_vjp(np.swapaxes(cache["affinities"], -1, -2),
                                      np.swapaxes(d_scores, -1, -2)), -1, -2)

    sel_scale = np.sqrt(sel.h)
    d_sel_keys = d_aff @ cache["sel_queries"] / sel_scale           # (B, G, h)
    d_sel_queries = np.swapaxes(d_aff, -1, -2) @ cache.pop("sel_keys") / sel_scale
    # the (h, h) products are formed one example at a time
    grads = {
        "sel_w_q": sum((q.T @ sel.classifier for q in d_sel_queries), np.zeros_like(sel.w_q)),
        "sel_w_k": sum((k.T @ z_i for k, z_i in zip(d_sel_keys, z)), np.zeros_like(sel.w_k)),
        "classifier": sum(d_sel_queries @ sel.w_q + np.swapaxes(d_logits, -1, -2) @ z,
                          np.zeros_like(sel.classifier)),
    }
    # each (B, G, ...) stack is dropped once used: together they set the peak memory
    del z
    d_z = d_sel_keys @ sel.w_k + d_logits @ sel.classifier          # (B, G, h)
    del d_sel_keys
    masked = cache.pop("masks") * inputs[:, None, :]                 # (B, G, d)
    d_masked = np.asarray(backbone.embed_vjp(masked.reshape(-1, seg.n_features),
                                             d_z.reshape(-1, sel.h)),
                          dtype=np.float64).reshape(masked.shape)
    del masked, d_z
    d_seg_weights = _segment_sums(d_masked * inputs[:, None, :], seg)  # (B, G, m)
    raw = cache["raw"]                                               # (B, heads, m, m)
    d_raw = sparsemax_vjp(raw, d_seg_weights.reshape(raw.shape))
    gen_scale = np.sqrt(seg.n_segments)
    d_queries = d_raw @ cache["keys"] / gen_scale
    d_keys = np.swapaxes(d_raw, -1, -2) @ cache["queries"] / gen_scale
    pooled = cache["pooled"][:, None, None, :]
    grads["gen_w_q"] = sum(d_queries * pooled, np.zeros_like(gen.w_q))
    grads["gen_w_k"] = sum(d_keys * pooled, np.zeros_like(gen.w_k))
    return total_loss / n, {name: grads[name] for name in _trainable(gen, sel)}


def train(inputs, labels, seg: Segmentation, backbone: Backbone,
          config: TrainConfig) -> TrainResult:
    """Full-batch gradient descent with a fixed step size.

    Records the loss at the parameters of every step, in order.  Aborts
    with ``FloatingPointError``, naming the first step whose parameters
    fail and the learning rate, if a step overflows, divides by zero or
    makes a NaN, or if the model's forward pass refuses the parameters of
    an update (the last one included, which no step takes a loss at).
    """
    gen, sel = init_params(seg, backbone, config)
    inputs, labels = _check_labels(inputs, labels, sel.n_classes)
    history: list[float] = []
    # numpy raises where a step first makes an inf or a NaN, ahead of the ops'
    # input checks and the model's score checks that would fail on it later
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(config.steps):
                loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"loss {loss}")
                history.append(float(loss))
                gen, sel = _from_trainable({name: array - config.learning_rate * grads[name]
                                            for name, array in _trainable(gen, sel).items()})
            if config.steps:
                predict(inputs, seg, gen, sel, backbone)
    except (FloatingPointError, ValueError) as exc:
        # a ValueError is the model refusing the parameters of an update, such
        # as selector rows too large for sparsemax; the initial ones are the
        # caller's
        if isinstance(exc, ValueError) and not history:
            raise
        raise FloatingPointError(
            f"loss became non-finite at step {len(history)} (lr={config.learning_rate}, "
            f"{exc}; last finite losses: {history[-3:]})") from exc
    return TrainResult(gen_params=gen, sel_params=sel, loss_history=history)


def training_accuracy(inputs, labels, seg: Segmentation, gen: GroupGenParams,
                      sel: GroupSelectParams, backbone: Backbone) -> float:
    """Fraction of examples whose argmax prediction matches the label."""
    inputs, labels = _check_labels(inputs, labels, sel.n_classes)
    predictions = predict(inputs, seg, gen, sel, backbone)
    return int(np.count_nonzero(predictions.argmax(axis=1) == labels)) / inputs.shape[0]


def pack_params(gen: GroupGenParams, sel: GroupSelectParams) -> np.ndarray:
    """Flatten all trainable parameters into one vector (for gradient checks)."""
    return np.concatenate([array.ravel() for array in _trainable(gen, sel).values()])


def unpack_params(vec, template_gen: GroupGenParams,
                  template_sel: GroupSelectParams) -> tuple[GroupGenParams, GroupSelectParams]:
    """Inverse of :func:`pack_params` using the templates' shapes."""
    vec = np.asarray(vec, dtype=np.float64)
    templates = _trainable(template_gen, template_sel)
    ends = np.cumsum([array.size for array in templates.values()])
    if vec.shape != (ends[-1],):
        raise ValueError(f"parameter vector has the wrong length: expected "
                         f"{ends[-1]} entries, got shape {vec.shape}")
    return _from_trainable({name: piece.reshape(array.shape) for (name, array), piece
                            in zip(templates.items(), np.split(vec, ends[:-1]))})
