"""Gradient-descent training of the group generator and selector.

The backbone stays frozen; only the generator query/key weights, the
selector query/key projections, and the value weights (initialized from
the backbone classifier) are updated.  The forward pass is the model's
own, so the loss is computed on the arithmetic path that ``sop_forward``
explains.  Gradients are derived by hand and flow through both sparsemax
blocks via their exact generalized Jacobians, and through the backbone
via its ``embed_vjp`` hook, which training requires.

Each step makes one forward pass and one backward pass on each block of
``PREDICT_BLOCK_ROWS`` rows of the (B, d) stack, as ``predict`` does.  The
block's (rows, G, d) and (rows, G, h) stacks are written into buffers that
every block and every step of ``train`` reuse, so the working memory follows
the block size and not B.  Each example's gradient is still formed alone
and the B of them are added in row order, so a step gives the result of a
per-example loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    PREDICT_BLOCK_ROWS,
    Backbone,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    _buffer,
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
                       sel: GroupSelectParams, backbone: Backbone, *, _buffers=None):
    """Mean cross-entropy of softmax(prediction) over the batch, with its
    gradient for every trainable parameter, from one forward and one
    backward pass on each block of ``PREDICT_BLOCK_ROWS`` rows.  Per-example
    losses and gradients are added in row order, as a loop over the
    examples would add them.  The backbone must have an ``embed_vjp`` hook.
    ``_buffers`` is :func:`_forward`'s, which ``train`` keeps across its
    steps on one stack."""
    if backbone.embed_vjp is None:
        raise ValueError("training needs the backbone's embed_vjp gradient hook, "
                         "and this backbone has none")
    inputs, labels = _check_labels(inputs, labels, sel.n_classes)
    n = inputs.shape[0]
    buffers = {} if _buffers is None else _buffers
    # the loss and every gradient are running totals that start at zero and
    # add the examples in row order, so they keep the bits (and the signs of
    # zeros) of a per-example loop; numpy's reductions would add in another order
    total_loss = 0.0
    grads = {name: np.zeros_like(array) for name, array in _trainable(gen, sel).items()}
    product = np.empty_like(sel.w_q)                                 # (h, h) scratch
    sel_scale, gen_scale = np.sqrt(sel.h), np.sqrt(seg.n_segments)
    for start in range(0, n, PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        x = inputs[rows]                                              # (b, d)
        cache = _forward(x, seg, gen, sel, backbone, buffers)
        probs = softmax(cache["prediction"])                          # (b, K)
        total_loss = sum((-np.log(p[label]) for p, label in zip(probs, labels[rows])),
                         total_loss)
        d_pred = ((probs - np.eye(sel.n_classes)[labels[rows]]) / n)[:, None, :]

        z = cache["z"]                                                # (b, G, h)
        d_scores = d_pred * cache["partial_logits"]
        d_logits = d_pred * cache["scores"]
        d_aff = np.swapaxes(sparsemax_vjp(np.swapaxes(cache["affinities"], -1, -2),
                                          np.swapaxes(d_scores, -1, -2),
                                          projection=np.swapaxes(cache["scores"], -1, -2)),
                            -1, -2)
        d_sel_queries = np.swapaxes(d_aff, -1, -2) @ cache["sel_keys"] / sel_scale
        # the forward's buffers that the backward no longer reads take its stacks
        d_sel_keys = np.matmul(d_aff, cache["sel_queries"], out=cache["sel_keys"])
        d_sel_keys /= sel_scale                                       # (b, G, h)
        for q, k, z_i in zip(d_sel_queries, d_sel_keys, z):
            grads["sel_w_q"] += np.matmul(q.T, sel.classifier, out=product)
            grads["sel_w_k"] += np.matmul(k.T, z_i, out=product)
        grads["classifier"] = sum(d_sel_queries @ sel.w_q + np.swapaxes(d_logits, -1, -2) @ z,
                                  grads["classifier"])
        d_z = np.matmul(d_sel_keys, sel.w_k, out=_buffer(buffers, "d_z", z.shape))
        d_z += np.matmul(d_logits, sel.classifier, out=d_sel_keys)    # (b, G, h)
        masked = buffers["masked"][:x.shape[0]]                       # (b, G, d)
        d_masked = np.asarray(backbone.embed_vjp(masked.reshape(-1, seg.n_features),
                                                 d_z.reshape(-1, sel.h)),
                              dtype=np.float64).reshape(masked.shape)
        d_masks = np.multiply(d_masked, x[:, None, :], out=cache["masks"])
        raw = cache["raw"]                                            # (b, heads, m, m)
        d_raw = sparsemax_vjp(raw, _segment_sums(d_masks, seg).reshape(raw.shape),
                              projection=cache["seg_weights"].reshape(raw.shape))
        pooled = cache["pooled"][:, None, None, :]
        grads["gen_w_q"] = sum(d_raw @ cache["keys"] / gen_scale * pooled, grads["gen_w_q"])
        grads["gen_w_k"] = sum(np.swapaxes(d_raw, -1, -2) @ cache["queries"] / gen_scale
                               * pooled, grads["gen_w_k"])
    return total_loss / n, grads


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
    buffers: dict = {}
    # numpy raises where a step first makes an inf or a NaN, ahead of the ops'
    # input checks and the model's score checks that would fail on it later
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(config.steps):
                loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone,
                                                 _buffers=buffers)
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
