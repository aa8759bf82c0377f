"""Gradient-descent training of the group generator and selector.

The backbone stays frozen; only the generator query/key weights, the
selector query/key projections, and the value weights (initialized from
the backbone classifier) are updated.  The forward pass is the model's
own, so the loss is computed on the arithmetic path that ``sop_forward``
explains.  Gradients are derived by hand and flow through both sparsemax
blocks via their exact generalized Jacobians.

The backward pass works in the forward's segment space: the gradient of a
block's segment weights is ``d_affinities R^T + d_partial_logits P^T``, and
the gradient of the selector folded onto the input, a (2K, d) matrix, is
summed over the batch.  The (d, d) gradients of the selector projections
are rank-K products of it.  Each step runs on blocks of
``PREDICT_BLOCK_ROWS`` rows of the (B, d) stack, as ``predict`` does, so its
working memory follows the block size and not B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PREDICT_BLOCK_ROWS,
    Backbone,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    _as_integers,
    _fold,
    _forward,
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainResult:
    """The final parameters, the loss at each step's parameters, and the
    training accuracy of the final parameters."""

    gen_params: GroupGenParams
    sel_params: GroupSelectParams
    loss_history: list[float]
    training_accuracy: float


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
    """The trainable arrays by gradient name."""
    return {"gen_w_q": gen.w_q, "gen_w_k": gen.w_k,
            "sel_w_q": sel.w_q, "sel_w_k": sel.w_k, "classifier": sel.classifier}


def _check_labels(inputs, labels, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (B, d) input stack and its (B,) labels, each in [0, n_classes)."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = _as_integers(labels, "labels")
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
    backward pass on each block of ``PREDICT_BLOCK_ROWS`` rows."""
    inputs, labels = _check_labels(inputs, labels, sel.n_classes)
    n, k = inputs.shape[0], sel.n_classes
    folded = _fold(seg, sel, backbone)                                # (2K, d)
    # running totals from zero, so that an entry that no example moves is +0
    total_loss = 0.0
    d_folded = np.zeros_like(folded)
    d_gen = {"gen_w_q": np.zeros_like(gen.w_q), "gen_w_k": np.zeros_like(gen.w_k)}
    gen_scale = np.sqrt(seg.n_segments)
    for start in range(0, n, PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        x = inputs[rows]                                              # (b, d)
        cache = _forward(x, seg, gen, folded)
        probs = softmax(cache["prediction"])                          # (b, K)
        total_loss += float(-np.log(probs[np.arange(x.shape[0]), labels[rows]]).sum())
        d_pred = ((probs - np.eye(k)[labels[rows]]) / n)[:, None, :]

        d_aff = np.swapaxes(sparsemax_vjp(np.swapaxes(cache["affinities"], -1, -2),
                                          np.swapaxes(d_pred * cache["partial_logits"], -1, -2),
                                          projection=np.swapaxes(cache["scores"], -1, -2)),
                            -1, -2)
        d_both = np.concatenate([d_aff, d_pred * cache["scores"]], axis=-1)  # (b, G, 2K)
        seg_weights = cache["seg_weights"]                            # (b, G, m)
        # projection [c, s] sums x_j * folded[c, j] over the features j of segment s
        d_projections = np.swapaxes(d_both, -1, -2) @ seg_weights     # (b, 2K, m)
        d_folded += np.einsum("bj,bcj->cj", x, d_projections[..., seg.assignment])
        d_seg_weights = d_both @ cache["projections"]                 # (b, G, m)
        raw = cache["raw"]                                            # (b, heads, m, m)
        d_raw = sparsemax_vjp(raw, d_seg_weights.reshape(raw.shape),
                              projection=seg_weights.reshape(raw.shape))
        pooled = cache["pooled"][:, None, None, :]
        d_gen["gen_w_q"] += (d_raw @ cache["keys"] * pooled).sum(axis=0) / gen_scale
        d_gen["gen_w_k"] += (np.swapaxes(d_raw, -1, -2) @ cache["queries"] * pooled
                             ).sum(axis=0) / gen_scale

    # d_folded is the gradient of _fold's rows: (C w_q.T) w_k / sqrt(d), then C
    d_keys = d_folded[:k] / np.sqrt(sel.h)
    d_queries = d_keys @ sel.w_k.T                                    # (K, h)
    return total_loss / n, {
        **d_gen,
        "sel_w_q": d_queries.T @ sel.classifier,
        "sel_w_k": (sel.classifier @ sel.w_q.T).T @ d_keys,
        "classifier": d_queries @ sel.w_q + d_folded[k:],
    }


def train(inputs, labels, seg: Segmentation, backbone: Backbone,
          config: TrainConfig) -> TrainResult:
    """Full-batch gradient descent with a fixed step size.

    Records the loss at the parameters of every step, in order, and the
    training accuracy of the final parameters, whose forward pass checks
    them.  Aborts with ``FloatingPointError``, naming the first step whose
    parameters fail and the learning rate, if a step overflows, divides by
    zero or makes a NaN, or if the model's forward pass refuses the
    parameters of an update (the last one included, which no step takes a
    loss at).
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
                # in place, so a step holds no (h, h) temporary; negation is
                # exact, so each entry is array - lr * grad to the bit
                for name, array in _trainable(gen, sel).items():
                    grads[name] *= -config.learning_rate
                    grads[name] += array
                gen = GroupGenParams(grads["gen_w_q"], grads["gen_w_k"])
                sel = GroupSelectParams(grads["sel_w_q"], grads["sel_w_k"], grads["classifier"])
            accuracy = training_accuracy(inputs, labels, seg, gen, sel, backbone)
    except (FloatingPointError, ValueError) as exc:
        # a ValueError is the model refusing the parameters of an update, such
        # as selector rows too large for sparsemax; the initial ones are the
        # caller's
        if isinstance(exc, ValueError) and not history:
            raise
        raise FloatingPointError(
            f"loss became non-finite at step {len(history)} (lr={config.learning_rate}, "
            f"{exc}; last finite losses: {history[-3:]})") from exc
    return TrainResult(gen_params=gen, sel_params=sel, loss_history=history,
                       training_accuracy=accuracy)


def training_accuracy(inputs, labels, seg: Segmentation, gen: GroupGenParams,
                      sel: GroupSelectParams, backbone: Backbone) -> float:
    """Fraction of examples whose argmax prediction matches the label."""
    inputs, labels = _check_labels(inputs, labels, sel.n_classes)
    predictions = predict(inputs, seg, gen, sel, backbone)
    return int(np.count_nonzero(predictions.argmax(axis=1) == labels)) / inputs.shape[0]

