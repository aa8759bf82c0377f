"""Training loop: analytic gradients against finite differences and
against the earlier per-row forward/backward pass, determinism, and
convergence on the separable blobs fixture."""

import numpy as np
import pytest

from sumparts.model import (
    Backbone,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    segment_pool,
    sop_forward,
)
from sumparts.ops import softmax
from sumparts.ops import finite_diff_grad
from sumparts.training import (
    TrainConfig,
    init_params,
    loss_and_gradients,
    pack_params,
    train,
    training_accuracy,
    unpack_params,
)

from conftest import (
    class_mean_identity_backbone,
    make_blobs,
    sparsemax_row,
    sparsemax_vjp_row,
)


def d4_fixture():
    """Small fixture with non-degenerate weights for gradient checks."""
    rng = np.random.default_rng(0)
    seg = Segmentation.contiguous(4, 2)
    weights = rng.normal(size=(3, 4))
    classifier = rng.normal(size=(2, 3))
    backbone = Backbone(
        embed=lambda v: weights @ v,
        classifier=classifier,
        d=4,
        h=3,
        embed_vjp=lambda v, upstream: weights.T @ upstream,
    )
    config = TrainConfig(steps=0, learning_rate=0.1, seed=11, heads=2, init_std=0.6)
    gen, sel = init_params(seg, backbone, config)
    inputs = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 0, 1, 1])
    return seg, backbone, weights, gen, sel, inputs, labels


def blobs_fixture():
    """Eight one-feature segments and a wide init, so that both sparsemax
    blocks see rows of 8 and 16 entries with partial supports."""
    features, labels = make_blobs(n_per_class=5, seed=9)
    seg = Segmentation.contiguous(8, 8)
    backbone = class_mean_identity_backbone(features, labels)
    config = TrainConfig(steps=0, learning_rate=0.1, seed=3, heads=2, init_std=1.0)
    gen, sel = init_params(seg, backbone, config)
    return seg, backbone, gen, sel, features, labels


def forward_oracle(x, seg, gen, sel, backbone):
    """The earlier training forward pass, one sparsemax row at a time."""
    pooled = segment_pool(x, seg)
    m = seg.n_segments
    gen_scale = np.sqrt(m)
    queries = gen.w_q * pooled[None, None, :]          # (heads, m, m)
    keys = gen.w_k * pooled[None, None, :]
    raw = queries @ np.swapaxes(keys, 1, 2) / gen_scale
    seg_weights = np.vstack(
        [np.vstack([sparsemax_row(row) for row in raw[a]]) for a in range(gen.heads)]
    )                                                   # (G, m)
    masks = seg_weights[:, seg.assignment]              # (G, d)
    masked = masks * x[None, :]
    z = np.vstack([np.asarray(backbone.embed(u), dtype=np.float64) for u in masked])
    sel_queries = sel.classifier @ sel.w_q.T            # (K, h)
    sel_keys = z @ sel.w_k.T                            # (G, h)
    sel_scale = np.sqrt(sel.h)
    affinities = sel_keys @ sel_queries.T / sel_scale   # (G, K)
    scores = np.column_stack(
        [sparsemax_row(affinities[:, k]) for k in range(sel.n_classes)]
    )
    partial_logits = z @ sel.classifier.T               # (G, K)
    prediction = (scores * partial_logits).sum(axis=0)
    return {
        "pooled": pooled, "gen_scale": gen_scale, "queries": queries, "keys": keys,
        "raw": raw, "seg_weights": seg_weights, "masks": masks, "masked": masked,
        "z": z, "sel_queries": sel_queries, "sel_keys": sel_keys,
        "sel_scale": sel_scale, "affinities": affinities, "scores": scores,
        "partial_logits": partial_logits, "prediction": prediction,
    }


def backward_oracle(x, seg, gen, sel, backbone, cache, d_pred):
    """The earlier hand-derived backward pass, one VJP row at a time.
    Needs a backbone with an ``embed_vjp`` hook."""
    m = seg.n_segments
    z = cache["z"]
    scores = cache["scores"]
    partial_logits = cache["partial_logits"]
    affinities = cache["affinities"]

    d_scores = d_pred[None, :] * partial_logits
    d_logits = d_pred[None, :] * scores
    d_aff = np.column_stack(
        [sparsemax_vjp_row(affinities[:, k], d_scores[:, k])
         for k in range(sel.n_classes)]
    )

    d_sel_keys = d_aff @ cache["sel_queries"] / cache["sel_scale"]   # (G, h)
    d_sel_queries = d_aff.T @ cache["sel_keys"] / cache["sel_scale"]  # (K, h)
    d_w_q_sel = d_sel_queries.T @ sel.classifier                      # (h, h)
    d_w_k_sel = d_sel_keys.T @ z                                      # (h, h)
    d_classifier = d_sel_queries @ sel.w_q + d_logits.T @ z           # (K, h)
    d_z = d_sel_keys @ sel.w_k + d_logits @ sel.classifier            # (G, h)

    d_masked = np.vstack(
        [backbone.embed_vjp(cache["masked"][g], d_z[g]) for g in range(z.shape[0])]
    )
    d_masks = d_masked * x[None, :]
    d_seg_weights = np.vstack(
        [np.bincount(seg.assignment, weights=row, minlength=m) for row in d_masks]
    )
    d_raw = np.empty_like(cache["raw"])
    for a in range(gen.heads):
        for r in range(m):
            d_raw[a, r] = sparsemax_vjp_row(
                cache["raw"][a, r], d_seg_weights[a * m + r]
            )
    d_queries = d_raw @ cache["keys"] / cache["gen_scale"]
    d_keys = np.swapaxes(d_raw, 1, 2) @ cache["queries"] / cache["gen_scale"]
    pooled = cache["pooled"]
    return {
        "gen_w_q": d_queries * pooled[None, None, :],
        "gen_w_k": d_keys * pooled[None, None, :],
        "sel_w_q": d_w_q_sel, "sel_w_k": d_w_k_sel,
        "classifier": d_classifier,
    }


def loss_and_gradients_oracle(inputs, labels, seg, gen, sel, backbone):
    n = inputs.shape[0]
    total_loss = 0.0
    grads = None
    for x, label in zip(inputs, labels):
        cache = forward_oracle(x, seg, gen, sel, backbone)
        probs = softmax(cache["prediction"])
        total_loss += -np.log(probs[label])
        d_pred = (probs - np.eye(sel.n_classes)[label]) / n
        g = backward_oracle(x, seg, gen, sel, backbone, cache, d_pred)
        grads = g if grads is None else {key: grads[key] + g[key] for key in g}
    return total_loss / n, grads


class TestSingleForwardPath:
    @pytest.mark.parametrize("fixture", ["d4", "blobs"])
    def test_matches_per_row_oracle(self, fixture):
        if fixture == "d4":
            seg, backbone, _, gen, sel, inputs, labels = d4_fixture()
        else:
            seg, backbone, gen, sel, inputs, labels = blobs_fixture()
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        loss_ref, grads_ref = loss_and_gradients_oracle(
            inputs, labels, seg, gen, sel, backbone
        )
        assert loss == loss_ref
        for key, ref in grads_ref.items():
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(grads[key], ref, rtol=0.0, atol=1e-12 * scale)
        for x in inputs:
            attribution = sop_forward(x, seg, gen, sel, backbone)
            cache = forward_oracle(x, seg, gen, sel, backbone)
            np.testing.assert_array_equal(attribution.groups, cache["masks"])
            np.testing.assert_array_equal(attribution.scores, cache["scores"])
            np.testing.assert_array_equal(attribution.prediction, cache["prediction"])

    def test_blobs_fixture_has_partial_supports(self):
        seg, backbone, gen, sel, inputs, _ = blobs_fixture()
        cache = forward_oracle(inputs[0], seg, gen, sel, backbone)
        assert 0 < np.count_nonzero(cache["seg_weights"] == 0.0) < cache["seg_weights"].size
        assert 0 < np.count_nonzero(cache["scores"] == 0.0) < cache["scores"].size


class TestGradients:
    def test_full_loss_gradient_matches_finite_differences(self):
        seg, backbone, _, gen, sel, inputs, labels = d4_fixture()
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        analytic = np.concatenate([
            grads["gen_w_q"].ravel(), grads["gen_w_k"].ravel(),
            grads["sel_w_q"].ravel(), grads["sel_w_k"].ravel(),
            grads["classifier"].ravel(),
        ])

        def loss_of(vec):
            g, s = unpack_params(vec, gen, sel)
            return loss_and_gradients(inputs, labels, seg, g, s, backbone)[0]

        numeric = finite_diff_grad(loss_of, pack_params(gen, sel), 1e-6)
        scale = max(1.0, float(np.abs(numeric).max()))
        assert np.abs(analytic - numeric).max() / scale <= 1e-4

    def test_finite_difference_backbone_fallback_agrees(self):
        seg, backbone, weights, gen, sel, inputs, labels = d4_fixture()
        no_hook = Backbone(
            embed=lambda v: weights @ v, classifier=backbone.classifier, d=4, h=3
        )
        loss_a, grads_a = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        loss_b, grads_b = loss_and_gradients(inputs, labels, seg, gen, sel, no_hook)
        assert loss_a == loss_b
        for key in grads_a:
            np.testing.assert_allclose(grads_a[key], grads_b[key], atol=1e-7)

    def test_label_validation(self):
        seg, backbone, _, gen, sel, inputs, _ = d4_fixture()
        with pytest.raises(ValueError):
            loss_and_gradients(inputs, np.array([0, 1, 0, 1, 5]), seg, gen, sel, backbone)

    def test_empty_dataset(self):
        seg, backbone, _, gen, sel, _, _ = d4_fixture()
        with pytest.raises(ValueError):
            loss_and_gradients(
                np.empty((0, 4)), np.empty(0, dtype=int), seg, gen, sel, backbone
            )


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self):
        features, labels = make_blobs(n_per_class=8, seed=5)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=3, learning_rate=0.0, seed=21)
        gen0, sel0 = init_params(seg, backbone, config)
        result = train(features, labels, seg, backbone, config)
        np.testing.assert_array_equal(result.gen_params.w_q, gen0.w_q)
        np.testing.assert_array_equal(result.gen_params.w_k, gen0.w_k)
        np.testing.assert_array_equal(result.sel_params.w_q, sel0.w_q)
        np.testing.assert_array_equal(result.sel_params.w_k, sel0.w_k)
        np.testing.assert_array_equal(result.sel_params.classifier, sel0.classifier)
        assert len(result.loss_history) == 3

    def test_zero_steps_returns_initialization(self):
        features, labels = make_blobs(n_per_class=4, seed=6)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=0, learning_rate=0.5, seed=33)
        gen0, sel0 = init_params(seg, backbone, config)
        result = train(features, labels, seg, backbone, config)
        np.testing.assert_array_equal(result.gen_params.w_q, gen0.w_q)
        np.testing.assert_array_equal(result.sel_params.classifier, sel0.classifier)
        assert result.loss_history == []

    def test_classifier_initialized_from_backbone(self):
        features, labels = make_blobs(n_per_class=4, seed=2)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        _, sel = init_params(seg, backbone, TrainConfig(steps=0, learning_rate=0.1, seed=1))
        np.testing.assert_array_equal(sel.classifier, backbone.classifier)

    def test_blobs_reach_training_accuracy(self):
        features, labels = make_blobs(n_per_class=25, seed=123)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=60, learning_rate=0.1, seed=7)
        result = train(features, labels, seg, backbone, config)
        accuracy = training_accuracy(
            features, labels, seg, result.gen_params, result.sel_params, backbone
        )
        assert accuracy >= 0.95
        assert len(result.loss_history) == 60

    def test_training_is_deterministic_per_seed(self):
        features, labels = make_blobs(n_per_class=6, seed=9)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=5, learning_rate=0.2, seed=17)
        a = train(features, labels, seg, backbone, config)
        b = train(features, labels, seg, backbone, config)
        np.testing.assert_array_equal(a.gen_params.w_q, b.gen_params.w_q)
        np.testing.assert_array_equal(a.sel_params.classifier, b.sel_params.classifier)
        assert a.loss_history == b.loss_history
        other = train(
            features, labels, seg, backbone,
            TrainConfig(steps=5, learning_rate=0.2, seed=18),
        )
        assert not np.array_equal(a.gen_params.w_q, other.gen_params.w_q)

    @pytest.mark.filterwarnings(
        "ignore:overflow", "ignore:invalid value", "ignore:divide by zero"
    )
    def test_divergent_run_aborts_with_diagnostics(self):
        features, labels = make_blobs(n_per_class=4, seed=3)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=50, learning_rate=1e12, seed=4)
        with pytest.raises(FloatingPointError, match="step"):
            train(features, labels, seg, backbone, config)
