"""Training loop: analytic gradients against finite differences and
against the earlier per-row forward/backward pass, determinism, and
convergence on the separable blobs fixture."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts import training

from sumparts.model import (
    Backbone,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    identity_backbone,
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
    TIED_ENTRY,
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
        embed=lambda v: v @ weights.T,
        classifier=classifier,
        h=3,
        embed_vjp=lambda v, upstream: upstream @ weights,
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
    z = np.asarray(backbone.embed(masked), dtype=np.float64)  # one (G, d) stack
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
    """The earlier per-example loop: every gradient a running total that
    starts at zero and adds one example's gradient at a time."""
    n = inputs.shape[0]
    total_loss = 0.0
    grads = {
        "gen_w_q": np.zeros_like(gen.w_q), "gen_w_k": np.zeros_like(gen.w_k),
        "sel_w_q": np.zeros_like(sel.w_q), "sel_w_k": np.zeros_like(sel.w_k),
        "classifier": np.zeros_like(sel.classifier),
    }
    for x, label in zip(inputs, labels):
        cache = forward_oracle(x, seg, gen, sel, backbone)
        probs = softmax(cache["prediction"])
        total_loss += -np.log(probs[label])
        d_pred = (probs - np.eye(sel.n_classes)[label]) / n
        g = backward_oracle(x, seg, gen, sel, backbone, cache, d_pred)
        grads = {key: grads[key] + g[key] for key in grads}
    return total_loss / n, grads


def assert_same_bits(actual, expected, err_msg=""):
    """Equal to the last bit, the sign of a zero included."""
    actual, expected = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
    assert actual.shape == expected.shape, err_msg
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64),
                                  err_msg=err_msg)


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


@st.composite
def _identity_batch(draw):
    """A random identity-backbone model with a labelled (B, d) stack that
    has all-zero rows and tied entries.  Both sparsemax blocks get rows of
    at most 7 entries: numpy adds fewer than 8 entries in order, so the
    oracle's mean over the support and the library's support sum over the
    whole row agree bit for bit."""
    d = draw(st.integers(1, 10))
    m = draw(st.integers(1, min(d, 7)))
    heads = draw(st.integers(1, 7 // m))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seg = Segmentation.contiguous(d, m)
    backbone = identity_backbone(rng.normal(size=(k, d)))
    gen = GroupGenParams.random(m, heads, rng, std=draw(st.sampled_from([0.0, 1.0, 3.0])))
    sel = GroupSelectParams.random(backbone, rng, std=draw(st.sampled_from([0.0, 1.0, 3.0])))
    b = draw(st.integers(1, 12))
    zeros = draw(st.integers(0, min(2, b - 1)))
    rows = draw(st.lists(st.lists(TIED_ENTRY, min_size=d, max_size=d),
                         min_size=b - zeros, max_size=b - zeros))
    inputs = np.array(rows + [[0.0] * d] * zeros)
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b)))
    return seg, backbone, gen, sel, inputs, labels


class TestBatchedGradients:
    @settings(max_examples=150, deadline=None)
    @given(_identity_batch())
    def test_identity_backbone_equals_oracle(self, case):
        seg, backbone, gen, sel, inputs, labels = case
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        loss_ref, grads_ref = loss_and_gradients_oracle(
            inputs, labels, seg, gen, sel, backbone
        )
        assert_same_bits(loss, loss_ref)
        assert grads.keys() == grads_ref.keys()
        for key, ref in grads_ref.items():
            assert_same_bits(grads[key], ref, err_msg=key)

    def test_zero_gradients_are_positive_zeros(self):
        """One segment: the generator's sparsemax rows have one entry, so
        its VJP is zero and so are the generator's gradients.  The pooled
        feature is negative, which makes the example's own entries -0; a
        total that starts at +0, as the per-example loop's did, stays +0."""
        rng = np.random.default_rng(12)
        seg = Segmentation.contiguous(3, 1)
        backbone = identity_backbone(rng.normal(size=(2, 3)))
        gen = GroupGenParams.random(1, 1, rng, std=1.0)
        sel = GroupSelectParams.random(backbone, rng, std=1.0)
        inputs, labels = np.array([[-1.0, 1.0, -1.0]]), np.array([0])
        _, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        _, grads_ref = loss_and_gradients_oracle(inputs, labels, seg, gen, sel, backbone)
        for key, ref in grads_ref.items():
            assert_same_bits(grads[key], ref, err_msg=key)
        for key in ("gen_w_q", "gen_w_k"):
            assert not grads[key].any() and not np.signbit(grads[key]).any(), key

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(TIED_ENTRY, min_size=4, max_size=4), min_size=1, max_size=12),
           st.data())
    def test_linear_backbone_matches_oracle(self, rows, data):
        seg, backbone, _, gen, sel, _, _ = d4_fixture()
        inputs = np.array(rows)
        labels = np.array(data.draw(
            st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows))))
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        loss_ref, grads_ref = loss_and_gradients_oracle(
            inputs, labels, seg, gen, sel, backbone
        )
        assert abs(loss - loss_ref) <= 1e-12 * max(1.0, abs(loss_ref))
        for key, ref in grads_ref.items():
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(grads[key], ref, rtol=0.0, atol=1e-12 * scale,
                                       err_msg=key)

    def test_train_matches_oracle_driven_loop(self, monkeypatch):
        features, labels = make_blobs(n_per_class=6, seed=4)
        seg = Segmentation.contiguous(8, 3)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=3, learning_rate=0.5, seed=8, heads=2, init_std=1.0)
        result = train(features, labels, seg, backbone, config)
        monkeypatch.setattr(training, "loss_and_gradients", loss_and_gradients_oracle)
        reference = train(features, labels, seg, backbone, config)
        assert result.loss_history == reference.loss_history
        assert len(set(result.loss_history)) == 3
        for name in ("gen_params", "sel_params"):
            for key, value in vars(getattr(result, name)).items():
                assert_same_bits(value, getattr(getattr(reference, name), key), err_msg=key)


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
        no_hook = Backbone(embed=lambda v: v @ weights.T, classifier=backbone.classifier, h=3)
        loss_a, grads_a = loss_and_gradients(inputs, labels, seg, gen, sel, backbone)
        loss_b, grads_b = loss_and_gradients(inputs, labels, seg, gen, sel, no_hook)
        assert loss_a == loss_b
        for key in grads_a:
            np.testing.assert_allclose(grads_a[key], grads_b[key], atol=1e-7)

    def test_label_validation(self):
        seg, backbone, _, gen, sel, inputs, _ = d4_fixture()
        with pytest.raises(ValueError):
            loss_and_gradients(inputs, np.array([0, 1, 0, 1, 5]), seg, gen, sel, backbone)

    @pytest.mark.parametrize("bad_labels, message", [
        (lambda labels: labels[:1], "align with inputs"),
        (lambda labels: np.full(labels.shape, 7), "lie in"),
        (lambda labels: np.full(labels.shape, -1), "lie in"),
    ], ids=["one-label-for-ten-rows", "all-7-of-3-classes", "negative"])
    def test_accuracy_validates_labels_as_the_loss_does(self, bad_labels, message):
        features, labels = make_blobs(n_per_class=5, seed=1)
        backbone = identity_backbone(np.random.default_rng(2).normal(size=(3, 8)))
        seg = Segmentation.contiguous(8, 2)
        gen, sel = init_params(seg, backbone, TrainConfig(steps=0, learning_rate=0.1, seed=1))
        errors = []
        for fn in (training_accuracy, loss_and_gradients):
            with pytest.raises(ValueError, match=message) as error:
                fn(features, bad_labels(labels), seg, gen, sel, backbone)
            errors.append(str(error.value))
        assert errors[0] == errors[1]

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
