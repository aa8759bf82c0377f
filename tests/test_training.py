"""Training loop: analytic gradients against finite differences and
against the earlier per-example forward/backward pass through the stacked
path, the update against a per-name loop, determinism, and convergence on
the separable blobs fixture."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts import training

from sumparts.model import (
    PREDICT_BLOCK_ROWS,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    identity_backbone,
    segment_pool,
    sop_forward,
)
from sumparts.ops import softmax
from sumparts.training import (
    TrainConfig,
    init_params,
    loss_and_gradients,
    train,
    training_accuracy,
)

from conftest import (
    TIED_ENTRY,
    class_mean_identity_backbone,
    embed,
    embed_vjp,
    finite_diff_grad,
    make_blobs,
    pack_gradients,
    pack_params,
    sparsemax_row,
    sparsemax_vjp_row,
    unpack_params,
)


def d4_fixture():
    """Small fixture with non-degenerate weights for gradient checks."""
    rng = np.random.default_rng(0)
    seg = Segmentation.contiguous(4, 2)
    backbone = identity_backbone(rng.normal(size=(2, 4)))
    config = TrainConfig(steps=0, learning_rate=0.1, seed=11, heads=2, init_std=0.6)
    gen, sel = init_params(seg, backbone, config)
    inputs = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 0, 1, 1])
    return seg, backbone, gen, sel, inputs, labels


def blobs_fixture():
    """Eight one-feature segments and a wide init, so that both sparsemax
    blocks see rows of 8 and 16 entries with partial supports."""
    features, labels = make_blobs(n_per_class=5, seed=9)
    seg = Segmentation.contiguous(8, 8)
    backbone = class_mean_identity_backbone(features, labels)
    config = TrainConfig(steps=0, learning_rate=0.1, seed=3, heads=2, init_std=1.0)
    gen, sel = init_params(seg, backbone, config)
    return seg, backbone, gen, sel, features, labels


FIXTURES = {"d4": d4_fixture, "blobs": blobs_fixture}


def forward_oracle(x, seg, gen, sel, backbone):
    """The earlier training forward pass, through the masked inputs and
    their embeddings, one sparsemax row at a time."""
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
    z = embed(backbone, masked)                         # (G, h)
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
    """The earlier hand-derived backward pass, one VJP row at a time."""
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
        [embed_vjp(backbone, d_z[g]) for g in range(z.shape[0])]
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


def train_oracle(inputs, labels, seg, backbone, config):
    """The earlier update, written out per parameter: ``(gen, sel, loss
    history)`` after ``config.steps`` steps."""
    gen, sel = init_params(seg, backbone, config)
    history = []
    for _ in range(config.steps):
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel)
        history.append(float(loss))
        lr = config.learning_rate
        gen = GroupGenParams(w_q=gen.w_q - lr * grads["gen_w_q"],
                             w_k=gen.w_k - lr * grads["gen_w_k"])
        sel = GroupSelectParams(w_q=sel.w_q - lr * grads["sel_w_q"],
                                w_k=sel.w_k - lr * grads["sel_w_k"],
                                classifier=sel.classifier - lr * grads["classifier"])
    return gen, sel, history


# c of the oracle bound below; c * eps = 9.99e-13, so where the affinities
# lie in [-1, 1] the bound is under the 1e-12 * max(1, max |expected|) it
# replaced
ORACLE_BOUND_C = 4500


def oracle_affinity(inputs, seg, gen, sel, backbone) -> float:
    """The largest |selector affinity| of the oracle's forward pass over a
    stack."""
    return max(float(np.abs(forward_oracle(x, seg, gen, sel, backbone)["affinities"]).max())
               for x in inputs)


def assert_close_to_oracle(actual, expected, err_msg="", affinity=1.0):
    """``|actual - expected| <= c * eps * max(1, affinity) * max(1, max
    |expected|)`` entrywise, with ``affinity`` the largest |selector
    affinity| (:func:`oracle_affinity`).  The segment-space passes add in
    another order than the oracle's, and both round each affinity to about
    eps of its size, an error that sparsemax passes on to the scores
    unscaled."""
    actual, expected = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
    assert actual.shape == expected.shape, err_msg
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    bound = ORACLE_BOUND_C * np.finfo(np.float64).eps * max(1.0, affinity) * scale
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=bound, err_msg=err_msg)


def assert_same_bits(actual, expected, err_msg=""):
    """Equal to the last bit, the sign of a zero included."""
    actual, expected = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
    assert actual.shape == expected.shape, err_msg
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64),
                                  err_msg=err_msg)


class TestSingleForwardPath:
    @pytest.mark.parametrize("fixture", ["d4", "blobs"])
    def test_matches_per_row_oracle(self, fixture):
        seg, backbone, gen, sel, inputs, labels = FIXTURES[fixture]()
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel)
        loss_ref, grads_ref = loss_and_gradients_oracle(
            inputs, labels, seg, gen, sel, backbone
        )
        affinity = oracle_affinity(inputs, seg, gen, sel, backbone)
        assert_close_to_oracle(loss, loss_ref, affinity=affinity)
        for key, ref in grads_ref.items():
            assert_close_to_oracle(grads[key], ref, err_msg=key, affinity=affinity)
        for x in inputs:
            attribution = sop_forward(x, seg, gen, sel, backbone)
            cache = forward_oracle(x, seg, gen, sel, backbone)
            np.testing.assert_array_equal(attribution.groups, cache["masks"])
            assert_close_to_oracle(attribution.scores, cache["scores"], affinity=affinity)
            assert_close_to_oracle(attribution.prediction, cache["prediction"],
                                   affinity=affinity)

    def test_blobs_fixture_has_partial_supports(self):
        seg, backbone, gen, sel, inputs, _ = blobs_fixture()
        cache = forward_oracle(inputs[0], seg, gen, sel, backbone)
        assert 0 < np.count_nonzero(cache["seg_weights"] == 0.0) < cache["seg_weights"].size
        assert 0 < np.count_nonzero(cache["scores"] == 0.0) < cache["scores"].size


@st.composite
def _identity_batch(draw):
    """A random identity-backbone model with a labelled (B, d) stack that
    has all-zero rows and tied entries, with up to 16 groups over up to 32
    features.  The generator and selector weights are drawn at a standard
    deviation of 0, 1 or 3 over the whole range; the oracle bound follows
    the size of the selector affinities that this makes."""
    d = draw(st.integers(1, 32))
    m = draw(st.integers(1, min(d, 16)))
    heads = draw(st.integers(1, 16 // m))
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
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel)
        loss_ref, grads_ref = loss_and_gradients_oracle(
            inputs, labels, seg, gen, sel, backbone
        )
        affinity = oracle_affinity(inputs, seg, gen, sel, backbone)
        assert_close_to_oracle(loss, loss_ref, affinity=affinity)
        assert grads.keys() == grads_ref.keys()
        for key, ref in grads_ref.items():
            assert_close_to_oracle(grads[key], ref, err_msg=key, affinity=affinity)

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
        _, grads = loss_and_gradients(inputs, labels, seg, gen, sel)
        _, grads_ref = loss_and_gradients_oracle(inputs, labels, seg, gen, sel, backbone)
        for key, ref in grads_ref.items():
            assert_same_bits(grads[key], ref, err_msg=key)
        for key in ("gen_w_q", "gen_w_k"):
            assert not grads[key].any() and not np.signbit(grads[key]).any(), key

    @pytest.mark.parametrize("rows", [1, PREDICT_BLOCK_ROWS - 1, PREDICT_BLOCK_ROWS,
                                      PREDICT_BLOCK_ROWS + 1, 2 * PREDICT_BLOCK_ROWS + 3])
    def test_blocks_equal_per_example_oracle(self, rows):
        """Stacks that end inside, at and past block boundaries, with
        all-zero rows and tied entries."""
        rng = np.random.default_rng(rows)
        d, m, heads = 7, 3, 2
        seg = Segmentation(assignment=rng.permutation(np.arange(d) % m), n_segments=m)
        backbone = identity_backbone(rng.normal(size=(3, d)))
        gen = GroupGenParams.random(m, heads, rng, std=1.0)
        sel = GroupSelectParams.random(backbone, rng, std=1.0)
        inputs = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.5], size=(rows, d))
        inputs[::5] = 0.0
        labels = rng.integers(0, 3, size=rows)
        loss_ref, grads_ref = loss_and_gradients_oracle(inputs, labels, seg, gen, sel, backbone)
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel)
        affinity = oracle_affinity(inputs, seg, gen, sel, backbone)
        assert_close_to_oracle(loss, loss_ref, affinity=affinity)
        assert grads.keys() == grads_ref.keys()
        for key, ref in grads_ref.items():
            assert_close_to_oracle(grads[key], ref, err_msg=key, affinity=affinity)

    def test_step_memory_follows_the_block_size(self):
        """One step on 2,000 rows of the shape of the ``train-blobs``
        benchmark (d = 64, 8 segments, 2 heads, 3 classes); one step over
        the whole stack peaked at 82 MB."""
        rng = np.random.default_rng(0)
        d, m = 64, 8
        seg = Segmentation.contiguous(d, m)
        backbone = identity_backbone(rng.normal(size=(3, d)))
        gen = GroupGenParams.random(m, 2, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.02)
        inputs, labels = rng.normal(size=(2000, d)), rng.integers(0, 3, size=2000)
        tracemalloc.start()
        try:
            loss_and_gradients(inputs, labels, seg, gen, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_step_memory_at_map_size(self):
        """One step on 256 rows at d = 1,024 with 16 segments, 2 heads and 2
        classes, the size of 32 x 32 maps, holds little besides the two
        (h, h) selector gradients it returns; a step through the
        (rows, G, d) masked inputs and per-example (h, h) products peaked at
        112 MB."""
        rng = np.random.default_rng(1)
        d, m = 1024, 16
        seg = Segmentation.contiguous(d, m)
        backbone = identity_backbone(rng.normal(size=(2, d)))
        gen = GroupGenParams.random(m, 2, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.02)
        inputs, labels = rng.normal(size=(256, d)), rng.integers(0, 2, size=256)
        tracemalloc.start()
        try:
            loss_and_gradients(inputs, labels, seg, gen, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * d * d * 8 + 4_000_000

    def test_train_matches_oracle_driven_loop(self, monkeypatch):
        features, labels = make_blobs(n_per_class=6, seed=4)
        seg = Segmentation.contiguous(8, 3)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=3, learning_rate=0.5, seed=8, heads=2, init_std=1.0)
        result = train(features, labels, seg, backbone, config)
        monkeypatch.setattr(training, "loss_and_gradients",
                            lambda *model: loss_and_gradients_oracle(*model, backbone))
        reference = train(features, labels, seg, backbone, config)
        assert_close_to_oracle(result.loss_history, reference.loss_history)
        assert len(set(result.loss_history)) == 3
        for name in ("gen_params", "sel_params"):
            for key, value in vars(getattr(result, name)).items():
                assert_close_to_oracle(value, getattr(getattr(reference, name), key),
                                       err_msg=key)


class TestGradients:
    def test_full_loss_gradient_matches_finite_differences(self):
        seg, backbone, gen, sel, inputs, labels = d4_fixture()
        loss, grads = loss_and_gradients(inputs, labels, seg, gen, sel)
        analytic = pack_gradients(grads)

        def loss_of(vec):
            g, s = unpack_params(vec, gen, sel)
            return loss_and_gradients(inputs, labels, seg, g, s)[0]

        numeric = finite_diff_grad(loss_of, pack_params(gen, sel), 1e-6)
        scale = max(1.0, float(np.abs(numeric).max()))
        assert np.abs(analytic - numeric).max() / scale <= 1e-4

    def test_pack_round_trips_bit_for_bit(self):
        seg, backbone, gen, sel, _, _ = blobs_fixture()
        packed = pack_params(gen, sel)
        gen2, sel2 = unpack_params(packed, gen, sel)
        for before, after in ((gen, gen2), (sel, sel2)):
            for key, value in vars(before).items():
                assert_same_bits(getattr(after, key), value, err_msg=key)
        assert_same_bits(pack_params(gen2, sel2), packed)
        for bad in (packed[:-1], np.append(packed, 0.0), packed[None]):
            with pytest.raises(ValueError, match="wrong length"):
                unpack_params(bad, gen, sel)

    def test_label_validation(self):
        seg, backbone, gen, sel, inputs, _ = d4_fixture()
        with pytest.raises(ValueError):
            loss_and_gradients(inputs, np.array([0, 1, 0, 1, 5]), seg, gen, sel)

    @pytest.mark.parametrize("bad_labels, message", [
        (lambda labels: labels[:1], "align with inputs"),
        (lambda labels: np.full(labels.shape, 7), "lie in"),
        (lambda labels: np.full(labels.shape, -1), "lie in"),
        (lambda labels: labels + 0.5, "^labels must hold integers, got 0.5$"),
        (lambda labels: labels.astype(str), "^labels must hold integers, got <U21 entries$"),
    ], ids=["one-label-for-ten-rows", "all-7-of-3-classes", "negative", "fractional",
            "strings"])
    def test_accuracy_validates_labels_as_the_loss_does(self, bad_labels, message):
        features, labels = make_blobs(n_per_class=5, seed=1)
        backbone = identity_backbone(np.random.default_rng(2).normal(size=(3, 8)))
        seg = Segmentation.contiguous(8, 2)
        gen, sel = init_params(seg, backbone, TrainConfig(steps=0, learning_rate=0.1, seed=1))
        errors = []
        for fn in (training_accuracy, loss_and_gradients):
            with pytest.raises(ValueError, match=message) as error:
                fn(features, bad_labels(labels), seg, gen, sel)
            errors.append(str(error.value))
        assert errors[0] == errors[1]

    def test_train_reads_integral_float_labels_and_refuses_fractions(self):
        features, labels = make_blobs(n_per_class=5, seed=1)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=2, learning_rate=0.1, seed=1)
        as_ints = train(features, labels, seg, backbone, config)
        as_floats = train(features, labels.astype(float), seg, backbone, config)
        assert as_floats.loss_history == as_ints.loss_history
        with pytest.raises(ValueError, match="^labels must hold integers, got 1.7$"):
            train(features, np.where(labels == 1, 1.7, 0.0), seg, backbone, config)

    def test_empty_dataset(self):
        seg, backbone, gen, sel, _, _ = d4_fixture()
        with pytest.raises(ValueError):
            loss_and_gradients(
                np.empty((0, 4)), np.empty(0, dtype=int), seg, gen, sel
            )


class TestTrainLoop:
    @pytest.mark.parametrize("fixture", ["d4", "blobs"])
    def test_update_equals_per_name_loop(self, fixture):
        seg, backbone, _, _, inputs, labels = FIXTURES[fixture]()
        config = TrainConfig(steps=3, learning_rate=0.3, seed=5, heads=2, init_std=1.0)
        result = train(inputs, labels, seg, backbone, config)
        gen, sel, history = train_oracle(inputs, labels, seg, backbone, config)
        assert result.loss_history == history and len(set(history)) == 3
        for before, after in ((gen, result.gen_params), (sel, result.sel_params)):
            for key, value in vars(before).items():
                assert_same_bits(getattr(after, key), value, err_msg=key)

    def test_step_memory_at_map_size(self):
        """One ``train`` step on 64 rows at d = 1,024 with 16 segments holds
        the two (h, h) selector projections and their two gradients, which
        the update overwrites in place; the update ``array - lr * grad``
        peaked at 59 MB, about seven (h, h) arrays."""
        rng = np.random.default_rng(1)
        d = 1024
        seg = Segmentation.contiguous(d, 16)
        backbone = identity_backbone(rng.normal(size=(2, d)))
        inputs, labels = rng.normal(size=(64, d)), rng.integers(0, 2, size=64)
        tracemalloc.start()
        try:
            train(inputs, labels, seg, backbone, TrainConfig(steps=1, learning_rate=0.1, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * d * d * 8 + 4_000_000

    @pytest.mark.parametrize("fields, message", [
        ({"steps": -1}, "steps must be >= 0"),
        ({"heads": 0}, "heads must be >= 1"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite"),
        ({"learning_rate": 0.0}, "learning_rate must be positive"),
        ({"learning_rate": -1.0}, "learning_rate must be positive"),
    ], ids=["steps-negative", "heads-0", "rate-nan", "rate-inf", "rate-0", "rate-negative"])
    def test_config_refusals(self, fields, message):
        """A zero rate leaves the parameters as they were and a negative one
        climbs the loss, so neither is a training run."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{"steps": 3, "learning_rate": 0.1, "seed": 21, **fields})

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
        np.testing.assert_array_equal(sel.classifier, backbone)

    def test_blobs_reach_training_accuracy(self):
        features, labels = make_blobs(n_per_class=25, seed=123)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        config = TrainConfig(steps=60, learning_rate=0.1, seed=7)
        result = train(features, labels, seg, backbone, config)
        accuracy = training_accuracy(
            features, labels, seg, result.gen_params, result.sel_params
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
