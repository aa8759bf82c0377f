"""Group generation, the backbone, and the forward pass, checked against a
symbolically computed golden trace and analytic evaluations; the earlier
stacked path's embedding and selection (the oracles in ``conftest``) against
the same; the batched forward (``predict``, ``explain``, stacked
``segment_pool``) against per-row calls."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumparts import model, ops
from sumparts.training import loss_and_gradients

from sumparts.model import (
    PREDICT_BLOCK_ROWS,
    GroupedAttribution,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    explain,
    generate_groups,
    identity_backbone,
    predict,
    segment_pool,
    sop_forward,
)

from conftest import TIED_ENTRY, embed_groups, identity_twin, linear_backbone, select_groups

def assert_stack_equals_per_row(inputs, seg, gen, sel, backbone):
    """``predict`` and ``explain`` of the stack equal ``sop_forward`` of
    each row, bit for bit."""
    attributions = [sop_forward(x, seg, gen, sel, backbone) for x in inputs]
    np.testing.assert_array_equal(predict(inputs, seg, gen, sel),
                                  [a.prediction for a in attributions])
    groups, scores = explain(inputs, seg, gen, sel)
    assert groups.shape == (len(inputs),) + attributions[0].groups.shape
    assert scores.shape == (len(inputs),) + attributions[0].scores.shape
    for got, want in ((groups, [a.groups for a in attributions]),
                      (scores, [a.scores for a in attributions])):
        assert got.tobytes() == np.array(want).tobytes()


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "forward_trace_golden.json").read_text()
)


def golden_linear():
    """The golden trace's linear backbone (W 3x4) and its selector over the
    embedding, ``w_q = w_k = I_3``."""
    classifier = np.array(GOLDEN["classifier"], dtype=float)
    backbone = linear_backbone(GOLDEN["backbone_weights"], classifier)
    return backbone, GroupSelectParams(w_q=np.eye(3), w_k=np.eye(3), classifier=classifier)


def golden_params():
    """The golden trace's model, its selector as the identity twin."""
    seg = Segmentation(assignment=np.array(GOLDEN["segments"]), n_segments=2)
    gen = GroupGenParams(
        w_q=np.array(GOLDEN["gen_w_q"])[None], w_k=np.array(GOLDEN["gen_w_k"])[None]
    )
    sel, backbone = identity_twin(*golden_linear())
    return seg, gen, sel, backbone


class TestSegmentation:
    def test_contiguous_covers_all_features(self):
        seg = Segmentation.contiguous(10, 3)
        assert seg.n_features == 10
        counts = np.bincount(seg.assignment, minlength=3)
        assert counts.sum() == 10 and counts.min() >= 1
        assert np.all(np.diff(seg.assignment) >= 0)

    def test_rejects_empty_segment(self):
        with pytest.raises(ValueError):
            Segmentation(assignment=np.array([0, 0, 2]), n_segments=3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Segmentation(assignment=np.array([0, 5]), n_segments=2)

    @pytest.mark.parametrize("assignment, got", [
        ([0.5, 1.7], "0.5"), ([0.0, np.nan], "nan"), ([0.0, np.inf], "inf"),
        ([0.0, 2.0 ** 63], "9.223372036854776e+18"),
        ([True, False], "bool entries"), (["0", "1"], "<U1 entries"),
    ], ids=["fractions", "nan", "inf", "2^63", "bools", "strings"])
    def test_refuses_non_integer_assignment(self, assignment, got):
        message = re.escape(f"assignment must hold integers, got {got}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Segmentation(assignment=assignment, n_segments=2)

    def test_integral_floats_are_read_as_integers(self):
        seg = Segmentation(assignment=[1.0, 0.0, 1.0], n_segments=2)
        assert seg.assignment.dtype == np.int64
        np.testing.assert_array_equal(seg.assignment, [1, 0, 1])

    def test_pooling_is_segment_mean(self):
        seg = Segmentation(assignment=np.array([0, 0, 1, 1]), n_segments=2)
        np.testing.assert_allclose(
            segment_pool(np.array([1.0, 3.0, 2.0, 0.0]), seg), [2.0, 1.0]
        )

    def test_pooling_slices_the_kept_segment_bins(self, monkeypatch):
        """A stack pooled after a longer one slices the bins kept on the
        segmentation; a stack past ``SEGMENT_BINS_CACHED`` keeps none; the
        assignment the bins come from is read-only."""
        assignment = np.array([1, 0, 1, 2, 0])
        stack = np.random.default_rng(0).normal(size=(7, 5))
        expected = [np.bincount(assignment, weights=x) / [2, 2, 1] for x in stack]
        seg = Segmentation(assignment=assignment, n_segments=3)
        for rows in (7, 3, 1, 7):
            np.testing.assert_array_equal(segment_pool(stack[:rows], seg), expected[:rows])
            assert seg.__dict__["_bins"].size == 35
        monkeypatch.setattr(model, "SEGMENT_BINS_CACHED", 20)
        seg = Segmentation(assignment=assignment, n_segments=3)
        np.testing.assert_array_equal(segment_pool(stack, seg), expected)
        assert "_bins" not in seg.__dict__
        np.testing.assert_array_equal(segment_pool(stack[:4], seg), expected[:4])
        assert seg.__dict__["_bins"].size == 20
        with pytest.raises(ValueError, match="read-only"):
            seg.assignment[0] = 2
        assignment[0] = 2  # the caller's array stays the caller's
        assert seg.assignment[0] == 1


class TestGenerateGroups:
    def test_single_segment_gives_all_ones_mask(self):
        seg = Segmentation(assignment=np.zeros(5, dtype=int), n_segments=1)
        rng = np.random.default_rng(0)
        params = GroupGenParams.random(1, 1, rng, std=1.0)
        masks = generate_groups(rng.normal(size=5), seg, params)
        np.testing.assert_array_equal(masks, np.ones((1, 5)))

    def test_group_count_and_normalization(self):
        seg = Segmentation.contiguous(8, 4)
        rng = np.random.default_rng(1)
        params = GroupGenParams.random(4, 2, rng, std=0.5)
        masks = generate_groups(rng.normal(size=8), seg, params)
        assert masks.shape == (8, 8)
        # segment-constant weights summing to 1 over segments
        for mask in masks:
            seg_vals = [mask[seg.assignment == s] for s in range(4)]
            for vals in seg_vals:
                assert np.ptp(vals) == 0.0
            assert abs(sum(v[0] for v in seg_vals) - 1.0) <= 1e-9

    def test_scaled_identity_weights_give_disjoint_one_hot_groups(self):
        # strongly diagonal scores make each row pick its own segment
        seg = Segmentation.contiguous(6, 3)
        scale = 50.0
        params = GroupGenParams(
            w_q=(scale * np.eye(3))[None], w_k=np.eye(3)[None]
        )
        x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        masks = generate_groups(x, seg, params)
        support = masks > 0
        assert np.array_equal(
            support,
            np.repeat(np.eye(3, dtype=bool), 2, axis=1),
        )
        np.testing.assert_allclose(masks.sum(axis=1), [2.0, 2.0, 2.0])

    def test_zero_input_gives_uniform_rows(self):
        seg = Segmentation.contiguous(4, 2)
        rng = np.random.default_rng(2)
        params = GroupGenParams.random(2, 1, rng, std=1.0)
        masks = generate_groups(np.zeros(4), seg, params)
        np.testing.assert_array_equal(masks, np.full((2, 4), 0.5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["w_q", "w_k"])
    def test_params_refuse_non_finite_weights(self, name, value):
        weights = {"w_q": np.zeros((2, 3, 3)), "w_k": np.zeros((2, 3, 3))}
        weights[name][1, 2, 0] = value
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            GroupGenParams(**weights)

    def test_segment_mismatch_error(self):
        seg = Segmentation.contiguous(4, 2)
        params = GroupGenParams.random(3, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_groups(np.zeros(4), seg, params)


class TestEmbedGroups:
    def test_identity_masking(self):
        backbone, _ = golden_linear()
        x = np.array([1.0, 3.0, 2.0, 0.0])
        z = embed_groups(x, np.ones((1, 4)), backbone)
        np.testing.assert_array_equal(z[0], backbone.weights @ x)

    def test_zero_mask(self):
        backbone, _ = golden_linear()
        z = embed_groups(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros((1, 4)), backbone)
        np.testing.assert_array_equal(z[0], np.zeros(3))

    def test_linear_backbone_matches_direct_evaluation(self):
        backbone, _ = golden_linear()
        rng = np.random.default_rng(8)
        x = rng.normal(size=4)
        mask = rng.uniform(size=4)
        z = embed_groups(x, mask[None], backbone)
        np.testing.assert_allclose(z[0], backbone.weights @ (mask * x), atol=1e-12)

    def test_identity_backbone_is_the_checked_classifier(self):
        classifier = identity_backbone([[0, 1, 2], [3, 4, 5]])
        assert classifier.dtype == np.float64 and classifier.shape == (2, 3)
        z = embed_groups(np.arange(3.0), np.ones((4, 3)), classifier)
        np.testing.assert_array_equal(z, np.tile(np.arange(3.0), (4, 1)))
        for bad, message in (([0.0, 1.0], "must be 2-D"), ([[np.nan]], "non-finite")):
            with pytest.raises(ValueError, match=message):
                identity_backbone(bad)


class TestSelectGroups:
    def test_single_group_scores_one(self):
        rng = np.random.default_rng(3)
        sel = GroupSelectParams(
            w_q=rng.normal(size=(3, 3)),
            w_k=rng.normal(size=(3, 3)),
            classifier=rng.normal(size=(2, 3)),
        )
        scores, logits = select_groups(rng.normal(size=(1, 3)), sel)
        np.testing.assert_array_equal(scores, np.ones((1, 2)))

    def test_identical_embeddings_split_evenly(self):
        rng = np.random.default_rng(4)
        sel = GroupSelectParams(
            w_q=rng.normal(size=(3, 3)),
            w_k=rng.normal(size=(3, 3)),
            classifier=rng.normal(size=(2, 3)),
        )
        z = np.tile(rng.normal(size=3), (2, 1))
        scores, _ = select_groups(z, sel)
        np.testing.assert_array_equal(scores, np.full((2, 2), 0.5))

    def test_large_affinity_gap_gives_one_hot_column(self):
        classifier = np.array([[10.0, 0.0]])
        sel = GroupSelectParams(w_q=np.eye(2), w_k=np.eye(2), classifier=classifier)
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        scores, _ = select_groups(z, sel)
        np.testing.assert_array_equal(scores[:, 0], [1.0, 0.0])

    def test_partial_logits_are_plain_class_logits(self):
        rng = np.random.default_rng(5)
        sel = GroupSelectParams(
            w_q=rng.normal(size=(3, 3)),
            w_k=rng.normal(size=(3, 3)),
            classifier=rng.normal(size=(4, 3)),
        )
        z = rng.normal(size=(5, 3))
        _, logits = select_groups(z, sel)
        np.testing.assert_allclose(logits, z @ sel.classifier.T, atol=1e-12)

    def test_width_mismatch(self):
        sel = GroupSelectParams(
            w_q=np.eye(3), w_k=np.eye(3), classifier=np.zeros((1, 3))
        )
        with pytest.raises(ValueError):
            select_groups(np.zeros((2, 4)), sel)


class TestSopForward:
    def test_single_segment_equals_plain_classifier(self):
        _, _, sel, backbone = golden_params()
        seg = Segmentation(assignment=np.zeros(4, dtype=int), n_segments=1)
        gen = GroupGenParams.random(1, 1, np.random.default_rng(0), std=1.0)
        x = np.array([0.5, -1.0, 2.0, 1.5])
        attribution = sop_forward(x, seg, gen, sel, backbone)
        np.testing.assert_allclose(
            attribution.prediction, backbone @ x, atol=1e-12
        )

    def test_golden_forward_trace(self):
        """The embedding half checks the earlier stacked path (the oracles
        in ``conftest``) on the trace's linear backbone; ``sop_forward``
        runs its identity twin."""
        seg, gen, sel, backbone = golden_params()
        x = np.array(GOLDEN["x"])
        masks = generate_groups(x, seg, gen)
        np.testing.assert_allclose(masks, GOLDEN["masks"], atol=1e-9)
        linear, linear_sel = golden_linear()
        z = embed_groups(x, masks, linear)
        np.testing.assert_allclose(z, GOLDEN["embeddings"], atol=1e-9)
        scores, logits = select_groups(z, linear_sel)
        np.testing.assert_allclose(scores, GOLDEN["scores"], atol=1e-9)
        np.testing.assert_allclose(logits, GOLDEN["partial_logits"], atol=1e-9)
        attribution = sop_forward(x, seg, gen, sel, backbone)
        np.testing.assert_allclose(attribution.groups, GOLDEN["masks"], atol=1e-9)
        np.testing.assert_allclose(attribution.scores, GOLDEN["scores"], atol=1e-9)
        np.testing.assert_allclose(attribution.partial_logits, GOLDEN["partial_logits"],
                                   atol=1e-9)
        np.testing.assert_allclose(
            attribution.prediction, GOLDEN["prediction"], atol=1e-9
        )

    def test_reconstruction_identity_random_draws(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(d, 4) + 1))
            heads = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            seg = Segmentation.contiguous(d, m)
            backbone = identity_backbone(rng.normal(size=(k, d)))
            gen = GroupGenParams.random(m, heads, rng, std=1.0)
            sel = GroupSelectParams.random(backbone, rng, std=1.0)
            attribution = sop_forward(rng.normal(size=d), seg, gen, sel, backbone)
            delta = attribution.prediction - (
                attribution.scores * attribution.partial_logits
            ).sum(axis=0)
            assert np.all(delta == 0.0)

    def test_linear_embedding_has_an_identity_twin(self):
        """A selector over any linear embedding W (h x d) with K <= min(d, h)
        classes scores and predicts, through the earlier stacked path, as
        its identity twin does through ``sop_forward`` and ``predict``."""
        rng = np.random.default_rng(78)
        for _ in range(50):
            d, h = (int(v) for v in rng.integers(2, 9, size=2))
            k = int(rng.integers(1, min(d, h) + 1))
            m = int(rng.integers(1, min(d, 4) + 1))
            seg = Segmentation.contiguous(d, m)
            gen = GroupGenParams.random(m, int(rng.integers(1, 3)), rng, std=1.0)
            linear = linear_backbone(rng.normal(size=(h, d)), rng.normal(size=(k, h)))
            sel = GroupSelectParams.random(linear.classifier, rng, std=1.0)
            x = rng.normal(size=d)
            scores, logits = select_groups(embed_groups(x, generate_groups(x, seg, gen),
                                                        linear), sel)
            twin = identity_twin(linear, sel)
            attribution = sop_forward(x, seg, gen, *twin)
            for got, want in ((attribution.scores, scores),
                              (attribution.partial_logits, logits),
                              (predict(x[None], seg, gen, twin[0])[0],
                               (scores * logits).sum(axis=0))):
                np.testing.assert_allclose(got, want, rtol=1e-9,
                                           atol=1e-9 * np.abs(want).max())

    def test_dropping_a_group_shifts_prediction_by_its_term(self):
        seg, gen, sel, backbone = golden_params()
        attribution = sop_forward(np.array(GOLDEN["x"]), seg, gen, sel, backbone)
        for k in range(attribution.n_classes):
            j = int(np.argmin(attribution.scores[:, k]))
            without = sum(
                attribution.scores[g, k] * attribution.partial_logits[g, k]
                for g in range(attribution.n_groups)
                if g != j
            )
            term = attribution.scores[j, k] * attribution.partial_logits[j, k]
            assert abs(attribution.prediction[k] - without - term) <= 1e-12

    def test_group_permutation_leaves_prediction_unchanged(self):
        rng = np.random.default_rng(6)
        sel = GroupSelectParams(
            w_q=rng.normal(size=(3, 3)),
            w_k=rng.normal(size=(3, 3)),
            classifier=rng.normal(size=(2, 3)),
        )
        z = rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        scores, logits = select_groups(z, sel)
        scores_p, logits_p = select_groups(z[perm], sel)
        np.testing.assert_allclose(scores_p, scores[perm], atol=1e-12)
        np.testing.assert_allclose(logits_p, logits[perm], atol=1e-12)
        np.testing.assert_allclose(
            (scores_p * logits_p).sum(axis=0),
            (scores * logits).sum(axis=0),
            atol=1e-12,
        )

    def test_masked_sum_is_analytic(self):
        seg, _, _, backbone = golden_params()
        rng = np.random.default_rng(12)
        gen = GroupGenParams.random(2, 2, rng, std=0.8)
        sel = GroupSelectParams.random(backbone, rng, std=0.8)
        x = rng.normal(size=4)
        attribution = sop_forward(x, seg, gen, sel, backbone)
        expected = np.zeros(attribution.n_classes)
        for k in range(attribution.n_classes):
            expected[k] = sum(
                attribution.scores[g, k]
                * (backbone[k] @ (attribution.groups[g] * x))
                for g in range(attribution.n_groups)
            )
        np.testing.assert_allclose(attribution.prediction, expected, atol=1e-12)

    def test_score_sparsity_statistics(self):
        # with well-spread weights most score columns contain exact zeros;
        # softmax never does
        rng = np.random.default_rng(99)
        sparse_columns = 0
        total = 0
        for _ in range(100):
            d, m, k = 8, 4, 2
            seg = Segmentation.contiguous(d, m)
            backbone = identity_backbone(rng.normal(size=(k, d)))
            gen = GroupGenParams.random(m, 2, rng, std=2.0)
            sel = GroupSelectParams.random(backbone, rng, std=2.0)
            attribution = sop_forward(rng.normal(size=d), seg, gen, sel, backbone)
            for col in attribution.scores.T:
                total += 1
                uniform = np.ptp(col) == 0.0
                if not uniform and col.min() == 0.0:
                    sparse_columns += 1
        assert sparse_columns / total >= 0.5


class TestGroupedAttributionValidation:
    def test_rejects_broken_reconstruction(self):
        with pytest.raises(ValueError):
            GroupedAttribution(
                groups=np.ones((1, 2)),
                scores=np.ones((1, 1)),
                partial_logits=np.ones((1, 1)),
                prediction=np.array([2.0]),
            )

    def test_rejects_score_out_of_range(self):
        with pytest.raises(ValueError):
            GroupedAttribution(
                groups=np.ones((2, 2)),
                scores=np.array([[1.5], [-0.5]]),
                partial_logits=np.ones((2, 1)),
                prediction=np.array([1.0]),
            )

    def test_rejects_unnormalized_scores(self):
        with pytest.raises(ValueError):
            GroupedAttribution(
                groups=np.ones((2, 2)),
                scores=np.array([[0.4], [0.4]]),
                partial_logits=np.ones((2, 1)),
                prediction=np.array([0.8]),
            )

    def test_score_column_tolerance_is_1e_9(self):
        """Every entry lies in [0, 1], but the column sums to 1 + 1e-8."""
        scores = np.array([[0.5 + 1e-8], [0.5]])
        with pytest.raises(ValueError, match="^each per-class score column must sum to 1$"):
            GroupedAttribution(
                groups=np.ones((2, 2)),
                scores=scores,
                partial_logits=np.ones((2, 1)),
                prediction=scores.sum(axis=0),
            )

    def test_rejects_nan_mask_entry(self):
        with pytest.raises(ValueError, match=r"mask entries must lie in \[0, 1\]"):
            GroupedAttribution(
                groups=np.array([[np.nan, 0.5]]),
                scores=np.array([[1.0]]),
                partial_logits=np.array([[2.0]]),
                prediction=np.array([2.0]),
            )


@st.composite
def _stacked_model(draw):
    """A random identity-backbone model and a (B, d) input stack with
    all-zero rows and repeated entries."""
    d = draw(st.integers(1, 8))
    m = draw(st.integers(1, d))
    heads = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seg = Segmentation.contiguous(d, m)
    backbone = identity_backbone(rng.normal(size=(k, d)))
    gen = GroupGenParams.random(m, heads, rng, std=draw(st.sampled_from([0.0, 1.0, 3.0])))
    sel = GroupSelectParams.random(backbone, rng, std=draw(st.sampled_from([0.0, 1.0, 3.0])))
    rows = draw(st.lists(st.lists(TIED_ENTRY, min_size=d, max_size=d), min_size=1, max_size=6))
    inputs = np.array(rows + [[0.0] * d] * draw(st.integers(0, 2)))
    return seg, gen, sel, backbone, inputs


class TestBatchedForward:
    @settings(max_examples=150, deadline=None)
    @given(_stacked_model())
    def test_predict_equals_per_row_sop_forward(self, case):
        assert_stack_equals_per_row(*case[4:], *case[:4])

    @settings(max_examples=100, deadline=None)
    @given(_stacked_model(), st.integers(1, 3))
    def test_segment_pool_equals_per_row_calls(self, case, outer):
        seg, _, _, _, inputs = case
        stack = np.stack([inputs * (i + 1) for i in range(outer)])   # (outer, B, d)
        expected = np.array([[segment_pool(x, seg) for x in rows] for rows in stack])
        np.testing.assert_array_equal(segment_pool(stack, seg), expected)

    def test_predict_rejects_non_stacks(self):
        seg, gen, sel, backbone = golden_params()
        for stacked in (predict, explain):
            with pytest.raises(ValueError, match="non-empty"):
                stacked(np.ones(seg.n_features), seg, gen, sel)
            with pytest.raises(ValueError, match="non-empty"):
                stacked(np.empty((0, seg.n_features)), seg, gen, sel)
        with pytest.raises(ValueError):
            sop_forward(np.ones((2, seg.n_features)), seg, gen, sel, backbone)

    @pytest.mark.parametrize("call", [
        lambda x, seg, gen, sel: sop_forward(x[0], seg, gen, sel, sel.classifier),
        lambda x, *model: predict(x, *model),
        lambda x, *model: explain(x, *model),
        lambda x, *model: loss_and_gradients(x, np.zeros(len(x), np.int64), *model),
    ], ids=["sop_forward", "predict", "explain", "loss_and_gradients"])
    def test_refuses_a_selector_of_another_width(self, call):
        rng = np.random.default_rng(6)
        seg = Segmentation.contiguous(4, 2)
        gen = GroupGenParams.random(2, 1, rng, std=1.0)
        sel = GroupSelectParams.random(rng.normal(size=(2, 3)), rng)
        with pytest.raises(ValueError, match="^selector has width 3, segmentation covers 4$"):
            call(rng.normal(size=(3, 4)), seg, gen, sel)

    def test_sop_forward_refuses_a_backbone_of_another_width(self):
        """The backbone argument, which only ``sop_forward`` takes, is
        checked against the selector; the selector then against the
        segmentation."""
        rng = np.random.default_rng(6)
        seg = Segmentation.contiguous(4, 2)
        gen = GroupGenParams.random(2, 1, rng, std=1.0)
        for backbone_width, sel_width, message in (
                (4, 3, "^selector has width 3, backbone takes 4 input features$"),
                (5, 5, "^selector has width 5, segmentation covers 4$")):
            sel = GroupSelectParams.random(rng.normal(size=(2, sel_width)), rng)
            with pytest.raises(ValueError, match=message):
                sop_forward(rng.normal(size=4), seg, gen, sel,
                            identity_backbone(rng.normal(size=(2, backbone_width))))

    @pytest.mark.parametrize("block, broken, message", [
        (0, lambda w: w - 0.5, "mask entries"),          # generator rows below 0
        (1, lambda w: w + 1.0, "scores must lie"),       # selector scores above 1
        (1, lambda w: 0.5 * w, "must sum to 1"),         # selector columns sum to 0.5
    ])
    def test_predict_rejects_broken_invariants(self, monkeypatch, block, broken, message):
        seg, gen, sel, backbone = golden_params()
        inputs = np.random.default_rng(5).normal(size=(3, seg.n_features))
        calls = []

        def sparsemax(v):
            # a forward makes two calls: the generator block, then the selector
            calls.append(v)
            w = ops.sparsemax(v)
            return broken(w) if (len(calls) - 1) % 2 == block else w

        monkeypatch.setattr(model, "sparsemax", sparsemax)
        for call in (predict, explain):
            with pytest.raises(ValueError, match=message):
                call(inputs, seg, gen, sel)
        with pytest.raises(ValueError, match=message):
            sop_forward(inputs[0], seg, gen, sel, backbone)

    @pytest.mark.parametrize("rows", [1, PREDICT_BLOCK_ROWS - 1, PREDICT_BLOCK_ROWS,
                                      PREDICT_BLOCK_ROWS + 1, 2 * PREDICT_BLOCK_ROWS + 3])
    def test_blocked_predict_equals_per_row_sop_forward(self, rows):
        rng = np.random.default_rng(rows)
        d, m, heads = 12, 4, 2
        # an unordered assignment, so that the masks gather segments out of order
        seg = Segmentation(assignment=rng.permutation(np.arange(d) % m), n_segments=m)
        backbone = identity_backbone(rng.normal(size=(3, d)))
        gen = GroupGenParams.random(m, heads, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.5)
        inputs = rng.normal(size=(rows, d))
        inputs[::5] = 0.0
        assert_stack_equals_per_row(inputs, seg, gen, sel, backbone)

    @pytest.mark.parametrize("block, broken, message", [
        (0, lambda w: w - 0.5, "mask entries"),
        (1, lambda w: w + 1.0, "scores must lie"),
        (1, lambda w: 0.5 * w, "must sum to 1"),
    ])
    def test_broken_invariant_in_the_last_row_of_the_last_block(self, monkeypatch, block,
                                                               broken, message):
        seg, gen, sel, backbone = golden_params()
        inputs = np.random.default_rng(6).normal(size=(2 * PREDICT_BLOCK_ROWS + 3,
                                                       seg.n_features))
        calls = []

        def sparsemax(v):
            # two calls per block: its generator rows, then its selector rows
            calls.append(v)
            w = ops.sparsemax(v)
            if len(calls) == 5 + block:
                w[-1] = broken(w[-1])
            return w

        monkeypatch.setattr(model, "sparsemax", sparsemax)
        for call in (predict, explain):
            calls.clear()
            with pytest.raises(ValueError, match=message):
                call(inputs, seg, gen, sel)
            assert len(calls) == 6 and calls[-1].shape[0] == 3

    def test_predict_memory_follows_the_block_size(self):
        """2,000 rows of the shape of the ``eval-blobs`` benchmark (d = 64,
        8 segments, 2 heads, 3 classes); one forward over the whole stack
        peaked at 61 MB."""
        rng = np.random.default_rng(0)
        d, m = 64, 8
        seg = Segmentation.contiguous(d, m)
        backbone = identity_backbone(rng.normal(size=(3, d)))
        gen = GroupGenParams.random(m, 2, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.02)
        inputs = rng.normal(size=(2000, d))
        tracemalloc.start()
        try:
            predict(inputs, seg, gen, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_predict_memory_at_map_size(self):
        """256 rows at d = 1,024 with 16 segments, 2 heads and 2 classes,
        the size of 32 x 32 maps; a forward through the (rows, G, d) masked
        inputs peaked at 53 MB."""
        rng = np.random.default_rng(1)
        d, m = 1024, 16
        seg = Segmentation.contiguous(d, m)
        backbone = identity_backbone(rng.normal(size=(2, d)))
        gen = GroupGenParams.random(m, 2, rng, std=2.0)
        sel = GroupSelectParams.random(backbone, rng, std=0.02)
        inputs = rng.normal(size=(256, d))
        tracemalloc.start()
        try:
            predict(inputs, seg, gen, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
