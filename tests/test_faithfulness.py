"""Perturbation metrics: subset and powerset errors, curves, and the
grouped variants, checked against direct evaluations and closed forms.  The
earlier one-probe-at-a-time versions of the keep-mask functions are kept
here as oracles, ``subset_errors`` is checked against the hand-built
per-subset errors in conftest, and ``evaluate_examples`` against the curve
and rationale functions driven one probe at a time.

Every model here is a stack model built from elementwise operations and
last-axis reductions only, so a row's value is the same bits whether the
model gets it alone, as the oracles pass it, or in a stack."""

from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    deletion_error_oracle,
    grouped_deletion_error_oracle,
    grouped_insertion_error_oracle,
    grouped_keep_loop,
    insertion_error_oracle,
    iter_powerset,
    powerset_matrix,
)
from sumparts import ops
from sumparts.faithfulness import (
    PerturbationReport,
    _powerset_errors,
    _probe,
    _probe_examples,
    comprehensiveness,
    deletion_curve,
    evaluate_examples,
    flatten_grouped,
    grouped_coverage,
    grouped_curve,
    insertion_curve,
    ranked_coverage,
    ranking_from_attribution,
    rationale_keep,
    sparsity,
    subset_errors,
    sufficiency,
    total_powerset_error,
)


def monomial(x):
    """The product of the features, of one vector or of each row."""
    return np.prod(x, axis=-1)


def linear_model(theta):
    return lambda x: (np.asarray(x) * theta).sum(axis=-1)


def constant_model(value):
    return lambda rows: np.full(len(rows), value)


def subset_members(subsets, d):
    """The boolean (P, d) membership matrix of subsets given as index lists."""
    members = np.zeros((len(subsets), d), dtype=bool)
    for row, subset in zip(members, subsets):
        row[subset] = True
    return members


def errors_of(f, x, groups, scores, subsets, kind):
    """``subset_errors`` of the subsets, given as index lists, as a list."""
    x = np.asarray(x, dtype=np.float64)
    return subset_errors(f, x, subset_members(subsets, x.size), groups, scores,
                         kind).tolist()


def total_powerset_error_oracle(f, x, alpha, kind):
    """The earlier per-subset total: one hand-built pointwise error (two
    model calls) per subset, summed in binary counting order."""
    err = deletion_error_oracle if kind == "deletion" else insertion_error_oracle
    return float(sum(err(f, x, alpha, s) for s in iter_powerset(len(x))))


def ranked_curve_oracle(model, x, ranking, step, direction):
    """The earlier per-probe insertion/deletion curve: (fractions, values)."""
    fractions, values = [], []
    for count in list(range(0, x.size, step)) + [x.size]:
        chunk = ranking[:count]
        if direction == "insertion":
            probe = np.zeros_like(x)
            probe[chunk] = x[chunk]
        else:
            probe = x.copy()
            probe[chunk] = 0.0
        fractions.append(count / x.size)
        values.append(float(model(probe)))
    return fractions, values


def grouped_curve_oracle(model, x, groups, scores, direction):
    """The earlier per-probe grouped curve: (fractions, values)."""
    supports = groups > 0
    processed = np.zeros(x.size, dtype=bool)
    fractions = [0.0]
    values = [float(model(np.zeros_like(x) if direction == "insertion" else x))]
    for g in np.argsort(-scores, kind="stable"):
        fresh = supports[g] & ~processed
        if not fresh.any():
            continue
        processed |= fresh
        if direction == "insertion":
            probe = np.where(processed, x, 0.0)
        else:
            probe = np.where(processed, 0.0, x)
        fractions.append(processed.sum() / x.size)
        values.append(float(model(probe)))
    return fractions, values


def rationale_oracle(model, x, r, k):
    """The earlier (comprehensiveness, sufficiency) by multiplication."""
    full = float(model(x)[k])
    return full - float(model(x * (1.0 - r))[k]), full - float(model(x * r)[k])


def recording(model):
    """``model`` that also records every probe, or stack of probes, it is
    called on."""
    probes = []

    def call(v):
        probes.append(np.array(v))
        return model(v)

    return call, probes


_ENTRY = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                   st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@st.composite
def _input_and_attribution(draw, max_d=6):
    d = draw(st.integers(1, max_d))
    x = np.array(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    alpha = np.array(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    return x, alpha


def smooth_model(x):
    """A non-linear scalar model with no structure the metrics could exploit."""
    x = np.asarray(x)
    weights = np.linspace(-1.0, 1.5, x.shape[-1])
    return np.tanh((x * weights).sum(axis=-1)) + 0.3 * np.prod(x, axis=-1)


class TestSubsetErrors:
    def test_linear_model_zero_deletion(self):
        theta = np.array([2.0, -1.0, 3.0])
        x = np.array([1.0, 4.0, -2.0])
        alpha = theta * x
        f = linear_model(theta)
        subsets = [[], [0], [1, 2], [0, 1, 2]]
        for kind in ("deletion", "insertion"):
            assert max(errors_of(f, x, None, alpha, subsets, kind)) <= 1e-12

    def test_empty_subset_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        alpha = rng.normal(size=4)
        for kind in ("deletion", "insertion"):
            assert errors_of(monomial, x, None, alpha, [[]], kind) == [0.0]

    def test_monomial_direct_case(self):
        # d=2, x=(1,1), alpha=(1,1), delete both: |1 - 0 - 2| = 1
        assert errors_of(monomial, [1.0, 1.0], None, [1.0, 1.0], [[0, 1]], "deletion") == [1.0]

    def test_monomial_zero_attribution_insertion(self):
        x = np.ones(3)
        alpha = np.zeros(3)
        subsets = [[], [0], [0, 1], [1, 2], [0, 1, 2]]
        assert errors_of(monomial, x, None, alpha, subsets, "insertion") == [0.0] * 4 + [1.0]

    def test_members_and_kind_validation(self):
        x, alpha = np.ones(2), np.zeros(2)
        with pytest.raises(ValueError, match="width 3, input has 2"):
            subset_errors(monomial, x, np.ones((1, 3), bool), None, alpha, "deletion")
        with pytest.raises(ValueError, match="boolean"):
            subset_errors(monomial, x, np.ones((1, 2), int), None, alpha, "insertion")
        with pytest.raises(ValueError, match="boolean"):
            subset_errors(monomial, x, np.ones(2, bool), None, alpha, "insertion")
        with pytest.raises(ValueError, match="kind must be"):
            subset_errors(monomial, x, np.ones((1, 2), bool), None, alpha, "both")


class TestTotalPowersetError:
    def test_linear_model_is_exactly_zero(self):
        # integer-valued fixture keeps every float operation exact
        theta = np.array([1.0, 2.0, -3.0, 4.0])
        x = np.array([2.0, -1.0, 1.0, 3.0])
        alpha = theta * x
        f = linear_model(theta)
        assert total_powerset_error(f, x, alpha, "deletion") == 0.0
        assert total_powerset_error(f, x, alpha, "insertion") == 0.0

    def test_monomial_best_attribution_total(self):
        # independent symmetric scan: min_a sum_k C(d,k)|1 - k a| at d=2
        scan = min(
            sum(comb(2, k) * abs(1 - k * a) for k in (1, 2))
            for a in (0.0, 1.0, 0.5)
        )
        assert scan == 1.0
        best_alpha = np.full(2, 0.5)
        total = total_powerset_error(monomial, np.ones(2), best_alpha, "deletion")
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        # triangle inequality floor: |1-a1| + |1-a2| + |1-a1-a2| >= 1
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.normal(size=2)
            assert (
                total_powerset_error(monomial, np.ones(2), alpha, "deletion")
                >= 1.0 - 1e-12
            )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(size=5)
        x = rng.normal(size=5)
        alpha = rng.normal(size=5)
        f = linear_model(theta)
        total = total_powerset_error(f, x, alpha, "deletion")
        perm = rng.permutation(5)
        f_p = linear_model(theta[perm])
        total_p = total_powerset_error(f_p, x[perm], alpha[perm], "deletion")
        np.testing.assert_allclose(total, total_p, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(_input_and_attribution(), st.sampled_from(["deletion", "insertion"]),
           st.sampled_from(["monomial", "smooth", "linear"]))
    def test_matches_per_subset_oracle(self, case, kind, name):
        x, alpha = case
        f = {"monomial": monomial, "smooth": smooth_model,
             "linear": linear_model(np.arange(1.0, x.size + 1))}[name]
        expected = total_powerset_error_oracle(f, x, alpha, kind)
        np.testing.assert_allclose(total_powerset_error(f, x, alpha, kind), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_exact_on_integer_fixtures(self):
        theta = np.array([1.0, 2.0, -3.0, 4.0])
        x = np.array([2.0, -1.0, 1.0, 3.0])
        for f, x, alpha in ((linear_model(theta), x, theta * x),
                            (monomial, np.ones(4), np.zeros(4)),
                            (monomial, np.ones(6), np.full(6, 0.5))):
            for kind in ("deletion", "insertion"):
                assert total_powerset_error(f, x, alpha, kind) == \
                    total_powerset_error_oracle(f, x, alpha, kind)

    def test_reference_is_evaluated_once(self):
        for kind, reference in (("deletion", np.ones(3)), ("insertion", np.zeros(3))):
            f, calls = recording(monomial)
            total_powerset_error(f, np.ones(3), np.zeros(3), kind)
            assert [len(rows) for rows in calls] == [1, 2 ** 3]
            np.testing.assert_array_equal(calls[0], [reference])

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            total_powerset_error(monomial, np.ones(21), np.zeros(21), "deletion")
        with pytest.raises(ValueError):
            total_powerset_error(monomial, np.ones(2), np.zeros(2), "both")


class TestGroupedErrors:
    def test_monomial_single_group_zero_everywhere(self):
        groups = np.ones((1, 4))
        scores = np.ones(1)
        x = np.ones(4)
        subsets = [[0], [1, 3], [0, 1, 2, 3], []]
        assert errors_of(monomial, x, groups, scores, subsets, "deletion") == [0.0] * 4

    def binomial_fixture(self):
        # d=3 singleton parts: p(x) = x0 x1 + x1 x2
        def p(x):
            return x[..., 0] * x[..., 1] + x[..., 1] * x[..., 2]

        groups = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        scores = np.ones(2)
        return p, groups, scores

    def test_binomial_deletion_hitting_shared_part(self):
        p, groups, scores = self.binomial_fixture()
        # deleting the shared feature kills both terms and both groups count
        assert errors_of(p, np.ones(3), groups, scores, [[1]], "deletion") == [0.0]

    def test_binomial_insertion_cases(self):
        p, groups, scores = self.binomial_fixture()
        x = np.ones(3)
        # everything, nothing; missing one element of the first part: the
        # second group is inserted only; missing the shared part: nothing counts
        subsets = [[0, 1, 2], [], [1, 2], [0, 2]]
        assert errors_of(p, x, groups, scores, subsets, "insertion") == [0.0] * 4


@st.composite
def _subset_error_case(draw, max_d=8, entry=_ENTRY):
    """An input, a per-feature attribution, groups with scores, and a list
    of subsets, at d <= ``max_d``."""
    d = draw(st.integers(1, max_d))
    vector = st.lists(entry, min_size=d, max_size=d)
    x, alpha = np.array(draw(vector)), np.array(draw(vector))
    n_groups = draw(st.integers(1, 4))
    groups = np.array([draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                     min_size=d, max_size=d))
                       for _ in range(n_groups)])
    scores = np.array(draw(st.lists(entry, min_size=n_groups, max_size=n_groups)))
    subsets = draw(st.lists(st.sets(st.integers(0, d - 1)).map(sorted),
                            min_size=1, max_size=6))
    return x, alpha, groups, scores, subsets


def _pairs_model(x):
    """x0 + x0 x1 + x1 x2 + ...: products of neighbouring features, so a
    subset's grouped errors depend on how it meets each pair."""
    return np.sum(x[..., :-1] * x[..., 1:], axis=-1) + x[..., 0]


class TestSubsetErrorEngine:
    """``subset_errors`` against the hand-built per-subset oracles of
    conftest, with real-valued group masks and with their boolean
    supports, as the certificate checks pass them."""

    def _check(self, f, case, exact):
        x, alpha, groups, scores, subsets = case
        for kind, masks, weights, oracle, args in (
            ("deletion", [None], alpha, deletion_error_oracle, (alpha,)),
            ("insertion", [None], alpha, insertion_error_oracle, (alpha,)),
            ("deletion", [groups, groups > 0], scores, grouped_deletion_error_oracle,
             (groups, scores)),
            ("insertion", [groups, groups > 0], scores, grouped_insertion_error_oracle,
             (groups, scores)),
        ):
            expected = [oracle(f, x, *args, s) for s in subsets]
            for mask in masks:
                got = errors_of(f, x, mask, weights, subsets, kind)
                if exact:
                    assert got == expected
                else:
                    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(_subset_error_case(), st.sampled_from(["monomial", "smooth", "pairs"]))
    def test_matches_hand_built_oracle(self, case, name):
        f = {"monomial": monomial, "smooth": smooth_model, "pairs": _pairs_model}[name]
        self._check(f, case, exact=False)

    @settings(max_examples=100, deadline=None)
    @given(_subset_error_case(entry=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])),
           st.sampled_from(["monomial", "pairs", "linear"]))
    def test_exact_on_integer_fixtures(self, case, name):
        # integer entries keep every model value and credit sum exact
        f = {"monomial": monomial, "pairs": _pairs_model,
             "linear": lambda v: (v * np.arange(1.0, v.shape[-1] + 1)).sum(axis=-1)}[name]
        self._check(f, case, exact=True)

    def test_no_groups_credit_nothing(self):
        x = np.array([1.0, 2.0, 3.0])
        got = errors_of(monomial, x, np.zeros((0, 3), dtype=bool), np.zeros(0),
                        [[], [0, 2], [0, 1, 2]], "insertion")
        assert got == [0.0, 0.0, 6.0]

    def test_groups_and_scores_must_match(self):
        x = np.ones(3)
        members = subset_members([[0]], 3)
        with pytest.raises(ValueError, match="group masks have width 4, input has 3"):
            subset_errors(monomial, x, members, np.ones((2, 4)), np.ones(2), "deletion")
        with pytest.raises(ValueError, match="one per group"):
            subset_errors(monomial, x, members, None, np.zeros(2), "deletion")
        with pytest.raises(ValueError, match="one per group"):
            subset_errors(monomial, x, members, np.ones((2, 3)), np.ones(1), "insertion")
        with pytest.raises(ValueError, match="one per group"):
            subset_errors(monomial, x, members, None, 0.5, "deletion")


class TestPowersetErrors:
    """``_powerset_errors``, the one walk and cap of the powerset behind
    ``total_powerset_error`` and the lemma and corollary checks."""

    @pytest.mark.parametrize("kind", ["deletion", "insertion"])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_blocks_concatenate_to_the_whole_powerset(self, monkeypatch, kind, grouped):
        monkeypatch.setattr(ops, "POWERSET_BLOCK_ROWS", 8)
        x = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
        if grouped:
            supports = np.array([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 0, 0, 1, 1]]) > 0
            scores = np.array([0.5, -1.0, 2.0])
        else:
            supports, scores = None, np.arange(5.0)
        model = smooth_model
        blocks = [block for (block,) in _powerset_errors(model, x, supports, scores, (kind,))]
        assert [len(block) for block in blocks] == [8] * 4
        whole = subset_errors(model, x, powerset_matrix(5), supports, scores, kind)
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_one_walk_yields_each_kind_per_block(self, monkeypatch, grouped):
        monkeypatch.setattr(ops, "POWERSET_BLOCK_ROWS", 8)
        x = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
        supports = np.array([[1, 1, 0, 0, 0], [0, 1, 1, 1, 0]]) > 0 if grouped else None
        scores = np.array([0.5, -1.0]) if grouped else np.arange(5.0)
        model = smooth_model
        kinds = ("deletion", "insertion", "deletion")
        blocks = list(_powerset_errors(model, x, supports, scores, kinds))
        assert [len(block) for block in blocks] == [3] * 4
        for position, kind in enumerate(kinds):
            alone = [block for (block,) in _powerset_errors(model, x, supports, scores, (kind,))]
            for block, single in zip(blocks, alone):
                np.testing.assert_array_equal(block[position], single)

    def test_capacity_and_kind(self):
        model = monomial
        with pytest.raises(ValueError, match="capped at d=20, got 21"):
            next(_powerset_errors(model, np.ones(21), None, np.zeros(21), ("deletion",)))
        with pytest.raises(ValueError, match="kind must be"):
            next(_powerset_errors(model, np.ones(2), None, np.zeros(2), ("insertion", "both")))


class TestCurves:
    def test_constant_model_auc(self):
        model = constant_model(0.37)
        x = np.arange(1.0, 7.0)
        ranking = np.arange(6)
        for curve in (
            insertion_curve(model, x, ranking, 2),
            deletion_curve(model, x, ranking, 2),
        ):
            assert curve.auc == 0.37

    def test_single_step_curve_is_two_points(self):
        model = lambda rows: rows.sum(axis=-1) / 10.0  # noqa: E731
        x = np.array([1.0, 2.0, 3.0])
        curve = insertion_curve(model, x, np.arange(3), step=3)
        np.testing.assert_array_equal(curve.fractions, [0.0, 1.0])
        assert curve.auc == (curve.probabilities[0] + curve.probabilities[1]) / 2

    def test_true_ranking_beats_reversed(self):
        theta = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        x = np.ones(5)
        model = linear_model(theta)
        good = insertion_curve(model, x, ranking_from_attribution(theta * x))
        bad = insertion_curve(model, x, ranking_from_attribution(-(theta * x)))
        assert good.auc >= bad.auc

    def test_insertion_end_matches_deletion_start(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=4)
        x = rng.normal(size=4)
        model = linear_model(theta)
        ranking = np.arange(4)
        ins = insertion_curve(model, x, ranking)
        dele = deletion_curve(model, x, ranking)
        assert ins.probabilities[-1] == dele.probabilities[0] == model(x)

    def test_ranking_validation(self):
        model = constant_model(0.0)
        with pytest.raises(ValueError):
            insertion_curve(model, np.ones(3), [0, 1, 1])
        with pytest.raises(ValueError):
            deletion_curve(model, np.ones(3), [0, 1])
        with pytest.raises(ValueError):
            insertion_curve(model, np.ones(3), [0, 1, 2], step=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_ranking_refuses_non_finite_attribution(self, value):
        """A NaN would otherwise rank last, read as the least important."""
        with pytest.raises(ValueError, match="^attribution must be finite$"):
            ranking_from_attribution([value, 1.0, 0.5])


def _assert_probes_equal(calls, probes):
    """One model call, on the oracle's probes stacked in its order."""
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.array(probes))


class TestKeepMaskEngine:
    """Builder, probe engine and report against the earlier per-probe
    loops: the same probes in the same order, in one model call, and the
    same report bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_input_and_attribution(max_d=8), st.integers(1, 3),
           st.sampled_from(["insertion", "deletion"]))
    def test_ranked_curves_match_per_probe_oracle(self, case, step, direction):
        x, alpha = case
        ranking = ranking_from_attribution(alpha)
        curve_fn = insertion_curve if direction == "insertion" else deletion_curve
        model, probes = recording(smooth_model)
        oracle_model, oracle_probes = recording(smooth_model)
        curve = curve_fn(model, x, ranking, step)
        fractions, values = ranked_curve_oracle(oracle_model, x, ranking, step, direction)
        _assert_probes_equal(probes, oracle_probes)
        np.testing.assert_array_equal(curve.fractions, fractions)
        np.testing.assert_array_equal(curve.probabilities, values)
        assert curve.metric == direction
        coverage_fractions, covered = ranked_coverage(ranking, step)
        np.testing.assert_array_equal(coverage_fractions, fractions)
        assert covered.dtype == bool and covered.shape == (len(fractions), x.size)

    @settings(max_examples=150, deadline=None)
    @given(_input_and_attribution(max_d=8), st.data(),
           st.sampled_from(["insertion", "deletion"]))
    def test_grouped_curve_matches_per_probe_oracle(self, case, data, direction):
        x, _ = case
        n_groups = data.draw(st.integers(1, 5))
        mask_entry = st.sampled_from([0.0, 0.0, 0.25, 1.0])
        groups = np.array(data.draw(st.lists(
            st.lists(mask_entry, min_size=x.size, max_size=x.size),
            min_size=n_groups, max_size=n_groups)))
        assume((groups > 0).any())   # a curve needs a second point
        scores = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.2, 0.5]),
                                             min_size=n_groups, max_size=n_groups)))
        model, probes = recording(smooth_model)
        oracle_model, oracle_probes = recording(smooth_model)
        curve = grouped_curve(model, x, groups, scores, direction)
        fractions, values = grouped_curve_oracle(oracle_model, x, groups, scores, direction)
        _assert_probes_equal(probes, oracle_probes)
        np.testing.assert_array_equal(curve.fractions, fractions)
        np.testing.assert_array_equal(curve.probabilities, values)
        np.testing.assert_array_equal(grouped_coverage(groups, scores)[0], fractions)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_grouped_coverage_matches_group_loop(self, data):
        """Tied scores, empty supports and repeated supports, drawn from a
        small pool of support rows."""
        d = data.draw(st.integers(1, 9))
        row = st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0]), min_size=d, max_size=d)
        pool = data.draw(st.lists(row, min_size=1, max_size=3)) + [[0.0] * d]
        groups = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
        scores = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                             min_size=len(groups), max_size=len(groups))))
        fractions, covered = grouped_coverage(groups, scores)
        expected_fractions, expected_covered = grouped_keep_loop(groups, scores, "insertion")
        np.testing.assert_array_equal(fractions, expected_fractions)
        assert fractions.dtype == expected_fractions.dtype
        np.testing.assert_array_equal(covered, expected_covered)
        assert covered.dtype == bool and covered.flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(_input_and_attribution(max_d=8))
    def test_rationale_metrics_match_oracle(self, case):
        x, alpha = case
        r = (alpha > 0).astype(np.float64)

        def class_model(v):
            p = 1.0 / (1.0 + np.exp(-smooth_model(v)))
            return np.stack([p, 1.0 - p], axis=-1)

        for k in (0, 1):
            assert (comprehensiveness(class_model, x, r, k),
                    sufficiency(class_model, x, r, k)) == rationale_oracle(
                        class_model, x, r, k)
        keep = rationale_keep(r)
        np.testing.assert_array_equal(keep, [np.ones(x.size, bool), r == 0, r == 1])

    def test_report_from_curve_is_mean_height(self):
        report = PerturbationReport.from_curve("m", [0.0, 0.5], [1.0, 0.0])
        assert report.auc == 0.5
        assert PerturbationReport.from_curve("m", [0.0, 0.25, 1.0], [0.3] * 3).auc == 0.3

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            ranked_coverage([0, 2], 1)
        with pytest.raises(ValueError):
            ranked_coverage([], 1)
        with pytest.raises(ValueError):
            ranked_coverage([1, 0], 0)
        with pytest.raises(ValueError, match="one value per group"):
            grouped_coverage(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match="^group masks must be finite$"):
            grouped_coverage([[np.nan, 1.0]], [1.0])
        with pytest.raises(ValueError, match="^group scores must be finite$"):
            grouped_coverage([[0.0, 1.0], [1.0, 0.0]], [1.0, np.inf])
        with pytest.raises(ValueError,
                           match="direction must be 'insertion' or 'deletion', got 'sideways'"):
            grouped_curve(constant_model(0.0), np.ones(2), np.ones((1, 2)), np.ones(1),
                          "sideways")
        with pytest.raises(ValueError):
            rationale_keep([0.0, 0.5])
        with pytest.raises(ValueError):
            grouped_curve(constant_model(0.0), np.ones(3), np.ones((1, 2)), np.ones(1),
                          "insertion")


def stack_model(rows):
    """A two-output model of a (P, d) stack whose every row is computed on
    its own, so a row's values do not depend on the stack it comes in."""
    rows = np.asarray(rows)
    weights = np.linspace(-1.0, 1.5, rows.shape[1])
    return np.column_stack([np.tanh((rows * weights).sum(axis=1)), rows.sum(axis=1)])


class TestProbe:
    """The one probe routine against plain per-matrix evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_matrix_model_on_distinct_rows(self, data):
        # widths that are not a multiple of 8 pad every packed row
        d = data.draw(st.integers(1, 17))
        # nonzero entries, so that distinct keep rows give distinct probes
        x = np.array(data.draw(st.lists(_ENTRY.filter(bool), min_size=d, max_size=d)))
        # a small pool of rows, so that rows repeat within and across matrices
        pool = data.draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                                  min_size=1, max_size=4))
        matrix = st.lists(st.sampled_from(pool), min_size=1, max_size=6)
        keeps = [np.array(m) for m in data.draw(st.lists(matrix, min_size=1, max_size=4))]
        model, calls = recording(stack_model)
        values = _probe(model, x, keeps)
        assert len(calls) == 1
        assert len(values) == len(keeps)
        for keep, got in zip(keeps, values):
            np.testing.assert_array_equal(got, stack_model(np.where(keep, x, 0.0)))
        if len(keeps) == 1:
            np.testing.assert_array_equal(calls[0], np.where(keeps[0], x, 0.0))
        else:
            received = [tuple(row) for row in calls[0] != 0.0]
            assert len(set(received)) == len(received)
            assert set(received) == {tuple(row) for keep in keeps for row in keep}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_inputs_share_one_call_each_with_its_distinct_rows(self, data):
        d = data.draw(st.integers(1, 12))
        pool = data.draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                                  min_size=1, max_size=4))
        matrix = st.lists(st.sampled_from(pool), min_size=1, max_size=5)
        n = data.draw(st.integers(1, 4))
        inputs = [np.array(data.draw(st.lists(_ENTRY.filter(bool), min_size=d, max_size=d)))
                  for _ in range(n)]
        keeps = [[np.array(m) for m in data.draw(st.lists(matrix, min_size=1, max_size=3))]
                 for _ in range(n)]
        model, calls = recording(stack_model)
        values = _probe_examples(model, inputs, keeps)
        assert len(calls) == 1 and len(values) == n
        start = 0
        for x, matrices, got in zip(inputs, keeps, values):
            assert len(got) == len(matrices)
            for keep, v in zip(matrices, got):
                np.testing.assert_array_equal(v, stack_model(np.where(keep, x, 0.0)))
            # the input's block of the call: its distinct rows, or a lone matrix as it is
            rows = {tuple(row) for keep in matrices for row in keep}
            count = len(matrices[0]) if len(matrices) == 1 else len(rows)
            block = calls[0][start:start + count]
            start += count
            if len(matrices) > 1:
                assert {tuple(row) for row in block != 0.0} == rows
            np.testing.assert_array_equal(block, np.where(block != 0.0, x, 0.0))
        assert start == len(calls[0])

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width 2, input has 3"):
            _probe(stack_model, np.ones(3), [np.ones((1, 2), bool), np.ones((2, 2), bool)])
        with pytest.raises(ValueError, match="width 4, input has 3"):
            _probe(stack_model, np.ones(3), [np.ones((1, 4), bool)])


def softmax_model(weights):
    """A linear softmax over a (P, d) stack, computed row by row."""
    def model(rows):
        logits = (np.asarray(rows)[:, None, :] * weights).sum(axis=-1)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return model


def _assert_same_results(actual, expected):
    assert [list(r) for r in actual] == [list(r) for r in expected]
    for got, want in zip(actual, expected):
        for name, value in want.items():
            if isinstance(value, PerturbationReport):
                assert got[name].metric == value.metric and got[name].auc == value.auc
                np.testing.assert_array_equal(got[name].fractions, value.fractions)
                np.testing.assert_array_equal(got[name].probabilities, value.probabilities)
            else:
                assert got[name] == value


ALL_EXAMPLE_METRICS = ["insertion", "deletion", "grouped_insertion", "grouped_deletion",
                       "sparsity", "comprehensiveness", "sufficiency"]


def one_example(model, x, groups, scores, *args):
    """``evaluate_examples`` of the one example ``x``: its per-class dicts."""
    return evaluate_examples(model, [x], [groups], [scores], *args)[0]


class TestEvaluate:
    """The batched engine on a non-SOP model, against the curve and
    rationale functions driven by the same model one probe at a time."""

    @pytest.fixture(params=[0, 1, 2])
    def case(self, request):
        rng = np.random.default_rng(request.param)
        d, n_groups, n_classes = 9, 4, 3
        x = rng.normal(size=d)
        groups = rng.uniform(size=(n_groups, d)) * (rng.uniform(size=(n_groups, d)) < 0.4)
        scores = rng.uniform(0.1, 1.0, size=(n_groups, n_classes))
        return softmax_model(rng.normal(size=(n_classes, d))), x, groups, scores

    @pytest.mark.parametrize("step", [1, 2])
    def test_matches_per_vector_functions(self, case, step):
        model, x, groups, scores = case
        calls = []
        results = one_example(lambda rows: calls.append(rows) or model(rows), x, groups,
                              scores, [0, 1, 2], ALL_EXAMPLE_METRICS, step)
        assert len(calls) == 1
        assert np.unique(calls[0], axis=0).shape[0] == calls[0].shape[0]
        # stack models that call the model on one probe at a time
        vector = lambda rows: np.array([model(v[None])[0] for v in rows])  # noqa: E731
        expected = []
        for k in range(3):
            prob = lambda rows, k=k: vector(rows)[:, k]  # noqa: E731
            alpha = flatten_grouped(groups, scores[:, k])
            ranking = ranking_from_attribution(alpha)
            rationale = (alpha > 0).astype(np.float64)
            expected.append({
                "insertion": insertion_curve(prob, x, ranking, step),
                "deletion": deletion_curve(prob, x, ranking, step),
                "grouped_insertion": grouped_curve(prob, x, groups, scores[:, k],
                                                   "insertion"),
                "grouped_deletion": grouped_curve(prob, x, groups, scores[:, k],
                                                  "deletion"),
                "sparsity": sparsity(groups, scores[:, k]),
                "comprehensiveness": comprehensiveness(vector, x, rationale, k),
                "sufficiency": sufficiency(vector, x, rationale, k),
            })
        _assert_same_results(results, expected)

    def test_metric_order_and_repeated_classes(self, case):
        model, x, groups, scores = case
        forward = one_example(model, x, groups, scores, [1, 2], ALL_EXAMPLE_METRICS)
        backward = one_example(model, x, groups, scores, [1, 2, 1],
                               ALL_EXAMPLE_METRICS[::-1])
        _assert_same_results(backward, forward + forward[:1])
        two = one_example(model, x, groups, scores, [2], ["sufficiency", "grouped_deletion"])
        assert list(two[0]) == ["grouped_deletion", "sufficiency"]
        _assert_same_results(two, [{name: forward[1][name] for name in two[0]}])

    def test_metrics_without_probes_call_no_model(self, case):
        _, x, groups, scores = case

        def refuse(rows):
            raise AssertionError("the model was called")

        assert one_example(refuse, x, groups, scores, [0, 2], ["sparsity"]) == [
            {"sparsity": sparsity(groups, scores[:, k])} for k in (0, 2)]
        assert one_example(refuse, x, groups, scores, [0], []) == [{}]

    def test_examples_share_one_call(self, case):
        """Several examples in one call give each example's own results."""
        model, x, groups, scores = case
        inputs = [x, 2.0 * x, x[::-1]]
        attributions = [(groups, scores), (groups[::-1], scores[::-1]), (groups, scores)]
        calls = []
        results = evaluate_examples(lambda rows: calls.append(rows) or model(rows), inputs,
                                    [g for g, _ in attributions], [s for _, s in attributions],
                                    [0, 2], ALL_EXAMPLE_METRICS, 2)
        assert len(calls) == 1
        assert len(results) == len(inputs)
        for v, (g, s), got in zip(inputs, attributions, results):
            _assert_same_results(got, one_example(model, v, g, s, [0, 2],
                                                  ALL_EXAMPLE_METRICS, 2))
        with pytest.raises(ValueError, match="one groups and one scores array per input"):
            evaluate_examples(model, inputs, [groups], [scores], [0], ["insertion"])

    def test_validation(self, case):
        model, x, groups, scores = case
        with pytest.raises(ValueError, match="unknown metrics"):
            one_example(model, x, groups, scores, [0], ["accuracy"])
        with pytest.raises(ValueError, match=r"class indices \[0, 3\] out of range"):
            one_example(model, x, groups, scores, [0, 3], ["insertion"])
        with pytest.raises(ValueError, match="step"):
            one_example(model, x, groups, scores, [0], ["deletion"], 0)


class TestGroupedCurve:
    def test_all_features_group_equals_single_step_curve(self):
        model = lambda rows: rows.sum(axis=-1) / 8.0  # noqa: E731
        x = np.arange(1.0, 5.0)
        grouped = grouped_curve(model, x, np.ones((1, 4)), np.ones(1), "insertion")
        single = insertion_curve(model, x, np.arange(4), step=4)
        np.testing.assert_array_equal(grouped.fractions, single.fractions)
        np.testing.assert_array_equal(grouped.probabilities, single.probabilities)
        assert grouped.auc == single.auc

    def test_disjoint_cover_reaches_full_input(self):
        model = lambda rows: (rows * rows).sum(axis=-1)  # noqa: E731
        x = np.array([1.0, 2.0, 3.0, 4.0])
        groups = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        curve = grouped_curve(model, x, groups, np.array([0.7, 0.3]), "insertion")
        assert curve.fractions.tolist() == [0.0, 0.5, 1.0]
        assert curve.probabilities[-1] == model(x)

    def test_overlapping_groups_insert_set_differences(self):
        # three overlapping groups on d=6: processed counts follow unions
        calls = []

        def model(rows):
            calls.extend(np.count_nonzero(rows, axis=-1).tolist())
            return np.full(len(rows), 0.5)

        x = np.ones(6)
        groups = np.array([
            [1, 1, 1, 0, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [1, 0, 0, 0, 1, 0],
        ], dtype=float)
        scores = np.array([0.5, 0.3, 0.2])
        curve = grouped_curve(model, x, groups, scores, "insertion")
        # baseline + |{0,1,2}|, then adds {3}, then adds {4}
        assert calls == [0, 3, 4, 5]
        np.testing.assert_allclose(curve.fractions, [0.0, 0.5, 4 / 6, 5 / 6])

    def test_fully_overlapped_group_adds_no_point(self):
        model = constant_model(0.1)
        x = np.ones(3)
        groups = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        curve = grouped_curve(model, x, groups, np.array([0.9, 0.1]), "insertion")
        assert curve.fractions.tolist() == [0.0, 1.0]

    def test_singleton_groups_equal_step_one_insertion(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(size=5)
        model = linear_model(theta)
        x = rng.normal(size=5)
        scores = rng.uniform(size=5)
        groups = np.eye(5)
        grouped = grouped_curve(model, x, groups, scores, "insertion")
        ranking = np.argsort(-scores, kind="stable")
        single = insertion_curve(model, x, ranking, step=1)
        np.testing.assert_array_equal(grouped.fractions, single.fractions)
        np.testing.assert_array_equal(grouped.probabilities, single.probabilities)
        assert grouped.auc == single.auc

    def test_deletion_direction(self):
        model = lambda rows: rows.sum(axis=-1)  # noqa: E731
        x = np.ones(2)
        curve = grouped_curve(model, x, np.eye(2), np.array([0.8, 0.2]), "deletion")
        np.testing.assert_array_equal(curve.probabilities, [2.0, 1.0, 0.0])

    def test_empty_groups_error(self):
        with pytest.raises(ValueError):
            grouped_curve(constant_model(0.0), np.ones(2), np.empty((0, 2)), np.empty(0),
                          "insertion")


class TestComprehensivenessSufficiency:
    def probs_model(self, theta):
        def m(x):
            z = (np.asarray(x) * theta).sum(axis=-1)
            return np.stack([z, 1.0 - z], axis=-1)

        return m

    def test_full_rationale(self):
        theta = np.array([0.1, 0.2, 0.3])
        m = self.probs_model(theta)
        x = np.array([1.0, 1.0, 1.0])
        r = np.ones(3)
        assert comprehensiveness(m, x, r, 0) == m(x)[0] - m(np.zeros(3))[0]
        assert sufficiency(m, x, r, 0) == 0.0

    def test_empty_rationale(self):
        theta = np.array([0.1, 0.2, 0.3])
        m = self.probs_model(theta)
        x = np.array([1.0, 2.0, 3.0])
        r = np.zeros(3)
        assert comprehensiveness(m, x, r, 0) == 0.0
        assert sufficiency(m, x, r, 0) == m(x)[0] - m(np.zeros(3))[0]

    def test_linear_fixture_hand_values(self):
        theta = np.array([0.25, 0.25, 0.125, 0.125])
        m = self.probs_model(theta)
        x = np.array([1.0, 1.0, 2.0, 2.0])
        r = np.array([1.0, 1.0, 0.0, 0.0])  # top-half features
        # m(x)_0 = 1.0; removing r leaves 0.5; keeping r leaves 0.5
        assert comprehensiveness(m, x, r, 0) == 0.5
        assert sufficiency(m, x, r, 0) == 0.5

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=6)
        m = self.probs_model(theta)
        x = rng.normal(size=6)
        r = (rng.uniform(size=6) > 0.5).astype(float)
        # removing r and keeping the complement are the same masked input
        lhs = comprehensiveness(m, x, r, 0) + sufficiency(m, x, 1.0 - r, 0)
        rhs = 2.0 * m(x)[0] - m(x * (1.0 - r))[0] - m(x * (1.0 - r))[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_validation(self):
        m = self.probs_model(np.ones(3))
        with pytest.raises(ValueError):
            comprehensiveness(m, np.ones(3), np.array([0.0, 0.5, 1.0]), 0)
        with pytest.raises(ValueError, match="class index 7 out of range for 2 classes"):
            sufficiency(m, np.ones(3), np.ones(3), 7)
        with pytest.raises(ValueError, match=r"\(P, K\) class probabilities, got shape \(3,\)"):
            comprehensiveness(lambda rows: m(rows)[:, 0], np.ones(3), np.ones(3), 0)


class TestSparsity:
    def test_single_full_group(self):
        assert sparsity(np.ones((1, 6)), np.ones(1)) == 1.0

    def test_quarter_groups(self):
        groups = np.zeros((2, 8))
        groups[0, :2] = 1.0
        groups[1, 6:] = 1.0
        assert sparsity(groups, np.array([0.5, 0.5])) == 0.25

    def test_zero_score_groups_excluded(self):
        groups = np.vstack([np.ones(4), np.eye(4)[0]])
        assert sparsity(groups, np.array([1.0, 0.0])) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            sparsity(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError):
            sparsity(np.ones((1, 3)), np.zeros(1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_masks_and_scores(self, value):
        with pytest.raises(ValueError, match="^group scores must be finite$"):
            sparsity(np.eye(2), [value, 1.0])
        with pytest.raises(ValueError, match="^group masks must be finite$"):
            sparsity([[value, 1.0]], [1.0])


class TestFlattenGrouped:
    def test_single_group_identity(self):
        mask = np.array([0.2, 0.0, 0.8])
        np.testing.assert_array_equal(flatten_grouped(mask[None], np.ones(1)), mask)

    def test_disjoint_one_hot_groups(self):
        groups = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        alpha = flatten_grouped(groups, np.array([0.7, 0.3]))
        np.testing.assert_allclose(alpha, [0.7, 0.0, 0.3])

    def test_overlap_sums_scores(self):
        groups = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        alpha = flatten_grouped(groups, np.array([0.6, 0.4]))
        np.testing.assert_allclose(alpha, [0.6, 1.0, 0.4])

    def test_per_class_matrix(self):
        groups = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(flatten_grouped(groups, scores), scores)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_masks_and_scores(self, value):
        """Refused before the product, where an infinite mask entry times a
        zero score would make a NaN and a warning."""
        with pytest.raises(ValueError, match="^group masks and scores must be finite$"):
            flatten_grouped([[value, 1.0]], [1.0])
        with pytest.raises(ValueError, match="^group masks and scores must be finite$"):
            flatten_grouped([[value, 1.0]], [0.0])
        with pytest.raises(ValueError, match="^group masks and scores must be finite$"):
            flatten_grouped(np.eye(2), [[value, 0.5], [1.0, 0.5]])


class TestPairedRankingComparison:
    """Grouped insertion AUC versus a seeded random per-feature ranking on
    a trained toy model, frozen as a deterministic regression golden.

    At this scale the comparison is granularity-confounded (the grouped
    curve has far fewer points and carries the zero-baseline weight), so
    the margin lands negative; the golden value pins the honest result.
    """

    GOLDEN_MEAN_MARGIN = -0.16448879020950946

    def test_margin_matches_golden(self):
        from sumparts.model import Segmentation, predict, sop_forward
        from sumparts.ops import softmax
        from sumparts.training import TrainConfig, train

        from conftest import class_mean_identity_backbone, make_blobs

        features, labels = make_blobs(n_per_class=10, seed=123)
        seg = Segmentation.contiguous(8, 2)
        backbone = class_mean_identity_backbone(features, labels)
        result = train(
            features, labels, seg, backbone,
            TrainConfig(steps=30, learning_rate=0.1, seed=7),
        )
        rng = np.random.default_rng(99)
        margins = []
        for i, x in enumerate(features[:8]):
            attribution = sop_forward(
                x, seg, result.gen_params, result.sel_params, backbone
            )
            k = labels[i]

            def prob(rows, k=k):
                return softmax(predict(rows, seg, result.gen_params, result.sel_params,
                                       backbone))[:, k]

            grouped = grouped_curve(
                prob, x, attribution.groups, attribution.scores[:, k], "insertion"
            )
            random_ranked = insertion_curve(prob, x, rng.permutation(8), step=1)
            margins.append(grouped.auc - random_ranked.auc)
        np.testing.assert_allclose(
            float(np.mean(margins)), self.GOLDEN_MEAN_MARGIN, atol=1e-9
        )


class TestPerturbationReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationReport(
                metric="x", fractions=np.array([0.0, 0.0]),
                probabilities=np.array([0.1, 0.2]), auc=0.15,
            )
        with pytest.raises(ValueError):
            PerturbationReport(
                metric="x", fractions=np.array([0.0, 1.0]),
                probabilities=np.array([0.1, 0.2]), auc=0.9,
            )

    def test_nan_fraction_is_refused(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PerturbationReport("m", [0.0, np.nan, 1.0], [0.2, 0.3, 0.4], 0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="curve values must be finite"):
            PerturbationReport.from_curve("m", [0.0, 1.0], [bad, 0.5])
        with pytest.raises(ValueError, match="curve values must be finite"):
            PerturbationReport("m", [0.0, 1.0], [0.5, bad], 0.5)
