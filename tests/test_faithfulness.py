"""Perturbation metrics: pointwise and powerset errors, curves, and the
grouped variants, checked against direct evaluations and closed forms.  The
earlier one-probe-at-a-time versions of the keep-mask functions are kept
here as oracles, the subset-error engine is checked against the hand-built
pointwise errors in conftest, and the batched ``evaluate`` is checked
against the per-vector functions."""

from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    deletion_error_oracle,
    grouped_deletion_error_oracle,
    grouped_insertion_error_oracle,
    insertion_error_oracle,
    iter_powerset,
)
from sumparts import ops
from sumparts.faithfulness import (
    PerturbationReport,
    _per_row,
    _powerset_errors,
    _probe,
    _subset_errors,
    comprehensiveness,
    deletion_curve,
    deletion_error,
    evaluate,
    flatten_grouped,
    grouped_curve,
    grouped_deletion_error,
    grouped_insertion_error,
    grouped_keep,
    insertion_curve,
    insertion_error,
    ranked_keep,
    ranking_from_attribution,
    rationale_keep,
    sparsity,
    sufficiency,
    total_powerset_error,
)


def monomial(x):
    return float(np.prod(x))


def linear_model(theta):
    return lambda x: float(np.asarray(theta) @ x)


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
    """``model`` that also records every probe it is called on."""
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
    return float(np.tanh(x @ np.linspace(-1.0, 1.5, x.size)) + 0.3 * np.prod(x))


class TestPointwiseErrors:
    def test_linear_model_zero_deletion(self):
        theta = np.array([2.0, -1.0, 3.0])
        x = np.array([1.0, 4.0, -2.0])
        alpha = theta * x
        f = linear_model(theta)
        for subset in ([], [0], [1, 2], [0, 1, 2]):
            assert deletion_error(f, x, alpha, subset) <= 1e-12
            assert insertion_error(f, x, alpha, subset) <= 1e-12

    def test_empty_subset_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        alpha = rng.normal(size=4)
        assert deletion_error(monomial, x, alpha, []) == 0.0
        assert insertion_error(monomial, x, alpha, []) == 0.0

    def test_monomial_direct_case(self):
        # d=2, x=(1,1), alpha=(1,1), delete both: |1 - 0 - 2| = 1
        assert deletion_error(monomial, [1.0, 1.0], [1.0, 1.0], [0, 1]) == 1.0

    def test_monomial_zero_attribution_insertion(self):
        x = np.ones(3)
        alpha = np.zeros(3)
        for subset in ([], [0], [0, 1], [1, 2]):
            assert insertion_error(monomial, x, alpha, subset) == 0.0
        assert insertion_error(monomial, x, alpha, [0, 1, 2]) == 1.0

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            deletion_error(monomial, [1.0, 1.0], [0.0, 0.0], [2])
        with pytest.raises(ValueError):
            insertion_error(monomial, [1.0, 1.0], [0.0, 0.0], [0, 0])


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
            f, probes = recording(monomial)
            total_powerset_error(f, np.ones(3), np.zeros(3), kind)
            assert len(probes) == 1 + 2 ** 3
            np.testing.assert_array_equal(probes[0], reference)

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
        for subset in ([0], [1, 3], [0, 1, 2, 3]):
            assert grouped_deletion_error(monomial, x, groups, scores, subset) == 0.0
        assert grouped_deletion_error(monomial, x, groups, scores, []) == 0.0

    def binomial_fixture(self):
        # d=3 singleton parts: p(x) = x0 x1 + x1 x2
        def p(x):
            return float(x[0] * x[1] + x[1] * x[2])

        groups = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        scores = np.ones(2)
        return p, groups, scores

    def test_binomial_deletion_hitting_shared_part(self):
        p, groups, scores = self.binomial_fixture()
        # deleting the shared feature kills both terms and both groups count
        assert grouped_deletion_error(p, np.ones(3), groups, scores, [1]) == 0.0

    def test_binomial_insertion_cases(self):
        p, groups, scores = self.binomial_fixture()
        x = np.ones(3)
        assert grouped_insertion_error(p, x, groups, scores, [0, 1, 2]) == 0.0
        assert grouped_insertion_error(p, x, groups, scores, []) == 0.0
        # missing one element of the first part: second group inserted only
        assert grouped_insertion_error(p, x, groups, scores, [1, 2]) == 0.0
        # missing elements of the shared part: nothing counts
        assert grouped_insertion_error(p, x, groups, scores, [0, 2]) == 0.0


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
    return float(np.sum(x[:-1] * x[1:])) + float(x[0])


class TestSubsetErrorEngine:
    """``_subset_errors`` and the public pointwise errors built on it,
    against the hand-built per-subset oracles of conftest."""

    def _check(self, f, case, exact):
        x, alpha, groups, scores, subsets = case
        members = np.zeros((len(subsets), x.size), dtype=bool)
        for row, subset in zip(members, subsets):
            row[subset] = True
        model = _per_row(f)
        for kind, supports, weights, public, oracle, args in (
            ("deletion", None, alpha, deletion_error, deletion_error_oracle, (alpha,)),
            ("insertion", None, alpha, insertion_error, insertion_error_oracle, (alpha,)),
            ("deletion", groups > 0, scores, grouped_deletion_error,
             grouped_deletion_error_oracle, (groups, scores)),
            ("insertion", groups > 0, scores, grouped_insertion_error,
             grouped_insertion_error_oracle, (groups, scores)),
        ):
            expected = [oracle(f, x, *args, s) for s in subsets]
            engine = _subset_errors(model, x, members, supports, weights, kind).tolist()
            pointwise = [public(f, x, *args, s) for s in subsets]
            for got in (engine, pointwise):
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
             "linear": lambda v: float(np.arange(1.0, v.size + 1) @ v)}[name]
        self._check(f, case, exact=True)

    def test_no_groups_credit_nothing(self):
        x = np.array([1.0, 2.0, 3.0])
        members = np.array([[False, False, False], [True, False, True],
                            [True, True, True]])
        model = _per_row(monomial)
        got = _subset_errors(model, x, members, np.zeros((0, 3), dtype=bool),
                             np.zeros(0), "insertion")
        assert got.tolist() == [0.0, 0.0, 6.0]

    def test_groups_and_scores_must_match(self):
        model = _per_row(monomial)
        x = np.ones(3)
        members = np.ones((1, 3), dtype=bool)
        with pytest.raises(ValueError, match="group masks have width 4, input has 3"):
            grouped_deletion_error(monomial, x, np.ones((2, 4)), np.ones(2), [0])
        with pytest.raises(ValueError, match="one per group"):
            _subset_errors(model, x, members, None, np.zeros(2), "deletion")
        with pytest.raises(ValueError, match="one per group"):
            grouped_insertion_error(monomial, x, np.ones((2, 3)), np.ones(1), [0])
        with pytest.raises(ValueError, match="one per group"):
            deletion_error(monomial, x, 0.5, [0])


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
        model = _per_row(smooth_model)
        blocks = list(_powerset_errors(model, x, supports, scores, kind))
        assert [len(block) for block in blocks] == [8] * 4
        whole = _subset_errors(model, x, ops.powerset_matrix(5), supports, scores, kind)
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    def test_capacity_and_kind(self):
        model = _per_row(monomial)
        with pytest.raises(ValueError, match="capped at d=20, got 21"):
            next(_powerset_errors(model, np.ones(21), None, np.zeros(21), "deletion"))
        with pytest.raises(ValueError, match="kind must be"):
            next(_powerset_errors(model, np.ones(2), None, np.zeros(2), "both"))


class TestCurves:
    def test_constant_model_auc(self):
        model = lambda x: 0.37  # noqa: E731
        x = np.arange(1.0, 7.0)
        ranking = np.arange(6)
        for curve in (
            insertion_curve(model, x, ranking, 2),
            deletion_curve(model, x, ranking, 2),
        ):
            assert curve.auc == 0.37

    def test_single_step_curve_is_two_points(self):
        model = lambda x: float(x.sum() / 10.0)  # noqa: E731
        x = np.array([1.0, 2.0, 3.0])
        curve = insertion_curve(model, x, np.arange(3), step=3)
        np.testing.assert_array_equal(curve.fractions, [0.0, 1.0])
        assert curve.auc == (curve.probabilities[0] + curve.probabilities[1]) / 2

    def test_true_ranking_beats_reversed(self):
        theta = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        x = np.ones(5)
        model = lambda v: float(theta @ v)  # noqa: E731
        good = insertion_curve(model, x, ranking_from_attribution(theta * x))
        bad = insertion_curve(model, x, ranking_from_attribution(-(theta * x)))
        assert good.auc >= bad.auc

    def test_insertion_end_matches_deletion_start(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=4)
        x = rng.normal(size=4)
        model = lambda v: float(theta @ v)  # noqa: E731
        ranking = np.arange(4)
        ins = insertion_curve(model, x, ranking)
        dele = deletion_curve(model, x, ranking)
        assert ins.probabilities[-1] == dele.probabilities[0] == model(x)

    def test_ranking_validation(self):
        model = lambda v: 0.0  # noqa: E731
        with pytest.raises(ValueError):
            insertion_curve(model, np.ones(3), [0, 1, 1])
        with pytest.raises(ValueError):
            deletion_curve(model, np.ones(3), [0, 1])
        with pytest.raises(ValueError):
            insertion_curve(model, np.ones(3), [0, 1, 2], step=0)


def _assert_probes_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        np.testing.assert_array_equal(a, b)


class TestKeepMaskEngine:
    """Builder, row loop and report against the earlier per-probe loops:
    the same probes in the same order, and the same report bit for bit."""

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
        keep_fractions, keep = ranked_keep(ranking, step, direction)
        np.testing.assert_array_equal(keep_fractions, fractions)
        assert keep.dtype == bool and keep.shape == (len(fractions), x.size)

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
        np.testing.assert_array_equal(grouped_keep(groups, scores, direction)[0], fractions)

    @settings(max_examples=100, deadline=None)
    @given(_input_and_attribution(max_d=8))
    def test_rationale_metrics_match_oracle(self, case):
        x, alpha = case
        r = (alpha > 0).astype(np.float64)

        def vector_model(v):
            p = 1.0 / (1.0 + np.exp(-smooth_model(v)))
            return np.array([p, 1.0 - p])

        for k in (0, 1):
            assert (comprehensiveness(vector_model, x, r, k),
                    sufficiency(vector_model, x, r, k)) == rationale_oracle(
                        vector_model, x, r, k)
        keep = rationale_keep(r)
        np.testing.assert_array_equal(keep, [np.ones(x.size, bool), r == 0, r == 1])

    def test_report_from_curve_is_mean_height(self):
        report = PerturbationReport.from_curve("m", [0.0, 0.5], [1.0, 0.0])
        assert report.auc == 0.5
        assert PerturbationReport.from_curve("m", [0.0, 0.25, 1.0], [0.3] * 3).auc == 0.3

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            ranked_keep([0, 2], 1, "insertion")
        with pytest.raises(ValueError):
            ranked_keep([], 1, "insertion")
        with pytest.raises(ValueError):
            ranked_keep([1, 0], 1, "sideways")
        with pytest.raises(ValueError):
            grouped_keep(np.ones((2, 3)), np.ones(3), "deletion")
        with pytest.raises(ValueError):
            rationale_keep([0.0, 0.5])
        with pytest.raises(ValueError):
            grouped_curve(lambda v: 0.0, np.ones(3), np.ones((1, 2)), np.ones(1),
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


class TestEvaluate:
    """The batched engine on a non-SOP model, against the per-vector
    functions driven by the same model one probe at a time."""

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
        results = evaluate(lambda rows: calls.append(rows) or model(rows), x, groups,
                           scores, [0, 1, 2], ALL_EXAMPLE_METRICS, step)
        assert len(calls) == 1
        assert np.unique(calls[0], axis=0).shape[0] == calls[0].shape[0]
        expected = []
        for k in range(3):
            prob = lambda v, k=k: float(model(v[None])[0, k])  # noqa: E731
            vector = lambda v: model(v[None])[0]  # noqa: E731
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
        forward = evaluate(model, x, groups, scores, [1, 2], ALL_EXAMPLE_METRICS)
        backward = evaluate(model, x, groups, scores, [1, 2, 1], ALL_EXAMPLE_METRICS[::-1])
        _assert_same_results(backward, forward + forward[:1])
        two = evaluate(model, x, groups, scores, [2], ["sufficiency", "grouped_deletion"])
        assert list(two[0]) == ["grouped_deletion", "sufficiency"]
        _assert_same_results(two, [{name: forward[1][name] for name in two[0]}])

    def test_metrics_without_probes_call_no_model(self, case):
        _, x, groups, scores = case

        def refuse(rows):
            raise AssertionError("the model was called")

        assert evaluate(refuse, x, groups, scores, [0, 2], ["sparsity"]) == [
            {"sparsity": sparsity(groups, scores[:, k])} for k in (0, 2)]
        assert evaluate(refuse, x, groups, scores, [0], []) == [{}]

    def test_validation(self, case):
        model, x, groups, scores = case
        with pytest.raises(ValueError, match="unknown metrics"):
            evaluate(model, x, groups, scores, [0], ["accuracy"])
        with pytest.raises(ValueError, match=r"class indices \[0, 3\] out of range"):
            evaluate(model, x, groups, scores, [0, 3], ["insertion"])
        with pytest.raises(ValueError, match="step"):
            evaluate(model, x, groups, scores, [0], ["deletion"], step=0)


class TestGroupedCurve:
    def test_all_features_group_equals_single_step_curve(self):
        model = lambda v: float(v.sum() / 8.0)  # noqa: E731
        x = np.arange(1.0, 5.0)
        grouped = grouped_curve(model, x, np.ones((1, 4)), np.ones(1), "insertion")
        single = insertion_curve(model, x, np.arange(4), step=4)
        np.testing.assert_array_equal(grouped.fractions, single.fractions)
        np.testing.assert_array_equal(grouped.probabilities, single.probabilities)
        assert grouped.auc == single.auc

    def test_disjoint_cover_reaches_full_input(self):
        model = lambda v: float(v @ v)  # noqa: E731
        x = np.array([1.0, 2.0, 3.0, 4.0])
        groups = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        curve = grouped_curve(model, x, groups, np.array([0.7, 0.3]), "insertion")
        assert curve.fractions.tolist() == [0.0, 0.5, 1.0]
        assert curve.probabilities[-1] == model(x)

    def test_overlapping_groups_insert_set_differences(self):
        # three overlapping groups on d=6: processed counts follow unions
        calls = []

        def model(v):
            calls.append(np.count_nonzero(v))
            return 0.5

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
        model = lambda v: 0.1  # noqa: E731
        x = np.ones(3)
        groups = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        curve = grouped_curve(model, x, groups, np.array([0.9, 0.1]), "insertion")
        assert curve.fractions.tolist() == [0.0, 1.0]

    def test_singleton_groups_equal_step_one_insertion(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(size=5)
        model = lambda v: float(theta @ v)  # noqa: E731
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
        model = lambda v: float(v.sum())  # noqa: E731
        x = np.ones(2)
        curve = grouped_curve(model, x, np.eye(2), np.array([0.8, 0.2]), "deletion")
        np.testing.assert_array_equal(curve.probabilities, [2.0, 1.0, 0.0])

    def test_empty_groups_error(self):
        with pytest.raises(ValueError):
            grouped_curve(lambda v: 0.0, np.ones(2), np.empty((0, 2)), np.empty(0),
                          "insertion")


class TestComprehensivenessSufficiency:
    def probs_model(self, theta):
        def m(x):
            z = np.asarray(theta) @ x
            return np.array([z, 1.0 - z])

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
        with pytest.raises(ValueError):
            sufficiency(m, np.ones(3), np.ones(3), 7)


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


class TestPairedRankingComparison:
    """Grouped insertion AUC versus a seeded random per-feature ranking on
    a trained toy model, frozen as a deterministic regression golden.

    At this scale the comparison is granularity-confounded (the grouped
    curve has far fewer points and carries the zero-baseline weight), so
    the margin lands negative; the golden value pins the honest result.
    """

    GOLDEN_MEAN_MARGIN = -0.16448879020950946

    def test_margin_matches_golden(self):
        from sumparts.model import Segmentation, sop_forward
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

            def prob(v):
                full = sop_forward(v, seg, result.gen_params, result.sel_params,
                                   backbone)
                return float(softmax(full.prediction)[k])

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
