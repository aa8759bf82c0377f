"""Core numeric primitives against independent projection and
finite-difference oracles, the last-axis ops against their per-row
oracles, and the powerset blocks against the whole powerset matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sumparts import ops
from sumparts.ops import (
    powerset_blocks,
    softmax,
    sparsemax,
    sparsemax_vjp,
)

from conftest import (
    brute_force_simplex_projection,
    finite_diff_grad,
    grid_simplex_projection,
    per_row,
    powerset_matrix,
    projection_boundary_margin,
    softmax_row,
    sparsemax_row,
    sparsemax_vjp_row,
)

# 1-D to 3-D arrays whose entries often tie: a few repeated values mixed
# with arbitrary floats
_ENTRY = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                   st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
_ROWS = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7),
               elements=_ENTRY)


@st.composite
def _rows_and_upstream(draw):
    v = draw(_ROWS)
    upstream = draw(arrays(np.float64, v.shape,
                           elements=st.floats(-3.0, 3.0, allow_nan=False)))
    return v, upstream


class TestSparsemax:
    def test_symmetric_pair_is_uniform(self):
        for c in (-3.0, 0.0, 0.7, 42.0):
            np.testing.assert_array_equal(sparsemax([c, c]), [0.5, 0.5])

    def test_frozen_examples(self):
        np.testing.assert_allclose(sparsemax([1.0, 0.0]), [1.0, 0.0], atol=1e-12)
        # tau = (0.7 - 1) / 2 = -0.15
        np.testing.assert_allclose(sparsemax([0.5, 0.2]), [0.65, 0.35], atol=1e-12)

    def test_matches_brute_force_projection(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = rng.integers(1, 4)
            v = rng.uniform(-2, 2, size=n)
            np.testing.assert_allclose(
                sparsemax(v), brute_force_simplex_projection(v), atol=1e-8
            )

    def test_near_grid_minimizer(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            v = rng.uniform(-1, 1, size=n)
            np.testing.assert_allclose(
                sparsemax(v), grid_simplex_projection(v), atol=5e-3
            )

    def test_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=rng.integers(1, 12))
            p = sparsemax(v)
            assert p.min() >= 0.0 and p.max() <= 1.0
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=6)
            c = rng.normal() * 10
            np.testing.assert_allclose(sparsemax(v + c), sparsemax(v), atol=1e-9)

    def test_dominant_entry_gives_one_hot(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=5)
            i = rng.integers(5)
            v[i] = np.delete(v, i).max() + 1.0 + rng.uniform(0, 2)
            expected = np.zeros(5)
            expected[i] = 1.0
            np.testing.assert_array_equal(sparsemax(v), expected)

    def test_sparsity_contrast_with_softmax(self):
        v = np.array([2.0, 0.5, -1.0, -2.5])
        assert np.count_nonzero(sparsemax(v) == 0.0) >= 1
        assert np.all(softmax(v) > 0.0)

    def test_row_with_no_support_is_refused(self):
        """At 1e17 subtracting 1 leaves every partial sum unchanged, so no
        entry passes the support test (k = 0), where the threshold divided
        by zero.  One such row in a stack refuses the stack."""
        big = np.full(4, 1e17)
        with pytest.raises(ValueError, match=r"entries reach 1e\+17: no entry passes"):
            sparsemax(big)
        with pytest.raises(ValueError, match="no entry passes the support test"):
            sparsemax(np.stack([[0.5, 0.2, -1.0, 0.0], -big]))

    def test_errors(self):
        with pytest.raises(ValueError):
            sparsemax([])
        with pytest.raises(ValueError):
            sparsemax([1.0, np.nan])
        with pytest.raises(ValueError):
            sparsemax([np.inf, 0.0])


class TestSparsemaxVjp:
    def test_constant_upstream_annihilated_on_full_support(self):
        np.testing.assert_array_equal(
            sparsemax_vjp([0.4, 0.6], [1.0, 1.0]), [0.0, 0.0]
        )

    def test_singleton_support_is_zero_map(self):
        np.testing.assert_array_equal(
            sparsemax_vjp([10.0, -10.0], [1.0, 1.0]), [0.0, 0.0]
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            v = rng.normal(scale=1.5, size=n)
            if projection_boundary_margin(v) < 1e-4:
                continue
            upstream = rng.normal(size=n)
            analytic = sparsemax_vjp(v, upstream)
            numeric = finite_diff_grad(lambda w: float(sparsemax(w) @ upstream), v, 1e-6)
            np.testing.assert_allclose(analytic, numeric, atol=1e-5)
            checked += 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sparsemax_vjp([1.0, 2.0], [1.0])


class TestLastAxis:
    @settings(max_examples=150, deadline=None)
    @given(_ROWS)
    def test_sparsemax_and_softmax_equal_per_row_oracle(self, v):
        np.testing.assert_array_equal(sparsemax(v), per_row(sparsemax_row, v))
        np.testing.assert_array_equal(softmax(v), per_row(softmax_row, v))

    @settings(max_examples=150, deadline=None)
    @given(_rows_and_upstream())
    def test_vjp_matches_per_row_oracle(self, case):
        v, upstream = case
        # the support mean may be summed in another order than the oracle's
        scale = max(1.0, float(np.abs(upstream).max()))
        np.testing.assert_allclose(
            sparsemax_vjp(v, upstream), per_row(sparsemax_vjp_row, v, upstream),
            rtol=0.0, atol=1e-12 * scale,
        )

    @settings(max_examples=100, deadline=None)
    @given(_rows_and_upstream())
    def test_vjp_given_the_projection_changes_no_bit(self, case):
        v, upstream = case
        assert sparsemax_vjp(v, upstream, projection=sparsemax(v)).tobytes() == \
            sparsemax_vjp(v, upstream).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_ROWS)
    def test_rows_on_simplex(self, v):
        for p in (sparsemax(v), softmax(v)):
            assert p.shape == v.shape
            assert p.min() >= 0.0 and p.max() <= 1.0
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(_ROWS, st.data())
    def test_row_shift_invariance(self, v, data):
        shift = data.draw(arrays(np.float64, v.shape[:-1] + (1,),
                                 elements=st.floats(-10.0, 10.0, allow_nan=False)))
        np.testing.assert_allclose(sparsemax(v + shift), sparsemax(v), atol=1e-9)
        np.testing.assert_allclose(softmax(v + shift), softmax(v), atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(_rows_and_upstream())
    def test_vjp_matches_finite_differences_off_boundaries(self, case):
        v, upstream = case
        rows = v.reshape(-1, v.shape[-1])
        away = np.array([projection_boundary_margin(r) >= 1e-4 for r in rows])
        numeric = finite_diff_grad(
            lambda w: float((sparsemax(w) * upstream).sum()), v, 1e-6
        ).reshape(rows.shape)
        analytic = sparsemax_vjp(v, upstream).reshape(rows.shape)
        np.testing.assert_allclose(analytic[away], numeric[away], atol=1e-5)

    def test_errors_on_stacks(self):
        for fn in (sparsemax, softmax):
            with pytest.raises(ValueError, match="non-empty"):
                fn(np.empty((3, 0)))
            with pytest.raises(ValueError, match="non-finite"):
                fn([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="non-empty"):
            sparsemax_vjp(np.empty((2, 0)), np.empty((2, 0)))
        with pytest.raises(ValueError, match="non-finite"):
            sparsemax_vjp([[1.0, 2.0], [np.nan, 0.0]], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="does not match"):
            sparsemax_vjp(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="projection shape .3,. does not match"):
            sparsemax_vjp(np.zeros((2, 3)), np.zeros((2, 3)), projection=np.zeros(3))
        with pytest.raises(ValueError, match="scalar"):
            sparsemax(1.0)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_array_equal(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_analytic_pair(self):
        np.testing.assert_allclose(
            softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-12
        )

    def test_no_overflow_on_large_inputs(self):
        p = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=5)
        np.testing.assert_allclose(softmax(v + 17.5), softmax(v), atol=1e-12)

    def test_strictly_positive_and_normalized(self):
        p = softmax([-50.0, 0.0, 50.0])
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_empty_error(self):
        with pytest.raises(ValueError):
            softmax([])


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda v: 3.5, np.array([0.3, -0.7, 2.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_cross_oracle_with_sparsemax_vjp(self):
        rng = np.random.default_rng(31)
        v = np.array([0.9, 0.1, -0.4, 0.25])
        w = rng.normal(size=4)
        analytic = sparsemax_vjp(v, w)
        numeric = finite_diff_grad(lambda u: float(sparsemax(u) @ w), v, 1e-6)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_evaluation(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: float(np.log(v[0])), np.array([0.0]), 1e-6)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.array([1.0]), 0.0)


class TestPowersetBlocks:
    @pytest.mark.parametrize("d", [0, 1, 5, 16, 17, 20])
    def test_blocks_concatenate_to_the_powerset_matrix(self, d):
        blocks = list(powerset_blocks(d))
        assert [len(b) for b in blocks[:-1]] == [ops.POWERSET_BLOCK_ROWS] * (len(blocks) - 1)
        assert all(b.dtype == bool and b.shape[1] == d for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), powerset_matrix(d))

    def test_small_blocks_end_inside_the_powerset(self, monkeypatch):
        monkeypatch.setattr(ops, "POWERSET_BLOCK_ROWS", 6)
        blocks = list(powerset_blocks(4))
        assert [len(b) for b in blocks] == [6, 6, 4]
        np.testing.assert_array_equal(np.concatenate(blocks), powerset_matrix(4))

    def test_memory_follows_the_block_size(self):
        """Walking the blocks at d = 20 holds about two blocks of 65,536
        rows at a time; slicing them from the whole 2^20 x 20 matrix peaked
        at 34 MB."""
        tracemalloc.start()
        try:
            rows = sum(len(block) for block in powerset_blocks(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 1 << 20
        assert peak < 4_000_000
