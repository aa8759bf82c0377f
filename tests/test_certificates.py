"""Certificate routes against independent oracles and frozen values: each
family's exact scan against its orbit LP and the full-powerset LP (the LP
oracles live in conftest), the binomial scan also against a plane scan and
the unreduced orbit program, the verifications, which run the
subset-error engine of ``faithfulness``, against the hand-built per-subset
error oracles in conftest, and the vectorised offset grid against a
loop."""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from sumparts import certificates, ops
from sumparts.certificates import (
    BINOMIAL_DIMENSION_LIMIT,
    ExponentialFit,
    PolynomialSpec,
    binomial_scan_minimum,
    fit_exponential,
    min_deletion_error_monomial,
    min_insertion_error_binomial,
    monomial_scan_minimum,
    verify_corollary_grouped,
    verify_lemma_monomial_insertion,
)
from conftest import (
    L1Program,
    binomial_orbits,
    build_program,
    certified_optimum,
    fit_exponential_grid_loop,
    grouped_deletion_error_oracle,
    grouped_insertion_error_oracle,
    insertion_error_oracle,
    iter_powerset,
    monomial_fraction_scan,
    monomial_orbits,
    solve_l1,
)

# minima confirmed by two independent routes (LP optimum and symmetric scan)
MONOMIAL_MINIMA = {2: 1.0, 3: 2.0, 4: 5.0, 5: 9.0, 6: 19.0, 7: 34.0, 8: 69.0}
BINOMIAL_MINIMA = {3: 2.0, 6: 8.0}


def binomial_symmetric_scan(d, grid=np.arange(-0.5, 1.5, 0.002)):
    """Independent oracle: by part-permutation symmetry the optimum has one
    value on the outer parts and one on the shared part; scan that plane."""
    m = d // 3
    outer, shared = np.meshgrid(grid, grid, indexing="ij")
    total = np.zeros_like(outer)
    for k1 in range(m + 1):
        for k2 in range(m + 1):
            for k3 in range(m + 1):
                weight = comb(m, k1) * comb(m, k2) * comb(m, k3)
                target = float(k1 == m and k2 == m) + float(k2 == m and k3 == m)
                total += weight * np.abs(target - (k1 + k3) * outer - k2 * shared)
    return float(total.min())


def lemma_oracle(d, x=None):
    """Per-subset reference for the lemma: the zero attribution's total
    insertion error, one hand-built insertion error per subset."""
    spec = PolynomialSpec.monomial(d)
    x = np.ones(d) if x is None else np.asarray(x, dtype=np.float64)
    return sum(insertion_error_oracle(spec.evaluate, x, np.zeros(d), subset)
               for subset in iter_powerset(d))


def term_groups(spec):
    """The zero-error groups, built by hand: all features for a monomial,
    and the first and last two thirds for a binomial."""
    if spec.kind == "monomial":
        return np.ones((1, spec.d))
    m = spec.d // 3
    groups = np.zeros((2, spec.d))
    groups[0, :2 * m] = 1.0
    groups[1, m:] = 1.0
    return groups


def corollary_oracle(spec):
    """Per-subset reference for the corollary: grouped error maxima of the
    zero-error constructions at the all-ones input, one hand-built error
    per subset and direction."""
    groups = term_groups(spec)
    scores = np.ones(len(groups))
    x = np.ones(spec.d)
    max_del = 0.0
    max_ins = 0.0
    for subset in iter_powerset(spec.d):
        max_del = max(max_del, grouped_deletion_error_oracle(
            spec.evaluate, x, groups, scores, subset))
        max_ins = max(max_ins, grouped_insertion_error_oracle(
            spec.evaluate, x, groups, scores, subset))
    return max_del, max_ins


class TestPolynomialSpec:
    def test_monomial_evaluate(self):
        spec = PolynomialSpec.monomial(3)
        assert spec.evaluate([1.0, 1.0, 1.0]) == 1.0
        assert spec.evaluate([1.0, 0.0, 1.0]) == 0.0

    def test_binomial_evaluate(self):
        spec = PolynomialSpec.binomial(3)
        assert spec.evaluate([1.0, 1.0, 1.0]) == 2.0
        assert spec.evaluate([1.0, 1.0, 0.0]) == 1.0
        assert spec.evaluate([1.0, 0.0, 1.0]) == 0.0

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(3)
        for spec in (PolynomialSpec.monomial(4), PolynomialSpec.binomial(6)):
            stack = rng.normal(size=(5, spec.d))
            values = spec.evaluate(stack)
            assert values.shape == (5,)
            assert values.tolist() == [spec.evaluate(row) for row in stack]
        with pytest.raises(ValueError):
            PolynomialSpec.monomial(3).evaluate(np.ones((2, 4)))

    def test_supports_are_the_terms(self):
        for spec in ([PolynomialSpec.monomial(d) for d in (1, 2, 5)]
                     + [PolynomialSpec.binomial(d) for d in (3, 6, 9)]):
            assert spec.supports.dtype == bool
            np.testing.assert_array_equal(spec.supports, term_groups(spec) > 0)
            # each term is the product of x over its support
            rng = np.random.default_rng(spec.d)
            x = rng.normal(size=(4, spec.d))
            expected = sum(np.prod(np.where(row, x, 1.0), axis=-1) for row in spec.supports)
            np.testing.assert_allclose(spec.evaluate(x), expected, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialSpec(kind="monomial", d=0)
        with pytest.raises(ValueError):
            PolynomialSpec.binomial(4)
        with pytest.raises(ValueError):
            PolynomialSpec(kind="trinomial", d=3)


class TestBuildProgram:
    def test_monomial_deletion_targets_d2(self):
        program = build_program(PolynomialSpec.monomial(2), "deletion")
        assert program.coefficients.shape == (4, 2)
        # binary counting order: {}, {0}, {1}, {0,1}
        np.testing.assert_array_equal(
            program.coefficients, [[0, 0], [1, 0], [0, 1], [1, 1]]
        )
        np.testing.assert_array_equal(program.targets, [0.0, 1.0, 1.0, 1.0])

    def test_binomial_insertion_targets_d3(self):
        program = build_program(PolynomialSpec.binomial(3), "insertion")
        assert program.coefficients.shape == (8, 3)
        targets = dict(zip(map(tuple, program.coefficients.astype(int)),
                           program.targets))
        assert targets[(1, 1, 0)] == 1.0    # first part union shared
        assert targets[(0, 1, 1)] == 1.0
        assert targets[(1, 1, 1)] == 2.0
        assert targets[(0, 0, 0)] == 0.0
        assert targets[(0, 1, 0)] == 0.0

    def test_empty_subset_target_zero_both_kinds(self):
        for kind in ("deletion", "insertion"):
            program = build_program(PolynomialSpec.monomial(3), kind)
            assert program.targets[0] == 0.0

    def test_row_count_is_full_powerset(self):
        for d in (1, 2, 5):
            program = build_program(PolynomialSpec.monomial(d), "deletion")
            assert program.coefficients.shape == (1 << d, d)

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            build_program(PolynomialSpec.monomial(16), "deletion")
        with pytest.raises(ValueError):
            build_program(PolynomialSpec.monomial(2), "ablation")


class TestSolveL1:
    def test_identity_system_is_exact(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=4)
        program = L1Program(coefficients=np.eye(4), targets=c)
        alpha, value = solve_l1(program)
        np.testing.assert_allclose(alpha, c, atol=1e-8)
        assert value <= 1e-9

    def test_monomial_small_anchors(self):
        _, v2 = solve_l1(build_program(PolynomialSpec.monomial(2), "deletion"))
        _, v3 = solve_l1(build_program(PolynomialSpec.monomial(3), "deletion"))
        np.testing.assert_allclose(v2, 1.0, atol=1e-6)
        np.testing.assert_allclose(v3, 2.0, atol=1e-6)

    def test_row_permutation_invariance(self):
        program = build_program(PolynomialSpec.monomial(4), "deletion")
        rng = np.random.default_rng(1)
        perm = rng.permutation(program.targets.size)
        permuted = L1Program(
            coefficients=program.coefficients[perm], targets=program.targets[perm]
        )
        _, v_a = solve_l1(program)
        _, v_b = solve_l1(permuted)
        np.testing.assert_allclose(v_a, v_b, atol=1e-9)

    def test_optimum_dominates_candidate_attributions(self):
        program = build_program(PolynomialSpec.monomial(5), "deletion")
        _, optimum = solve_l1(program)

        def objective(alpha):
            return float(
                np.abs(program.targets - program.coefficients @ alpha).sum()
            )

        assert optimum <= objective(np.zeros(5)) + 1e-9
        assert optimum <= objective(np.full(5, 1 / 5)) + 1e-9
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert optimum <= objective(rng.normal(size=5)) + 1e-9


class TestMonomialMinimum:
    def test_two_routes_agree(self):
        # the orbit LP, proven by its exact primal/dual check, is the oracle
        for d in range(2, 21):
            assert monomial_scan_minimum(d) == \
                certified_optimum(d, *monomial_orbits(d))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, certificates.SCAN_DIMENSION_LIMIT))
    def test_integer_scan_matches_fraction_scan(self, d):
        assert monomial_scan_minimum(d) == monomial_fraction_scan(d)

    def test_frozen_values(self):
        for d, expected in MONOMIAL_MINIMA.items():
            np.testing.assert_allclose(
                min_deletion_error_monomial(d), expected, atol=1e-6
            )

    def test_strictly_increasing(self):
        values = [min_deletion_error_monomial(d) for d in range(2, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_exact_minima(self):
        # for d = 2..20 the exact minima equal C(d, floor(d/2)) - 1; the
        # scan runs in exact arithmetic
        for d in range(2, 21):
            expected = float(comb(d, d // 2) - 1)
            assert monomial_scan_minimum(d) == expected
            assert min_deletion_error_monomial(d) == expected

    def test_orbit_route_matches_full_powerset_lp(self):
        for d in range(2, 11):
            _, full = solve_l1(build_program(PolynomialSpec.monomial(d), "deletion"))
            assert min_deletion_error_monomial(d) == pytest.approx(full, rel=1e-6)

    def test_scan_extends_past_lp_capacity(self):
        assert monomial_scan_minimum(20) > monomial_scan_minimum(15)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            min_deletion_error_monomial(1)
        with pytest.raises(ValueError):
            monomial_scan_minimum(21)


class TestBinomialMinimum:
    def test_frozen_values_and_scan_agreement(self):
        for d, expected in BINOMIAL_MINIMA.items():
            value = min_insertion_error_binomial(d)
            np.testing.assert_allclose(value, expected, atol=1e-6)
            # symmetric plane scan can only overestimate by grid resolution
            scan = binomial_symmetric_scan(d)
            assert value <= scan + 1e-9
            assert scan - value <= 0.05

    def test_orbit_route_matches_full_powerset_lp(self):
        for d in (3, 6, 9, 12):
            _, full = solve_l1(build_program(PolynomialSpec.binomial(d), "insertion"))
            assert min_insertion_error_binomial(d) == pytest.approx(full, rel=1e-6)

    def test_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            min_insertion_error_binomial(4)

    def test_scan_matches_certified_lp(self):
        for d in range(3, 16, 3):
            assert binomial_scan_minimum(d) == certified_optimum(d, *binomial_orbits(d // 3))

    def test_minimiser_attains_minimum_on_unreduced_program(self):
        # the scan merges the outer parts' rows; the full (m+1)^3 orbit
        # program at (a1, a2, a1) must give the same value, exactly
        for d in range(3, 22, 3):
            value, (a1, a2) = certificates._binomial_scan(d)
            counts, targets, weights = binomial_orbits(d // 3)
            total = sum(w * abs(t - (k1 + k3) * a1 - k2 * a2)
                        for (k1, k2, k3), t, w in zip(counts, targets, weights))
            assert total == value
            assert float(value) == binomial_scan_minimum(d)

    def test_closed_form_past_the_old_lp_cap(self):
        # the zero attribution is optimal from d = 6 on; d = 18..30 were
        # beyond the LP route's cap of 15
        assert binomial_scan_minimum(3) == 2.0
        for d in range(6, BINOMIAL_DIMENSION_LIMIT + 1, 3):
            assert min_insertion_error_binomial(d) == 2.0 * 2.0 ** (d // 3)

    def test_capacity_guard(self):
        with pytest.raises(ValueError, match="capped at d=30"):
            min_insertion_error_binomial(33)


class TestExactCertificate:
    @pytest.mark.parametrize(
        "perturb",
        [lambda alpha, duals: (alpha, -duals),
         lambda alpha, duals: (alpha + 0.5, duals)],
        ids=["sign-flipped dual", "shifted primal"],
    )
    def test_bad_solver_output_is_rejected(self, monkeypatch, perturb):
        solve = conftest.solve_weighted_l1

        def perturbed(counts, targets, weights):
            alpha, value, duals = solve(counts, targets, weights)
            alpha, duals = perturb(alpha, duals)
            return alpha, value, duals

        monkeypatch.setattr(conftest, "solve_weighted_l1", perturbed)
        with pytest.raises(RuntimeError, match="d=5"):
            certified_optimum(5, *monomial_orbits(5))
        with pytest.raises(RuntimeError, match="d=6"):
            certified_optimum(6, *binomial_orbits(2))


class TestLemmaVerification:
    def test_all_ones_input_totals_one(self):
        for d in (1, 3, 5):
            assert verify_lemma_monomial_insertion(d) == 1.0

    def test_any_zero_feature_gives_zero(self):
        x = np.ones(4)
        x[2] = 0.0
        assert verify_lemma_monomial_insertion(4, x) == 0.0

    def test_capacity(self):
        with pytest.raises(ValueError):
            verify_lemma_monomial_insertion(21)
        with pytest.raises(ValueError):
            verify_lemma_monomial_insertion(3, np.ones(4))

    def test_matches_per_subset_oracle(self):
        for d in range(1, 13):
            assert verify_lemma_monomial_insertion(d) == lemma_oracle(d)

    def test_total_spans_every_block(self, monkeypatch):
        # only the last subset errs, so a total of one block would read 0
        monkeypatch.setattr(ops, "POWERSET_BLOCK_ROWS", 8)
        for d in (4, 7):
            assert verify_lemma_monomial_insertion(d) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.just(1.0),
                              st.floats(-2.0, 2.0, allow_nan=False)),
                    min_size=1, max_size=8))
    def test_matches_per_subset_oracle_on_any_input(self, x):
        assert math.isclose(
            verify_lemma_monomial_insertion(len(x), x), lemma_oracle(len(x), x),
            rel_tol=1e-12,
        )


class TestCorollaryVerification:
    def test_monomial_grouped_errors_vanish(self):
        max_del, max_ins = verify_corollary_grouped(PolynomialSpec.monomial(4))
        assert max_del == 0.0
        assert max_ins == 0.0

    def test_binomial_grouped_errors_vanish(self):
        max_del, max_ins = verify_corollary_grouped(PolynomialSpec.binomial(6))
        assert max_del == 0.0
        assert max_ins == 0.0

    def test_capacity(self):
        with pytest.raises(ValueError, match="capped at d=20, got 21"):
            verify_corollary_grouped(PolynomialSpec.monomial(21))

    def test_above_d12(self):
        spec = PolynomialSpec.monomial(13)
        assert verify_corollary_grouped(spec) == corollary_oracle(spec)
        # d = 18 spans four blocks of the powerset walk
        for spec in (PolynomialSpec.monomial(14), PolynomialSpec.monomial(15),
                     PolynomialSpec.binomial(15), PolynomialSpec.binomial(18)):
            assert verify_corollary_grouped(spec) == (0.0, 0.0)

    def test_matches_per_subset_oracle(self):
        specs = [PolynomialSpec.monomial(d) for d in range(1, 11)]
        specs += [PolynomialSpec.binomial(d) for d in (3, 6, 9)]
        for spec in specs:
            assert verify_corollary_grouped(spec) == corollary_oracle(spec)


class TestExponentialFit:
    def test_exact_exponential_recovered(self):
        points = [(d, float(np.exp(d))) for d in range(1, 6)]
        fit = fit_exponential(points)
        np.testing.assert_allclose(fit.slope, 1.0, atol=1e-9)
        np.testing.assert_allclose(fit.intercept, 0.0, atol=1e-9)
        assert fit.relative_abs_error <= 1e-12

    def test_offset_grid_recovers_synthetic_curve(self):
        points = [(d, float(np.exp(0.2 * d + 1.0) + 5.0)) for d in (2, 4, 6, 8, 10)]
        fit = fit_exponential(points, with_offset=True)
        assert abs(fit.offset - 5.0) <= 0.01 + 1e-9
        np.testing.assert_allclose(fit.slope, 0.2, atol=0.01)
        np.testing.assert_allclose(fit.intercept, 1.0, atol=0.05)

    def test_fit_predict(self):
        fit = ExponentialFit(slope=0.5, intercept=1.0, offset=2.0,
                             relative_abs_error=0.0)
        np.testing.assert_allclose(fit.predict(2.0), np.exp(2.0) + 2.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_exponential([(1, 1.0), (2, 2.0)])
        with pytest.raises(ValueError):
            fit_exponential([(1, -1.0), (2, 2.0), (3, 3.0)])

    @pytest.mark.parametrize("with_offset", [False, True])
    def test_fewer_than_three_distinct_dimensions_rejected(self, with_offset):
        for points in ([(6, 8.0)] * 3, [(3, 2.0), (6, 8.0), (6, 8.0), (3, 2.0)]):
            with pytest.raises(ValueError, match="three or more distinct"):
                fit_exponential(points, with_offset=with_offset)

    def test_offset_grid_matches_loop_oracle(self):
        windows = [[(3, 2.0), (6, 8.0), (9, 16.0), (12, 32.0), (15, 64.0)],
                   [(d, float(np.exp(0.2 * d + 1.0) + 5.0)) for d in (2, 4, 6, 8, 10)]]
        # random windows keep the smallest value under 20, so the loop runs
        # at most 2,000 polyfits per window
        rng = np.random.default_rng(11)
        for _ in range(12):
            ds = np.sort(rng.choice(np.arange(1, 31), size=rng.integers(3, 9),
                                    replace=False))
            values = rng.uniform(1, 10) * np.exp(rng.uniform(0.05, 0.4) * (ds - ds[0]))
            values *= 1 + rng.normal(scale=0.05, size=ds.size)
            values += rng.uniform(0, 5)
            windows.append([(int(d), float(v)) for d, v in zip(ds, values)])
        for points in windows:
            assert fit_exponential(points, with_offset=True) == \
                fit_exponential_grid_loop(points)
