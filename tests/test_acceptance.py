"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) before asserting, so the suite doubles as a checklist.
"""

import time

import numpy as np
import pytest

from sumparts.certificates import (
    PolynomialSpec,
    binomial_scan_minimum,
    fit_exponential,
    monomial_scan_minimum,
    verify_corollary_grouped,
    verify_lemma_monomial_insertion,
)
from sumparts.faithfulness import (
    deletion_curve,
    grouped_curve,
    insertion_curve,
    total_powerset_error,
)
from sumparts.model import (
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    identity_backbone,
    sop_forward,
)
from sumparts.ops import sparsemax, sparsemax_vjp
from sumparts.structures import IntensityMap, label_groups, score_mass_by_label
from sumparts.training import (
    TrainConfig,
    init_params,
    loss_and_gradients,
    train,
    training_accuracy,
)

from conftest import (
    brute_force_simplex_projection,
    class_mean_identity_backbone,
    finite_diff_grad,
    make_blobs,
    pack_gradients,
    pack_params,
    projection_boundary_margin,
    unpack_params,
)


def report(number, name, detail, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_monomial_slope():
    start = time.monotonic()
    points = [(d, monomial_scan_minimum(d)) for d in range(2, 15)]
    fit = fit_exponential(points, with_offset=False)
    elapsed = time.monotonic() - start
    ok = abs(fit.slope - 0.664) <= 0.05 and elapsed < 60.0
    assert report(
        1, "monomial deletion slope",
        f"slope={fit.slope:.4f} (target 0.664±0.05), runtime={elapsed:.1f}s (<60s)",
        ok,
    )


def test_criterion_02_binomial_slope():
    start = time.monotonic()
    points = [(d, binomial_scan_minimum(d)) for d in (3, 6, 9, 12, 15)]
    fit = fit_exponential(points, with_offset=True)
    elapsed = time.monotonic() - start
    ok = abs(fit.slope - 0.198) <= 0.05 and elapsed < 300.0
    assert report(
        2, "binomial insertion slope",
        f"points={[(d, round(v, 6)) for d, v in points]}, "
        f"slope={fit.slope:.4f} offset={fit.offset:.2f} "
        f"(target 0.198±0.05), runtime={elapsed:.1f}s (<300s)",
        ok,
    )


def test_criterion_03_small_dimension_anchors():
    v2 = monomial_scan_minimum(2)
    v3 = monomial_scan_minimum(3)
    ok = abs(v2 - 1.0) <= 1e-6 and abs(v3 - 2.0) <= 1e-6
    assert report(
        3, "exact small-d anchors",
        f"d=2 -> {v2}, d=3 -> {v3} (scan, tol 1e-6)", ok,
    )


def test_criterion_04_lemma_monomial_insertion():
    totals = {d: verify_lemma_monomial_insertion(d) for d in range(1, 17)}
    all_one = all(v == 1.0 for v in totals.values())
    x = np.ones(6)
    x[4] = 0.0
    zero_case = verify_lemma_monomial_insertion(6, x)
    ok = all_one and zero_case == 0.0
    assert report(
        4, "zero-attribution insertion totals",
        f"d=1..16 all exactly 1.0: {all_one}; zeroed-feature input -> {zero_case}",
        ok,
    )


def test_criterion_05_corollary_grouped_zero_error():
    mono_max = 0.0
    for d in range(1, 13):
        max_del, max_ins = verify_corollary_grouped(PolynomialSpec.monomial(d))
        mono_max = max(mono_max, max_del, max_ins)
    bino_max = 0.0
    for d in (3, 6, 9, 12):
        max_del, max_ins = verify_corollary_grouped(PolynomialSpec.binomial(d))
        bino_max = max(bino_max, max_del, max_ins)
    ok = mono_max == 0.0 and bino_max == 0.0
    assert report(
        5, "grouped constructions zero error",
        f"monomial d<=12 max={mono_max}, binomial d<=12 max={bino_max} (exact)",
        ok,
    )


def test_criterion_06_reconstruction_identity_thousand_draws():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        m = int(rng.integers(1, min(d, 5) + 1))
        heads = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        seg = Segmentation.contiguous(d, m)
        backbone = identity_backbone(rng.normal(size=(k, d)))
        gen = GroupGenParams.random(m, heads, rng, std=1.0)
        sel = GroupSelectParams.random(backbone, rng, std=1.0)
        attribution = sop_forward(rng.normal(size=d), seg, gen, sel, backbone)
        delta = attribution.prediction - (
            attribution.scores * attribution.partial_logits
        ).sum(axis=0)
        worst = max(worst, float(np.abs(delta).max()))
    ok = worst == 0.0
    assert report(
        6, "faithfulness by construction",
        f"1000 random draws, max |prediction - score*logit sum| = {worst} (exact)",
        ok,
    )


def test_criterion_07_sparsemax_against_oracles():
    rng = np.random.default_rng(4242)
    worst_proj = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        v = rng.uniform(-2.0, 2.0, size=n)
        gap = np.abs(sparsemax(v) - brute_force_simplex_projection(v)).max()
        worst_proj = max(worst_proj, float(gap))
    checked, worst_vjp = 0, 0.0
    while checked < 100:
        n = int(rng.integers(2, 7))
        v = rng.normal(scale=1.5, size=n)
        if projection_boundary_margin(v) < 1e-4:
            continue
        upstream = rng.normal(size=n)
        numeric = finite_diff_grad(lambda w: float(sparsemax(w) @ upstream), v, 1e-6)
        gap = np.abs(sparsemax_vjp(v, upstream) - numeric).max()
        worst_vjp = max(worst_vjp, float(gap))
        checked += 1
    ok = worst_proj <= 1e-8 and worst_vjp <= 1e-5
    assert report(
        7, "sparsemax correctness",
        f"projection vs brute force max gap {worst_proj:.2e} (<=1e-8); "
        f"vjp vs finite differences max gap {worst_vjp:.2e} (<=1e-5)",
        ok,
    )


def test_criterion_08_training_sanity():
    features, labels = make_blobs(n_per_class=25, seed=123)
    seg = Segmentation.contiguous(8, 2)
    backbone = class_mean_identity_backbone(features, labels)
    config = TrainConfig(steps=60, learning_rate=0.1, seed=7)
    first = train(features, labels, seg, backbone, config)
    second = train(features, labels, seg, backbone, config)
    accuracy = training_accuracy(
        features, labels, seg, first.gen_params, first.sel_params
    )
    deterministic = (
        np.array_equal(first.gen_params.w_q, second.gen_params.w_q)
        and np.array_equal(first.gen_params.w_k, second.gen_params.w_k)
        and np.array_equal(first.sel_params.classifier, second.sel_params.classifier)
        and first.loss_history == second.loss_history
    )

    rng = np.random.default_rng(0)
    seg4 = Segmentation.contiguous(4, 2)
    backbone4 = identity_backbone(rng.normal(size=(2, 4)))
    gen, sel = init_params(
        seg4, backbone4, TrainConfig(steps=0, learning_rate=0.1, seed=11, init_std=0.6)
    )
    inputs = rng.normal(size=(5, 4))
    targets = np.array([0, 1, 0, 1, 1])
    _, grads = loss_and_gradients(inputs, targets, seg4, gen, sel)
    analytic = pack_gradients(grads)

    def loss_of(vec):
        g, s = unpack_params(vec, gen, sel)
        return loss_and_gradients(inputs, targets, seg4, g, s)[0]

    numeric = finite_diff_grad(loss_of, pack_params(gen, sel), 1e-6)
    rel_gap = float(np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max()))
    ok = accuracy >= 0.95 and deterministic and rel_gap <= 1e-4
    assert report(
        8, "training sanity",
        f"blobs accuracy {accuracy:.3f} in 60 steps (>=0.95, <=500 allowed), "
        f"deterministic={deterministic}, grad rel gap {rel_gap:.2e} (<=1e-4)",
        ok,
    )


def test_criterion_09_metric_coherence():
    constant = lambda rows: np.full(len(rows), 0.42)  # noqa: E731
    x = np.arange(1.0, 7.0)
    ranking = np.arange(6)
    const_ok = (
        insertion_curve(constant, x, ranking, 2).auc == 0.42
        and deletion_curve(constant, x, ranking, 2).auc == 0.42
        and grouped_curve(constant, x, np.eye(6), np.full(6, 1 / 6), "insertion").auc
        == 0.42
    )

    rng = np.random.default_rng(5)
    theta = rng.normal(size=5)
    model = lambda rows: (rows * theta).sum(axis=-1)  # noqa: E731
    xr = rng.normal(size=5)
    scores = rng.uniform(size=5)
    grouped = grouped_curve(model, xr, np.eye(5), scores, "insertion")
    single = insertion_curve(model, xr, np.argsort(-scores, kind="stable"), step=1)
    singleton_ok = (
        np.array_equal(grouped.fractions, single.fractions)
        and np.array_equal(grouped.probabilities, single.probabilities)
        and grouped.auc == single.auc
    )

    theta_int = np.array([1.0, 2.0, -3.0, 4.0, 2.0, -1.0])
    x_int = np.array([2.0, -1.0, 1.0, 3.0, 0.0, 5.0])
    alpha = theta_int * x_int
    linear = lambda rows: (rows * theta_int).sum(axis=-1)  # noqa: E731
    linear_ok = (
        total_powerset_error(linear, x_int, alpha, "deletion") == 0.0
        and total_powerset_error(linear, x_int, alpha, "insertion") == 0.0
    )
    ok = const_ok and singleton_ok and linear_ok
    assert report(
        9, "metric coherence",
        f"constant-model AUCs exact: {const_ok}; singleton grouped curve equals "
        f"step-1 insertion: {singleton_ok}; linear-model powerset errors zero: "
        f"{linear_ok}",
        ok,
    )


def test_criterion_10_structure_labeling():
    rng = np.random.default_rng(31)
    monotone = True
    for _ in range(100):
        imap = IntensityMap.from_array(rng.normal(size=(6, 6)))
        mask = (rng.uniform(size=36) > 0.8).astype(float)
        if not (mask > 0).any():
            mask[0] = 1.0
        _, (at3,) = label_groups(imap, [mask], 3.0)
        _, (at2,) = label_groups(imap, [mask], 2.0)
        if at3 == "cluster" and at2 != "cluster":
            monotone = False

    from sumparts.model import GroupedAttribution

    worst_mass_gap = 0.0
    for _ in range(20):
        imap = IntensityMap.from_array(rng.normal(size=(4, 5)))
        groups = (rng.uniform(size=(6, 20)) > 0.5).astype(float)
        groups[groups.sum(axis=1) == 0, 0] = 1.0
        scores = np.column_stack([sparsemax(rng.normal(size=6)) for _ in range(2)])
        logits = rng.normal(size=(6, 2))
        attribution = GroupedAttribution(
            groups=groups, scores=scores, partial_logits=logits,
            prediction=(scores * logits).sum(axis=0),
        )
        _, kinds = label_groups(imap, groups, 2.0)
        for masses in score_mass_by_label(kinds, attribution).values():
            worst_mass_gap = max(worst_mass_gap, abs(sum(masses.values()) - 1.0))
    ok = monotone and worst_mass_gap <= 1e-9
    assert report(
        10, "structure labeling",
        f"threshold monotonicity on 100 maps: {monotone}; "
        f"max |mass sum - 1| = {worst_mass_gap:.2e} (<=1e-9)",
        ok,
    )
