"""Perturbation-based faithfulness metrics.

Covers per-feature and grouped deletion/insertion errors (per subset and
summed over the full powerset), progressive insertion/deletion curves with
trapezoidal AUC, comprehensiveness/sufficiency, attribution sparsity, and
flattening of grouped attributions to per-feature scores.

Perturbation baseline throughout is zero-masking: a "removed" feature is
set to 0.  Group membership of a real-valued mask is its strict support
``mask > 0`` (sparsemax produces exact zeros, so the support is
well-defined).

Every model here is a stack model: it maps a (P, d) array of probes to a
(P,) array of values, or to (P, K) class probabilities for
:func:`comprehensiveness`, :func:`sufficiency` and
:func:`evaluate_examples`, row by row.  Every probe is
``np.where(keep, x, 0.0)`` for one row of a boolean keep-matrix.  The
builders :func:`ranked_coverage` and :func:`grouped_coverage` return the
features each row of a curve covers, which insertion keeps and deletion
zeroes; :func:`rationale_keep` returns the rationale metrics' keep rows,
and :meth:`PerturbationReport.from_curve` turns one value per probe into
a report.  One engine evaluates the keep matrices of
one or more inputs, in one model call on each input's distinct rows;
:func:`evaluate_examples` drives it for every metric and class of many
examples at once, as ``sumparts eval`` does for all of its examples.  The
subset errors, per subset and over the powerset, here and in the lemma and
corollary checks of :mod:`sumparts.certificates`, have one definition:
:func:`subset_errors`, over a boolean subset matrix."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .ops import powerset_blocks

__all__ = [
    "PerturbationReport",
    "ranked_coverage",
    "grouped_coverage",
    "rationale_keep",
    "subset_errors",
    "total_powerset_error",
    "insertion_curve",
    "deletion_curve",
    "grouped_curve",
    "comprehensiveness",
    "sufficiency",
    "evaluate_examples",
    "METRICS",
    "sparsity",
    "flatten_grouped",
    "ranking_from_attribution",
]

POWERSET_LIMIT = 20
_CURVES = ("insertion", "deletion", "grouped_insertion", "grouped_deletion")
_RATIONALE = ("comprehensiveness", "sufficiency")
METRICS = _CURVES + ("sparsity",) + _RATIONALE


@dataclass(frozen=True)
class PerturbationReport:
    """One perturbation curve: metric name, points and AUC.

    ``fractions`` are strictly increasing in [0, 1]; ``auc`` is the mean
    curve height (trapezoid integral divided by the covered span), which
    keeps a constant model's AUC equal to the constant even when a grouped
    curve does not reach fraction 1.
    """

    metric: str
    fractions: np.ndarray
    probabilities: np.ndarray
    auc: float

    def __post_init__(self):
        fractions = np.asarray(self.fractions, dtype=np.float64)
        probabilities = np.asarray(self.probabilities, dtype=np.float64)
        _check_curves(fractions, probabilities[None])
        _check_aucs(probabilities.min(), probabilities.max(), self.auc)
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "probabilities", probabilities)

    @classmethod
    def from_curve(cls, metric: str, fractions, values) -> "PerturbationReport":
        """Report of the curve through ``(fractions[i], values[i])``, with
        its mean-height AUC."""
        return cls.from_curves([metric], fractions, np.asarray(values, dtype=np.float64)[None])[0]

    @classmethod
    def from_curves(cls, metrics, fractions, values) -> list["PerturbationReport"]:
        """Reports of curves through the same ``fractions``, one per metric
        name and row of the (n, P) ``values``, with the AUCs of all rows
        from one trapezoid pass.  Each row's AUC equals its
        :meth:`from_curve` AUC bit for bit, and the checks of the reports
        run once for the whole batch."""
        fractions = np.asarray(fractions, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != len(metrics):
            raise ValueError("values must hold one curve row per metric")
        _check_curves(fractions, values)
        lo, hi = values.min(axis=1), values.max(axis=1)
        # the exact mean height lies in [min, max]; clamp away rounding dust so
        # a constant curve yields exactly the constant
        aucs = np.minimum(np.maximum(
            np.trapezoid(values, fractions, axis=-1) / (fractions[-1] - fractions[0]), lo), hi)
        _check_aucs(lo, hi, aucs)
        reports = []
        for metric, row, auc in zip(metrics, values, aucs.tolist()):
            # fields set as the dataclass __init__ sets them, the checks above done
            report = object.__new__(cls)
            for name, value in (("metric", metric), ("fractions", fractions),
                                ("probabilities", row), ("auc", auc)):
                object.__setattr__(report, name, value)
            reports.append(report)
        return reports


def _check_curves(fractions: np.ndarray, values: np.ndarray) -> None:
    """Each row of the (n, P) ``values`` a curve of finite values through
    ``fractions``: at least two points, strictly increasing within [0, 1].
    Each test is written to pass, so that NaN fails it."""
    if fractions.ndim != 1 or values.shape[1:] != fractions.shape:
        raise ValueError("fractions and probabilities must be matching vectors")
    if fractions.size < 2:
        raise ValueError("a curve needs at least two points")
    if not (fractions[0] >= 0.0 and fractions[-1] <= 1.0 and np.all(np.diff(fractions) > 0)):
        raise ValueError("fractions must be strictly increasing within [0, 1]")
    if not np.all(np.isfinite(values)):
        raise ValueError("curve values must be finite")


def _check_aucs(lo, hi, aucs) -> None:
    """Each AUC within its curve's value range [lo, hi]."""
    if not np.all((lo - 1e-12 <= aucs) & (aucs <= hi + 1e-12)):
        raise ValueError("AUC must lie within the curve's value range")


def _as_input(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty vector")
    return x


def _probe(model: Callable, x: np.ndarray, keeps: list) -> list[np.ndarray]:
    """:func:`_probe_examples` of the one input ``x``: one array per matrix
    of ``keeps``."""
    return _probe_examples(model, [x], [keeps])[0]


def _probe_examples(model: Callable, inputs, keeps) -> list[list[np.ndarray]]:
    """One call of ``model``, which maps a (P, d) stack of probes to P
    results, for the probes ``np.where(keep, x, 0.0)`` of every matrix in
    ``keeps[i]`` at ``x = inputs[i]``, for every i; returns, for each input,
    one array per matrix, its results in row order."""
    # x, the zero input, the rationale rows and the curve endpoints repeat
    # across the keep matrices of an input: evaluate each distinct row of an
    # input once.  A row's result must not depend on the stack it comes in
    # (``model.predict`` with an identity backbone does not), so the gathered
    # values are the per-row ones bit for bit.  A lone matrix is evaluated
    # as it is: a curve's rows never repeat (the three rationale rows only
    # for an empty or full rationale), a powerset's rows never do, and
    # deduplicating costs about 30 us per input.  Each packed row is sorted
    # as one opaque byte string; np.unique(axis=0) sorts one field per byte
    # and costs 4 to 7 times as much.
    probes, gathers = [], []
    for x, matrices in zip(inputs, keeps):
        keep = matrices[0] if len(matrices) == 1 else np.vstack(matrices)
        if keep.shape[1] != x.size:
            raise ValueError(f"keep masks have width {keep.shape[1]}, input has {x.size}")
        first = inverse = slice(None)
        if len(matrices) > 1:
            packed = np.packbits(keep, axis=-1)
            _, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                          return_index=True, return_inverse=True)
        probes.append(np.where(keep[first], x, 0.0))
        gathers.append((inverse, matrices))
    values = np.asarray(model(probes[0] if len(probes) == 1 else np.vstack(probes)),
                        dtype=np.float64)
    results = []
    ends = list(accumulate(map(len, probes)))
    for rows, (inverse, matrices) in zip(np.split(values, ends[:-1]), gathers):
        rows = rows[inverse]
        results.append([rows[end - len(k):end]
                        for k, end in zip(matrices, accumulate(map(len, matrices)))])
    return results


def subset_errors(model: Callable, x, members, groups, scores, kind: str) -> np.ndarray:
    """Deletion or insertion error ``|change - credit|`` of each subset in
    the boolean (P, d) ``members``, under the stack ``model`` at ``x``.

    Deleting a subset changes the output by ``model(x) - model(x with the
    subset zeroed)``, inserting it by ``model(the subset on a zero
    baseline) - model(0)``.  The credit sums the scores of the groups that
    the subset hits (deletion) or covers (insertion); a group is the
    support ``> 0`` of one row of the (G, d) ``groups``, and
    ``groups=None`` means one group per feature.  ``model`` is called
    twice: on the reference row, and on the subsets' probes as one lone
    matrix, so a powerset is never deduplicated.
    """
    if kind not in ("deletion", "insertion"):
        raise ValueError(f"kind must be 'deletion' or 'insertion', got {kind!r}")
    x = _as_input(x)
    members = np.asarray(members)
    if members.dtype != bool or members.ndim != 2:
        raise ValueError("members must be a boolean (P, d) matrix")
    supports = None if groups is None else np.atleast_2d(np.asarray(groups)) > 0
    if supports is not None and supports.shape[1] != x.size:
        raise ValueError(f"group masks have width {supports.shape[1]}, input has {x.size}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (x.size if supports is None else len(supports),):
        raise ValueError(f"scores have shape {scores.shape}, expected one per group")
    deletion = kind == "deletion"
    reference = _probe(model, x, [np.full((1, x.size), deletion)])[0][0]
    values = _probe(model, x, [~members if deletion else members])[0]
    change = reference - values if deletion else values - reference
    if supports is None:
        credited = members
    elif deletion:
        credited = members @ supports.T
    else:
        credited = ~(~members @ supports.T)
    return np.abs(change - np.where(credited, scores, 0.0).sum(axis=1))


def _powerset_errors(model: Callable, x: np.ndarray, groups, scores, kinds: tuple):
    """:func:`subset_errors` of every subset of the features, as one array
    per kind of ``kinds`` for each block of :func:`sumparts.ops.powerset_blocks`
    (binary counting, bit i = feature i), for d <= ``POWERSET_LIMIT``."""
    if x.size > POWERSET_LIMIT:
        raise ValueError(f"powerset enumeration capped at d={POWERSET_LIMIT}, got {x.size}")
    for members in powerset_blocks(x.size):
        yield tuple(subset_errors(model, x, members, groups, scores, kind) for kind in kinds)


def total_powerset_error(f: Callable, x, alpha, kind: str) -> float:
    """Sum of the deletion or insertion error over every feature subset.

    Enumerates all 2^d subsets, so the dimension is capped at
    ``POWERSET_LIMIT``.  ``f(x)`` (deletion) or ``f(0)`` (insertion) is
    evaluated once per block of subsets, and each subset's attribution sum
    is a masked row sum.
    """
    return sum(float(errors.sum())
               for (errors,) in _powerset_errors(f, _as_input(x), None, alpha, (kind,)))


def ranking_from_attribution(alpha) -> np.ndarray:
    """Feature order by descending attribution, ties broken by index."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.isfinite(alpha).all():
        raise ValueError("attribution must be finite")
    return np.argsort(-alpha, kind="stable")


def _keep(metric: str, covered: np.ndarray) -> np.ndarray:
    """Keep rows of a curve of ``metric``, whose rows cover ``covered``:
    the covered features when inserting, the rest when deleting."""
    direction = metric.removeprefix("grouped_")
    if direction == "insertion":
        return covered
    if direction == "deletion":
        return ~covered
    raise ValueError(f"direction must be 'insertion' or 'deletion', got {direction!r}")


def ranked_coverage(ranking, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Fractions and covered features of the rows of a ranked curve.

    Row i covers the first ``counts[i]`` features of ``ranking``, with
    counts 0, step, 2*step, ... and finally d.  Returns the covered
    fraction of each row and the (P, d) boolean coverage matrix.
    """
    ranking = np.asarray(ranking, dtype=np.int64)
    d = ranking.size
    if ranking.ndim != 1 or d == 0 or not np.array_equal(np.sort(ranking), np.arange(d)):
        raise ValueError("ranking must be a non-empty permutation of 0 .. d-1")
    if step < 1:
        raise ValueError("step must be >= 1")
    counts = np.array(list(range(0, d, step)) + [d])
    rank = np.empty(d, dtype=np.int64)
    rank[ranking] = np.arange(d)
    return counts / d, rank < counts[:, None]


def _check_groups(groups, scores) -> tuple[np.ndarray, np.ndarray]:
    """Float (G, d) group masks and (G,) scores, at least one group, every
    entry finite."""
    groups = np.atleast_2d(np.asarray(groups, dtype=np.float64))
    scores = np.asarray(scores, dtype=np.float64)
    if groups.shape[0] == 0:
        raise ValueError("need at least one group")
    if scores.shape != (groups.shape[0],):
        raise ValueError("scores must hold one value per group")
    if not np.isfinite(groups).all():
        raise ValueError("group masks must be finite")
    if not np.isfinite(scores).all():
        raise ValueError("group scores must be finite")
    return groups, scores


def grouped_coverage(groups, scores) -> tuple[np.ndarray, np.ndarray]:
    """Fractions and covered features of the rows of a grouped curve, one
    group per step, highest score first.

    Row 0 covers nothing.  Each later row adds the support of the next
    group; features covered by an earlier group are skipped, and a group
    whose support adds nothing contributes no row.  The fraction counts
    covered features, so it ends below 1 when the groups do not cover the
    input.
    """
    groups, scores = _check_groups(groups, scores)
    supports = groups > 0
    # the coverage after each group, highest score first; a row is kept
    # where the coverage grows
    cumulative = np.logical_or.accumulate(supports[np.argsort(-scores, kind="stable")])
    counts = np.count_nonzero(cumulative, axis=1)
    grows = np.diff(counts, prepend=0) > 0
    covered = np.vstack([np.zeros((1, supports.shape[1]), dtype=bool), cumulative[grows]])
    return np.append(0, counts[grows]) / supports.shape[1], covered


def rationale_keep(rationale) -> np.ndarray:
    """Keep-masks of the rationale probes, as a (3, d) boolean matrix: the
    full input, the input without the rationale, and the rationale alone."""
    r = np.asarray(rationale, dtype=np.float64)
    if r.ndim != 1 or not np.all(np.isin(r, (0.0, 1.0))):
        raise ValueError("rationale must be a binary mask over the features")
    r = r > 0
    return np.array([np.ones_like(r), ~r, r])


def _curve(model: Callable, x, metric: str, fractions, covered) -> PerturbationReport:
    keep = _keep(metric, covered)
    values = _probe(model, _as_input(x), [keep])[0]
    return PerturbationReport.from_curve(metric, fractions, values)


def insertion_curve(model: Callable, x, ranking, step: int = 1) -> PerturbationReport:
    """Insert features onto a zero baseline in ranking order, ``step`` at a
    time, recording the model probability after every chunk."""
    return _curve(model, x, "insertion", *ranked_coverage(ranking, step))


def deletion_curve(model: Callable, x, ranking, step: int = 1) -> PerturbationReport:
    """Delete features from the full input in ranking order; the x axis is
    the fraction deleted, so the curve starts at the unperturbed model."""
    return _curve(model, x, "deletion", *ranked_coverage(ranking, step))


def grouped_curve(model: Callable, x, groups, scores,
                  direction: str) -> PerturbationReport:
    """Insert or delete one group per step, highest score first; the
    probes cover the rows of :func:`grouped_coverage`."""
    return _curve(model, x, f"grouped_{direction}", *grouped_coverage(groups, scores))


def _rationale_metrics(values: np.ndarray, class_index: int) -> tuple[float, float]:
    """Class ``class_index``'s (comprehensiveness, sufficiency) from the
    (3, K) values of the :func:`rationale_keep` probes: the value at the
    full input minus that without the rationale, and minus that of the
    rationale alone."""
    if values.ndim != 2:
        raise ValueError(f"model must give (P, K) class probabilities, got shape {values.shape}")
    if not 0 <= class_index < values.shape[1]:
        raise ValueError(
            f"class index {class_index} out of range for {values.shape[1]} classes")
    full, without, only = values[:, class_index].tolist()
    return full - without, full - only


def _rationale_probe(model: Callable, x, rationale, class_index: int) -> tuple[float, float]:
    keep = rationale_keep(rationale)
    return _rationale_metrics(_probe(model, _as_input(x), [keep])[0], class_index)


def comprehensiveness(model: Callable, x, rationale, class_index: int) -> float:
    """Probability drop when the rationale features are removed."""
    return _rationale_probe(model, x, rationale, class_index)[0]


def sufficiency(model: Callable, x, rationale, class_index: int) -> float:
    """Probability drop when only the rationale features are kept."""
    return _rationale_probe(model, x, rationale, class_index)[1]


def sparsity(groups, scores) -> float:
    """Mean fraction of active features over the positively scored groups.

    Lower is sparser.  Groups with score exactly 0 are excluded from the
    average.
    """
    groups, scores = _check_groups(groups, scores)
    active = scores > 0
    if not active.any():
        raise ValueError("no group has positive score")
    member_fractions = (groups[active] > 0).mean(axis=1)
    return float(member_fractions.mean())


def _example_plan(groups, scores, classes, metrics, step: int):
    """The keep matrices of one example's metrics, in probe order, and for
    each class ``(k, curves)``: each requested pair of curves that shares a
    coverage, as ``(names, fractions)``, one keep matrix per name."""
    scores = np.asarray(scores, dtype=np.float64)
    if any(not 0 <= k < scores.shape[1] for k in classes):
        raise ValueError(f"class indices {classes} out of range for {scores.shape[1]} classes")
    keeps, plans = [], []
    for k in classes:
        alpha = flatten_grouped(groups, scores[:, k])
        curves = []
        # each coverage is built once, for both of its curves
        for names, coverage in (
                (_CURVES[:2], lambda: ranked_coverage(ranking_from_attribution(alpha), step)),
                (_CURVES[2:], lambda: grouped_coverage(groups, scores[:, k]))):
            names = [name for name in names if name in metrics]
            if names:
                fractions, covered = coverage()
                keeps.extend(_keep(name, covered) for name in names)
                curves.append((names, fractions))
        if "comprehensiveness" in metrics or "sufficiency" in metrics:
            keeps.append(rationale_keep(alpha > 0))
        plans.append((k, curves))
    return keeps, plans


def evaluate_examples(model: Callable, inputs, groups, scores, classes, metrics,
                      step: int = 1) -> list[list[dict]]:
    """Every requested metric of each example ``inputs[n]``, for each class
    in ``classes``: one list of per-class dicts per example, in order.

    ``model`` maps a (P, d) stack of probes to (P, K) class probabilities,
    row by row.  It is called once, on the distinct probe rows of each
    example, stacked in example order, or not at all when no metric needs a
    probe.  That stack holds, summed over the examples, each example's
    number of distinct probe rows times d float64s.  ``groups[n]`` (G, d)
    and ``scores[n]`` (G, K) attribute ``inputs[n]``; class k ranks
    features by ``flatten_grouped(groups[n], scores[n][:, k])``, and its
    rationale is where that is positive.  Each dict holds each requested
    curve of ``_CURVES`` as a report, then sparsity, comprehensiveness and
    sufficiency as floats, in this order whatever the order of
    ``metrics``.  The reports of all curves with the same fractions, such
    as every ranked curve of one width, come from one
    :meth:`PerturbationReport.from_curves` batch.
    """
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; known: {list(METRICS)}")
    if not len(inputs) == len(groups) == len(scores):
        raise ValueError(f"need one groups and one scores array per input, got "
                         f"{len(inputs)} inputs, {len(groups)} and {len(scores)}")
    plans = [_example_plan(g, s, classes, metrics, step) for g, s in zip(groups, scores)]
    keeps = [keeps for keeps, _ in plans]
    values = (_probe_examples(model, [_as_input(x) for x in inputs], keeps) if any(keeps)
              else keeps)
    results = []
    # the curves of every example and class, by their fractions' bytes: the
    # fractions and each curve's (dict, metric name, values)
    batches: dict[bytes, tuple[np.ndarray, list]] = {}
    for (_, plan), example_groups, example_scores, example_values in zip(
            plans, groups, scores, values):
        example_values = iter(example_values)
        results.append([])
        for k, curves in plan:
            result = {}
            for names, fractions in curves:
                curves_here = batches.setdefault(fractions.tobytes(), (fractions, []))[1]
                for name in names:
                    result[name] = None
                    curves_here.append((result, name, next(example_values)[:, k]))
            if "sparsity" in metrics:
                result["sparsity"] = sparsity(example_groups, np.asarray(example_scores)[:, k])
            if "comprehensiveness" in metrics or "sufficiency" in metrics:
                drops = _rationale_metrics(next(example_values), k)
                result.update((name, drop) for name, drop in zip(_RATIONALE, drops)
                              if name in metrics)
            results[-1].append(result)
    for fractions, batch in batches.values():
        reports = PerturbationReport.from_curves([name for _, name, _ in batch], fractions,
                                                 np.vstack([row for _, _, row in batch]))
        for (result, name, _), report in zip(batch, reports):
            result[name] = report
    return results


def flatten_grouped(groups, scores) -> np.ndarray:
    """Weighted sum of group masks: per-feature attribution
    ``alpha = groups^T @ scores`` (per class when scores is a matrix)."""
    groups = np.atleast_2d(np.asarray(groups, dtype=np.float64))
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != groups.shape[0]:
        raise ValueError("scores must align with groups along the group axis")
    # checked before the product, where an infinity times 0 would warn
    if not (np.isfinite(groups).all() and np.isfinite(scores).all()):
        raise ValueError("group masks and scores must be finite")
    return groups.T @ scores
