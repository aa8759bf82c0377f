"""Perturbation-based faithfulness metrics.

Covers per-feature and grouped deletion/insertion errors (pointwise and
summed over the full powerset), progressive insertion/deletion curves with
trapezoidal AUC, comprehensiveness/sufficiency, attribution sparsity, and
flattening of grouped attributions to per-feature scores.

Perturbation baseline throughout is zero-masking: a "removed" feature is
set to 0.  Group membership of a real-valued mask is its strict support
``mask > 0`` (sparsemax produces exact zeros, so the support is
well-defined).

Every probe is ``np.where(keep, x, 0.0)`` for one row of a boolean
keep-matrix.  The builders :func:`ranked_keep`, :func:`grouped_keep` and
:func:`rationale_keep` return the keep-matrices of the curves and of the
rationale metrics, and :meth:`PerturbationReport.from_curve` turns one
value per probe into a report.  One engine evaluates the keep matrices of
an input, in one model call on their distinct rows.  :func:`evaluate`
drives it with a batched model for every metric and class of one example,
as ``sumparts eval`` does per example; the per-vector functions reach it
through an adapter that calls a one-vector model once per probe.  The
subset errors, pointwise and over the powerset, here and in the lemma and
corollary checks of :mod:`sumparts.certificates`, have one definition:
``_subset_errors``, over a boolean subset matrix."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .ops import powerset_blocks

__all__ = [
    "PerturbationReport",
    "ranked_keep",
    "grouped_keep",
    "rationale_keep",
    "deletion_error",
    "insertion_error",
    "total_powerset_error",
    "grouped_deletion_error",
    "grouped_insertion_error",
    "insertion_curve",
    "deletion_curve",
    "grouped_curve",
    "comprehensiveness",
    "sufficiency",
    "evaluate",
    "sparsity",
    "flatten_grouped",
    "ranking_from_attribution",
]

POWERSET_LIMIT = 20
_CURVES = ("insertion", "deletion", "grouped_insertion", "grouped_deletion")
_METRICS = _CURVES + ("sparsity", "comprehensiveness", "sufficiency")


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
        if fractions.shape != probabilities.shape or fractions.ndim != 1:
            raise ValueError("fractions and probabilities must be matching vectors")
        if fractions.size < 2:
            raise ValueError("a curve needs at least two points")
        if fractions[0] < 0.0 or fractions[-1] > 1.0 or np.any(np.diff(fractions) <= 0):
            raise ValueError("fractions must be strictly increasing within [0, 1]")
        lo, hi = probabilities.min(), probabilities.max()
        if not (lo - 1e-12 <= self.auc <= hi + 1e-12):
            raise ValueError("AUC must lie within the curve's value range")
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "probabilities", probabilities)

    @classmethod
    def from_curve(cls, metric: str, fractions, values) -> "PerturbationReport":
        """Report of the curve through ``(fractions[i], values[i])``, with
        its mean-height AUC."""
        fractions = np.asarray(fractions, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        span = fractions[-1] - fractions[0]
        auc = float(np.trapezoid(values, fractions) / span)
        # the exact mean height lies in [min, max]; clamp away rounding dust so
        # a constant curve yields exactly the constant
        auc = min(max(auc, float(values.min())), float(values.max()))
        return cls(metric=metric, fractions=fractions, probabilities=values, auc=auc)


def _as_input(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty vector")
    return x


def _as_subset(subset, d: int) -> np.ndarray:
    idx = np.asarray(list(subset), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= d):
        raise ValueError(f"subset indices must lie in [0, {d})")
    if idx.size != np.unique(idx).size:
        raise ValueError("subset contains repeated indices")
    return idx


def _probe(model: Callable, x: np.ndarray, keeps: list) -> list[np.ndarray]:
    """One call of ``model``, which maps a (P, d) stack of probes to P
    results, for the probes ``np.where(keep, x, 0.0)`` of every matrix in
    ``keeps``; returns one array per matrix, its results in row order."""
    # x, the zero input, the rationale rows and the curve endpoints repeat
    # across keep matrices: evaluate each distinct row once.  A row's result
    # must not depend on the stack it comes in (``model.predict`` with an
    # identity backbone does not), so the gathered values are the per-row
    # ones bit for bit.  A lone matrix is evaluated as it is: a curve's rows
    # never repeat (the three rationale rows only for an empty or full
    # rationale), a powerset's rows never do, and deduplicating costs about
    # 30 us per example.  Each packed row is sorted as one opaque byte
    # string; np.unique(axis=0) sorts one field per byte and costs 4 to 7
    # times as much.
    keep = keeps[0] if len(keeps) == 1 else np.vstack(keeps)
    if keep.shape[1] != x.size:
        raise ValueError(f"keep masks have width {keep.shape[1]}, input has {x.size}")
    first = inverse = slice(None)
    if len(keeps) > 1:
        packed = np.packbits(keep, axis=-1)
        _, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                      return_index=True, return_inverse=True)
    values = np.asarray(model(np.where(keep[first], x, 0.0)), dtype=np.float64)[inverse]
    return [values[end - len(k):end] for k, end in zip(keeps, accumulate(map(len, keeps)))]


def _per_row(model: Callable) -> Callable:
    """A stack model over the one-vector ``model``: ``float(model(v))`` for
    each row v, in row order."""
    return lambda rows: np.array([float(model(v)) for v in rows])


def _subset_errors(model: Callable, x: np.ndarray, members: np.ndarray, supports,
                   scores, kind: str) -> np.ndarray:
    """Deletion or insertion error ``|change - credit|`` of each subset in
    the boolean (P, d) ``members``, under the stack ``model`` at ``x``.

    Deleting a subset changes the output by ``model(x) - model(x with the
    subset zeroed)``, inserting it by ``model(the subset on a zero
    baseline) - model(0)``.  The credit sums the scores of the groups of the
    boolean (G, d) ``supports`` that the subset hits (deletion) or covers
    (insertion); ``supports=None`` means one group per feature.  The
    subsets' probes reach ``model`` as one lone matrix, so a powerset is
    never deduplicated.
    """
    deletion = kind == "deletion"
    scores = np.asarray(scores, dtype=np.float64)
    if supports is not None and supports.shape[1] != x.size:
        raise ValueError(f"group masks have width {supports.shape[1]}, input has {x.size}")
    if scores.shape != (x.size if supports is None else len(supports),):
        raise ValueError(f"scores have shape {scores.shape}, expected one per group")
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


def _powerset_errors(model: Callable, x: np.ndarray, supports, scores, kind: str):
    """:func:`_subset_errors` of every subset of the features, one array
    per block of :func:`sumparts.ops.powerset_blocks` (binary counting, bit
    i = feature i), for d <= ``POWERSET_LIMIT``."""
    if x.size > POWERSET_LIMIT:
        raise ValueError(f"powerset enumeration capped at d={POWERSET_LIMIT}, got {x.size}")
    if kind not in ("deletion", "insertion"):
        raise ValueError(f"kind must be 'deletion' or 'insertion', got {kind!r}")
    for members in powerset_blocks(x.size):
        yield _subset_errors(model, x, members, supports, scores, kind)


def _subset_error(f: Callable, x, groups, scores, subset, kind: str) -> float:
    """:func:`_subset_errors` of one subset, given as indices, under the
    one-vector model ``f``; ``groups=None`` means one group per feature."""
    x = _as_input(x)
    members = np.zeros((1, x.size), dtype=bool)
    members[0, _as_subset(subset, x.size)] = True
    supports = (None if groups is None
                else np.atleast_2d(np.asarray(groups, dtype=np.float64)) > 0)
    return float(_subset_errors(_per_row(f), x, members, supports, scores, kind)[0])


def deletion_error(f: Callable, x, alpha, subset) -> float:
    """|f(x) - f(x with subset zeroed) - sum of alpha over subset|."""
    return _subset_error(f, x, None, alpha, subset, "deletion")


def insertion_error(f: Callable, x, alpha, subset) -> float:
    """|f(subset of x on a zero baseline) - f(0) - sum of alpha over subset|."""
    return _subset_error(f, x, None, alpha, subset, "insertion")


def total_powerset_error(f: Callable, x, alpha, kind: str) -> float:
    """Sum of the deletion or insertion error over every feature subset.

    Enumerates all 2^d subsets, so the dimension is capped at
    ``POWERSET_LIMIT``.  ``f(x)`` (deletion) or ``f(0)`` (insertion) is
    evaluated once per block of subsets, and each subset's attribution sum
    is a masked row sum.
    """
    return sum(float(errors.sum())
               for errors in _powerset_errors(_per_row(f), _as_input(x), None, alpha, kind))


def grouped_deletion_error(f: Callable, x, groups, scores, subset) -> float:
    """Grouped analogue of :func:`deletion_error`.

    A group contributes its score when the deletion removes any of its
    members, i.e. when the group's support intersects the deleted subset.
    """
    return _subset_error(f, x, groups, scores, subset, "deletion")


def grouped_insertion_error(f: Callable, x, groups, scores, subset) -> float:
    """Grouped analogue of :func:`insertion_error`.

    A group contributes its score once all of its members are inserted,
    i.e. when the group's support is a subset of the inserted features.
    """
    return _subset_error(f, x, groups, scores, subset, "insertion")


def ranking_from_attribution(alpha) -> np.ndarray:
    """Feature order by descending attribution, ties broken by index."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.argsort(-alpha, kind="stable")


def _directed(covered: np.ndarray, direction: str) -> np.ndarray:
    """Keep rows of a curve: the covered features when inserting, the rest
    when deleting."""
    if direction == "insertion":
        return covered
    if direction == "deletion":
        return ~covered
    raise ValueError(f"direction must be 'insertion' or 'deletion', got {direction!r}")


def ranked_keep(ranking, step: int, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Fractions and keep-masks of an insertion or deletion curve.

    Row i covers the first ``counts[i]`` features of ``ranking``, with
    counts 0, step, 2*step, ... and finally d.  Returns the covered
    fraction of each row and the (P, d) boolean keep matrix.
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
    return counts / d, _directed(rank < counts[:, None], direction)


def grouped_keep(groups, scores, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Fractions and keep-masks of a grouped curve, one group per step,
    highest score first.

    Row 0 covers nothing.  Each later row adds the support of the next
    group; features covered by an earlier group are skipped, and a group
    whose support adds nothing contributes no row.  The fraction counts
    covered features, so it ends below 1 when the groups do not cover the
    input.
    """
    supports = np.atleast_2d(np.asarray(groups, dtype=np.float64)) > 0
    scores = np.asarray(scores, dtype=np.float64)
    if supports.shape[0] == 0:
        raise ValueError("need at least one group")
    if scores.shape != (supports.shape[0],):
        raise ValueError("scores must hold one value per group")
    covered = [np.zeros(supports.shape[1], dtype=bool)]
    for g in np.argsort(-scores, kind="stable"):
        if (supports[g] & ~covered[-1]).any():
            covered.append(covered[-1] | supports[g])
    covered = np.array(covered)
    return covered.sum(axis=1) / covered.shape[1], _directed(covered, direction)


def rationale_keep(rationale) -> np.ndarray:
    """Keep-masks of the rationale probes, as a (3, d) boolean matrix: the
    full input, the input without the rationale, and the rationale alone."""
    r = _check_rationale(rationale, np.size(rationale)) > 0
    return np.array([np.ones_like(r), ~r, r])


def _curve(model: Callable, x, metric: str, fractions, keep) -> PerturbationReport:
    values = _probe(_per_row(model), _as_input(x), [keep])[0]
    return PerturbationReport.from_curve(metric, fractions, values)


def insertion_curve(model: Callable, x, ranking, step: int = 1) -> PerturbationReport:
    """Insert features onto a zero baseline in ranking order, ``step`` at a
    time, recording the model probability after every chunk."""
    return _curve(model, x, "insertion", *ranked_keep(ranking, step, "insertion"))


def deletion_curve(model: Callable, x, ranking, step: int = 1) -> PerturbationReport:
    """Delete features from the full input in ranking order; the x axis is
    the fraction deleted, so the curve starts at the unperturbed model."""
    return _curve(model, x, "deletion", *ranked_keep(ranking, step, "deletion"))


def grouped_curve(model: Callable, x, groups, scores,
                  direction: str) -> PerturbationReport:
    """Insert or delete one group per step, highest score first; the
    probes are the rows of :func:`grouped_keep`."""
    return _curve(model, x, f"grouped_{direction}",
                  *grouped_keep(groups, scores, direction))


def _check_rationale(rationale, d: int) -> np.ndarray:
    r = np.asarray(rationale, dtype=np.float64)
    if r.shape != (d,) or not np.all(np.isin(r, (0.0, 1.0))):
        raise ValueError("rationale must be a binary mask over the features")
    return r


def _rationale_drop(model: Callable, x, rationale, class_index: int, row: int) -> float:
    """Class probability at ``x`` minus that at row ``row`` of the
    rationale probes."""
    x = _as_input(x)

    def probability(v):
        probs = np.asarray(model(v), dtype=np.float64)
        if not 0 <= class_index < probs.size:
            raise ValueError(
                f"class index {class_index} out of range for {probs.size} classes")
        return probs[class_index]

    keep = rationale_keep(rationale)[[0, row]]
    full, probe = _probe(_per_row(probability), x, [keep])[0]
    return float(full - probe)


def comprehensiveness(model: Callable, x, rationale, class_index: int) -> float:
    """Probability drop when the rationale features are removed."""
    return _rationale_drop(model, x, rationale, class_index, 1)


def sufficiency(model: Callable, x, rationale, class_index: int) -> float:
    """Probability drop when only the rationale features are kept."""
    return _rationale_drop(model, x, rationale, class_index, 2)


def sparsity(groups, scores) -> float:
    """Mean fraction of active features over the positively scored groups.

    Lower is sparser.  Groups with score exactly 0 are excluded from the
    average.
    """
    groups = np.atleast_2d(np.asarray(groups, dtype=np.float64))
    scores = np.asarray(scores, dtype=np.float64)
    if groups.shape[0] == 0:
        raise ValueError("need at least one group")
    if scores.shape != (groups.shape[0],):
        raise ValueError("scores must hold one value per group")
    active = scores > 0
    if not active.any():
        raise ValueError("no group has positive score")
    member_fractions = (groups[active] > 0).mean(axis=1)
    return float(member_fractions.mean())


def evaluate(model: Callable, x, groups, scores, classes, metrics,
             step: int = 1) -> list[dict]:
    """Every requested metric of one example, for each class in ``classes``.

    ``model`` maps a (P, d) stack of probes to (P, K) class probabilities,
    row by row.  It is called once, on the distinct probe rows of all
    classes, or not at all when no metric needs a probe.  ``groups`` (G, d)
    and ``scores`` (G, K) attribute ``x``; class k ranks features by
    ``flatten_grouped(groups, scores[:, k])``, and its rationale is where
    that is positive.  Returns one dict per class: each requested curve of
    ``_CURVES`` as a report, then sparsity, comprehensiveness and
    sufficiency as floats, in this order whatever the order of ``metrics``.
    """
    x = _as_input(x)
    scores = np.asarray(scores, dtype=np.float64)
    unknown = [m for m in metrics if m not in _METRICS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; known: {list(_METRICS)}")
    if any(not 0 <= k < scores.shape[1] for k in classes):
        raise ValueError(f"class indices {classes} out of range for {scores.shape[1]} classes")
    rationale = "comprehensiveness" in metrics or "sufficiency" in metrics
    keeps, plans = [], []
    for k in classes:
        alpha = flatten_grouped(groups, scores[:, k])
        ranking = ranking_from_attribution(alpha)
        curves = {
            name: (ranked_keep(ranking, step, name) if name in ("insertion", "deletion")
                   else grouped_keep(groups, scores[:, k], name.removeprefix("grouped_")))
            for name in _CURVES if name in metrics}
        keeps.extend(keep for _, keep in curves.values())
        if rationale:
            keeps.append(rationale_keep(alpha > 0))
        plans.append((k, curves))
    values = iter(_probe(model, x, keeps) if keeps else ())

    results = []
    for k, curves in plans:
        result = {name: PerturbationReport.from_curve(name, fractions, next(values)[:, k])
                  for name, (fractions, _) in curves.items()}
        if "sparsity" in metrics:
            result["sparsity"] = sparsity(groups, scores[:, k])
        if rationale:
            full, without, only = next(values)[:, k].tolist()
            drops = {"comprehensiveness": full - without, "sufficiency": full - only}
            result.update((name, drops[name]) for name in drops if name in metrics)
        results.append(result)
    return results


def flatten_grouped(groups, scores) -> np.ndarray:
    """Weighted sum of group masks: per-feature attribution
    ``alpha = groups^T @ scores`` (per class when scores is a matrix)."""
    groups = np.atleast_2d(np.asarray(groups, dtype=np.float64))
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != groups.shape[0]:
        raise ValueError("scores must align with groups along the group axis")
    return groups.T @ scores
