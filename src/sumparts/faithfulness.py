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
value per probe into a report.  The per-vector functions below call the
model on one probe at a time, in row order; a caller holding a batched
model (``sumparts.model.predict``) can evaluate a whole keep-matrix in
one call instead.  ``sumparts eval`` makes one ``predict`` call per
example, on the distinct rows of all its classes' keep matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ops import powerset_blocks
from .serialize import write_csv_atomic, write_json_atomic

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
    "sparsity",
    "flatten_grouped",
    "ranking_from_attribution",
]

POWERSET_LIMIT = 20


@dataclass(frozen=True)
class PerturbationReport:
    """One perturbation curve: metric name, points, AUC, and metadata.

    ``fractions`` are strictly increasing in [0, 1]; ``auc`` is the mean
    curve height (trapezoid integral divided by the covered span), which
    keeps a constant model's AUC equal to the constant even when a grouped
    curve does not reach fraction 1.
    """

    metric: str
    fractions: np.ndarray
    probabilities: np.ndarray
    auc: float
    total_error: float | None = None
    metadata: dict = field(default_factory=dict)

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
    def from_curve(cls, metric: str, fractions, values,
                   metadata: dict | None = None) -> "PerturbationReport":
        """Report of the curve through ``(fractions[i], values[i])``, with
        its mean-height AUC."""
        fractions = np.asarray(fractions, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        span = fractions[-1] - fractions[0]
        auc = float(np.trapezoid(values, fractions) / span)
        # the exact mean height lies in [min, max]; clamp away rounding dust so
        # a constant curve yields exactly the constant
        auc = min(max(auc, float(values.min())), float(values.max()))
        return cls(metric=metric, fractions=fractions, probabilities=values, auc=auc,
                   metadata=metadata or {})

    def to_dict(self) -> dict:
        out = {
            "metric": self.metric,
            "points": [
                [float(f), float(p)]
                for f, p in zip(self.fractions, self.probabilities)
            ],
            "auc": float(self.auc),
            "metadata": dict(self.metadata),
        }
        if self.total_error is not None:
            out["total_error"] = float(self.total_error)
        return out

    def write_json(self, path) -> None:
        write_json_atomic(path, self.to_dict())

    def write_csv(self, path) -> None:
        rows = zip(self.fractions.tolist(), self.probabilities.tolist())
        write_csv_atomic(path, ["fraction", "probability"], rows)


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


def deletion_error(f: Callable, x, alpha, subset) -> float:
    """|f(x) - f(x with subset zeroed) - sum of alpha over subset|."""
    x = _as_input(x)
    alpha = np.asarray(alpha, dtype=np.float64)
    idx = _as_subset(subset, x.size)
    x_del = x.copy()
    x_del[idx] = 0.0
    return abs(float(f(x)) - float(f(x_del)) - float(alpha[idx].sum()))


def insertion_error(f: Callable, x, alpha, subset) -> float:
    """|f(subset of x on a zero baseline) - f(0) - sum of alpha over subset|."""
    x = _as_input(x)
    alpha = np.asarray(alpha, dtype=np.float64)
    idx = _as_subset(subset, x.size)
    x_ins = np.zeros_like(x)
    x_ins[idx] = x[idx]
    return abs(float(f(x_ins)) - float(f(np.zeros_like(x))) - float(alpha[idx].sum()))


def _probe_values(model: Callable, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``model`` at the probe ``np.where(keep[i], x, 0.0)`` of every keep
    row, in row order."""
    if keep.shape[1] != x.size:
        raise ValueError(f"keep masks have width {keep.shape[1]}, input has {x.size}")
    return np.array([float(model(probe)) for probe in np.where(keep, x, 0.0)])


def total_powerset_error(f: Callable, x, alpha, kind: str) -> float:
    """Sum of the deletion or insertion error over every feature subset.

    Enumerates all 2^d subsets (binary counting, bit i = feature i), so the
    dimension is capped at ``POWERSET_LIMIT``.  ``f(x)`` (deletion) or
    ``f(0)`` (insertion) is evaluated once, and each subset's attribution
    sum is a masked row sum.
    """
    x = _as_input(x)
    if x.size > POWERSET_LIMIT:
        raise ValueError(
            f"powerset enumeration capped at d={POWERSET_LIMIT}, got {x.size}"
        )
    if kind not in ("deletion", "insertion"):
        raise ValueError(f"kind must be 'deletion' or 'insertion', got {kind!r}")
    alpha = np.asarray(alpha, dtype=np.float64)
    deletion = kind == "deletion"
    reference = float(f(x if deletion else np.zeros_like(x)))
    total = 0.0
    for subsets in powerset_blocks(x.size):
        values = _probe_values(f, x, ~subsets if deletion else subsets)
        change = reference - values if deletion else values - reference
        total += float(np.abs(change - np.where(subsets, alpha, 0.0).sum(axis=1)).sum())
    return total


def _group_supports(groups, d: int) -> np.ndarray:
    groups = np.atleast_2d(np.asarray(groups, dtype=np.float64))
    if groups.shape[1] != d:
        raise ValueError(f"group masks have width {groups.shape[1]}, input has {d}")
    return groups > 0


def grouped_deletion_error(f: Callable, x, groups, scores, subset) -> float:
    """Grouped analogue of :func:`deletion_error`.

    A group contributes its score when the deletion removes any of its
    members, i.e. when the group's support intersects the deleted subset.
    """
    x = _as_input(x)
    idx = _as_subset(subset, x.size)
    supports = _group_supports(groups, x.size)
    scores = np.asarray(scores, dtype=np.float64)
    deleted = np.zeros(x.size, dtype=bool)
    deleted[idx] = True
    hit = (supports & deleted).any(axis=1)
    x_del = x.copy()
    x_del[idx] = 0.0
    return abs(float(f(x)) - float(f(x_del)) - float(scores[hit].sum()))


def grouped_insertion_error(f: Callable, x, groups, scores, subset) -> float:
    """Grouped analogue of :func:`insertion_error`.

    A group contributes its score once all of its members are inserted,
    i.e. when the group's support is a subset of the inserted features.
    """
    x = _as_input(x)
    idx = _as_subset(subset, x.size)
    supports = _group_supports(groups, x.size)
    scores = np.asarray(scores, dtype=np.float64)
    inserted = np.zeros(x.size, dtype=bool)
    inserted[idx] = True
    covered = (supports <= inserted).all(axis=1)
    x_ins = np.zeros_like(x)
    x_ins[idx] = x[idx]
    return abs(
        float(f(x_ins)) - float(f(np.zeros_like(x))) - float(scores[covered].sum())
    )


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


def insertion_curve(model: Callable, x, ranking, step: int = 1,
                    metadata: dict | None = None) -> PerturbationReport:
    """Insert features onto a zero baseline in ranking order, ``step`` at a
    time, recording the model probability after every chunk."""
    x = _as_input(x)
    fractions, keep = ranked_keep(ranking, step, "insertion")
    return PerturbationReport.from_curve(
        "insertion", fractions, _probe_values(model, x, keep), metadata
    )


def deletion_curve(model: Callable, x, ranking, step: int = 1,
                   metadata: dict | None = None) -> PerturbationReport:
    """Delete features from the full input in ranking order; the x axis is
    the fraction deleted, so the curve starts at the unperturbed model."""
    x = _as_input(x)
    fractions, keep = ranked_keep(ranking, step, "deletion")
    return PerturbationReport.from_curve(
        "deletion", fractions, _probe_values(model, x, keep), metadata
    )


def grouped_curve(model: Callable, x, groups, scores, direction: str,
                  metadata: dict | None = None) -> PerturbationReport:
    """Insert or delete one group per step, highest score first; the
    probes are the rows of :func:`grouped_keep`."""
    x = _as_input(x)
    fractions, keep = grouped_keep(groups, scores, direction)
    return PerturbationReport.from_curve(
        f"grouped_{direction}", fractions, _probe_values(model, x, keep), metadata
    )


def _check_rationale(rationale, d: int) -> np.ndarray:
    r = np.asarray(rationale, dtype=np.float64)
    if r.shape != (d,) or not np.all(np.isin(r, (0.0, 1.0))):
        raise ValueError("rationale must be a binary mask over the features")
    return r


def _class_probability(model: Callable, x: np.ndarray, class_index: int) -> float:
    probs = np.asarray(model(x), dtype=np.float64)
    if not 0 <= class_index < probs.size:
        raise ValueError(f"class index {class_index} out of range for {probs.size} classes")
    return float(probs[class_index])


def _rationale_drop(model: Callable, x, rationale, class_index: int, row: int) -> float:
    """Class probability at ``x`` minus that at row ``row`` of the
    rationale probes."""
    x = _as_input(x)
    full, probe = _probe_values(
        lambda v: _class_probability(model, v, class_index), x,
        rationale_keep(rationale)[[0, row]],
    )
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


def flatten_grouped(groups, scores) -> np.ndarray:
    """Weighted sum of group masks: per-feature attribution
    ``alpha = groups^T @ scores`` (per class when scores is a matrix)."""
    groups = np.atleast_2d(np.asarray(groups, dtype=np.float64))
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != groups.shape[0]:
        raise ValueError("scores must align with groups along the group axis")
    return groups.T @ scores
