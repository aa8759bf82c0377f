"""Computational certificates of per-feature attribution error lower bounds.

For a monomial (product of all features) the best possible total deletion
error over the whole powerset, and for a three-part binomial the best
possible total insertion error, are each the optimum of an L1-minimization
problem over attributions.  The objective is convex and symmetric under
permutations of the features (within each part, for the binomial), so
some optimum is constant on each part.  Each family has one exact route,
a scan in integer and rational arithmetic.  The monomial optimum has one
unknown, the common attribution, and lies at a kink of its objective.
The binomial optimum has two, one for the outer parts and one for the
shared part, and lies at a crossing of two of its objective's kink lines.
The lemma and the zero-error grouped constructions of the corollary are
verified on the whole powerset, for d up to ``faithfulness.POWERSET_LIMIT``
(20), by the subset-error engine of :mod:`sumparts.faithfulness`, with a
polynomial's term supports as the groups, and exponential growth curves
are fitted to the minima.

No family solves an LP, so nothing here imports scipy.  :func:`linprog`
imports ``scipy.optimize.linprog`` if it is called; the library never
calls it, and the tests' LP oracles solve through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .faithfulness import _powerset_errors

__all__ = [
    "PolynomialSpec",
    "ExponentialFit",
    "monomial_scan_minimum",
    "binomial_scan_minimum",
    "min_deletion_error_monomial",
    "min_insertion_error_binomial",
    "verify_lemma_monomial_insertion",
    "verify_corollary_grouped",
    "fit_exponential",
]

SCAN_DIMENSION_LIMIT = 20
BINOMIAL_DIMENSION_LIMIT = 30


@dataclass(frozen=True)
class PolynomialSpec:
    """A monomial ``prod_i x_i`` or a binomial
    ``prod_{S1 u S2} x_i + prod_{S2 u S3} x_j`` over equal thirds S1, S2, S3
    of the features by index."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind == "monomial":
            if self.d < 1:
                raise ValueError("monomial dimension must be >= 1")
        elif self.kind == "binomial":
            if self.d < 3 or self.d % 3 != 0:
                raise ValueError("binomial dimension must be a positive multiple of 3")
        else:
            raise ValueError(f"kind must be 'monomial' or 'binomial', got {self.kind!r}")

    @classmethod
    def monomial(cls, d: int) -> "PolynomialSpec":
        return cls(kind="monomial", d=d)

    @classmethod
    def binomial(cls, d: int) -> "PolynomialSpec":
        return cls(kind="binomial", d=d)

    @property
    def supports(self) -> np.ndarray:
        """Boolean (terms, d) matrix whose row t marks the features of
        term t."""
        if self.kind == "monomial":
            return np.ones((1, self.d), dtype=bool)
        third, features = self.d // 3, np.arange(self.d)
        return np.array([features < 2 * third, features >= third])

    def evaluate(self, x) -> float | np.ndarray:
        """Value at one input of length d (a float), or at every row of a
        (P, d) stack (a length-P array)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"input must have length {self.d}")
        if self.kind == "monomial":
            value = np.prod(x, axis=-1)
        else:
            first, last = self.supports
            value = np.prod(x[..., first], axis=-1) + np.prod(x[..., last], axis=-1)
        return float(value) if x.ndim == 1 else value


def linprog(c, A_ub=None, b_ub=None, bounds=None, method="highs"):
    """``scipy.optimize.linprog``, imported on the first call.

    No certificate route calls it; the tests' LP oracles do.  It stays a
    module-level function that takes ``A_ub`` by name, because the
    benchmark's tracer rebinds it to time each solve and reads ``A_ub``
    for the program's size."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)


def monomial_scan_minimum(d: int) -> float:
    """Exact minimum total deletion error for a monomial via the symmetric
    one-dimensional reduction.

    The objective is convex and permutation-symmetric, so a uniform
    attribution ``alpha = a * ones`` attains the optimum; the reduced
    objective ``sum_{k>=1} C(d,k) |1 - k a|`` is piecewise linear in ``a``
    with kinks at ``a = 1/q``, so scanning the kinks (plus 0) is exact.  At
    ``a = 1/q`` the objective is the integer ``sum_k C(d,k) |q - k|`` over
    ``q``, and at ``a = 0`` it is ``2^d - 1``; the least of these
    fractions is returned as the correctly rounded float.
    """
    if not 1 <= d <= SCAN_DIMENSION_LIMIT:
        raise ValueError(f"scan supports 1 <= d <= {SCAN_DIMENSION_LIMIT}, got {d}")
    return float(min(
        [Fraction(2 ** d - 1)]
        + [Fraction(sum(comb(d, k) * abs(q - k) for k in range(1, d + 1)), q)
           for q in range(1, d + 1)]
    ))


def _binomial_scan(d: int) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Exact minimum of the equal-thirds binomial's insertion program and a
    minimiser ``(a1, a2)``: the common attribution of the outer parts and
    that of the shared part.

    With parts of size m, a subset with part sizes (k1, k2, k3) has weight
    C(m,k1) C(m,k2) C(m,k3), attribution sum ``k . a`` and target
    ``1[k1 = k2 = m] + 1[k2 = k3 = m]``.  The objective is convex and
    symmetric under swapping the outer parts, so some optimum has
    ``a3 = a1``; there the rows merge on ``(k1 + k3, k2, target)``.  The
    merged objective is piecewise linear in two unknowns and coercive (the
    rows (1, 0) and (0, 1) are present), so it attains its minimum at a
    crossing of two non-parallel rows ``c_i . a = t_i``.  Each crossing is
    ``a = p / D`` by Cramer's rule, with objective ``N / D`` where
    ``N = sum_r w_r |t_r D - c_r . p|``, all in integers.
    """
    m = d // 3
    merged: dict[tuple[int, int, int], int] = {}
    for k1, k2, k3 in itertools.product(range(m + 1), repeat=3):
        key = (k1 + k3, k2, int(k1 == k2 == m) + int(k2 == k3 == m))
        merged[key] = merged.get(key, 0) + comb(m, k1) * comb(m, k2) * comb(m, k3)
    s, k, t, w = np.array([(*key, weight) for key, weight in merged.items()],
                          dtype=np.int64).T
    i, j = np.triu_indices(s.size, 1)
    crossings = np.column_stack([
        t[i] * k[j] - k[i] * t[j],
        s[i] * t[j] - t[i] * s[j],
        s[i] * k[j] - k[i] * s[j],
    ])
    crossings = crossings[crossings[:, 2] != 0]
    # one row per distinct point: p1, p2 and D > 0 in lowest terms
    crossings *= np.sign(crossings[:, 2:])
    crossings //= np.gcd.reduce(crossings, axis=1, keepdims=True)
    crossings = np.unique(crossings, axis=0)
    # |D| <= 4m^2, |p1| <= 4m and |p2| <= 8m, so each |t D - c . p| is at
    # most 24 m^2 and N at most 24 m^2 2^d (the weights sum to 8^m): about
    # 2.6e12 at d = 30, far inside int64
    totals = np.abs(crossings @ np.stack([-s, -k, t])) @ w
    best = min(range(totals.size),
               key=lambda n: Fraction(int(totals[n]), int(crossings[n, 2])))
    p1, p2, q = map(int, crossings[best])
    return Fraction(int(totals[best]), q), (Fraction(p1, q), Fraction(p2, q))


def binomial_scan_minimum(d: int) -> float:
    """Exact minimum total insertion error for the equal-thirds binomial,
    by an integer scan of the vertices of its two-unknown symmetric
    reduction, as the correctly rounded float, for
    d <= ``BINOMIAL_DIMENSION_LIMIT``."""
    PolynomialSpec.binomial(d)
    if d > BINOMIAL_DIMENSION_LIMIT:
        raise ValueError(
            f"binomial certificates are capped at d={BINOMIAL_DIMENSION_LIMIT}, got {d}"
        )
    return float(_binomial_scan(d)[0])


def min_deletion_error_monomial(d: int) -> float:
    """Least total powerset deletion error for the d-variable monomial, by
    the exact scan, for 2 <= d <= ``SCAN_DIMENSION_LIMIT``."""
    if d < 2:
        raise ValueError("monomial certificates start at d=2")
    return monomial_scan_minimum(d)


def min_insertion_error_binomial(d: int) -> float:
    """Least total powerset insertion error for the equal-thirds binomial,
    by the exact scan, for d <= ``BINOMIAL_DIMENSION_LIMIT``."""
    return binomial_scan_minimum(d)


def verify_lemma_monomial_insertion(d: int, x=None) -> float:
    """Total powerset insertion error of the zero attribution on a monomial.

    At the all-ones input only the full subset errs (by exactly 1); at any
    input with a zero feature every subset has zero model output, so the
    total is 0.  Evaluated exhaustively, for d <= 20, by the subset errors
    that define :func:`sumparts.faithfulness.insertion_error`; the zero
    attribution credits no group.
    """
    spec = PolynomialSpec.monomial(d)
    x = np.ones(d) if x is None else np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"input must have length {d}, got shape {x.shape}")
    # no groups: zero scores per feature would cost a (P, d) masked sum
    no_groups = np.zeros((0, d), dtype=bool)
    return sum(float(errors.sum()) for errors in
               _powerset_errors(spec.evaluate, x, no_groups, np.zeros(0), "insertion"))


def verify_corollary_grouped(spec: PolynomialSpec) -> tuple[float, float]:
    """Exhaustive grouped-error maxima for the zero-error constructions.

    The groups are the polynomial's term supports, each with score 1: for a
    monomial the single group of all features, for a binomial each
    product's support.  They are evaluated against every subset of the
    powerset at the all-ones input, by the subset errors that define
    :func:`sumparts.faithfulness.grouped_deletion_error` and
    :func:`sumparts.faithfulness.grouped_insertion_error`.
    Returns ``(max grouped deletion error, max grouped insertion error)``,
    both expected to be exactly 0, for d <= 20.
    """
    x, supports = np.ones(spec.d), spec.supports
    scores = np.ones(supports.shape[0])
    max_del, max_ins = (
        max(float(errors.max()) for errors in
            _powerset_errors(spec.evaluate, x, supports, scores, kind))
        for kind in ("deletion", "insertion"))
    return max_del, max_ins


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of ``value = exp(slope * d + intercept) + offset``."""

    slope: float
    intercept: float
    offset: float
    relative_abs_error: float

    def __post_init__(self):
        if self.relative_abs_error < 0:
            raise ValueError("fit error cannot be negative")

    def predict(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        return np.exp(self.slope * d + self.intercept) + self.offset


def _log_linear_fit(ds: np.ndarray, values: np.ndarray, offset: float) -> ExponentialFit:
    shifted = values - offset
    slope, intercept = np.polyfit(ds, np.log(shifted), 1)
    fitted = np.exp(slope * ds + intercept) + offset
    rae = float(np.mean(np.abs(fitted - values) / np.abs(values)))
    return ExponentialFit(
        slope=float(slope), intercept=float(intercept), offset=offset,
        relative_abs_error=rae,
    )


def fit_exponential(points: Sequence[tuple[float, float]],
                    with_offset: bool = False) -> ExponentialFit:
    """Fit an exponential of the dimension to (d, value) points.

    Least squares on ``(d, log(value - offset))``; with ``with_offset`` the
    additive offset is grid-searched over [0, min value) at resolution 0.01
    and the first grid point with the smallest relative absolute error wins.
    """
    ds = np.array([p[0] for p in points], dtype=np.float64)
    values = np.array([p[1] for p in points], dtype=np.float64)
    if np.unique(ds).size < 3:
        raise ValueError("need points at three or more distinct dimensions to fit")
    if not with_offset:
        if values.min() <= 0:
            raise ValueError("values must be positive for a log-linear fit")
        return _log_linear_fit(ds, values, 0.0)
    offsets = np.arange(0.0, values.min(), 0.01)
    if offsets.size == 0:
        raise ValueError("values must exceed at least one offset candidate")
    # closed-form least squares at every offset at once; it differs from
    # polyfit by rounding only, so the offsets within 1e-12 of the least
    # error are refitted with polyfit, and the first least one in grid
    # order wins, as one polyfit per offset would pick
    logs = np.log(values - offsets[:, None])
    centred = ds - ds.mean()
    slopes = logs @ centred / (centred @ centred)
    intercepts = logs.mean(axis=1) - slopes * ds.mean()
    fitted = np.exp(slopes[:, None] * ds + intercepts[:, None]) + offsets[:, None]
    errors = np.mean(np.abs(fitted - values) / np.abs(values), axis=1)
    near = np.isclose(errors, errors.min(), rtol=1e-12, atol=1e-12)
    return min((_log_linear_fit(ds, values, float(offset)) for offset in offsets[near]),
               key=lambda fit: fit.relative_abs_error)
