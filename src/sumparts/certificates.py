"""Computational certificates of per-feature attribution error lower bounds.

For a monomial (product of all features) the best possible total deletion
error over the whole powerset, and for a three-part binomial the best
possible total insertion error, are each the optimum of an L1-minimization
problem over attributions.  Both optima have closed forms:
``C(d, d // 2) - 1`` for the monomial, and for the binomial 2 at d = 3 and
``2^(d/3 + 1)`` from d = 6 on.  Each is attained by an attribution that is
constant on each part and proven optimal by a symmetric solution of the
dual LP (LP duality; Schrijver 1986, *Theory of Linear and Integer
Programming*).  The exact integer and rational scans that found them,
and the orbit and full-powerset LPs, check them as oracles in
``tests/conftest.py``.  The lemma and the zero-error grouped
constructions of the corollary are verified on the whole powerset, for d
up to ``faithfulness.POWERSET_LIMIT`` (20), by the subset-error engine of
:mod:`sumparts.faithfulness`, with a polynomial's term supports as the
groups, and exponential growth curves are fitted to the minima.

No family solves an LP, so nothing here imports scipy.  :func:`linprog`
imports ``scipy.optimize.linprog`` if it is called; the library never
calls it, and the tests' LP oracles solve through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .faithfulness import _powerset_errors

__all__ = [
    "PolynomialSpec",
    "ExponentialFit",
    "monomial_scan_minimum",
    "binomial_scan_minimum",
    "verify_lemma_monomial_insertion",
    "verify_corollary_grouped",
    "fit_exponential",
]

SCAN_DIMENSION_LIMIT = 60
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
    """Exact minimum total deletion error for a monomial, ``C(d, d // 2) - 1``.

    The uniform attribution ``1 / ceil(d/2)`` attains it, and the symmetric
    dual of the LP (+1 on the subsets smaller than ``ceil(d/2)``, -1 on the
    larger ones) proves that none does better.  The tests check it at every
    d up to ``SCAN_DIMENSION_LIMIT`` against the kink scan
    ``monomial_fraction_scan``, and up to d = 20 against the orbit LP.
    """
    if not 1 <= d <= SCAN_DIMENSION_LIMIT:
        raise ValueError(f"scan supports 1 <= d <= {SCAN_DIMENSION_LIMIT}, got {d}")
    return float(comb(d, d // 2) - 1)


def binomial_scan_minimum(d: int) -> float:
    """Exact minimum total insertion error for the equal-thirds binomial:
    2 at d = 3 and ``2^(d/3 + 1)`` from d = 6 on, for
    d <= ``BINOMIAL_DIMENSION_LIMIT``.

    From d = 6 on the zero attribution attains it, and a symmetric dual of
    the LP proves that none does better; at d = 3 the attribution 1 on the
    shared feature alone attains 2.  The tests check it at every d up to
    the cap against the vertex scan ``binomial_vertex_scan``, and up to
    d = 15 against the orbit LP.
    """
    PolynomialSpec.binomial(d)
    if d > BINOMIAL_DIMENSION_LIMIT:
        raise ValueError(
            f"binomial certificates are capped at d={BINOMIAL_DIMENSION_LIMIT}, got {d}"
        )
    return 2.0 if d == 3 else float(2 ** (d // 3 + 1))


def verify_lemma_monomial_insertion(d: int, x=None) -> float:
    """Total powerset insertion error of the zero attribution on a monomial.

    At the all-ones input only the full subset errs (by exactly 1); at any
    input with a zero feature every subset has zero model output, so the
    total is 0.  Evaluated exhaustively, for d <= 20, by
    :func:`sumparts.faithfulness.subset_errors`; the zero attribution
    credits no group.
    """
    spec = PolynomialSpec.monomial(d)
    x = np.ones(d) if x is None else np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"input must have length {d}, got shape {x.shape}")
    # no groups: zero scores per feature would cost a (P, d) masked sum
    no_groups = np.zeros((0, d), dtype=bool)
    return sum(float(errors.sum()) for (errors,) in
               _powerset_errors(spec.evaluate, x, no_groups, np.zeros(0), ("insertion",)))


def verify_corollary_grouped(spec: PolynomialSpec) -> tuple[float, float]:
    """Exhaustive grouped-error maxima for the zero-error constructions.

    The groups are the polynomial's term supports, each with score 1: for a
    monomial the single group of all features, for a binomial each
    product's support.  They are evaluated against every subset of the
    powerset at the all-ones input, both kinds in one walk, by
    :func:`sumparts.faithfulness.subset_errors`.
    Returns ``(max grouped deletion error, max grouped insertion error)``,
    both expected to be exactly 0, for d <= 20.
    """
    x, supports = np.ones(spec.d), spec.supports
    scores = np.ones(supports.shape[0])
    maxima = [(deletion.max(), insertion.max()) for deletion, insertion in
              _powerset_errors(spec.evaluate, x, supports, scores, ("deletion", "insertion"))]
    return tuple(float(value) for value in np.max(maxima, axis=0))


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of ``value = exp(slope * d + intercept) + offset``."""

    slope: float
    intercept: float
    offset: float
    relative_abs_error: float

    def __post_init__(self):
        # written to pass, so that NaN fails it
        if not self.relative_abs_error >= 0:
            raise ValueError(f"fit error must be at least 0, got {self.relative_abs_error}")

    def predict(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        return np.exp(self.slope * d + self.intercept) + self.offset


def fit_exponential(points: Sequence[tuple[float, float]],
                    with_offset: bool = False) -> ExponentialFit:
    """Fit an exponential of the dimension to (d, value) points.

    Closed-form least squares on ``(d, log(value - offset))`` at every
    candidate offset at once: 0, or with ``with_offset`` the grid over
    [0, min value) in steps of 0.01.  The first offset with the least
    relative absolute error wins.
    """
    ds = np.array([p[0] for p in points], dtype=np.float64)
    values = np.array([p[1] for p in points], dtype=np.float64)
    if not (np.isfinite(ds).all() and np.isfinite(values).all()):
        raise ValueError("points must have a finite dimension and value")
    # np.unique would import numpy.ma (15 ms, 1.6 MB), which certify needs nowhere else
    if np.count_nonzero(np.diff(np.sort(ds)) > 0) < 2:
        raise ValueError("need points at three or more distinct dimensions to fit")
    if not with_offset and values.min() <= 0:
        raise ValueError("values must be positive for a log-linear fit")
    offsets = np.arange(0.0, values.min(), 0.01) if with_offset else np.zeros(1)
    if offsets.size == 0:
        raise ValueError("values must exceed at least one offset candidate")
    logs = np.log(values - offsets[:, None])
    centred = ds - ds.mean()
    slopes = logs @ centred / (centred @ centred)
    intercepts = logs.mean(axis=1) - slopes * ds.mean()
    fitted = np.exp(slopes[:, None] * ds + intercepts[:, None]) + offsets[:, None]
    errors = np.mean(np.abs(fitted - values) / np.abs(values), axis=1)
    best = np.argmin(errors)
    return ExponentialFit(slope=float(slopes[best]), intercept=float(intercepts[best]),
                          offset=float(offsets[best]), relative_abs_error=float(errors[best]))
