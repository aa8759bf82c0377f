"""Computational certificates of per-feature attribution error lower bounds.

For a monomial (product of all features) the best possible total deletion
error over the whole powerset, and for a three-part binomial the best
possible total insertion error, are each the optimum of an L1-minimization
problem over attributions.  The objective is convex and symmetric under
permutations of the features (within each part, for the binomial), so
some optimum is constant on each part and the program reduces to one
weighted row per orbit of subsets: subset sizes for the monomial, size
triples for the binomial.  These orbit programs are solved by HiGHS and
every optimum is proven in exact rational arithmetic from the solver's
primal and dual solutions; the monomial family is also cross-checked
against an exact scan.  The full-powerset programs (:func:`build_program`,
:func:`solve_l1`) are kept as the independent oracle for the orbit route.
The zero-error grouped constructions are verified on the whole powerset
in vectorised blocks, and exponential growth curves are fitted to the
minima.

scipy is used only to build and solve the LPs, and is imported on the
first solve: :func:`linprog` imports ``scipy.optimize.linprog`` on its
first call and the LP build imports ``scipy.sparse``.  Importing this
module therefore does not load scipy, and neither do the CLI's ``train``,
``eval`` and ``label`` commands, which start about 0.6 s sooner for it
(2-vCPU x86_64 host, scipy 1.17.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .ops import powerset_blocks, powerset_matrix

__all__ = [
    "PolynomialSpec",
    "L1Program",
    "ExponentialFit",
    "build_program",
    "solve_l1",
    "monomial_scan_minimum",
    "min_deletion_error_monomial",
    "min_insertion_error_binomial",
    "verify_lemma_monomial_insertion",
    "verify_corollary_grouped",
    "fit_exponential",
]

LP_DIMENSION_LIMIT = 15
SCAN_DIMENSION_LIMIT = 20
GROUPED_DIMENSION_LIMIT = 12
SCAN_AGREEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class PolynomialSpec:
    """A monomial ``prod_i x_i`` or a binomial
    ``prod_{S1 u S2} x_i + prod_{S2 u S3} x_j`` over equal parts."""

    kind: str
    d: int
    partition: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        if self.kind == "monomial":
            if self.d < 1:
                raise ValueError("monomial dimension must be >= 1")
            if self.partition is not None:
                raise ValueError("monomials carry no partition")
        elif self.kind == "binomial":
            if self.d < 3 or self.d % 3 != 0:
                raise ValueError("binomial dimension must be a positive multiple of 3")
            if self.partition is None:
                raise ValueError("binomials need a three-part partition")
            parts = tuple(tuple(sorted(p)) for p in self.partition)
            sizes = {len(p) for p in parts}
            flat = sorted(i for p in parts for i in p)
            if sizes != {self.d // 3} or flat != list(range(self.d)):
                raise ValueError(
                    "partition must split all features into three equal parts"
                )
            object.__setattr__(self, "partition", parts)
        else:
            raise ValueError(f"kind must be 'monomial' or 'binomial', got {self.kind!r}")

    @classmethod
    def monomial(cls, d: int) -> "PolynomialSpec":
        return cls(kind="monomial", d=d)

    @classmethod
    def binomial(cls, d: int) -> "PolynomialSpec":
        """Equal thirds by feature index."""
        m = d // 3
        return cls(
            kind="binomial",
            d=d,
            partition=(
                tuple(range(m)),
                tuple(range(m, 2 * m)),
                tuple(range(2 * m, 3 * m)),
            ),
        )

    def evaluate(self, x) -> float | np.ndarray:
        """Value at one input of length d (a float), or at every row of a
        (P, d) stack (a length-P array)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"input must have length {self.d}")
        if self.kind == "monomial":
            value = np.prod(x, axis=-1)
        else:
            s1, s2, s3 = self.partition
            value = (np.prod(x[..., list(s1 + s2)], axis=-1)
                     + np.prod(x[..., list(s2 + s3)], axis=-1))
        return float(value) if x.ndim == 1 else value


@dataclass(frozen=True)
class L1Program:
    """0/1 membership rows with one target per row.

    Programs produced by :func:`build_program` enumerate the full powerset
    (row i is subset i under binary counting with bit j = feature j), but
    the solver accepts any 0/1 system.
    """

    coefficients: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        coefficients = np.asarray(self.coefficients, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if coefficients.ndim != 2 or targets.shape != (coefficients.shape[0],):
            raise ValueError("coefficient rows must align with targets")
        if not np.all(np.isin(coefficients, (0.0, 1.0))):
            raise ValueError("coefficient entries must be 0 or 1")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "targets", targets)

    @property
    def d(self) -> int:
        return self.coefficients.shape[1]


def build_program(spec: PolynomialSpec, kind: str) -> L1Program:
    """L1 program whose optimum is the least total deletion or insertion
    error any per-feature attribution can achieve on ``spec``.

    Targets are the exact output changes at the all-ones input: for
    deletion ``f(1) - f(1 with S zeroed)``, for insertion
    ``f(S kept) - f(0)``.  A monomial's deletion target is therefore 1 for
    every non-empty subset and 0 for the empty one; a binomial's insertion
    target is ``1[S1 u S2 in S] + 1[S2 u S3 in S]``.
    """
    if kind not in ("deletion", "insertion"):
        raise ValueError(f"kind must be 'deletion' or 'insertion', got {kind!r}")
    if spec.d > LP_DIMENSION_LIMIT:
        raise ValueError(
            f"powerset programs are capped at d={LP_DIMENSION_LIMIT}, got {spec.d}"
        )
    members = powerset_matrix(spec.d)
    if kind == "deletion":
        targets = spec.evaluate(np.ones(spec.d)) - spec.evaluate(~members)
    else:
        targets = spec.evaluate(members)
    return L1Program(coefficients=members, targets=targets)


def linprog(c, A_ub=None, b_ub=None, bounds=None, method="highs"):
    """``scipy.optimize.linprog``, imported on the first call.

    A module-level function that takes ``A_ub`` by name, because the
    benchmark's tracer rebinds it to time each solve and reads ``A_ub``
    for the program's size."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)


def _solve_weighted_l1(counts, targets, weights):
    """Minimize ``sum_r weights_r |targets_r - counts_r @ alpha|`` over alpha.

    Uses the standard lift with one slack per row (``t >= residual``,
    ``t >= -residual``, minimize ``weights @ t``) solved by HiGHS.  Returns
    the minimizer, the optimum and the row multipliers ``u`` of the dual
    (maximize ``targets @ u`` subject to ``counts.T @ u = 0`` and
    ``|u| <= weights``).
    """
    from scipy import sparse

    M = sparse.csr_matrix(counts)
    n, d = M.shape
    eye = sparse.identity(n, format="csr")
    a_ub = sparse.vstack(
        [sparse.hstack([M, -eye]), sparse.hstack([-M, -eye])], format="csr"
    )
    b_ub = np.concatenate([targets, -targets])
    objective = np.concatenate([np.zeros(d), weights])
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * d + [(0, None)] * n,
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(
            f"LP solve failed with status {result.status}: {result.message}"
        )
    # HiGHS reports d(optimum)/d(b_ub) <= 0 for each lifted row; a residual
    # row's multiplier is its upper row's minus its lower row's
    marginals = result.ineqlin.marginals
    return result.x[:d], float(result.fun), marginals[:n] - marginals[n:]


def solve_l1(program: L1Program) -> tuple[np.ndarray, float]:
    """Minimize ``sum |targets - coefficients @ alpha|`` over alpha.

    Solves the program as given, one unit-weight row per subset; the
    certificate functions use the orbit programs instead and keep this
    full-powerset route as their test oracle.  Returns the minimizer and
    the optimum.
    """
    alpha, value, _ = _solve_weighted_l1(
        program.coefficients, program.targets, np.ones(program.targets.size)
    )
    return alpha, value


def _monomial_orbits(d: int):
    """Deletion program of the d-variable monomial on subset sizes k:
    weight C(d,k), count k, target 1[k > 0]."""
    sizes = range(d + 1)
    return ([[k] for k in sizes], [int(k > 0) for k in sizes],
            [comb(d, k) for k in sizes])


def _binomial_orbits(m: int):
    """Insertion program of the equal-thirds binomial with parts of size m
    on the triples (k1, k2, k3) of a subset's part sizes: weight
    C(m,k1) C(m,k2) C(m,k3), counts (k1, k2, k3), target
    1[k1 = k2 = m] + 1[k2 = k3 = m]."""
    triples = list(itertools.product(range(m + 1), repeat=3))
    targets = [int(k1 == k2 == m) + int(k2 == k3 == m) for k1, k2, k3 in triples]
    weights = [comb(m, k1) * comb(m, k2) * comb(m, k3) for k1, k2, k3 in triples]
    return [list(t) for t in triples], targets, weights


def _certified_optimum(d: int, counts, targets, weights) -> float:
    """Optimum of an integer orbit program, proven in exact arithmetic.

    The solver's primal ``a`` and row multipliers ``u`` are rationalised;
    ``u`` must be dual feasible (``|u_r| <= w_r`` and
    ``sum_r u_r c_r = 0``) with dual objective ``sum_r t_r u_r`` equal to
    the primal objective ``sum_r w_r |t_r - c_r . a|``.  Spreading each
    ``u_r`` evenly over its orbit's subsets certifies the full-powerset
    program as well, so the value is its optimum too.
    """
    a, _, u = _solve_weighted_l1(
        np.array(counts, dtype=np.float64),
        np.array(targets, dtype=np.float64),
        np.array(weights, dtype=np.float64),
    )
    a = [Fraction(v).limit_denominator() for v in a]
    u = [Fraction(v).limit_denominator() for v in u]
    primal = sum(
        w * abs(t - sum(c * v for c, v in zip(row, a)))
        for row, t, w in zip(counts, targets, weights)
    )
    dual = sum(t * y for t, y in zip(targets, u))
    feasible = all(abs(y) <= w for y, w in zip(u, weights)) and all(
        sum(y * c for y, c in zip(u, column)) == 0 for column in zip(*counts)
    )
    if not feasible or primal != dual:
        raise RuntimeError(
            f"no exact primal/dual certificate at d={d}: primal {primal}, "
            f"dual {dual}, dual feasible {feasible}"
        )
    return float(primal)


def monomial_scan_minimum(d: int) -> float:
    """Exact minimum total deletion error for a monomial via the symmetric
    one-dimensional reduction.

    The objective is convex and permutation-symmetric, so a uniform
    attribution ``alpha = a * ones`` attains the optimum; the reduced
    objective ``sum_k C(d,k) |1 - k a|`` is piecewise linear in ``a`` with
    kinks at ``a = 1/k``, so scanning the kinks (plus 0) is exact.  The
    scan runs in rational arithmetic and returns the correctly rounded
    float.
    """
    if not 1 <= d <= SCAN_DIMENSION_LIMIT:
        raise ValueError(f"scan supports 1 <= d <= {SCAN_DIMENSION_LIMIT}, got {d}")
    candidates = [Fraction(0)] + [Fraction(1, k) for k in range(1, d + 1)]
    return float(min(
        sum(comb(d, k) * abs(1 - k * a) for k in range(1, d + 1))
        for a in candidates
    ))


def min_deletion_error_monomial(d: int) -> float:
    """Least total powerset deletion error for the d-variable monomial.

    Certified on the d + 1 subset-size orbits and cross-checked against
    the exact scan, for 2 <= d <= ``SCAN_DIMENSION_LIMIT``.
    """
    if d < 2:
        raise ValueError("monomial certificates start at d=2")
    scan = monomial_scan_minimum(d)
    value = _certified_optimum(d, *_monomial_orbits(d))
    if abs(value - scan) > SCAN_AGREEMENT_RTOL * max(1.0, scan):
        raise RuntimeError(
            f"LP optimum {value} disagrees with the symmetric scan {scan} at d={d}"
        )
    return value


def min_insertion_error_binomial(d: int) -> float:
    """Least total powerset insertion error for the equal-thirds binomial,
    certified on the (d/3 + 1)^3 part-size orbits, for
    d <= ``LP_DIMENSION_LIMIT``."""
    spec = PolynomialSpec.binomial(d)
    if d > LP_DIMENSION_LIMIT:
        raise ValueError(
            f"binomial certificates are capped at d={LP_DIMENSION_LIMIT}, got {d}"
        )
    return _certified_optimum(d, *_binomial_orbits(spec.d // 3))


def _masked_sum(masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row sums of ``values`` over each boolean mask row.

    Not a matrix product: BLAS would run the large blocks on worker threads
    that keep spinning after the call returns.
    """
    return np.where(masks, values, 0.0).sum(axis=1)


def verify_lemma_monomial_insertion(d: int, x=None) -> float:
    """Total powerset insertion error of the zero attribution on a monomial.

    At the all-ones input only the full subset errs (by exactly 1); at any
    input with a zero feature every subset has zero model output, so the
    total is 0.  Evaluated exhaustively, with the definition of
    :func:`sumparts.faithfulness.insertion_error` applied to every subset.
    """
    if not 1 <= d <= SCAN_DIMENSION_LIMIT:
        raise ValueError(f"supported range is 1 <= d <= {SCAN_DIMENSION_LIMIT}, got {d}")
    spec = PolynomialSpec.monomial(d)
    x = np.ones(d) if x is None else np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ValueError(f"input must have length {d}, got shape {x.shape}")
    alpha = np.zeros(d)
    baseline = spec.evaluate(np.zeros(d))
    total = 0.0
    for masks in powerset_blocks(d):
        inserted = spec.evaluate(np.where(masks, x, 0.0))
        total += float(np.abs(inserted - baseline - _masked_sum(masks, alpha)).sum())
    return total


def verify_corollary_grouped(spec: PolynomialSpec) -> tuple[float, float]:
    """Exhaustive grouped-error maxima for the zero-error constructions.

    For a monomial the single group (all features, score 1) and for a
    binomial the two groups (each product's support, score 1 each) are
    evaluated against every subset of the powerset at the all-ones input,
    with the definitions of :func:`sumparts.faithfulness.grouped_deletion_error`
    and :func:`sumparts.faithfulness.grouped_insertion_error`.
    Returns ``(max grouped deletion error, max grouped insertion error)``,
    both expected to be exactly 0.
    """
    if spec.d > GROUPED_DIMENSION_LIMIT:
        raise ValueError(
            f"grouped verification is capped at d={GROUPED_DIMENSION_LIMIT}, got {spec.d}"
        )
    if spec.kind == "monomial":
        supports = np.ones((1, spec.d), dtype=bool)
    else:
        s1, s2, s3 = spec.partition
        supports = np.zeros((2, spec.d), dtype=bool)
        supports[0, list(s1 + s2)] = True
        supports[1, list(s2 + s3)] = True
    scores = np.ones(supports.shape[0])
    x = np.ones(spec.d)
    full = spec.evaluate(x)
    baseline = spec.evaluate(np.zeros(spec.d))
    max_del = 0.0
    max_ins = 0.0
    for masks in powerset_blocks(spec.d):
        # boolean products: a group is hit when its support meets the
        # deleted subset, covered when no member lies outside the inserted one
        hit = masks @ supports.T
        covered = ~(~masks @ supports.T)
        deleted = spec.evaluate(np.where(masks, 0.0, x))
        inserted = spec.evaluate(np.where(masks, x, 0.0))
        max_del = max(
            max_del, float(np.abs(full - deleted - _masked_sum(hit, scores)).max())
        )
        max_ins = max(
            max_ins,
            float(np.abs(inserted - baseline - _masked_sum(covered, scores)).max()),
        )
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
    and the grid point with the smallest relative absolute error wins.
    """
    if len(points) < 3:
        raise ValueError("need at least three points to fit")
    ds = np.array([p[0] for p in points], dtype=np.float64)
    values = np.array([p[1] for p in points], dtype=np.float64)
    if not with_offset:
        if values.min() <= 0:
            raise ValueError("values must be positive for a log-linear fit")
        return _log_linear_fit(ds, values, 0.0)
    best: ExponentialFit | None = None
    for offset in np.arange(0.0, values.min(), 0.01):
        candidate = _log_linear_fit(ds, values, float(offset))
        if best is None or candidate.relative_abs_error < best.relative_abs_error:
            best = candidate
    if best is None:
        raise ValueError("values must exceed at least one offset candidate")
    return best
