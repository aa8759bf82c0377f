"""Shared oracles and fixtures.

The projection oracles here are deliberately independent of the
library's own algorithms: the simplex projection is solved by enumerating
support sets of the underlying quadratic program, and training fixtures
are plain numpy constructions.  The row oracles (``sparsemax_row``,
``sparsemax_vjp_row``, ``softmax_row``) are the library's earlier
one-vector-at-a-time ops, kept to check the last-axis versions against.
The LP oracles (``build_program``, ``solve_l1``, ``monomial_orbits``,
``binomial_orbits``, ``certified_optimum``) are the certificate routes
the library replaced by exact scans: the full-powerset program and both
families' orbit programs, solved by HiGHS and proven by an exact
primal/dual check.  ``monomial_fraction_scan`` and
``binomial_vertex_scan`` are the exact scans the library replaced by
closed forms, and ``fit_exponential_grid_loop`` is the earlier offset
grid search, one ``log_linear_polyfit`` per offset.  The pointwise error
oracles (``deletion_error_oracle``, ``insertion_error_oracle`` and their
grouped forms) are the library's earlier subset errors, each probe built
by hand and passed to the model as one vector, kept to check ``faithfulness.subset_errors`` and the
certificate verifiers against.  ``shapley_values`` gives the exact
Shapley attribution and ``occlusion_values`` the leave-one-out occlusion,
the per-feature baselines the certificates are set against.
``pack_gradients`` flattens ``loss_and_gradients``' gradients for the
finite-difference checks.  ``label_group_oracle`` is the library's earlier one-group
structure label, the map's sigma and the group's mean intensity
recomputed for every group, kept to check ``label_groups`` against.
``grouped_keep_loop`` is the library's earlier grouped curve builder, one
group at a time, kept to check the cumulative-OR ``grouped_coverage``
against.
``embed``, ``embed_vjp``, ``embed_groups`` and ``select_groups`` are the
model's earlier stacked path, which embedded every masked input through the
backbone and scored the (G, h) group embeddings, kept to check the
segment-space forward and backward passes against; a backbone there is
either a ``LinearBackbone`` or, as in the model, its classifier matrix,
whose embedding is the input itself.  ``linear_backbone`` builds the linear
embedding the model dropped, and ``identity_twin`` the identity-backbone
selector that folds onto the input as one over that embedding does.
``round_floats_oracle`` is the earlier per-item float rounding of
``serialize``.
``finite_diff_grad`` (a central-difference gradient), ``powerset_matrix``
(the whole (2^d, d) powerset, which ``ops.powerset_blocks`` yields in
blocks), and ``pack_params``/``unpack_params`` (every trainable parameter in
one vector, for the finite-difference checks) are test helpers.
``eval_oracle`` is the earlier ``eval``: one ``sop_forward`` per example and
per probe, one curve at a time, each report from ``report_from_curve_oracle``
(the earlier one-curve AUC, a 1-D trapezoid clamped in Python floats), and
``curves.csv`` from ``csv_text_per_row``, the earlier writer that formats
one row tuple at a time; they check the stacked ``eval`` path.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np
from hypothesis import strategies as st

from sumparts import certificates, faithfulness
from sumparts.certificates import ExponentialFit, PolynomialSpec
from sumparts.cli import _load_dataset, _restore_checkpoint
from sumparts.structures import INTENSITY_EPS
from sumparts.model import (
    GroupGenParams,
    GroupSelectParams,
    identity_backbone,
    sop_forward,
)
from sumparts.ops import softmax, sparsemax
from sumparts.serialize import _FLOAT_FORMAT, format_float, write_json_atomic


# entries drawn from a few repeated values make ties in both sparsemax blocks
TIED_ENTRY = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                       st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))


def brute_force_simplex_projection(v):
    """Exact Euclidean projection onto the simplex by support enumeration.

    For every non-empty candidate support Q the face-restricted minimizer
    is ``v_Q + (1 - sum(v_Q)) / |Q|`` (zero elsewhere); the feasible
    candidate closest to ``v`` is the projection.  Exponential in the
    length, intended for length <= 3.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    best, best_dist = None, np.inf
    for bits in range(1, 1 << n):
        support = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        p = np.zeros(n)
        p[support] = v[support] + (1.0 - v[support].sum()) / support.sum()
        if p.min() < -1e-12:
            continue
        dist = float(((p - v) ** 2).sum())
        if dist < best_dist:
            best, best_dist = np.clip(p, 0.0, None), dist
    return best


def grid_simplex_projection(v, resolution=400):
    """Coarse grid minimizer of ||p - v||^2 over the simplex (length 2 or 3)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 2:
        a = np.linspace(0.0, 1.0, resolution + 1)
        pts = np.column_stack([a, 1.0 - a])
    elif v.size == 3:
        a = np.linspace(0.0, 1.0, resolution + 1)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        keep = aa + bb <= 1.0 + 1e-12
        pts = np.column_stack([aa[keep], bb[keep], 1.0 - aa[keep] - bb[keep]])
    else:
        raise ValueError("grid oracle supports length 2 or 3")
    dists = ((pts - v) ** 2).sum(axis=1)
    return pts[np.argmin(dists)]


def projection_boundary_margin(v):
    """Distance of ``v`` from the nearest support-change boundary of the
    simplex projection: min over coordinates of |v_i - tau|."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    k = int(np.count_nonzero(u - cssv / ind > 0))
    tau = cssv[k - 1] / k
    return float(np.abs(v - tau).min())


def sparsemax_row(v):
    """Sparsemax of one 1-D vector by sort and threshold."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 1:
        return np.ones(1)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    k = int(np.count_nonzero(u - cssv / ind > 0))
    tau = cssv[k - 1] / k
    return np.clip(v - tau, 0.0, 1.0)


def sparsemax_vjp_row(v, upstream):
    """Sparsemax VJP of one 1-D vector: subtract the support mean on the
    support, zero elsewhere."""
    v = np.asarray(v, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    support = sparsemax_row(v) > 0
    out = np.zeros_like(v)
    masked = upstream[support]
    out[support] = masked - masked.mean()
    return out


def softmax_row(v):
    """Max-shifted softmax of one 1-D vector."""
    v = np.asarray(v, dtype=np.float64)
    shifted = np.exp(v - v.max())
    return shifted / shifted.sum()


def per_row(fn, *arrays):
    """Apply a 1-D row oracle to every last-axis row of same-shaped arrays."""
    shape = np.shape(arrays[0])
    rows = [np.asarray(a, dtype=np.float64).reshape(-1, shape[-1]) for a in arrays]
    return np.array([fn(*row) for row in zip(*rows)]).reshape(shape)


def deletion_error_oracle(f, x, alpha, subset):
    """|f(x) - f(x with subset zeroed) - sum of alpha over subset|, with the
    probe built by hand."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.asarray(list(subset), dtype=np.int64)
    x_del = x.copy()
    x_del[idx] = 0.0
    return abs(float(f(x)) - float(f(x_del)) - float(np.asarray(alpha)[idx].sum()))


def insertion_error_oracle(f, x, alpha, subset):
    """|f(subset of x on a zero baseline) - f(0) - sum of alpha over subset|,
    with the probes built by hand."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.asarray(list(subset), dtype=np.int64)
    x_ins = np.zeros_like(x)
    x_ins[idx] = x[idx]
    return abs(float(f(x_ins)) - float(f(np.zeros_like(x)))
               - float(np.asarray(alpha)[idx].sum()))


def grouped_deletion_error_oracle(f, x, groups, scores, subset):
    """Deletion error crediting the score of every group whose support
    ``groups > 0`` meets the deleted subset."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.asarray(list(subset), dtype=np.int64)
    deleted = np.zeros(x.size, dtype=bool)
    deleted[idx] = True
    hit = ((np.asarray(groups) > 0) & deleted).any(axis=1)
    x_del = x.copy()
    x_del[idx] = 0.0
    return abs(float(f(x)) - float(f(x_del)) - float(np.asarray(scores)[hit].sum()))


def grouped_insertion_error_oracle(f, x, groups, scores, subset):
    """Insertion error crediting the score of every group whose support
    ``groups > 0`` lies inside the inserted subset."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.asarray(list(subset), dtype=np.int64)
    inserted = np.zeros(x.size, dtype=bool)
    inserted[idx] = True
    covered = ((np.asarray(groups) > 0) <= inserted).all(axis=1)
    x_ins = np.zeros_like(x)
    x_ins[idx] = x[idx]
    return abs(float(f(x_ins)) - float(f(np.zeros_like(x)))
               - float(np.asarray(scores)[covered].sum()))


def iter_powerset(d):
    """Every subset of range(d) as an index list, in binary counting order
    (bit i = feature i)."""
    for bits in range(1 << d):
        yield [i for i in range(d) if bits >> i & 1]


def shapley_values(f, d):
    """Exact Shapley values (Shapley 1953; the attribution SHAP estimates,
    Lundberg & Lee 2017) of the stack model ``f`` at the all-ones input on
    a zero baseline, as Fractions, from one walk of the powerset.  ``f``
    must take integer values on 0/1 inputs."""
    members = powerset_matrix(d)
    values = np.asarray(f(members.astype(np.float64)))
    sizes, index = members.sum(axis=1), np.arange(1 << d)
    weights = [Fraction(factorial(k) * factorial(d - k - 1), factorial(d)) for k in range(d)]
    phi = []
    for i in range(d):
        without = index[(index >> i) & 1 == 0]
        gains = np.bincount(sizes[without], weights=values[without | 1 << i] - values[without],
                            minlength=d)
        phi.append(sum(w * int(g) for w, g in zip(weights, gains)))
    return phi


def occlusion_values(f, d):
    """Leave-one-out occlusion of the stack model ``f`` at the all-ones
    input on a zero baseline: feature i gets ``f(1) - f(1 - e_i)``, the
    output lost when it alone is zeroed.  ``f`` must take integer values on
    0/1 inputs."""
    ones = np.ones(d)
    return [int(v) for v in np.asarray(f(ones[None])) - np.asarray(f(ones - np.eye(d)))]


def finite_diff_grad(f, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    The tests' gradient oracle: evaluates
    ``(f(x + step*e_i) - f(x - step*e_i)) / (2*step)`` per coordinate.
    Raises if ``f`` returns a non-finite value at any probe.
    """
    x = np.array(x, dtype=np.float64)  # private copy; probed in place below
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive real, got {step}")
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(x))
        flat[i] = orig - step
        lo = float(f(x))
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"f evaluated to a non-finite value near coordinate {i}")
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def powerset_matrix(d: int) -> np.ndarray:
    """Boolean (2^d, d) matrix whose row s holds the members of subset s.

    Binary counting with bit i = feature i, so row order is reproducible.
    Filled a column at a time so temporaries stay one column wide.
    """
    rows = np.arange(1 << d, dtype=np.uint32)
    members = np.empty((rows.size, d), dtype=bool)
    for i in range(d):
        members[:, i] = (rows >> i) & 1
    return members


def _trainable_arrays(gen, sel):
    """The trainable arrays in the order of ``loss_and_gradients``'
    gradient dict."""
    return gen.w_q, gen.w_k, sel.w_q, sel.w_k, sel.classifier


def pack_params(gen, sel) -> np.ndarray:
    """Flatten all trainable parameters into one vector (for gradient checks)."""
    return np.concatenate([array.ravel() for array in _trainable_arrays(gen, sel)])


def unpack_params(vec, template_gen, template_sel):
    """Inverse of :func:`pack_params` using the templates' shapes."""
    vec = np.asarray(vec, dtype=np.float64)
    templates = _trainable_arrays(template_gen, template_sel)
    ends = np.cumsum([array.size for array in templates])
    if vec.shape != (ends[-1],):
        raise ValueError(f"parameter vector has the wrong length: expected "
                         f"{ends[-1]} entries, got shape {vec.shape}")
    w_q, w_k, sel_w_q, sel_w_k, classifier = (
        piece.reshape(array.shape) for array, piece in zip(templates, np.split(vec, ends[:-1])))
    return GroupGenParams(w_q, w_k), GroupSelectParams(sel_w_q, sel_w_k, classifier)


def pack_gradients(grads):
    """``loss_and_gradients``' gradients as one vector.  Its dict lists them
    in ``pack_params`` order, so this lines each gradient up with its
    parameter in a packed vector."""
    return np.concatenate([grad.ravel() for grad in grads.values()])


LP_DIMENSION_LIMIT = 15


def solve_weighted_l1(counts, targets, weights):
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
    result = certificates.linprog(
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


def binomial_orbits(m: int):
    """Insertion program of the equal-thirds binomial with parts of size m
    on the triples (k1, k2, k3) of a subset's part sizes: weight
    C(m,k1) C(m,k2) C(m,k3), counts (k1, k2, k3), target
    1[k1 = k2 = m] + 1[k2 = k3 = m]."""
    triples = list(itertools.product(range(m + 1), repeat=3))
    targets = [int(k1 == k2 == m) + int(k2 == k3 == m) for k1, k2, k3 in triples]
    weights = [comb(m, k1) * comb(m, k2) * comb(m, k3) for k1, k2, k3 in triples]
    return [list(t) for t in triples], targets, weights


def certified_optimum(d: int, counts, targets, weights) -> float:
    """Optimum of an integer orbit program, proven in exact arithmetic.

    The solver's primal ``a`` and row multipliers ``u`` are rationalised;
    ``u`` must be dual feasible (``|u_r| <= w_r`` and
    ``sum_r u_r c_r = 0``) with dual objective ``sum_r t_r u_r`` equal to
    the primal objective ``sum_r w_r |t_r - c_r . a|``.  Spreading each
    ``u_r`` evenly over its orbit's subsets certifies the full-powerset
    program as well, so the value is its optimum too.
    """
    a, _, u = solve_weighted_l1(
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


def binomial_vertex_scan(d: int) -> tuple[Fraction, tuple[Fraction, Fraction]]:
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


def monomial_fraction_scan(d: int) -> float:
    """Monomial minimum by scanning the kinks ``a = 1/k`` (plus 0) of
    ``sum_k C(d,k) |1 - k a|`` in ``Fraction`` arithmetic."""
    candidates = [Fraction(0)] + [Fraction(1, k) for k in range(1, d + 1)]
    return float(min(
        sum(comb(d, k) * abs(1 - k * a) for k in range(1, d + 1))
        for a in candidates
    ))


def log_linear_polyfit(ds, values, offset: float) -> ExponentialFit:
    """``np.polyfit`` of ``log(value - offset)`` on d at one offset, with its
    relative absolute error."""
    slope, intercept = np.polyfit(ds, np.log(values - offset), 1)
    fitted = np.exp(slope * ds + intercept) + offset
    return ExponentialFit(
        slope=float(slope), intercept=float(intercept), offset=offset,
        relative_abs_error=float(np.mean(np.abs(fitted - values) / np.abs(values))),
    )


def fit_exponential_grid_loop(points) -> ExponentialFit:
    """Offset grid search with one polyfit per grid offset; the first
    offset with the smallest relative absolute error wins."""
    ds = np.array([p[0] for p in points], dtype=np.float64)
    values = np.array([p[1] for p in points], dtype=np.float64)
    best = None
    for offset in np.arange(0.0, values.min(), 0.01):
        candidate = log_linear_polyfit(ds, values, float(offset))
        if best is None or candidate.relative_abs_error < best.relative_abs_error:
            best = candidate
    return best


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


def solve_l1(program: L1Program) -> tuple[np.ndarray, float]:
    """Minimize ``sum |targets - coefficients @ alpha|`` over alpha, one
    unit-weight row per subset.  Returns the minimizer and the optimum."""
    alpha, value, _ = solve_weighted_l1(
        program.coefficients, program.targets, np.ones(program.targets.size)
    )
    return alpha, value


def monomial_orbits(d: int):
    """Deletion program of the d-variable monomial on subset sizes k:
    weight C(d,k), count k, target 1[k > 0]."""
    sizes = range(d + 1)
    return ([[k] for k in sizes], [int(k > 0) for k in sizes],
            [comb(d, k) for k in sizes])


def label_group_oracle(imap, mask, cluster_sigma=3.0):
    """The mean map intensity over one mask's support (entries > 0) and the
    group's kind: cluster at or above ``cluster_sigma`` deviations on a map
    with spread, void below zero (after the zero snap), other otherwise."""
    if not 0 <= cluster_sigma < np.inf:
        raise ValueError(f"cluster_sigma must be finite and non-negative, got {cluster_sigma}")
    mask = np.asarray(mask, dtype=np.float64)
    flat = imap.flat
    if mask.shape != flat.shape:
        raise ValueError(f"mask length {mask.shape} does not match map size {flat.shape}")
    support = mask > 0
    if not support.any():
        raise ValueError("mask selects no pixels")
    intensity = float(flat[support].mean())
    snapped, sigma = intensity, imap.sigma
    if abs(snapped) <= INTENSITY_EPS * max(1.0, sigma):
        snapped = 0.0
    if sigma > 0 and snapped >= cluster_sigma * sigma:
        kind = "cluster"
    elif snapped < 0:
        kind = "void"
    else:
        kind = "other"
    return intensity, kind


def grouped_keep_loop(groups, scores, direction):
    """Fractions and keep-masks of a grouped curve, built one group at a
    time, highest score first: a group adds a row when its support covers a
    feature that no earlier group covered."""
    supports = np.atleast_2d(np.asarray(groups, dtype=np.float64)) > 0
    covered = [np.zeros(supports.shape[1], dtype=bool)]
    for g in np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable"):
        if (supports[g] & ~covered[-1]).any():
            covered.append(covered[-1] | supports[g])
    covered = np.array(covered)
    return (covered.sum(axis=1) / covered.shape[1],
            covered if direction == "insertion" else ~covered)


@dataclass(frozen=True)
class LinearBackbone:
    """The embedding ``weights @ x`` of an input, with (h, d) weights, and a
    (K, h) classifier over it."""

    weights: np.ndarray
    classifier: np.ndarray

    @property
    def h(self) -> int:
        return self.classifier.shape[1]


def linear_backbone(weights, classifier) -> LinearBackbone:
    return LinearBackbone(np.asarray(weights, dtype=np.float64),
                          np.asarray(classifier, dtype=np.float64))


def identity_twin(backbone: LinearBackbone, sel):
    """The identity-backbone model whose selector folds onto the input as
    ``sel`` over ``backbone``'s embedding W does: value weights ``C W``,
    ``w_q = I_d`` and ``w_k = sqrt(d / h) pinv(C W) (C w_q.T w_k W)``, so
    that the affinity rows ``C W w_k / sqrt(d)`` are ``C w_q.T w_k W /
    sqrt(h)`` wherever C W has full row rank.  Returns ``(sel, backbone)``,
    the backbone as its classifier matrix ``C W``."""
    h, d = backbone.weights.shape
    folded = sel.classifier @ backbone.weights
    w_k = np.sqrt(d / h) * np.linalg.pinv(folded) @ (
        sel.classifier @ sel.w_q.T @ sel.w_k @ backbone.weights)
    return (GroupSelectParams(w_q=np.eye(d), w_k=w_k, classifier=folded),
            identity_backbone(backbone.classifier @ backbone.weights))


def embed(backbone, rows):
    """The backbone's embeddings of the rows of an (N, d) stack, (N, h):
    ``rows @ weights.T`` for a :class:`LinearBackbone`, else the rows."""
    rows = np.asarray(rows, dtype=np.float64)
    return rows @ backbone.weights.T if isinstance(backbone, LinearBackbone) else rows


def embed_vjp(backbone, upstream):
    """Row i is the gradient of ``upstream[i] . embed(x)[i]`` with respect to
    ``x[i]``: ``upstream @ weights`` for a :class:`LinearBackbone`, else
    ``upstream``."""
    upstream = np.asarray(upstream, dtype=np.float64)
    return upstream @ backbone.weights if isinstance(backbone, LinearBackbone) else upstream


def embed_groups(x, masks, backbone):
    """Embed each masked input ``mask * x`` through the backbone: one input
    (d,) with its masks (G, d), or a (..., d) stack with masks (..., G, d),
    in one (N, d) ``embed`` call; the result has shape (..., G, h)."""
    x = np.asarray(x, dtype=np.float64)
    masks = np.atleast_2d(np.asarray(masks, dtype=np.float64))
    if x.ndim < 1 or masks.shape[-1] != x.shape[-1]:
        raise ValueError(f"masks have width {masks.shape[-1]}, input has shape {x.shape}")
    masked = masks * x[..., None, :]
    z = embed(backbone, masked.reshape(-1, x.shape[-1]))
    return z.reshape(masked.shape[:-1] + (z.shape[-1],))


def select_groups(z, params):
    """Score groups per class with sparse attention and compute partial
    logits.  For class k the query is the projected class weight
    ``w_q @ C_k`` and group i keys in with ``w_k @ z_i``; the affinity column
    is sparsemaxed over groups.  Partial logits are the plain per-group class
    logits ``C_k . z_i``.  Returns ``(scores, partial_logits)``, both
    (..., G, n_classes)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[-1] != params.h:
        raise ValueError(f"embeddings have width {z.shape[-1]}, expected {params.h}")
    queries = params.classifier @ params.w_q.T          # (K, h)
    affinities = z @ params.w_k.T @ queries.T / np.sqrt(params.h)
    scores = np.swapaxes(sparsemax(np.swapaxes(affinities, -1, -2)), -1, -2)
    return scores, z @ params.classifier.T


def round_floats_oracle(obj):
    """Recursively round floats (and numpy scalars/arrays) to 9 significant
    digits, converting numpy containers to plain Python types; one call and
    one type dispatch per item."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format_float(obj))
    if isinstance(obj, np.ndarray):
        return [round_floats_oracle(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): round_floats_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats_oracle(v) for v in obj]
    return obj


def csv_text_per_row(header, rows) -> str:
    """The earlier ``write_csv_atomic`` text: one ``%`` formatting per row
    tuple, over a format cached per cell-type signature (the fixed float
    format for floats, ``%s`` for every other cell)."""
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(
                "%" + _FLOAT_FORMAT if issubclass(t, (float, np.floating)) else "%s"
                for t in types)
        lines.append(formats[types] % row)
    return "\n".join(lines) + "\n"


def report_from_curve_oracle(metric, fractions, values):
    """The earlier ``PerturbationReport.from_curve``: the mean height from a
    1-D trapezoid over the one curve, clamped to the values' range in
    Python floats."""
    fractions = np.asarray(fractions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    auc = float(np.trapezoid(values, fractions) / (fractions[-1] - fractions[0]))
    auc = min(max(auc, float(values.min())), float(values.max()))
    return faithfulness.PerturbationReport(metric=metric, fractions=fractions,
                                           probabilities=values, auc=auc)


def eval_oracle(checkpoint, dataset, metrics, step, classes, out_dir):
    """The earlier ``eval``: one curve or rationale metric at a time, driven
    by a stack model that runs one ``sop_forward`` per probe, its reports
    from ``report_from_curve_oracle`` and its ``curves.csv`` from
    ``csv_text_per_row``."""
    seg, gen, sel, backbone = _restore_checkpoint(checkpoint)
    features, labels = _load_dataset(dataset)

    def probabilities(rows):
        return np.array([softmax(sop_forward(v, seg, gen, sel, backbone).prediction)
                         for v in rows])

    report = {"metadata": {
        "checkpoint": str(checkpoint), "dataset": str(dataset), "classes": classes,
        "step": step, "probability": "raw class probability (softmax of the prediction)",
    }}
    if "accuracy" in metrics:
        hits = sum(int(np.argmax(sop_forward(x, seg, gen, sel, backbone).prediction) == y)
                   for x, y in zip(features, labels))
        report["accuracy"] = hits / features.shape[0]
    aggregates = {m: [] for m in metrics if m != "accuracy"}
    curve_rows = []
    for index, x in enumerate(features):
        attribution = sop_forward(x, seg, gen, sel, backbone)
        for k in classes:
            groups, scores = attribution.groups, attribution.scores[:, k]
            alpha = faithfulness.flatten_grouped(groups, scores)
            ranking = faithfulness.ranking_from_attribution(alpha)
            for name in ("insertion", "deletion", "grouped_insertion", "grouped_deletion"):
                if name in metrics:
                    direction = name.removeprefix("grouped_")
                    fractions, covered = (
                        faithfulness.grouped_coverage(groups, scores)
                        if name.startswith("grouped_")
                        else faithfulness.ranked_coverage(ranking, step))
                    keep = covered if direction == "insertion" else ~covered
                    curve = report_from_curve_oracle(
                        name, fractions, probabilities(np.where(keep, x, 0.0))[:, k])
                    aggregates[name].append(curve.auc)
                    curve_rows.extend((name, index, k, float(f), float(p))
                                      for f, p in zip(curve.fractions, curve.probabilities))
            if "sparsity" in metrics:
                aggregates["sparsity"].append(faithfulness.sparsity(groups, scores))
            rationale = (alpha > 0).astype(np.float64)
            for name, fn in (("comprehensiveness", faithfulness.comprehensiveness),
                             ("sufficiency", faithfulness.sufficiency)):
                if name in metrics:
                    aggregates[name].append(fn(probabilities, x, rationale, k))
    for name, values in aggregates.items():
        if values:
            report[name] = {"mean": float(np.mean(values)), "per_case": values}
    write_json_atomic(out_dir / "results.json", report)
    (out_dir / "curves.csv").write_text(csv_text_per_row(
        ["metric", "example", "class", "fraction", "probability"], curve_rows))


def make_blobs(n_per_class=30, d=8, noise=0.5, seed=123):
    """Two linearly separable Gaussian blobs at +/-mu."""
    rng = np.random.default_rng(seed)
    mu = np.concatenate([np.full(d // 2, 1.5), np.full(d - d // 2, -0.5)])
    x0 = mu + noise * rng.normal(size=(n_per_class, d))
    x1 = -mu + noise * rng.normal(size=(n_per_class, d))
    features = np.vstack([x0, x1])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return features, labels


def class_mean_identity_backbone(features, labels):
    n_classes = int(labels.max()) + 1
    classifier = np.vstack(
        [features[labels == k].mean(axis=0) for k in range(n_classes)]
    )
    return identity_backbone(classifier)
