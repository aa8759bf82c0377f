"""Certified lower bounds on per-feature attribution error.

For the d-feature product, the least total deletion error any per-feature
attribution can achieve over the whole powerset is the optimum of an L1
program.  ``monomial_scan_minimum`` returns it in closed form,
C(d, d // 2) - 1, which grows exponentially with d; the tests check it
against an exact scan of the program.  ``binomial_scan_minimum`` does the
same for insertion on two overlapping products.
Grouped attributions sidestep the bound: a single group holding all
features explains the product with zero error everywhere.  The closing
table sets two per-feature baselines beside the bound: exact Shapley
values (Shapley 1953; the attribution SHAP estimates, Lundberg & Lee
2017) and leave-one-out occlusion.
"""

from math import comb

import numpy as np

from sumparts.certificates import (
    PolynomialSpec,
    binomial_scan_minimum,
    fit_exponential,
    monomial_scan_minimum,
    verify_corollary_grouped,
    verify_lemma_monomial_insertion,
)
from sumparts.faithfulness import total_powerset_error

# the certified minimum beside its closed form
print("least total deletion error for the product of d features:")
points = []
for d in range(2, 11):
    value = monomial_scan_minimum(d)
    points.append((d, value))
    print(f"  d={d:2d}: {value:10.1f}   (C(d, d//2) - 1: {comb(d, d // 2) - 1:6d})")

fit = fit_exponential(points)
print(f"\nexponential fit: exp({fit.slope:.3f} d + {fit.intercept:.3f}), "
      f"relative abs error {fit.relative_abs_error:.3f}")

# insertion is easy for products (zero attribution errs on one subset only)
print("\nzero-attribution insertion totals:",
      [verify_lemma_monomial_insertion(d) for d in (2, 4, 8)])

# two overlapping products: insertion error also grows exponentially
print("\nleast total insertion error for the two-product polynomial:")
for d in (3, 6, 9, 12):
    print(f"  d={d:2d}: {binomial_scan_minimum(d):6.1f}")

# total error at the all-ones input of the exact per-feature baselines, in
# closed form: Shapley gives 1/d to every factor of the product and
# (1/2m, 1/m, 1/2m) to the three parts of the two products, occlusion 1 and
# (1, 2, 1).  The grouped constructions err nowhere.
rows = [(PolynomialSpec.monomial(d), "deletion", np.full(d, 1 / d), np.ones(d),
         monomial_scan_minimum(d)) for d in (4, 8, 12, 16)]
for d in (6, 9, 12, 15):
    m = d // 3
    rows.append((PolynomialSpec.binomial(d), "insertion",
                 np.repeat([1 / (2 * m), 1 / m, 1 / (2 * m)], m), np.repeat([1.0, 2.0, 1.0], m),
                 binomial_scan_minimum(d)))
print(f"\ntotal error over every subset at the all-ones input:\n"
      f"  {'':22s} {'Shapley':>8s} {'occlusion':>10s} {'certified':>10s} {'grouped':>8s}")
for spec, kind, shapley, occlusion, certified in rows:
    # non-dyadic Shapley values leave rounding dust, such as 2047.0000000000002
    shapley_total, occlusion_total = (
        round(total_powerset_error(spec.evaluate, np.ones(spec.d), alpha, kind))
        for alpha in (shapley, occlusion))
    grouped = verify_corollary_grouped(spec)[kind == "insertion"]
    print(f"  {spec.kind:8s} d={spec.d:2d} {kind:9s} {shapley_total:8d} {occlusion_total:10d} "
          f"{certified:10.0f} {grouped:8.0f}")
