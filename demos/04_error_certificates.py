"""Certified lower bounds on per-feature attribution error.

For the d-feature product, the least total deletion error any per-feature
attribution can achieve over the whole powerset is the optimum of an L1
program, found exactly by ``monomial_scan_minimum``; it equals
C(d, d // 2) - 1 and grows exponentially with d.  ``binomial_scan_minimum``
does the same for insertion on two overlapping products.
Grouped attributions sidestep the bound: a single group holding all
features explains the product with zero error everywhere.
"""

from math import comb

from sumparts.certificates import (
    PolynomialSpec,
    binomial_scan_minimum,
    fit_exponential,
    monomial_scan_minimum,
    verify_corollary_grouped,
    verify_lemma_monomial_insertion,
)

# the exact scan meets the closed form
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

# the grouped constructions are exact everywhere
for spec in (PolynomialSpec.monomial(6), PolynomialSpec.binomial(6)):
    max_del, max_ins = verify_corollary_grouped(spec)
    print(f"grouped attribution on {spec.kind} d={spec.d}: "
          f"max deletion {max_del}, max insertion {max_ins}")
