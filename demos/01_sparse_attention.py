"""Sparse attention primitives: sparsemax versus softmax.

Sparsemax projects scores onto the probability simplex, producing exact
zeros for low-scoring entries; softmax never does.  Attention weights
built from sparsemax rows therefore select a sparse set of keys.
"""

import numpy as np

from sumparts import softmax, sparsemax, sparsemax_vjp

scores = np.array([2.0, 0.5, -1.0, -2.5])
print("scores:   ", scores)
print("softmax:  ", np.round(softmax(scores), 4), "(all positive)")
print("sparsemax:", np.round(sparsemax(scores), 4), "(exact zeros)")

# projection facts: output sums to 1, shift invariance
p = sparsemax(scores)
print("\nsum:", p.sum(), " shifted equals original:",
      np.allclose(sparsemax(scores + 10.0), p))

# a dominant score collapses to a one-hot selection
print("one-hot:", sparsemax([3.0, 1.0, 0.5]))

# the projection has a simple generalized Jacobian: on the support it
# subtracts the support mean, off the support it is zero
mild = np.array([0.6, 0.4, 0.1, -0.8])
upstream = np.array([1.0, -1.0, 2.0, 0.5])
print("\nprojection of", mild, "->", np.round(sparsemax(mild), 4))
print("vjp:", np.round(sparsemax_vjp(mild, upstream), 4))

# attention weights: each row of Q scores all rows of K, then projects
rng = np.random.default_rng(0)
queries = rng.normal(size=(3, 4))
keys = rng.normal(size=(5, 4))
weights = sparsemax(queries @ keys.T / np.sqrt(4))
print("\nattention rows (sparsemax):")
print(np.round(weights, 3))
print("row sums:", weights.sum(axis=1), " zeros per row:",
      (weights == 0).sum(axis=1))
