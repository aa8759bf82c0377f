"""Perturbation faithfulness metrics on models with known structure.

A linear model admits a per-feature attribution with zero deletion and
insertion error over the whole powerset; a product of features does not.
Progressive insertion/deletion curves summarize attribution quality by
the area under the model-probability curve.  Every model is a stack model:
it maps a (P, d) array of probes to one value per probe, or to (P, K)
class probabilities, and each metric calls it once.  ``evaluate_examples``
computes every metric of many examples from one call, on the distinct
probes of all classes.
"""

import numpy as np

from sumparts.faithfulness import (
    comprehensiveness,
    deletion_curve,
    evaluate_examples,
    flatten_grouped,
    grouped_curve,
    insertion_curve,
    ranking_from_attribution,
    sparsity,
    sufficiency,
    total_powerset_error,
)

# linear model: attribution theta_i * x_i is perfectly faithful
theta = np.array([1.0, 2.0, -3.0, 4.0])
x = np.array([2.0, -1.0, 1.0, 3.0])
linear = lambda rows: (rows * theta).sum(axis=-1)  # noqa: E731
alpha = theta * x
print("linear model, alpha = theta * x")
print("  total deletion error :", total_powerset_error(linear, x, alpha, "deletion"))
print("  total insertion error:", total_powerset_error(linear, x, alpha, "insertion"))

# product model: every per-feature attribution fails some subset
product = lambda rows: np.prod(rows, axis=-1)  # noqa: E731
ones = np.ones(4)
best_uniform = np.full(4, 1.0 / 2.0)
print("\nproduct model at the all-ones input")
print("  zero attribution, insertion:",
      total_powerset_error(product, ones, np.zeros(4), "insertion"))
print("  uniform attribution, deletion:",
      total_powerset_error(product, ones, best_uniform, "deletion"))

# insertion/deletion curves for a probability-like model
prob_model = lambda rows: 1.0 / (1.0 + np.exp(-linear(rows) / 4.0))  # noqa: E731
ranking = ranking_from_attribution(alpha)
ins = insertion_curve(prob_model, x, ranking)
dele = deletion_curve(prob_model, x, ranking)
print("\ncurves with the attribution ranking")
print("  insertion points:", list(zip(ins.fractions, np.round(ins.probabilities, 3))))
print("  insertion AUC:", round(ins.auc, 4), " deletion AUC:", round(dele.auc, 4))

# grouped attribution: flatten for per-feature tests, or insert per group
groups = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
scores = np.array([0.8, 0.2])
print("\ngrouped attribution")
print("  flattened:", flatten_grouped(groups, scores))
print("  grouped insertion AUC:",
      round(grouped_curve(prob_model, x, groups, scores, "insertion").auc, 4))
print("  sparsity (mean active fraction):", sparsity(groups, scores))


# rationale-style metrics: drop when removed vs kept alone, on the
# probabilities of both classes
def class_model(rows):
    p = prob_model(rows)
    return np.column_stack([p, 1.0 - p])


rationale = np.array([1.0, 0.0, 0.0, 1.0])
print("\nrationale metrics for class 0")
print("  comprehensiveness:", round(comprehensiveness(class_model, x, rationale, 0), 4))
print("  sufficiency      :", round(sufficiency(class_model, x, rationale, 0), 4))

# every metric of both classes of the example from one model call
class_scores = np.column_stack([scores, scores[::-1]])
results = evaluate_examples(
    class_model, [x], [groups], [class_scores], [0, 1],
    ["insertion", "grouped_insertion", "sparsity", "comprehensiveness", "sufficiency"])[0]
print("\nbatched engine, one model call")
for k, result in enumerate(results):
    print(f"  class {k}: grouped insertion AUC",
          round(result["grouped_insertion"].auc, 4),
          " comprehensiveness", round(result["comprehensiveness"], 4),
          " sufficiency", round(result["sufficiency"], 4))

# the per-example functions give the same reports and drops, bit for bit
for k, result in enumerate(results):
    class_k = lambda rows: class_model(rows)[:, k]  # noqa: E731
    alpha_k = flatten_grouped(groups, class_scores[:, k])
    for name, alone in (
            ("insertion", insertion_curve(class_k, x, ranking_from_attribution(alpha_k))),
            ("grouped_insertion",
             grouped_curve(class_k, x, groups, class_scores[:, k], "insertion"))):
        batched = result[name]
        assert np.array_equal(batched.fractions, alone.fractions), (k, name)
        assert np.array_equal(batched.probabilities, alone.probabilities), (k, name)
        assert batched.auc == alone.auc, (k, name)
    rationale_k = (alpha_k > 0).astype(np.float64)
    assert result["comprehensiveness"] == comprehensiveness(class_model, x, rationale_k, k)
    assert result["sufficiency"] == sufficiency(class_model, x, rationale_k, k)
print("  equals the per-example curves and rationale metrics of both classes")
