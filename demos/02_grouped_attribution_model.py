"""A grouped-attribution model end to end on synthetic blobs.

The wrapper generates sparse feature groups with attention over segments,
scores the masked inputs per class, and predicts with the weighted sum of
partial logits from a frozen classifier's value weights.  The
explanation reconstructs the prediction exactly, by construction.
"""

import numpy as np

from sumparts import (
    Segmentation,
    TrainConfig,
    identity_backbone,
    sop_forward,
    train,
    training_accuracy,
)

rng = np.random.default_rng(0)

# two separable blobs over 8 features, split into 2 segments
n = 25
mu = np.concatenate([np.full(4, 1.5), np.full(4, -0.5)])
features = np.vstack([
    mu + 0.5 * rng.normal(size=(n, 8)),
    -mu + 0.5 * rng.normal(size=(n, 8)),
])
labels = np.array([0] * n + [1] * n)
seg = Segmentation.contiguous(8, 2)

# frozen "pretrained" backbone: a class-mean classifier over the input
classifier = np.vstack([features[labels == k].mean(axis=0) for k in (0, 1)])
backbone = identity_backbone(classifier)

# a wider init makes the attention rows visibly sparse from the start
config = TrainConfig(steps=80, learning_rate=0.1, seed=7, heads=2, init_std=1.0)
result = train(features, labels, seg, backbone, config)
accuracy = training_accuracy(
    features, labels, seg, result.gen_params, result.sel_params, backbone
)
print(f"training accuracy after {config.steps} steps: {accuracy:.3f}")
print(f"loss: {result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}")

# inspect one explanation
x = features[0]
attribution = sop_forward(x, seg, result.gen_params, result.sel_params, backbone)
print(f"\ngroups: {attribution.n_groups} masks over {x.size} features")
for g in range(attribution.n_groups):
    support = np.nonzero(attribution.groups[g] > 0)[0]
    print(f"  group {g}: features {support.tolist()}, "
          f"scores per class {np.round(attribution.scores[g], 3)}")

print("\nprediction:", np.round(attribution.prediction, 4))
recon = (attribution.scores * attribution.partial_logits).sum(axis=0)
print("score-weighted partial logits:", np.round(recon, 4))
print("difference (exact):", attribution.prediction - recon)
