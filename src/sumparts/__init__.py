"""sumparts: faithful-by-construction grouped feature attributions, with
perturbation faithfulness metrics and exact certificates of per-feature
attribution error lower bounds."""

from .model import (
    Backbone,
    GroupedAttribution,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    embed_groups,
    generate_groups,
    identity_backbone,
    linear_backbone,
    predict,
    select_groups,
    sop_forward,
)
from .ops import (
    finite_diff_grad,
    softmax,
    sparsemax,
    sparsemax_vjp,
)
from .training import TrainConfig, TrainResult, train, training_accuracy

__version__ = "0.1.0"
