"""sumparts: faithful-by-construction grouped feature attributions, with
perturbation faithfulness metrics and exact certificates of per-feature
attribution error lower bounds."""

from .model import (
    GroupedAttribution,
    GroupGenParams,
    GroupSelectParams,
    Segmentation,
    explain,
    generate_groups,
    identity_backbone,
    predict,
    sop_forward,
)
from .ops import (
    softmax,
    sparsemax,
    sparsemax_vjp,
)
from .training import TrainConfig, TrainResult, train, training_accuracy

__version__ = "0.1.0"
