"""Desk-scale online knowledge distillation with adaptive mode switching.

Teacher/student pairs (and triples) train together; each iteration the
distillation gap between their softened predictions is compared against an
adaptive threshold, switching between reciprocal training and a
frozen-teacher mode that lets the student catch up.
"""

import os

# The engine's matrices are small: a second OpenBLAS thread doubles CPU time
# for no wall-time gain. Set before NumPy loads; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .datasets import Dataset, generate_blobs, load_cifar_binary, load_idx
from .gap import EXPERT, LEARNING, GapState, batch_gap_state, decide_mode, mode_stats
from .losses import ce_loss, degeneration_curve, ensemble_target, kl_loss, one_hot, soften
from .network import Conv2d, Dense, NetworkParams, conv_mlp, forward, init_params, mlp
from .optim import OptimizerSettings, OptimizerState, init_optimizer, step
from .training import (
    NetworkDef,
    TrainConfig,
    TrainResult,
    evaluate,
    run_training,
    train_multi,
    train_pair,
)

__all__ = [
    "Dataset",
    "generate_blobs",
    "load_cifar_binary",
    "load_idx",
    "EXPERT",
    "LEARNING",
    "GapState",
    "batch_gap_state",
    "decide_mode",
    "mode_stats",
    "ce_loss",
    "degeneration_curve",
    "ensemble_target",
    "kl_loss",
    "one_hot",
    "soften",
    "Conv2d",
    "Dense",
    "NetworkParams",
    "conv_mlp",
    "forward",
    "init_params",
    "mlp",
    "OptimizerState",
    "init_optimizer",
    "step",
    "NetworkDef",
    "OptimizerSettings",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "run_training",
    "train_multi",
    "train_pair",
]
