"""Training substrate: optimizers (Adam is the paper's default,
Sec. V-A), synthetic token data ("We create a dummy dataset by
generating random tokens"), and a multi-rank training loop over the
MoE layer.
"""

from repro.train.optimizer import Adam, Optimizer
from repro.train.data import SyntheticTokenDataset
from repro.train.trainer import Trainer, TrainStepResult

__all__ = [
    "Adam",
    "Optimizer",
    "SyntheticTokenDataset",
    "Trainer",
    "TrainStepResult",
]
