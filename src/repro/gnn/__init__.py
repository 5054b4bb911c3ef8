"""HydraGNN-like NumPy GNN: PNA layers, multi-head model, DDP training."""

from .convs import CONV_TYPES, GINConv, SAGEConv, make_conv
from .ddp import DistributedModel, GradPayload
from .metrics import RegressionMetrics, mae, max_error, r_squared, rmse
from .model import HydraGNN, HydraGNNConfig, mse_loss
from .modules import MLP, MeanPool, Linear, Module, Param, ReLU, Sequential
from .optim import AdamW, ReduceLROnPlateau
from .pna import AGGREGATORS, PNAConv, SCALERS
from .trainer import EpochReport, PhaseTimes, Trainer

__all__ = [
    "Param",
    "Module",
    "Linear",
    "ReLU",
    "Sequential",
    "MLP",
    "MeanPool",
    "PNAConv",
    "GINConv",
    "SAGEConv",
    "make_conv",
    "CONV_TYPES",
    "AGGREGATORS",
    "SCALERS",
    "HydraGNN",
    "HydraGNNConfig",
    "mse_loss",
    "AdamW",
    "ReduceLROnPlateau",
    "DistributedModel",
    "GradPayload",
    "Trainer",
    "RegressionMetrics",
    "mae",
    "rmse",
    "max_error",
    "r_squared",
    "PhaseTimes",
    "EpochReport",
]
