"""stgf: spatio-temporal graph forecasting on a self-contained autodiff core."""

from .autodiff import Node, Parameter, Tape, as_tensor
from .checkpoint import LoadedCheckpoint, load_checkpoint, save_checkpoint
from .data import (
    ExternalField,
    NormStats,
    PreparedData,
    SignalDataset,
    WindowSample,
    WindowSet,
    chronological_split,
    load_dataset,
    make_windows,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    prepare_samples,
    save_dataset,
)
from .errors import (
    ContractError,
    LoadError,
    NumericalError,
    ShapeError,
    StgfError,
    UsageError,
    ValidationError,
)
from .gradcheck import grad_check
from .graphs import (
    GraphSpec,
    adaptive_adjacency,
    build_local_adjacency,
    normalize_adjacency,
)
from .model import (
    ABLATIONS,
    ModelConfig,
    ModelParams,
    init_params,
    model_forward,
)
from .synth import build_synthetic, channel_correlations, generate_synthetic
from .training import (
    Metrics,
    TrainConfig,
    TrainResult,
    evaluate,
    ha_baseline,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATIONS",
    "ContractError",
    "ExternalField",
    "GraphSpec",
    "LoadError",
    "LoadedCheckpoint",
    "Metrics",
    "ModelConfig",
    "ModelParams",
    "Node",
    "NormStats",
    "NumericalError",
    "Parameter",
    "PreparedData",
    "ShapeError",
    "SignalDataset",
    "StgfError",
    "Tape",
    "TrainConfig",
    "TrainResult",
    "UsageError",
    "ValidationError",
    "WindowSample",
    "WindowSet",
    "adaptive_adjacency",
    "as_tensor",
    "build_local_adjacency",
    "build_synthetic",
    "channel_correlations",
    "chronological_split",
    "evaluate",
    "generate_synthetic",
    "grad_check",
    "ha_baseline",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "make_windows",
    "minmax_apply",
    "minmax_fit",
    "minmax_invert",
    "model_forward",
    "normalize_adjacency",
    "prepare_samples",
    "save_checkpoint",
    "save_dataset",
    "train",
    "__version__",
]
