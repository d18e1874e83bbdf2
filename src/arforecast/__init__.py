"""Autoregressive-rollout training and evaluation for small time-series forecasters."""

from .autodiff import Tape, Tensor, finite_diff_oracle, max_relative_error, relu, slice_axis
from .data import SeriesDataset, Windows, gen_ar_process, gen_sinusoid, load_csv, window_iter
from .evaluation import EvalReport, evaluate, export_curve, write_report_json
from .models import (
    Dims,
    Forecaster,
    NormState,
    apply_norm,
    forecast,
    init_forecaster,
    invert_norm,
    param_count,
)
from .rollout import (
    BlockErrors,
    GradCheckReport,
    RolloutConfig,
    ar_loss,
    check_gradients,
    loss_magnitude_factor,
    mse_loss,
    rollout_predict,
)
from .training import (
    AdamState,
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    EpochStats,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)

__version__ = "0.1.0"
