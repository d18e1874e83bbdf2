"""Mini-batch Adam training over the rollout objective (or plain MSE).

Everything is deterministic given (seed, config, dataset): window order is
shuffled with a seeded Philox generator, each mini-batch is one tape over
its windows stacked side by side, and checkpoints serialize to a
byte-stable binary format.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .data import SeriesDataset, window_iter, write_fresh
from .models import Dims, Forecaster, _param_shapes, build_forecaster, param_count
from .rollout import RolloutConfig, ar_loss, mse_loss

CHECKPOINT_MAGIC = b"ARPT"
CHECKPOINT_VERSION = 1
NORM_POLICY = "context_zscore"  # eval and predict z-score each context (models.NormState)

OBJECTIVES = ("ar", "mse")


class CheckpointError(Exception):
    """Base class for checkpoint I/O failures."""


class CheckpointFormatError(CheckpointError):
    """Wrong magic bytes or a structurally corrupt file."""


class CheckpointVersionError(CheckpointError):
    """File written by an unsupported format version."""


class TrainingDivergedError(RuntimeError):
    """A mini-batch loss or gradient (no update applied), or a validation loss, went non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    objective: str = "ar"

    def __post_init__(self):
        for name in ("lr", "adam_eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, t: int, cfg: TrainConfig):
    """One bias-corrected Adam update of a parameter vector, elementwise, in place; ``t`` >= 1."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    m, v = state.m, state.v
    m[...] = b1 * m + (1.0 - b1) * grad
    v[...] = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    params[...] = params - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return params, state


@dataclass
class Checkpoint:
    """A model's parameter vector ``flat`` (in ``_param_shapes`` order) and how it was trained."""

    kind: str
    dims: Dims
    flat: np.ndarray
    rollout: RolloutConfig
    epoch: int = 0
    val_loss: float = math.nan
    seed: int = 0

    def to_forecaster(self) -> Forecaster:
        """A model holding a copy of the checkpoint's parameter vector."""
        return build_forecaster(self.kind, self.dims, self.flat)

    @classmethod
    def from_forecaster(cls, model: Forecaster, rollout: RolloutConfig,
                        epoch: int, val_loss: float, seed: int) -> "Checkpoint":
        return cls(kind=model.kind, dims=model.dims, flat=model.flat.copy(), rollout=rollout,
                   epoch=epoch, val_loss=val_loss, seed=seed)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


def _objective_fn(objective: str):
    if objective == "ar":
        return lambda model, windows, cfg: ar_loss(model, windows, cfg).loss
    return lambda model, windows, cfg: mse_loss(model, windows)


def _mean_objective(model, windows, cfg, loss_fn, batch_size: int) -> float:
    total = 0.0
    for start in range(0, len(windows), batch_size):
        chunk = windows[start:start + batch_size]
        total += loss_fn(model, chunk, cfg).item() * len(chunk)
    return total / len(windows)


def objective_horizon(rollout_cfg: RolloutConfig, T: int, objective: str) -> int:
    """Rows a training window forecasts: one T-step block for mse, the n*T rollout for ar."""
    return T if objective == "mse" else rollout_cfg.n * T


@np.errstate(over="raise", invalid="raise")  # an overflow or NaN raises where it happens
def train(model: Forecaster, dataset: SeriesDataset, rollout_cfg: RolloutConfig,
          train_cfg: TrainConfig) -> tuple[Checkpoint, list[EpochStats]]:
    """Train in place; returns the best-validation checkpoint and the loss history.

    The mse objective trains on single-block windows (horizon T); the ar
    objective needs the full n*T future. Each mini-batch is one tape whose
    loss is the mean of its windows' objectives; validation runs in chunks
    of the same size. If the validation split is too short for any window,
    the training loss stands in for early stopping. An overflow, a NaN, or a
    non-finite loss or gradient raises ``TrainingDivergedError`` before that
    batch's update, and so does one in validation.
    """
    S = model.dims.S
    horizon = objective_horizon(rollout_cfg, model.dims.T, train_cfg.objective)
    train_windows = window_iter(dataset, "train", S, horizon)
    if not train_windows:
        raise ValueError("train split supports no windows for this config")
    val_windows = window_iter(dataset, "val", S, horizon)

    loss_fn = _objective_fn(train_cfg.objective)
    param_tensors = list(model.params.values())
    state = AdamState.zeros_like(model.flat)
    rng = np.random.Generator(np.random.Philox(train_cfg.seed))

    best = Checkpoint.from_forecaster(model, rollout_cfg, epoch=0,
                                      val_loss=math.nan, seed=train_cfg.seed)
    best_val = math.inf
    stale = 0
    step = 0
    history: list[EpochStats] = []

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(len(train_windows))
        epoch_loss = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = train_windows[order[start:start + train_cfg.batch_size]]
            step += 1
            try:
                with Tape() as tape:
                    loss = loss_fn(model, batch, rollout_cfg)
                    grad = np.concatenate([g.ravel() for g in tape.gradient(loss, param_tensors)])
                value = loss.item()
                if not (math.isfinite(value) and np.isfinite(grad).all()):
                    raise FloatingPointError(f"loss {value:.6g}")
                adam_step(model.flat, grad, state, step, train_cfg)
            except FloatingPointError as exc:
                raise TrainingDivergedError(f"training diverged at epoch {epoch}, step {step}: "
                                            f"non-finite loss or gradient ({exc})") from None
            epoch_loss += value * len(batch)
        train_loss = epoch_loss / len(train_windows)
        try:
            val_loss = _mean_objective(model, val_windows, rollout_cfg, loss_fn,
                                       train_cfg.batch_size) if val_windows else train_loss
        except FloatingPointError:
            val_loss = math.nan
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"training diverged at epoch {epoch}, after step {step}: "
                                        f"non-finite validation loss")
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, val_loss=val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = Checkpoint.from_forecaster(model, rollout_cfg, epoch=epoch,
                                              val_loss=val_loss, seed=train_cfg.seed)
            stale = 0
        else:
            stale += 1
            if stale >= train_cfg.patience:
                break
    return best, history


def _param_list(kind: str, dims: Dims) -> list:
    """The header's ``params`` entry: [name, shape] pairs in payload order."""
    return [[name, list(shape)] for name, shape, _ in _param_shapes(kind, dims)]


def save_checkpoint(ck: Checkpoint, path) -> None:
    d = ck.dims
    header = {
        "kind": ck.kind,
        "dims": vars(d),
        "rollout": {"S": d.S, "T": d.T, "L": d.L, **vars(ck.rollout)},
        "norm_policy": NORM_POLICY,
        "params": _param_list(ck.kind, ck.dims),
        "meta": {
            "epoch": ck.epoch,
            "val_loss": None if math.isnan(ck.val_loss) else ck.val_loss,
            "seed": ck.seed,
        },
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    write_fresh(path, b"".join((CHECKPOINT_MAGIC,
                                struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)),
                                header_bytes, ck.flat.astype("<f8").tobytes())))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint whose header is the one ``save_checkpoint`` writes for its model."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint file (bad magic bytes)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this build reads version {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header_end = 12 + header_len
    if len(blob) < header_end:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
        kind, meta, rollout = header["kind"], header["meta"], {**header["rollout"]}
        geometry = rollout.pop("S"), rollout.pop("T"), rollout.pop("L")
        dims, rollout = Dims(**header["dims"]), RolloutConfig(**rollout)
        epoch, val_loss, seed = meta["epoch"], meta["val_loss"], meta["seed"]
        integers = [*vars(dims).values(), *geometry, rollout.n, epoch, seed]
        if not all(type(value) is int for value in integers):
            raise TypeError("dims, rollout geometry, epoch and seed must be integers")
        if geometry != (dims.S, dims.T, dims.L):
            raise ValueError(f"rollout S, T, L = {geometry} do not match {dims}")
        if header["norm_policy"] != NORM_POLICY:
            raise ValueError(f"norm_policy must be {NORM_POLICY!r}, got {header['norm_policy']!r}")
        if header["params"] != _param_list(kind, dims):
            raise ValueError(f"parameter names or shapes do not match a {kind} model of {dims}")
        if val_loss is not None and type(val_loss) not in (int, float):
            raise TypeError("val_loss must be a JSON number or null")
        val_loss = math.nan if val_loss is None else float(val_loss)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CheckpointFormatError(f"{path}: corrupt header ({exc})") from exc
    total = 8 * param_count(kind, dims)
    if len(blob) - header_end != total:
        raise CheckpointFormatError(
            f"{path}: payload holds {len(blob) - header_end} bytes, header expects {total}"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=header_end)  # read-only; to_forecaster copies
    if not np.all(np.isfinite(flat)):
        raise CheckpointFormatError(f"{path}: payload holds non-finite values")
    return Checkpoint(kind=kind, dims=dims, flat=flat, rollout=rollout, epoch=epoch,
                      val_loss=val_loss, seed=seed)


def write_history_csv(history: list[EpochStats], path) -> None:
    write_fresh(path, "epoch,train_loss,val_loss\n" + "".join(
        f"{row.epoch},{row.train_loss:.17g},{row.val_loss:.17g}\n" for row in history))
