"""Autoregressive rollout prediction and the discounted multi-block objective.

A short-horizon model is extended to long horizons by feeding its own
predictions back as input, one T-step block at a time. Training scores
every block: the first block contributes its MSE directly, and each later
block k adds a geometrically discounted term mixing its MSE with a
monotonicity penalty |e_k - sg(e_{k-1})|. The stop-gradient confines the
penalty's gradient to the current block, so the effective coefficient on
a block's error gradient is 1 when its error exceeds the previous block's,
(1 - beta) at equality, and (1 - 2*beta) when the error decreased, which
damps updates driven by blocks that look accidentally better than their
predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    absolute,
    concat,
    finite_diff_oracle,
    matmul,
    max_relative_error,
    mean_all,
    scale,
    slice_axis,
    stop_gradient,
)
from .data import SeriesWindow
from .models import Forecaster, NormState, apply_norm, forecast


@dataclass(frozen=True)
class RolloutConfig:
    """Rollout geometry and objective weights: (S, T, L, n, gamma, beta)."""

    S: int
    T: int
    L: int = 0
    n: int = 1
    gamma: float = 0.5
    beta: float = 0.1

    def __post_init__(self):
        if self.S < 1:
            raise ValueError(f"S must be >= 1, got {self.S}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.L < 0 or self.L >= self.S:
            raise ValueError(f"L must satisfy 0 <= L < S, got L={self.L}, S={self.S}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must be in (0, 0.5), got {self.beta}")

    @property
    def horizon(self) -> int:
        return self.n * self.T


@dataclass
class RolloutPrediction:
    """Model output over L + n*T steps: the stitched values plus the per-step blocks."""

    values: Tensor
    blocks: list[Tensor]


@dataclass
class BlockErrors:
    """Per-block errors e_1..e_n as (1, B) rows over a batch of B windows (still on tape),
    the batch objective, and how many (window, block) errors fell below the previous block's."""

    e: list[Tensor]
    loss: Tensor
    violations: int


@dataclass
class GradCheckReport:
    """Outcome of checking reverse-mode gradients against the central-difference oracle."""

    max_rel_error: float
    per_param_errors: list[tuple[str, float]]
    step_size: float
    norm_bound_ok: bool
    d_hat: float

    def lines(self) -> list[str]:
        out = [
            f"max_rel_error: {self.max_rel_error:.3e}",
            f"step_size: {self.step_size:.1e}",
            f"norm_bound_ok: {self.norm_bound_ok}",
            f"d_hat: {self.d_hat:.6g}",
        ]
        out.extend(f"  {name}: {err:.3e}" for name, err in self.per_param_errors)
        return out


def _check_model_cfg(model: Forecaster, cfg: RolloutConfig) -> None:
    d = model.dims
    if (d.S, d.T, d.L) != (cfg.S, cfg.T, cfg.L):
        raise ValueError(
            f"model dims (S={d.S}, T={d.T}, L={d.L}) do not match "
            f"rollout config (S={cfg.S}, T={cfg.T}, L={cfg.L})"
        )


def rollout_predict(model: Forecaster, context: Tensor, cfg: RolloutConfig) -> RolloutPrediction:
    """Autoregressive n-block rollout; consumes no ground-truth future.

    Block 1 comes from the raw context. Every later block's input is the
    last S entries of the running sequence whose first S entries are the
    context and whose tail is prior predictions, entered un-detached so
    gradients flow through the whole chain.
    """
    _check_model_cfg(model, cfg)
    if not isinstance(context, Tensor):
        context = Tensor(context)
    if context.values.ndim != 2 or context.shape[0] != cfg.S:
        raise ValueError(f"context must be ({cfg.S}, V), got {context.shape}")
    S, T, L, n = cfg.S, cfg.T, cfg.L, cfg.n

    first = forecast(model, context)
    head = [slice_axis(first, 0, 0, L)] if L > 0 else []
    blocks = [slice_axis(first, 0, L, L + T)]
    for _ in range(1, n):
        out = forecast(model, _tail([context] + blocks, S))
        blocks.append(slice_axis(out, 0, L, L + T))
    return RolloutPrediction(values=_tail(head + blocks, L + n * T), blocks=blocks)


def _tail(pieces: list[Tensor], rows: int) -> Tensor:
    """The last ``rows`` rows of the pieces stacked in order.

    Pieces wholly inside the tail enter as they are; only the one the cut
    falls in is sliced, and a single piece is returned without a concat.
    """
    taken = []
    for piece in reversed(pieces):
        if rows <= 0:
            break
        size = piece.shape[0]
        taken.append(piece if size <= rows else slice_axis(piece, 0, size - rows, size))
        rows -= size
    taken.reverse()
    return taken[0] if len(taken) == 1 else concat(taken, axis=0)


def block_error(pred_block: Tensor, truth_block, V: int | None = None) -> Tensor:
    """Per-window mean squared error of one block, kept differentiable.

    The block holds B windows side by side as groups of ``V`` columns
    (by default one window of all columns); the result is their (1, B) row
    of errors, each the mean over that window's T-by-V entries.
    """
    if not isinstance(truth_block, Tensor):
        truth_block = Tensor(truth_block)
    if pred_block.shape != truth_block.shape:
        raise ValueError(f"block shapes differ: {pred_block.shape} vs {truth_block.shape}")
    rows, width = pred_block.shape
    V = width if V is None else V
    diff = pred_block - truth_block
    per_column = matmul(Tensor(np.full((1, rows), 1.0 / (rows * V))), diff * diff)
    if V == 1:
        return per_column
    return matmul(per_column, Tensor(np.kron(np.eye(width // V), np.ones((V, 1)))))


def discounted_loss(errors: list[Tensor], gamma: float, beta: float) -> Tensor:
    """e_1 + sum_k gamma^k * ((1-beta) * e_{k+1} + beta * |e_{k+1} - sg(e_k)|).

    Accepts beta == 0 so the pure geometric accumulation can be exercised
    on its own; RolloutConfig itself keeps beta strictly positive.
    """
    if not errors:
        raise ValueError("discounted_loss: empty error list")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"beta must be in [0, 0.5), got {beta}")
    loss = errors[0]
    for k in range(1, len(errors)):
        term = scale(errors[k], 1.0 - beta)
        if beta > 0.0:
            gap = absolute(errors[k] - stop_gradient(errors[k - 1]))
            term = term + scale(gap, beta)
        loss = loss + scale(term, gamma ** k)
    return loss


def loss_magnitude_factor(cfg: RolloutConfig) -> float:
    """(1 - gamma^n) / (1 - gamma): the objective-to-single-block magnitude ratio."""
    return (1.0 - cfg.gamma ** cfg.n) / (1.0 - cfg.gamma)


def _batch(windows) -> list:
    """A window (anything with ``context`` and ``future``) is a batch of one."""
    batch = [windows] if hasattr(windows, "context") else list(windows)
    if not batch:
        raise ValueError("empty batch of windows")
    return batch


def ar_loss(model: Forecaster, windows, cfg: RolloutConfig) -> BlockErrors:
    """Rollout objective averaged over a batch of windows, each on its own normalized scale.

    Each window's context fixes its normalization state. The B contexts
    are normalized and stacked side by side as the S-by-(B*V) columns of
    one rollout, so e_k is the (1, B) row of per-window block errors, the
    penalty applies to it elementwise, and the loss is the mean of the
    per-window objectives (a batch of one is its own mean).
    """
    _check_model_cfg(model, cfg)
    batch = _batch(windows)
    context = np.stack([np.asarray(w.context, dtype=np.float64) for w in batch], axis=1)
    future = np.stack([np.asarray(w.future, dtype=np.float64) for w in batch], axis=1)
    if context.ndim != 3 or context.shape[0] != cfg.S:
        raise ValueError(f"window context must be ({cfg.S}, V), got {context.shape[::2]}")
    B, V = context.shape[1:]
    if future.shape != (cfg.horizon, B, V):
        raise ValueError(f"window future must be ({cfg.horizon}, {V}), got {future.shape[::2]}")
    context = context.reshape(cfg.S, B * V)
    state = NormState.from_context(context)
    ctx_n = apply_norm(context, state)
    fut_n = apply_norm(future.reshape(cfg.horizon, B * V), state)

    prediction = rollout_predict(model, Tensor(ctx_n), cfg)
    errors = [
        block_error(block, fut_n[k * cfg.T:(k + 1) * cfg.T], V)
        for k, block in enumerate(prediction.blocks)
    ]
    objective = discounted_loss(errors, cfg.gamma, cfg.beta)
    loss = objective if B == 1 else mean_all(objective)
    raw = np.vstack([e.values for e in errors])
    violations = int(np.count_nonzero(raw[1:] < raw[:-1]))
    return BlockErrors(e=errors, loss=loss, violations=violations)


def mse_loss(model: Forecaster, windows) -> Tensor:
    """Vanilla single-block objective: ar_loss at n=1 on each window's first T future steps."""
    d = model.dims
    batch = [SeriesWindow(w.context, np.asarray(w.future, dtype=np.float64)[:d.T], w.origin_index)
             for w in _batch(windows)]
    return ar_loss(model, batch, RolloutConfig(S=d.S, T=d.T, L=d.L, n=1)).loss


def loss_kink_gap(model: Forecaster, window, cfg: RolloutConfig) -> float:
    """Smallest |input| seen at any relu/abs kink while evaluating ar_loss."""
    with Tape() as tape:
        ar_loss(model, window, cfg)
        return tape.min_kink_gap


def _pinned_loss_value(model: Forecaster, window, cfg: RolloutConfig,
                       anchors: list[float]) -> float:
    """ar_loss value with every stop-gradient operand frozen to ``anchors``.

    Plain-float accumulation, independent of the tape and of
    discounted_loss; used only as the finite-difference surrogate.
    """
    raw = [e.item() for e in ar_loss(model, window, cfg).e]
    value = raw[0]
    for k in range(1, cfg.n):
        value += cfg.gamma ** k * (
            (1.0 - cfg.beta) * raw[k] + cfg.beta * abs(raw[k] - anchors[k - 1])
        )
    return value


def check_gradients(
    model: Forecaster,
    window,
    cfg: RolloutConfig,
    h: float = 1e-4,
    scale_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ar_loss against the central-difference oracle.

    The objective's gradient is defined with the detached previous-block
    errors held constant, so the oracle differentiates the surrogate in
    which those anchors are frozen at their base-point values; a naive
    difference of the raw forward value would re-open the blocked path.

    Also verifies the per-sample gradient-norm bound
    ||grad loss|| <= sum_k gamma^(k-1) * ||grad e_k||
    (and the looser 1/(1-gamma) * max_k form), reporting the largest
    per-block gradient norm as d_hat.
    """
    names = list(model.params.keys())
    with Tape() as tape:
        blocks = ar_loss(model, window, cfg)
        grad_loss = np.concatenate(
            [g.ravel() for g in tape.gradient(blocks.loss, list(model.params.values()))]
        )
        block_norms = []
        for e in blocks.e:
            ge = np.concatenate(
                [g.ravel() for g in tape.gradient(e, list(model.params.values()))]
            )
            block_norms.append(float(np.linalg.norm(ge)))
    anchors = [e.item() for e in blocks.e]

    base = model.param_vector()

    def eval_at(vec: np.ndarray) -> float:
        model.set_param_vector(vec)
        return _pinned_loss_value(model, window, cfg, anchors)

    try:
        fd = finite_diff_oracle(eval_at, base, h)
    finally:
        model.set_param_vector(base)

    per_param = []
    offset = 0
    for name in names:
        size = model.params[name].values.size
        err = max_relative_error(
            grad_loss[offset:offset + size], fd[offset:offset + size], scale_floor
        )
        per_param.append((name, err))
        offset += size

    loss_norm = float(np.linalg.norm(grad_loss))
    triangle = sum(cfg.gamma ** k * block_norms[k] for k in range(cfg.n))
    d_hat = max(block_norms)
    bound_ok = loss_norm <= triangle and loss_norm < d_hat / (1.0 - cfg.gamma) + 1e-9
    return GradCheckReport(
        max_rel_error=max(err for _, err in per_param),
        per_param_errors=per_param,
        step_size=h,
        norm_bound_ok=bound_ok,
        d_hat=d_hat,
    )
