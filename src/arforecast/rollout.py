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
    block_error,
    concat,
    discounted_loss,
    finite_diff_oracle,
    max_relative_error,
    mean_all,
    slice_axis,
)
from .data import Windows
from .models import Forecaster, NormState, apply_norm, forecast


@dataclass(frozen=True)
class RolloutConfig:
    """How many of the model's T-step blocks a rollout chains (n), and the objective's
    discount (gamma) and penalty weight (beta); S, T and L are the model's ``Dims``."""

    n: int = 1
    gamma: float = 0.5
    beta: float = 0.1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must be in (0, 0.5), got {self.beta}")


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


def rollout_predict(model: Forecaster, context: Tensor, cfg: RolloutConfig) -> list[Tensor]:
    """Autoregressive n-block rollout; the n (T, width) blocks. Consumes no ground-truth future.

    Each block's input is the last S rows of the context followed by the
    blocks before it, entered un-detached so gradients flow through the
    whole chain; of each forecast, the rows after its first L are the block.
    """
    S, T, L = model.dims.S, model.dims.T, model.dims.L
    if not isinstance(context, Tensor):
        context = Tensor(context)
    if context.values.ndim != 2 or context.shape[0] != S:
        raise ValueError(f"context must be ({S}, V), got {context.shape}")
    blocks = []
    for _ in range(cfg.n):  # at L = 0 the slice is the whole forecast, with no record
        out = forecast(model, _tail([context] + blocks, S))
        blocks.append(slice_axis(out, 0, L, L + T))
    return blocks


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


def loss_magnitude_factor(cfg: RolloutConfig) -> float:
    """(1 - gamma^n) / (1 - gamma): the objective-to-single-block magnitude ratio."""
    return (1.0 - cfg.gamma ** cfg.n) / (1.0 - cfg.gamma)


def ar_loss(model: Forecaster, windows: Windows, cfg: RolloutConfig) -> BlockErrors:
    """Rollout objective averaged over a batch of windows, each on its own normalized scale.

    Each window's context fixes its normalization state. The B contexts
    are normalized and stacked side by side as the S-by-(B*V) columns of
    one rollout, so e_k is the (1, B) row of per-window block errors, the
    penalty applies to it elementwise, and the loss is the mean of the
    per-window objectives (a batch of one is its own mean).
    """
    if not len(windows):
        raise ValueError("empty batch of windows")
    S, T = model.dims.S, model.dims.T
    contexts, futures = windows.contexts, windows.futures
    if contexts.ndim != 3 or contexts.shape[1] != S:
        raise ValueError(f"window context must be ({S}, V), got {contexts.shape[1:]}")
    B, _, V = contexts.shape
    if futures.shape != (B, cfg.n * T, V):
        raise ValueError(f"window future must be ({cfg.n * T}, {V}), got {futures.shape[1:]}")
    context, future = windows.columns()
    state = NormState.from_context(context)
    ctx_n = apply_norm(context, state)
    fut_n = apply_norm(future, state)

    errors = [
        block_error(block, fut_n[k * T:(k + 1) * T], V)
        for k, block in enumerate(rollout_predict(model, Tensor(ctx_n), cfg))
    ]
    objective = discounted_loss(errors, cfg.gamma, cfg.beta)
    loss = objective if B == 1 else mean_all(objective)
    raw = np.vstack([e.values for e in errors])
    violations = int(np.count_nonzero(raw[1:] < raw[:-1]))
    return BlockErrors(e=errors, loss=loss, violations=violations)


def mse_loss(model: Forecaster, windows: Windows) -> Tensor:
    """Vanilla single-block objective: ar_loss at n=1 on each window's first T future steps."""
    return ar_loss(model, Windows(windows.contexts, windows.futures[:, :model.dims.T],
                                  windows.origins), RolloutConfig(n=1)).loss


def loss_kink_gap(model: Forecaster, window: Windows, cfg: RolloutConfig) -> float:
    """Smallest |input| seen at any relu/abs kink while evaluating ar_loss."""
    with Tape() as tape:
        ar_loss(model, window, cfg)
        return tape.min_kink_gap


def _pinned_loss_value(model: Forecaster, window: Windows, cfg: RolloutConfig,
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
    window: Windows,
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
    names, params = list(model.params.keys()), list(model.params.values())
    with Tape() as tape:
        blocks = ar_loss(model, window, cfg)
        grad_loss, *grad_e = (np.concatenate([g.ravel() for g in tape.gradient(t, params)])
                              for t in [blocks.loss, *blocks.e])
    block_norms = [float(np.linalg.norm(g)) for g in grad_e]
    anchors = [e.item() for e in blocks.e]

    base = model.param_vector()

    def eval_at(vec: np.ndarray) -> float:
        model.set_param_vector(vec)
        return _pinned_loss_value(model, window, cfg, anchors)

    try:
        fd = finite_diff_oracle(eval_at, base, h)
    finally:
        model.set_param_vector(base)

    cuts = np.cumsum([t.values.size for t in params])[:-1]
    per_param = [(name, max_relative_error(g, f, scale_floor))
                 for name, g, f in zip(names, np.split(grad_loss, cuts), np.split(fd, cuts))]

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
