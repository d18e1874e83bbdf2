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
    _check_discount,
    _stitch,
    finite_diff_oracle,
    max_relative_error,
    rollout_objective,
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
        _check_discount(self.gamma, self.beta)


class BlockErrors:
    """The batch objective (one record), its (n, B) per-block errors e_1..e_n over a batch of
    B windows, and how many (window, block) errors fell below the previous block's; with the n
    (T, B*V) ``blocks`` and the normalized (n T, B*V) ``truth`` that the record scored.
    """

    def __init__(self, loss: Tensor, errors: np.ndarray, blocks: list[Tensor],
                 truth: np.ndarray):
        self.loss, self.errors, self.blocks, self.truth = loss, errors, blocks, truth
        self.violations = int(np.count_nonzero(errors[1:] < errors[:-1]))


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


def rollout_predict(model: Forecaster, context: np.ndarray,
                    cfg: RolloutConfig) -> tuple[list[Tensor], NormState]:
    """Autoregressive n-block rollout of a raw (S, width) context; the n (T, width) blocks, on
    the context's z-scored scale, and that scale's ``NormState``. Reads no ground-truth future.

    The z-scored context fills rows [0, S) of one (S + n T, width) buffer and block k is
    copied to rows [S + kT, S + (k+1)T), so step k's input is the ``_stitch`` window
    [kT, kT + S): the last S rows of the context and the blocks before it, entered
    un-detached so gradients flow through the whole chain. Of each forecast, the rows after
    its first L are the block, a one-block ``_stitch`` that cuts those L off. The context is
    checked once, here; ``Dims`` and ``RolloutConfig`` have checked S, T, L and n, so every
    window and block fits by construction.
    """
    S, T, L = model.dims.S, model.dims.T, model.dims.L
    context = np.asarray(context, dtype=np.float64)
    if context.ndim != 2 or context.shape[0] != S:
        raise ValueError(f"context must be ({S}, V), got {context.shape}")
    state = NormState.from_context(context)
    rows = np.empty((S + cfg.n * T, context.shape[1]))
    rows[:S] = apply_norm(context, state)
    blocks, reach = [], -(-S // T)  # a window holds parts of at most ceil(S / T) blocks
    for k in range(cfg.n):
        used = tuple(blocks[-reach:])
        out = forecast(model, _stitch(rows[k * T:k * T + S], used, S - len(used) * T, T))
        block = _stitch(out.values[L:], (out,), -L, L + T)
        rows[S + k * T:S + (k + 1) * T] = block.values
        blocks.append(block)
    return blocks, state


def loss_magnitude_factor(cfg: RolloutConfig) -> float:
    """(1 - gamma^n) / (1 - gamma): the objective-to-single-block magnitude ratio."""
    return (1.0 - cfg.gamma ** cfg.n) / (1.0 - cfg.gamma)


def ar_loss(model: Forecaster, windows: Windows, cfg: RolloutConfig) -> BlockErrors:
    """Rollout objective averaged over a batch of windows, each on its own normalized scale.

    Each window's context fixes its normalization state. The B contexts
    are stacked side by side as the S-by-(B*V) columns of one rollout,
    which z-scores them and whose ``NormState`` scales the futures, so e_k
    is the (1, B) row of per-window block errors, the penalty applies to
    it elementwise, and the loss is the mean of the per-window objectives
    (a batch of one is its own mean).
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
    blocks, state = rollout_predict(model, context, cfg)
    fut_n = apply_norm(future, state)
    return BlockErrors(*rollout_objective(blocks, fut_n, V, cfg.gamma, cfg.beta), blocks, fut_n)


def mse_loss(model: Forecaster, windows: Windows) -> Tensor:
    """Vanilla single-block objective: ar_loss at n=1 on each window's first T future steps."""
    return ar_loss(model, Windows(windows.contexts, windows.futures[:, :model.dims.T],
                                  windows.origins), RolloutConfig(n=1)).loss


def loss_kink_gap(model: Forecaster, window: Windows, cfg: RolloutConfig) -> float:
    """Smallest |x| at any kink ar_loss records: a relu input or a penalty gap e_{k+1} - e_k."""
    with Tape() as tape:
        ar_loss(model, window, cfg)
        return tape.min_kink_gap


def check_gradients(model: Forecaster, window: Windows, cfg: RolloutConfig,
                    h: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ar_loss against the central-difference oracle.

    The objective's gradient is defined with the detached previous-block
    errors held constant, so the oracle differentiates the surrogate in
    which those anchors are frozen at their base-point values; a naive
    difference of the raw forward value would re-open the blocked path.

    Also verifies the per-sample gradient-norm bound
    ||grad loss|| <= sum_k gamma^(k-1) * ||grad e_k||
    (and the looser 1/(1-gamma) * max_k form), reporting the largest
    per-block gradient norm as d_hat. Block k's gradient is that of a one-block
    ``rollout_objective`` record of block k, which for one window is e_k.
    """
    if len(window) != 1:
        raise ValueError(f"check_gradients takes one window, got a batch of {len(window)}")
    names, params = list(model.params.keys()), list(model.params.values())
    T, V = model.dims.T, window.contexts.shape[2]
    with Tape() as tape:
        blocks = ar_loss(model, window, cfg)
        e = [rollout_objective([block], blocks.truth[k * T:(k + 1) * T], V, cfg.gamma,
                               cfg.beta)[0] for k, block in enumerate(blocks.blocks)]
        grad_loss, *grad_e = (np.concatenate([g.ravel() for g in tape.gradient(t, params)])
                              for t in [blocks.loss, *e])
    block_norms = [float(np.linalg.norm(g)) for g in grad_e]
    anchors = blocks.errors[:, 0].tolist()
    base = model.param_vector()

    def pinned_loss(vec: np.ndarray) -> float:
        # the finite-difference surrogate: ar_loss at ``vec`` with every stop-gradient operand
        # frozen to ``anchors``, accumulated in plain floats apart from the tape
        model.set_param_vector(vec)
        raw = ar_loss(model, window, cfg).errors[:, 0].tolist()
        value = raw[0]
        for k in range(1, cfg.n):
            value += cfg.gamma ** k * (
                (1.0 - cfg.beta) * raw[k] + cfg.beta * abs(raw[k] - anchors[k - 1])
            )
        return value

    try:
        fd = finite_diff_oracle(pinned_loss, base, h)
    finally:
        model.set_param_vector(base)

    cuts = np.cumsum([t.values.size for t in params])[:-1]
    per_param = [(name, max_relative_error(g, f))
                 for name, g, f in zip(names, np.split(grad_loss, cuts), np.split(fd, cuts))]

    loss_norm = float(np.linalg.norm(grad_loss))
    triangle = sum(cfg.gamma ** k * block_norms[k] for k in range(cfg.n))
    d_hat = max(block_norms)
    bound_ok = loss_norm <= triangle and loss_norm < d_hat / (1.0 - cfg.gamma) + 1e-9
    return GradCheckReport(max_rel_error=max(err for _, err in per_param),
                           per_param_errors=per_param, step_size=h, norm_bound_ok=bound_ok,
                           d_hat=d_hat)
