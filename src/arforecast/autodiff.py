"""Reverse-mode automatic differentiation on a per-evaluation tape.

Dense float64 tensors plus only the ops the forecasting models and the
rollout objective record: ``w @ x + b``, relu, the attention model's
attention and feed-forward sublayers as one record each, slicing, the
rollout's input windows, and the whole batch objective of a rollout as
one record. That record holds the block errors, their discounted sum and
the monotonicity penalty's abs and stop-gradient, so the engine has no
generic arithmetic ops.

A ``Tape`` is built fresh for every loss evaluation (define-by-run) and
is a single-threaded unit of work; separate tapes share no mutable state
and may live on separate threads. Operations record onto the innermost
active tape of the current thread; with no active tape they compute
values only, which is the fast path used for inference and for the
finite-difference oracle.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

_LN_EPS = 1e-5  # layer_norm variance floor
_RELATIVE_ERROR_FLOOR = 1e-6  # max_relative_error's denominator floor

_serials = itertools.count(1)


class _ThreadTapes(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []  # this thread's active tapes, innermost last


_local = _ThreadTapes()


def active_tape() -> "Tape | None":
    """The innermost tape of the current thread, or None."""
    stack = _local.stack
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array, optionally tracked on the active tape.

    Construction copies ``values``; ``Tensor.view`` does not. A tensor with
    ``requires_grad`` becomes a leaf of whichever tape first consumes it, so
    persistent parameters can be reused across the per-evaluation tapes.
    """

    __slots__ = ("values", "requires_grad", "tape_serial", "node_id")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.array(values, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.tape_serial: int | None = None
        self.node_id: int | None = None

    @classmethod
    def view(cls, values: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """A tensor over ``values`` itself, without the copy; ``values`` is C-ordered float64."""
        out = cls.__new__(cls)
        out.values = values
        out.requires_grad = requires_grad
        out.tape_serial = out.node_id = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.values.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Append-only record of operations, in topological order.

    Records hold (output id, input ids, local-gradient rule, saved
    context). A tensor gets a node id on this tape only when a recorded op
    consumes it (a ``requires_grad`` leaf) or produces it.
    """

    def __init__(self):
        self.serial = next(_serials)
        self.records: list[tuple[int, tuple[int | None, ...], object, tuple]] = []
        self._next_id = 0

    def __enter__(self) -> "Tape":
        _local.stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _local.stack.pop()
        assert popped is self
        return False

    def _node_for(self, tensor: Tensor) -> int | None:
        if tensor.tape_serial != self.serial:
            if not tensor.requires_grad:
                return None
            tensor.tape_serial = self.serial
            tensor.node_id = self._next_id
            self._next_id += 1
        return tensor.node_id

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], rule, ctx: tuple) -> None:
        ids = tuple(self._node_for(t) for t in inputs)
        if all(i is None for i in ids):
            return
        out.tape_serial = self.serial
        out.node_id = self._next_id
        self._next_id += 1
        self.records.append((out.node_id, ids, rule, ctx))

    @property
    def min_kink_gap(self) -> float:
        """Smallest |x| at any recorded kink: relu and ffn_sublayer inputs, the penalty gaps of
        rollout_objective."""
        kinks = (_relu_rule, _ffn_sublayer_rule, _rollout_objective_rule)  # late-bound
        return min((float(np.min(np.abs(ctx[0]), initial=np.inf))
                    for _, _, rule, ctx in self.records if rule in kinks), default=float("inf"))

    def gradient(self, loss: Tensor, tensors: list[Tensor]) -> list[np.ndarray]:
        """d(loss)/d(tensor) for each of ``tensors``, in order.

        ``loss`` must be scalar. Each record is visited exactly once, in
        reverse topological (= reverse append) order. A tensor the loss
        never reaches, or that this tape never saw, gets exact zeros.
        Adjoint arrays are never mutated in place, so shared references
        stay safe; the returned arrays may share memory with each other.
        """
        if not isinstance(loss, Tensor) or loss.values.size != 1:
            raise ValueError("gradient requires a scalar loss tensor")
        grads: dict[int, np.ndarray] = {}
        if loss.tape_serial == self.serial:
            grads[loss.node_id] = np.ones_like(loss.values)
        for out_id, in_ids, rule, ctx in reversed(self.records):
            upstream = grads.pop(out_id, None)
            if upstream is None:
                continue
            for node_id, contrib in zip(in_ids, rule(ctx, upstream)):
                if node_id is None or contrib is None:
                    continue
                held = grads.get(node_id)
                grads[node_id] = contrib if held is None else held + contrib
        found = [grads.get(t.node_id) if t.tape_serial == self.serial else None for t in tensors]
        return [np.zeros_like(t.values) if g is None else g for t, g in zip(tensors, found)]


def _emit(values, inputs: tuple[Tensor, ...], rule, ctx: tuple) -> Tensor:
    """Wrap an op's freshly computed values, without the copy ``Tensor()`` makes.

    A C-contiguous slice stays a view of its input; no op writes to its
    inputs or outputs in place, so the view is never changed through. A
    ``_stitch`` window is a view of its caller's buffer, and records may save
    it for their backward: a window's rows are never written after the
    window is taken.
    """
    out = Tensor.view(np.asarray(values, dtype=np.float64, order="C"))
    tape = active_tape()
    if tape is not None:
        tape.record(out, inputs, rule, ctx)
    return out


# Local-gradient rules. Module-level on purpose: records resolve them at
# op time, so a test harness can swap one out as a negative control.

def _scale_rule(ctx, g):
    (c,) = ctx
    return (g * c,)


def _affine_rule(ctx, g):
    # the bias gradient is g @ ones.T, not np.sum(g, axis=1): the two round differently in the
    # last bit, and the product keeps checkpoints byte-identical to a ones-matrix bias broadcast
    w, x = ctx
    return g @ x.T, w.T @ g, g @ np.ones((1, g.shape[1])).T


def _relu_rule(ctx, g):
    (x,) = ctx
    return (g * (x > 0.0),)


def _mean_rule(ctx, g):
    shape, size = ctx
    return (np.full(shape, float(g) / size),)


def _stitch_rule(ctx, g):
    # each block its rows of the window's gradient; a block the window cuts at the top gets
    # zero rows there, as a slice of it would
    lo, sizes = ctx
    grads = []
    for size in sizes:
        grads.append(g[lo:lo + size] if lo >= 0 else
                     np.concatenate([np.zeros((-lo,) + g.shape[1:]), g[:lo + size]]))
        lo += size
    return tuple(grads)


def _slice_rule(ctx, g):
    shape, axis, start, stop = ctx
    out = np.zeros(shape)
    index = [slice(None)] * len(shape)
    index[axis] = slice(start, stop)
    out[tuple(index)] = g
    return (out,)


def _softmax_rule(ctx, g):
    y, axis = ctx
    return (y * (g - np.add.reduce(g * y, axis, keepdims=True)),)


def _layer_norm_rule(ctx, g):
    y, inv, axis = ctx
    n = y.shape[axis]
    g_mean = np.add.reduce(g, axis, keepdims=True) / n
    gy_mean = np.add.reduce(g * y, axis, keepdims=True) / n
    return (inv * (g - g_mean - y * gy_mean),)


def _window_scores_rule(ctx, g):
    q3, k3 = ctx  # (B, h, V) each
    g3 = g.reshape(q3.shape[0], q3.shape[2], q3.shape[2])
    return _unwindow(k3 @ g3.transpose(0, 2, 1)), _unwindow(q3 @ g3)


def _window_mix_rule(ctx, g):
    v3, a3 = ctx  # (B, h, V) and (B, V, V)
    g3 = _windows(g, a3.shape[2])
    return _unwindow(g3 @ a3), (g3.transpose(0, 2, 1) @ v3).reshape(-1, a3.shape[2])


def _attention_sublayer_rule(ctx, g):
    # the composite's rules in reverse record order; tokens sums its four uses in that order too
    x, wq, wk, wv, wo, qk, c, attn, va, mix, y, inv = ctx
    (g,) = _layer_norm_rule((y, inv, 0), g)
    g_wo, g_mix, g_bo = _affine_rule((wo, mix), g)
    g_val, g_attn = _window_mix_rule(va, g_mix)
    (g_scores,) = _scale_rule((c,), *_softmax_rule((attn, 1), g_attn))
    g_q, g_k = _window_scores_rule(qk, g_scores)
    g_wv, g_xv, g_bv = _affine_rule((wv, x), g_val)
    g_wk, g_xk, g_bk = _affine_rule((wk, x), g_k)
    g_wq, g_xq, g_bq = _affine_rule((wq, x), g_q)
    return ((g + g_xv) + g_xk) + g_xq, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo


def _ffn_sublayer_rule(ctx, g):
    pre, x, w1, w2, r, y, inv = ctx  # pre, the relu input, first: min_kink_gap reads it
    (g,) = _layer_norm_rule((y, inv, 0), g)
    g_w2, g_r, g_b2 = _affine_rule((w2, r), g)
    g_w1, g_x, g_b1 = _affine_rule((w1, x), *_relu_rule((pre,), g_r))
    return g + g_x, g_w1, g_b1, g_w2, g_b2


def _rollout_objective_rule(ctx, g):
    # the mean's rule, then the discounted sum's and the block errors' on the n stacked blocks:
    # elementwise, in the term-by-term form's order, so the floats are that chain's
    gaps, diff, c, V, gamma, beta = ctx
    B = diff.shape[2] // V
    (g,) = _mean_rule(((1, B), B), g)
    # e_1..e_n's upstream values, stacked as (n, 1, B): g on e_1, then g gamma^(k-1)
    # ((1 - beta) + beta sign(e_k - e_{k-1})), that is 1, 1 - beta or 1 - 2 beta times
    # g gamma^(k-1) as the error rose, held or fell
    gk = g * np.array([gamma ** k for k in range(1, len(diff))]).reshape(-1, 1, 1)
    coef = gk * (1.0 - beta)
    g = np.concatenate([g[None], coef if beta == 0.0 else coef + gk * beta * np.sign(gaps)])
    # 2 (pred - truth) / (T V) times each window's upstream value
    return tuple(2.0 * ((c * np.repeat(g, V, axis=-1)) * diff))


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``w @ x + b`` for an (m, 1) bias column ``b``, as one record."""
    if w.values.ndim != 2 or x.values.ndim != 2 or b.shape != (w.shape[0], 1) \
            or w.shape[1] != x.shape[0]:
        raise ValueError(f"affine: {w.shape} @ {x.shape} + {b.shape} is not (m,k) @ (k,n) + (m,1)")
    return _emit(w.values @ x.values + b.values, (w, x, b), _affine_rule, (w.values, x.values))


def rollout_objective(blocks: list[Tensor], truth: np.ndarray, V: int, gamma: float,
                      beta: float) -> tuple[Tensor, np.ndarray]:
    """The mean over the B windows of e_1 + sum_k gamma^k ((1 - beta) e_{k+1} + beta
    |e_{k+1} - sg(e_k)|), with e_k a window's mean squared error over block k, as one record;
    and the (n, B) block errors.

    ``blocks`` are the n (T, B*V) blocks of a rollout of B windows side by side as groups of
    ``V`` columns, and ``truth`` their (n T, B*V) targets, a constant. The errors come from one
    stacked difference and one stacked product with the (1, T) row of 1 / (T V). The record
    saves the penalty's kinks e_{k+1} - e_k first (none if beta == 0).
    """
    if not blocks:
        raise ValueError("rollout_objective: no blocks")
    _check_discount(gamma, beta)
    pred = np.stack([block.values for block in blocks])  # raises on differing shapes
    n, T, width = pred.shape
    if truth.shape != (n * T, width) or V < 1 or width % V:
        raise ValueError(f"rollout_objective: {n} blocks of {(T, width)} and targets of "
                         f"{truth.shape} are not whole {V}-column windows")
    diff = pred - truth.reshape(n, T, width)
    e, c = _window_mse(diff, V)  # (n, 1, B)
    loss, gaps = _discounted_values(e, gamma, beta)
    # np.add.reduce(..) / size is np.mean, unwrapped
    out = _emit(np.add.reduce(loss, None) / loss.size, tuple(blocks), _rollout_objective_rule,
                (gaps, diff, c, V, gamma, beta))
    return out, e.reshape(n, -1)


def _check_discount(gamma: float, beta: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not 0.0 <= beta < 0.5:
        raise ValueError(f"beta must be in [0, 0.5), got {beta}")


def _window_mse(diff: np.ndarray, V: int):
    """(each window's mean squared error over ``diff``'s last two axes, a (T, B*V) block of B
    windows side by side, as (..., 1, B); the 1 / (T V) it is scaled by). The products are the
    composite form's, and so are the values."""
    T, width = diff.shape[-2:]
    c = 1.0 / (T * V)
    errors = np.full((1, T), c) @ (diff * diff)
    if V > 1:
        errors = errors @ np.repeat(np.eye(width // V), V, axis=0)
    return errors, c


def _discounted_values(e: np.ndarray, gamma: float, beta: float):
    """(the discounted sum with its penalty over the errors stacked in ``e``, the penalty's
    gaps e_{k+1} - e_k, none if beta == 0)."""
    gaps = e[1:] - e[:-1] if beta > 0.0 else e[:0]
    loss = e[0]
    for k in range(1, len(e)):
        term = e[k] * (1.0 - beta)
        term = term if beta == 0.0 else term + np.abs(gaps[k - 1]) * beta
        loss = loss + term * gamma ** k
    return loss, gaps


def _windows(x: np.ndarray, V: int) -> np.ndarray:
    """(h, B*V) -> (B, h, V): window b is the column group b*V .. (b+1)*V."""
    h, width = x.shape
    return x.reshape(h, width // V, V).transpose(1, 0, 2)


def _unwindow(x3: np.ndarray) -> np.ndarray:
    """Inverse of ``_windows``: (B, h, V) -> (h, B*V)."""
    B, h, V = x3.shape
    return x3.transpose(1, 0, 2).reshape(h, B * V)


def _check_windows(op: str, a: Tensor, V: int) -> None:
    if a.values.ndim != 2 or V < 1 or a.values.shape[1] % V:
        raise ValueError(f"{op}: expects a 2-d operand of whole {V}-column windows, got {a.shape}")


def _window_scores_values(q: np.ndarray, k: np.ndarray, V: int):
    """(per-window q_b.T @ k_b stacked as (B*V, V), the saved (q3, k3))."""
    q3, k3 = _windows(q, V), _windows(k, V)
    return (q3.transpose(0, 2, 1) @ k3).reshape(-1, V), (q3, k3)


def _window_mix_values(val: np.ndarray, attn: np.ndarray, V: int):
    """(per-window val_b @ attn_b.T stacked back as C-ordered (h, B*V), the saved (v3, a3))."""
    h, width = val.shape
    v3, a3 = _windows(val, V), attn.reshape(-1, V, V)
    # (attn_b @ val_b.T).T is val_b @ attn_b.T; the (B, V, h) product flattens without a copy
    return np.ascontiguousarray((a3 @ v3.transpose(0, 2, 1)).reshape(width, h).T), (v3, a3)


def attention_sublayer(tokens: Tensor, q_w: Tensor, q_b: Tensor, k_w: Tensor, k_b: Tensor,
                       v_w: Tensor, v_b: Tensor, o_w: Tensor, o_b: Tensor, V: int) -> Tensor:
    """``layer_norm(tokens + affine(o, window_mix(val, softmax(scale(window_scores(q, k, V),
    1/sqrt(h)), 1), V)), 0)`` for q, k, val = affine(q|k|v, tokens): one record, same floats."""
    _check_windows("attention_sublayer", tokens, V)
    x = tokens.values
    q, k, val = (w.values @ x + b.values for w, b in ((q_w, q_b), (k_w, k_b), (v_w, v_b)))
    scores, qk = _window_scores_values(q, k, V)
    c = 1.0 / math.sqrt(x.shape[0])
    attn = _softmax_values(scores * c, 1)
    mix, va = _window_mix_values(val, attn, V)
    y, inv = _layer_norm_values(x + (o_w.values @ mix + o_b.values), 0)
    return _emit(y, (tokens, q_w, q_b, k_w, k_b, v_w, v_b, o_w, o_b), _attention_sublayer_rule,
                 (x, q_w.values, k_w.values, v_w.values, o_w.values, qk, c, attn, va, mix, y, inv))


def ffn_sublayer(x1: Tensor, ff1_w: Tensor, ff1_b: Tensor, ff2_w: Tensor, ff2_b: Tensor) -> Tensor:
    """``layer_norm(x1 + affine(ff2, relu(affine(ff1, x1))), 0)``: one record, same floats."""
    x = x1.values
    pre = ff1_w.values @ x + ff1_b.values
    r = np.maximum(pre, 0.0)
    y, inv = _layer_norm_values(x + (ff2_w.values @ r + ff2_b.values), 0)
    return _emit(y, (x1, ff1_w, ff1_b, ff2_w, ff2_b), _ffn_sublayer_rule,
                 (pre, x, ff1_w.values, ff2_w.values, r, y, inv))


def relu(a: Tensor) -> Tensor:
    return _emit(np.maximum(a.values, 0.0), (a,), _relu_rule, (a.values,))


def _stitch(window: np.ndarray, blocks: tuple[Tensor, ...], lo: int, sizes: list[int]) -> Tensor:
    """A rollout step's input ``window``, rows of a buffer that end with copies of ``blocks``
    back to back, as one record with the blocks as inputs; unchecked: ``lo`` is the first
    block's row in the window and ``sizes`` the blocks' row counts, which the caller has made
    fit.

    The value is ``window`` itself, a view of the buffer; rows before the blocks are
    constants. The first block may start above the window (``lo`` < 0), and gets zero
    gradient rows there. A window that is exactly one block is that block, with no record.
    """
    if lo == 0 and len(sizes) == 1:
        return blocks[0]
    return _emit(window, blocks, _stitch_rule, (lo, sizes))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    ndim = a.values.ndim
    if not 0 <= axis < ndim:
        raise ValueError(f"slice_axis: axis {axis} out of range for shape {a.shape}")
    if not (0 <= start < stop <= a.shape[axis]):
        raise ValueError(f"slice_axis: bounds [{start}, {stop}) invalid for extent {a.shape[axis]}")
    if stop - start == a.shape[axis]:  # the whole axis is the tensor itself, with no record
        return a
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return _emit(a.values[tuple(index)], (a,), _slice_rule, (a.values.shape, axis, start, stop))


def _softmax_values(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis, keepdims=True))
    return e / np.add.reduce(e, axis, keepdims=True)


def _layer_norm_values(x: np.ndarray, axis: int):
    """(normalized x, saved 1/sqrt(var + eps)); np.add.reduce(..) / n is np.mean, unwrapped."""
    n = x.shape[axis]
    centered = x - np.add.reduce(x, axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis, keepdims=True) / n + _LN_EPS)
    return centered * inv, inv


def finite_diff_oracle(eval_fn, params, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Independent of the tape machinery by construction: it only calls
    ``eval_fn`` on perturbed copies of ``params``.
    """
    if h <= 0:
        raise ValueError("finite_diff_oracle: h must be positive")
    p = np.asarray(params, dtype=np.float64).ravel()
    grad = np.empty_like(p)
    for i in range(p.size):
        bump = np.zeros_like(p)
        bump[i] = h
        grad[i] = (eval_fn(p + bump) - eval_fn(p - bump)) / (2.0 * h)
    return grad


def max_relative_error(a, b) -> float:
    """Largest coordinate-wise relative difference between two arrays.

    Coordinates where both magnitudes sit below ``_RELATIVE_ERROR_FLOOR`` are
    compared against the floor instead, so exact-zero gradients do not
    turn finite-difference roundoff into spurious relative error.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"max_relative_error: size mismatch {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), _RELATIVE_ERROR_FLOOR)
    return float(np.max(np.abs(a - b) / denom))
