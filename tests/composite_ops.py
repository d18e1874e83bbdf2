"""Single-op references the tests compose the fused ops from.

The engine records only the ops the models and the objective use. These
rebuild, on the engine's ``_emit`` and its private value helpers and
rules, the single ops that the fused records replace: elementwise sum,
difference and product, scaling, abs, a stop-gradient (the identity forward,
no gradient backward), matrix product, full sum and mean, softmax, layer
norm, the two per-window products, a bias-column add and concatenation.
Each computes and differentiates with the floats of the single-op form, so a
test can compare a fused record with them bit for bit. They do no input
validation: tests give them valid shapes. The engine's ``Tape.min_kink_gap``
does not read their abs records; ``abs_kink_gap`` does.

``block_error`` (one block's per-window errors) and ``discounted_loss`` (the
discounted sum with its penalty) are the objective's two ops from before
``rollout_objective`` became the engine's one objective record. They check
their inputs as they did, and their rules hold copies of the two gradient
kernels that rule was folded from, so their floats are the engine's; the
engine's ``min_kink_gap`` reads neither; ``abs_kink_gap`` reads the penalty gaps.

``stitch`` is the engine's ``_stitch`` record behind the checks it had as a
public op, when ``arforecast.autodiff`` exported it; only tests called it.
``rollout_predict`` is the rollout as it stitched each step's input from
pieces (the context and the blocks, cut with ``slice_axis`` and joined with
``concat``) before the one-buffer ``_stitch`` record replaced it.
``checked_rollout_predict`` is the one-buffer rollout with every step's
window taken through the checked ``stitch`` and every block through
``slice_axis``, as it was before its steps skipped those checks.
"""

import numpy as np

import arforecast.autodiff as ad
from arforecast.models import NormState, apply_norm, forecast


def _add_rule(ctx, g):
    return g, g


def _sub_rule(ctx, g):
    return g, -g


def _abs_rule(ctx, g):
    (x,) = ctx
    return (g * np.sign(x),)


def _mul_rule(ctx, g):
    a, b = ctx
    return g * b, g * a


def _matmul_rule(ctx, g):
    a, b = ctx
    return g @ b.T, a.T @ g


def _sum_rule(ctx, g):
    (shape,) = ctx
    return (np.full(shape, float(g)),)


def _add_column_rule(ctx, g):
    (width,) = ctx
    return g, g @ np.ones((1, width)).T


def _concat_rule(ctx, g):
    axis, sizes = ctx
    return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))


def add(a, b):
    return ad._emit(a.values + b.values, (a, b), _add_rule, ())


def sub(a, b):
    return ad._emit(a.values - b.values, (a, b), _sub_rule, ())


def scale(a, c):
    return ad._emit(a.values * c, (a,), ad._scale_rule, (c,))


def absolute(a):
    return ad._emit(np.abs(a.values), (a,), _abs_rule, (a.values,))


def stop_gradient(a):
    """The values, bit for bit, as a constant: no gradient flows back through it."""
    return ad.Tensor(a.values)


def abs_kink_gap(tape):
    """Smallest |input| of the tape's ``absolute`` records and smallest penalty gap of its
    ``discounted_loss`` records: their kinks, which ``tape.min_kink_gap`` does not read."""
    return min((float(np.min(np.abs(ctx[0]), initial=np.inf)) for _, _, rule, ctx in tape.records
                if rule in (_abs_rule, _discounted_loss_rule)), default=float("inf"))


def mul(a, b):
    return ad._emit(a.values * b.values, (a, b), _mul_rule, (a.values, b.values))


def matmul(a, b):
    return ad._emit(a.values @ b.values, (a, b), _matmul_rule, (a.values, b.values))


def sum_all(a):
    return ad._emit(np.sum(a.values), (a,), _sum_rule, (a.values.shape,))


def mean_all(a):
    return ad._emit(np.mean(a.values), (a,), ad._mean_rule, (a.values.shape, a.values.size))


def add_column(m, col):
    """``m`` plus the (n, 1) ``col`` in each of its columns; ``col``'s gradient is g @ ones.T."""
    return ad._emit(m.values + col.values, (m, col), _add_column_rule, (m.shape[1],))


def softmax(a, axis):
    y = ad._softmax_values(a.values, axis)
    return ad._emit(y, (a,), ad._softmax_rule, (y, axis))


def layer_norm(a, axis):
    y, inv = ad._layer_norm_values(a.values, axis)
    return ad._emit(y, (a,), ad._layer_norm_rule, (y, inv, axis))


def window_scores(q, k, V):
    """Per-window ``q_b.T @ k_b`` of (h, B*V) operands, stacked as (B*V, V)."""
    out, saved = ad._window_scores_values(q.values, k.values, V)
    return ad._emit(out, (q, k), ad._window_scores_rule, saved)


def window_mix(val, attn, V):
    """Per-window ``val_b @ attn_b.T`` for the (B*V, V) stack ``attn``, as (h, B*V)."""
    out, saved = ad._window_mix_values(val.values, attn.values, V)
    return ad._emit(out, (val, attn), ad._window_mix_rule, saved)


def concat(tensors, axis=0):
    sizes = [t.shape[axis] for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    return ad._emit(values, tuple(tensors), _concat_rule, (axis, sizes))


def _tail(pieces, rows):
    """The last ``rows`` rows of the pieces stacked in order.

    Pieces wholly inside the tail enter as they are; only the one the cut
    falls in is sliced, and a single piece is returned without a concat.
    """
    taken = []
    for piece in reversed(pieces):
        if rows <= 0:
            break
        size = piece.shape[0]
        taken.append(piece if size <= rows else ad.slice_axis(piece, 0, size - rows, size))
        rows -= size
    taken.reverse()
    return taken[0] if len(taken) == 1 else concat(taken, axis=0)


def _discount_coefficients(g, gaps, gamma, beta, n):
    # e_1..e_n's upstream values for their discounted sum's upstream g, stacked as (n, *g.shape):
    # g on e_1, then g gamma^(k-1) times 1, 1 - beta or 1 - 2 beta as the error rose, held or fell
    gk = g * np.array([gamma ** k for k in range(1, n)]).reshape((-1,) + (1,) * g.ndim)
    coef = gk * (1.0 - beta)
    return np.concatenate([g[None], coef if beta == 0.0 else coef + gk * beta * np.sign(gaps)])


def _window_error_grad(g, diff, c, V):
    # 2 (pred - truth) / (T V) times each window's upstream value
    return 2.0 * ((c * np.repeat(g, V, axis=-1)) * diff)


def _block_error_rule(ctx, g):
    grad = _window_error_grad(g, *ctx)  # ctx is (diff, c, V)
    return grad, -grad


def _discounted_loss_rule(ctx, g):
    return tuple(_discount_coefficients(g, *ctx))  # ctx is (gaps, gamma, beta, n)


def block_error(pred_block, truth_block, V=None):
    """The (1, B) row of per-window mean squared errors of one block, as one record.

    The block holds B windows side by side as groups of ``V`` columns (by default, one window).
    """
    if not isinstance(truth_block, ad.Tensor):
        truth_block = ad.Tensor(truth_block)
    if pred_block.shape != truth_block.shape:
        raise ValueError(f"block shapes differ: {pred_block.shape} vs {truth_block.shape}")
    _, width = pred_block.shape
    V = width if V is None else V
    ad._check_windows("block_error", pred_block, V)
    diff = pred_block.values - truth_block.values
    errors, c = ad._window_mse(diff, V)
    return ad._emit(errors, (pred_block, truth_block), _block_error_rule, (diff, c, V))


def discounted_loss(errors, gamma, beta):
    """e_1 + sum_k gamma^k * ((1-beta) * e_{k+1} + beta * |e_{k+1} - sg(e_k)|), as one record.

    The record saves the penalty's kinks e_{k+1} - e_k (none if beta == 0).
    """
    if not errors:
        raise ValueError("discounted_loss: empty error list")
    ad._check_discount(gamma, beta)
    if len(errors) == 1:
        return errors[0]
    loss, gaps = ad._discounted_values(np.stack([t.values for t in errors]), gamma, beta)
    return ad._emit(loss, tuple(errors), _discounted_loss_rule, (gaps, gamma, beta, len(errors)))


def rollout_predict(model, context, cfg):
    """(blocks, NormState) of the n-block rollout of the raw context, stitched by ``_tail``."""
    S, T, L = model.dims.S, model.dims.T, model.dims.L
    state = NormState.from_context(context)
    context = ad.Tensor(apply_norm(context, state))
    blocks = []
    for _ in range(cfg.n):
        out = forecast(model, _tail([context] + blocks, S))
        blocks.append(ad.slice_axis(out, 0, L, L + T))
    return blocks, state


def stitch(rows, start, stop, blocks):
    """The window ``rows[start:stop]`` of a buffer whose rows up to ``stop`` end with copies of
    ``blocks``, back to back, as one ``_stitch`` record; ValueError if they do not fit."""
    sizes = [block.values.shape[0] for block in blocks]
    lo = stop - start - sum(sizes)  # the first block's row in the window
    if not 0 <= start < stop <= rows.shape[0] or sizes and lo + sizes[0] <= 0 \
            or any(block.values.shape[1:] != rows.shape[1:] for block in blocks):
        raise ValueError(f"stitch: blocks of {sizes} rows ending at row {stop} do not fit "
                         f"the window [{start}, {stop}) of {rows.shape} rows")
    return ad._stitch(rows[start:stop], tuple(blocks), lo, sizes)


def checked_rollout_predict(model, context, cfg):
    """(blocks, NormState) of the one-buffer rollout, each window a checked ``stitch``."""
    S, T, L = model.dims.S, model.dims.T, model.dims.L
    state = NormState.from_context(context)
    rows = np.empty((S + cfg.n * T, context.shape[1]))
    rows[:S] = apply_norm(context, state)
    blocks, reach = [], -(-S // T)
    for k in range(cfg.n):
        window = stitch(rows, k * T, k * T + S, blocks[-reach:])
        block = ad.slice_axis(forecast(model, window), 0, L, L + T)
        rows[S + k * T:S + (k + 1) * T] = block.values
        blocks.append(block)
    return blocks, state
