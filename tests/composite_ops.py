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

``rollout_predict`` is the rollout as it stitched each step's input from
pieces (the context and the blocks, cut with ``slice_axis`` and joined with
``concat``) before the one-buffer ``stitch`` record replaced it.
``checked_rollout_predict`` is the one-buffer rollout with every step's
window taken through the public, checked ``stitch`` and every block through
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
    """Smallest |input| of the tape's ``absolute`` records: their kinks, which
    ``tape.min_kink_gap`` does not read."""
    return min((float(np.min(np.abs(ctx[0]), initial=np.inf))
                for _, _, rule, ctx in tape.records if rule is _abs_rule), default=float("inf"))


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


def checked_rollout_predict(model, context, cfg):
    """(blocks, NormState) of the one-buffer rollout, each window a checked ``stitch``."""
    S, T, L = model.dims.S, model.dims.T, model.dims.L
    state = NormState.from_context(context)
    rows = np.empty((S + cfg.n * T, context.shape[1]))
    rows[:S] = apply_norm(context, state)
    blocks, reach = [], -(-S // T)
    for k in range(cfg.n):
        window = ad.stitch(rows, k * T, k * T + S, blocks[-reach:])
        block = ad.slice_axis(forecast(model, window), 0, L, L + T)
        rows[S + k * T:S + (k + 1) * T] = block.values
        blocks.append(block)
    return blocks, state
