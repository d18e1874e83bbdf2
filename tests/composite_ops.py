"""Single-op references the tests compose the fused ops from.

The engine records only the ops the models and the objective use. These
rebuild, on the engine's ``_emit`` and its private value helpers and
rules, the single ops that the fused records replace: elementwise product,
matrix product, full sum, softmax, layer norm, the two per-window products,
and a bias-column add. Each computes and differentiates with the floats of
the single-op form, so a test can compare a fused record with them bit for
bit. They do no input validation: tests give them valid shapes.
"""

import numpy as np

import arforecast.autodiff as ad


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


def mul(a, b):
    return ad._emit(a.values * b.values, (a, b), _mul_rule, (a.values, b.values))


def matmul(a, b):
    return ad._emit(a.values @ b.values, (a, b), _matmul_rule, (a.values, b.values))


def sum_all(a):
    return ad._emit(np.sum(a.values), (a,), _sum_rule, (a.values.shape,))


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
