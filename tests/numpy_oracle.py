"""Plain-NumPy reference for the models, the rollout and the objective; imports no arforecast.

A model is its kind and its parameters by name (as ``models._param_shapes`` names and shapes
them); a window is an (S, V) context. The rollout appends each block to a running sequence, so
an overlap L > 0 and a window that cuts a block (S % T != 0) need no special case.
"""

import numpy as np


def arrays(model):
    return {name: t.values for name, t in model.params.items()}


def zscore(context):
    """Each column's mean and population std, the std floored at models.STD_FLOOR, 1e-5."""
    return context.mean(axis=0), np.maximum(context.std(axis=0), 1e-5)


def _layer_norm(x):
    """Each column at mean 0 and variance 1, with the variance's epsilon 1e-5."""
    centered = x - x.mean(axis=0, keepdims=True)
    return centered / np.sqrt(np.mean(centered * centered, axis=0, keepdims=True) + 1e-5)


def forward(kind, p, x, relu_inputs=None):
    """The (L + T, V) forecast of an (S, V) context, each relu input added to ``relu_inputs``."""
    relu_inputs = [] if relu_inputs is None else relu_inputs
    if kind == "linear":
        return p["w"] @ x + p["b"]
    if kind == "mlp":
        relu_inputs.append(p["w1"] @ x + p["b1"])
        return p["w2"] @ np.maximum(relu_inputs[-1], 0.0) + p["b2"]
    if kind == "inverted_attention":  # each variate's whole context is one token
        tokens = p["embed_w"] @ x + p["embed_b"]
        q, k, v = (p[f"{name}_w"] @ tokens + p[f"{name}_b"] for name in "qkv")
        scores = q.T @ k / np.sqrt(q.shape[0])
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        mixed = p["o_w"] @ (v @ (e / e.sum(axis=1, keepdims=True)).T) + p["o_b"]
        x1 = _layer_norm(tokens + mixed)
        relu_inputs.append(p["ff1_w"] @ x1 + p["ff1_b"])
        x2 = _layer_norm(x1 + p["ff2_w"] @ np.maximum(relu_inputs[-1], 0.0) + p["ff2_b"])
        return p["proj_w"] @ x2 + p["proj_b"]
    raise ValueError(f"unknown kind {kind!r}")


def rollout(kind, p, context, L, n, relu_inputs=None):
    """(seq, mean, std): the z-scored context with n blocks appended, (S + nT, V), and the
    context's z-score. Each step appends the rows after the first L of its forecast."""
    S = context.shape[0]
    mean, std = zscore(context)
    seq = (context - mean) / std
    for _ in range(n):
        seq = np.vstack([seq, forward(kind, p, seq[-S:], relu_inputs)[L:]])
    return seq, mean, std


def step_forecasts(kind, p, seq, S, L, T):
    """Each T-row block of a rollout ``seq`` past its S context rows, forecast afresh from the S
    rows before it. Checked a step at a time, a long rollout's rounding does not compound."""
    return np.vstack([forward(kind, p, seq[at - S:at])[L:] for at in range(S, len(seq), T)])


def block_mse(pred, truth, n):
    """The MSE of each of the n blocks of a forecast against ``truth``."""
    return np.mean((pred - truth).reshape(n, -1) ** 2, axis=1)


def objective(e, gamma, beta):
    """A window's objective: e_1 plus gamma^(k-1) ((1 - beta) e_k + beta |e_k - e_(k-1)|), k > 1."""
    return e[0] + sum(gamma ** k * ((1.0 - beta) * e[k] + beta * abs(e[k] - e[k - 1]))
                      for k in range(1, len(e)))
