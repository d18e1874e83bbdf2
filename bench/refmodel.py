"""Plain-NumPy reference for the outputs the benchmark checks.

Independent of the arforecast package: it parses the ARPT checkpoint
format itself, runs the linear and inverted-attention forward passes with
plain arrays, stitches rollouts by keeping a running sequence, and scores
windows the way the CLI documents. Only L = 0 geometries are supported,
which is all the workloads use.
"""

from __future__ import annotations

import json
import struct

import numpy as np

STD_FLOOR = 1e-5
LN_EPS = 1e-5


def read_checkpoint(path):
    """(header, params) from an ARPT file: magic, version, JSON header, float64 payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"ARPT":
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len])
    payload = np.frombuffer(blob[12 + header_len:], dtype="<f8")
    params, offset = {}, 0
    for name, shape in header["params"]:
        size = int(np.prod(shape))
        params[name] = payload[offset:offset + size].reshape(shape)
        offset += size
    if offset != payload.size:
        raise ValueError(f"{path}: payload size mismatch")
    return header, params


def read_header(path):
    with open(path, encoding="utf-8") as fh:
        return [c.strip() for c in fh.readline().strip().split(",")]


def read_csv(path):
    """(column names, values) of a headed numeric CSV."""
    return read_header(path), np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _layer_norm(x):
    centered = x - x.mean(axis=0, keepdims=True)
    var = np.mean(centered * centered, axis=0, keepdims=True)
    return centered / np.sqrt(var + LN_EPS)


def forward(kind, p, x):
    """One block from an S-by-V context."""
    if kind == "linear":
        return p["w"] @ x + p["b"]
    if kind == "inverted_attention":
        hidden = p["q_w"].shape[0]
        tokens = p["embed_w"] @ x + p["embed_b"]
        q = p["q_w"] @ tokens + p["q_b"]
        k = p["k_w"] @ tokens + p["k_b"]
        v = p["v_w"] @ tokens + p["v_b"]
        scores = (q.T @ k) / np.sqrt(hidden)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        mixed = p["o_w"] @ (v @ attn.T) + p["o_b"]
        x1 = _layer_norm(tokens + mixed)
        ff = np.maximum(p["ff1_w"] @ x1 + p["ff1_b"], 0.0)
        x2 = _layer_norm(x1 + p["ff2_w"] @ ff + p["ff2_b"])
        return p["proj_w"] @ x2 + p["proj_b"]
    raise ValueError(f"no reference forward for kind {kind!r}")


def rollout(kind, p, context, n):
    """n blocks, each forecast from the last S rows of context + earlier blocks."""
    S = context.shape[0]
    seq = context
    for _ in range(n):
        seq = np.vstack([seq, forward(kind, p, seq[-S:])])
    return seq[S:]


def normalize(context):
    mean = context.mean(axis=0)
    std = np.maximum(context.std(axis=0), STD_FLOOR)
    return mean, std


def split_range(n_rows, split, ratios):
    """Chronological split bounds, rounded the way the CLI rounds them."""
    n_train, n_val = int(n_rows * ratios[0]), int(n_rows * ratios[1])
    return {"train": (0, n_train), "val": (n_train, n_train + n_val),
            "test": (n_train + n_val, n_rows)}[split]


def window_count(n_rows, split, ratios, S, horizon):
    lo, hi = split_range(n_rows, split, ratios)
    return max(hi - lo - S - horizon + 1, 0)


def _windows(values, split, ratios, S, horizon):
    lo, _ = split_range(values.shape[0], split, ratios)
    for i in range(window_count(values.shape[0], split, ratios, S, horizon)):
        origin = lo + i
        yield values[origin:origin + S], values[origin + S:origin + S + horizon]


def block_errors(kind, p, values, split, ratios, S, T, n):
    """Per-window, per-block normalized MSE, shape (windows, n)."""
    rows = []
    for context, future in _windows(values, split, ratios, S, n * T):
        mean, std = normalize(context)
        pred = rollout(kind, p, (context - mean) / std, n)
        err = pred - (future - mean) / std
        rows.append([np.mean(err[k * T:(k + 1) * T] ** 2) for k in range(n)])
    return np.array(rows)


def val_loss(checkpoint, csv_path, ratios, objective):
    """Mean validation objective the trainer should have recorded for these parameters."""
    header, p = read_checkpoint(checkpoint)
    _, values = read_csv(csv_path)
    ro = header["rollout"]
    n = ro["n"] if objective == "ar" else 1
    e = block_errors(header["kind"], p, values, "val", ratios, ro["S"], ro["T"], n)
    gamma, beta = ro["gamma"], ro["beta"]
    total = 0.0
    for row in e:
        loss = row[0]
        for k in range(1, n):
            loss += gamma ** k * ((1.0 - beta) * row[k] + beta * abs(row[k] - row[k - 1]))
        total += loss
    return total / len(e)


def eval_cumulative_mse(checkpoint, csv_path, ratios, horizon):
    header, p = read_checkpoint(checkpoint)
    _, values = read_csv(csv_path)
    d = header["dims"]
    return float(block_errors(header["kind"], p, values, "test", ratios,
                              d["S"], d["T"], horizon // d["T"]).mean())


def predict(checkpoint, csv_path, horizon):
    """Denormalized forecast from the last S rows of the CSV."""
    header, p = read_checkpoint(checkpoint)
    _, values = read_csv(csv_path)
    d = header["dims"]
    context = values[-d["S"]:]
    mean, std = normalize(context)
    pred = rollout(header["kind"], p, (context - mean) / std, horizon // d["T"])
    return pred * std + mean
