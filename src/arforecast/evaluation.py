"""Test-set metrics under autoregressive rollout and error-accumulation export.

Per-block and cumulative MSE/MAE, plus two violation rates measured on
the window-averaged error curves: the fraction of adjacent per-block MSE
pairs that decrease, and the per-timestep analogue on the mean absolute
error by forecast step. Averaging over windows first keeps the rates
about the model's error-accumulation shape rather than about the
sampling noise of small per-window estimates. Reporting defaults to the
normalized (per-window z-score) scale; raw scale inverts the
normalization before scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import SeriesDataset, window_iter, write_fresh
from .models import Forecaster, NormState, apply_norm, invert_norm
from .rollout import RolloutConfig, rollout_predict

_CHUNK_COLUMNS = 4096  # windows x variates per rollout, which bounds memory on long splits


@dataclass
class EvalReport:
    per_block: list[tuple[float, float]]
    cumulative: tuple[float, float]
    block_violation_rate: float
    step_violation_rate: float
    window_count: int
    block_length: int
    per_block_violation_rate: list[float]
    scale: str = "normalized"


def violation_rate(curve) -> float:
    """Fraction of adjacent pairs of an error curve that decrease."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.size < 2:
        return 0.0
    return float(np.mean(curve[1:] < curve[:-1]))


def evaluate(model: Forecaster, dataset: SeriesDataset, split: str,
             cfg: RolloutConfig, raw_scale: bool = False) -> EvalReport:
    """Rollout every window of the split and average metrics over windows and variates.

    A chunk of B windows, each normalized by its own context, runs as the
    S-by-(B*V) columns of one rollout, as a training batch does.
    """
    n, S, T, V = cfg.n, model.dims.S, model.dims.T, dataset.n_variates
    horizon = n * T
    windows = window_iter(dataset, split, S, horizon)
    if not windows:
        raise ValueError(f"split {split!r} supports no windows of extent {S}+{horizon}")
    n_windows = len(windows)
    per_chunk = max(1, _CHUNK_COLUMNS // V)
    block_mse = np.empty((n_windows, n))
    block_mae = np.empty((n_windows, n))
    step_mae = np.zeros(horizon)
    for start in range(0, n_windows, per_chunk):
        chunk = windows[start:start + per_chunk]
        B = len(chunk)
        context, future = chunk.columns()
        state = NormState.from_context(context)
        blocks = rollout_predict(model, apply_norm(context, state), cfg)
        pred = np.concatenate([block.values for block in blocks])
        if raw_scale:
            pred = invert_norm(pred, state)
        else:
            future = apply_norm(future, state)
        # each window's (horizon, V) errors contiguous, so a block's mean sums its T*V in order
        err = np.ascontiguousarray((pred - future).reshape(horizon, B, V).transpose(1, 0, 2))
        block_err = err.reshape(B, n, T * V)
        block_mse[start:start + B] = np.mean(block_err * block_err, axis=2)
        block_mae[start:start + B] = np.mean(np.abs(block_err), axis=2)
        step_mae += np.abs(err).mean(axis=2).sum(axis=0)

    per_block = [(float(block_mse[:, k].mean()), float(block_mae[:, k].mean()))
                 for k in range(n)]
    cumulative = (float(block_mse.mean()), float(block_mae.mean()))
    mse_curve = np.array([mse for mse, _ in per_block])
    per_block_rate = [0.0] + [float(mse_curve[k] < mse_curve[k - 1]) for k in range(1, n)]
    return EvalReport(
        per_block=per_block,
        cumulative=cumulative,
        block_violation_rate=violation_rate(mse_curve),
        step_violation_rate=violation_rate(step_mae / n_windows),
        window_count=n_windows,
        block_length=T,
        per_block_violation_rate=per_block_rate,
        scale="raw" if raw_scale else "normalized",
    )


def compare(reports: list[tuple[str, EvalReport]]) -> list[dict]:
    """Align named reports block by block against the first (baseline) entry."""
    if not reports:
        raise ValueError("compare: empty report list")
    base_name, base = reports[0]
    for name, rep in reports[1:]:
        if len(rep.per_block) != len(base.per_block) or rep.block_length != base.block_length:
            raise ValueError(
                f"compare: horizon mismatch between {base_name!r} and {name!r}"
            )
    rows = []
    labels = [f"block_{k + 1}" for k in range(len(base.per_block))] + ["cumulative"]
    for idx, label in enumerate(labels):
        pick = (lambda r: r.cumulative) if label == "cumulative" else (lambda r: r.per_block[idx])
        base_mse, _ = pick(base)
        row = {"label": label, "mse": {}, "mae": {}, "mse_delta": {}, "mse_rel_reduction": {}}
        for name, rep in reports:
            mse, mae = pick(rep)
            row["mse"][name] = mse
            row["mae"][name] = mae
            row["mse_delta"][name] = mse - base_mse
            row["mse_rel_reduction"][name] = (base_mse - mse) / base_mse if base_mse else 0.0
        rows.append(row)
    return rows


def format_comparison(rows: list[dict]) -> str:
    names = list(rows[0]["mse"].keys())
    header = ["label"] + [f"mse[{n}]" for n in names] + [f"rel_red[{n}]" for n in names[1:]]
    lines = ["  ".join(f"{h:>16}" for h in header)]
    for row in rows:
        cells = [row["label"]]
        cells += [f"{row['mse'][n]:.6f}" for n in names]
        cells += [f"{100 * row['mse_rel_reduction'][n]:+.1f}%" for n in names[1:]]
        lines.append("  ".join(f"{c:>16}" for c in cells))
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "per_block": [{"mse": mse, "mae": mae} for mse, mae in report.per_block],
        "cumulative": {"mse": report.cumulative[0], "mae": report.cumulative[1]},
        "block_violation_rate": report.block_violation_rate,
        "step_violation_rate": report.step_violation_rate,
        "window_count": report.window_count,
        "block_length": report.block_length,
        "per_block_violation_rate": report.per_block_violation_rate,
        "scale": report.scale,
    }


def write_report_json(report: EvalReport, path) -> None:
    write_fresh(path, json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")


def export_curve(report: EvalReport, path) -> None:
    """Error-accumulation curve: one row per rollout step, 17-digit floats."""
    write_fresh(path, "prediction_length,mse,mae,block_violation_rate\n" + "".join(
        f"{(k + 1) * report.block_length},{mse:.17g},{mae:.17g},"
        f"{report.per_block_violation_rate[k]:.17g}\n"
        for k, (mse, mae) in enumerate(report.per_block)))
