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
import math
from dataclasses import dataclass

import numpy as np

from .data import SeriesDataset, window_iter, write_fresh
from .models import Forecaster, apply_norm, invert_norm
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
    n_windows = len(windows)
    per_chunk = max(1, _CHUNK_COLUMNS // V)
    block_mse = np.empty((n_windows, n))
    block_mae = np.empty((n_windows, n))
    step_mae = np.zeros(horizon)
    for start in range(0, n_windows, per_chunk):
        chunk = windows[start:start + per_chunk]
        B = len(chunk)
        context, future = chunk.columns()
        blocks, state = rollout_predict(model, context, cfg)
        pred = np.concatenate([block.values for block in blocks])
        if raw_scale:
            pred = invert_norm(pred, state)
        else:
            future = apply_norm(future, state)
        # each window's (horizon, V) errors contiguous, so a block's mean sums its T*V in order
        err = np.ascontiguousarray((pred - future).reshape(horizon, B, V).transpose(1, 0, 2))
        block_err = err.reshape(B, n, T * V)
        block_mse[start:start + B] = np.mean(block_err * block_err, axis=2)
        np.abs(err, out=err)  # err is a fresh array, and block_err a view of it
        block_mae[start:start + B] = np.mean(block_err, axis=2)
        step_mae += err.mean(axis=2).sum(axis=0)

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


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes a float."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_list(items: list[str], pad: str) -> str:
    """Encoded ``items`` as ``json.dumps(..., indent=2)`` lays out a list indented by ``pad``."""
    inner = f",\n{pad}  "
    return f"[\n{pad}  {inner.join(items)}\n{pad}]" if items else "[]"


def write_report_json(report: EvalReport, path) -> None:
    """``json.dumps(report_to_dict(report), indent=2, sort_keys=True)`` and a newline, laid out
    here: the standard library encodes an indented dump in pure Python, at several times the
    cost of the rest of the file's work."""
    f = _json_float
    blocks = [f'{{\n      "mae": {f(mae)},\n      "mse": {f(mse)}\n    }}'
              for mse, mae in report.per_block]
    write_fresh(path, (
        f'{{\n  "block_length": {report.block_length},\n'
        f'  "block_violation_rate": {f(report.block_violation_rate)},\n'
        f'  "cumulative": {{\n    "mae": {f(report.cumulative[1])},\n'
        f'    "mse": {f(report.cumulative[0])}\n  }},\n'
        f'  "per_block": {_json_list(blocks, "  ")},\n'
        f'  "per_block_violation_rate": '
        f'{_json_list([f(r) for r in report.per_block_violation_rate], "  ")},\n'
        f'  "scale": {json.dumps(report.scale)},\n'
        f'  "step_violation_rate": {f(report.step_violation_rate)},\n'
        f'  "window_count": {report.window_count}\n}}\n'))


def export_curve(report: EvalReport, path) -> None:
    """Error-accumulation curve: one row per rollout step, 17-digit floats."""
    write_fresh(path, "prediction_length,mse,mae,block_violation_rate\n" + "".join(
        f"{(k + 1) * report.block_length},{mse:.17g},{mae:.17g},"
        f"{report.per_block_violation_rate[k]:.17g}\n"
        for k, (mse, mae) in enumerate(report.per_block)))
