"""Rollout metrics, report comparison, and curve export."""

import importlib.util
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arforecast.evaluation as evaluation
from arforecast.data import SeriesDataset, gen_ar_process, gen_sinusoid, window_iter
from arforecast.evaluation import (
    EvalReport,
    evaluate,
    export_curve,
    report_to_dict,
    violation_rate,
    write_report_json,
)
from arforecast.models import Dims, apply_norm, init_forecaster, invert_norm
from arforecast.rollout import RolloutConfig, rollout_predict
from arforecast.training import TrainConfig, train

# report comparison lives in the error-accumulation script, its only caller
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "error_accumulation.py"
_spec = importlib.util.spec_from_file_location("error_accumulation", SCRIPT)
_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_script)
compare, format_comparison = _script.compare, _script.format_comparison


def _copy_last_model(S, T):
    model = init_forecaster("linear", Dims(S=S, T=T), seed=0)
    model.params["w"].values[...] = 0.0
    model.params["w"].values[:, -1] = 1.0
    model.params["b"].values[...] = 0.0
    return model


def test_violation_rate_counts_decreasing_pairs():
    assert violation_rate([0.1]) == 0.0
    assert violation_rate([0.1, 0.2, 0.3]) == 0.0
    assert violation_rate([0.1, 0.2, 0.15, 0.3]) == pytest.approx(1 / 3)
    assert violation_rate([0.3, 0.2, 0.1]) == 1.0
    assert violation_rate([0.2, 0.2]) == 0.0  # ties are not violations


def test_perfect_model_on_constant_series():
    ds = SeriesDataset.from_values("flat", np.full((100, 1), 5.0))
    model = _copy_last_model(8, 4)
    cfg = RolloutConfig(n=3)
    for raw in (False, True):
        report = evaluate(model, ds, "test", cfg, raw_scale=raw)
        assert report.cumulative == (0.0, 0.0)
        assert all(mse == 0.0 and mae == 0.0 for mse, mae in report.per_block)
        assert report.block_violation_rate == 0.0
        assert report.step_violation_rate == 0.0


def test_n1_per_block_equals_cumulative():
    ds = gen_sinusoid(200, noise_std=0.2, seed=1)
    model = init_forecaster("linear", Dims(S=8, T=4), seed=2)
    report = evaluate(model, ds, "test", RolloutConfig(n=1))
    assert len(report.per_block) == 1
    assert report.per_block[0] == report.cumulative
    assert report.block_violation_rate == 0.0


def test_cumulative_is_mean_of_blocks():
    ds = gen_sinusoid(300, noise_std=0.3, seed=5)
    model = init_forecaster("mlp", Dims(S=10, T=5, hidden=4), seed=3)
    report = evaluate(model, ds, "test", RolloutConfig(n=3))
    assert report.cumulative[0] == pytest.approx(
        np.mean([mse for mse, _ in report.per_block]), abs=1e-12)
    assert report.cumulative[1] == pytest.approx(
        np.mean([mae for _, mae in report.per_block]), abs=1e-12)


def test_white_noise_blocks_are_flat_at_noise_variance():
    ds = gen_ar_process(4000, coeffs=[0.0], noise_std=1.0, seed=9)
    roll = RolloutConfig(n=6)
    model = init_forecaster("linear", Dims(S=16, T=8), seed=4)
    train(model, ds, roll, TrainConfig(lr=1e-2, batch_size=64, max_epochs=3,
                                       seed=4, objective="mse"))
    report = evaluate(model, ds, "test", roll, raw_scale=True)
    for mse, _ in report.per_block:
        assert mse == pytest.approx(1.0, rel=0.10)


def test_evaluate_is_side_effect_free_and_deterministic():
    ds = gen_sinusoid(250, noise_std=0.2, seed=8)
    model = init_forecaster("linear", Dims(S=8, T=4), seed=6)
    cfg = RolloutConfig(n=2)
    before = model.param_vector().copy()
    a = evaluate(model, ds, "test", cfg)
    b = evaluate(model, ds, "test", cfg)
    assert np.array_equal(model.param_vector(), before)
    assert a == b


def test_evaluate_empty_split_is_error():
    ds = gen_sinusoid(100, noise_std=0.1, seed=1)  # test split has 20 rows
    model = init_forecaster("linear", Dims(S=16, T=8), seed=0)
    with pytest.raises(ValueError, match="^S=16 plus horizon 16 needs 32 rows, "
                                         "but the test split has 20$"):
        evaluate(model, ds, "test", RolloutConfig(n=2))


def _per_window_reference(model, dataset, split, cfg, raw_scale):
    """One rollout per window, the reference chunked ``evaluate`` must match.

    Returns the (windows, n) block MSE and MAE and the step MAE curve.
    """
    n, T = cfg.n, model.dims.T
    windows = window_iter(dataset, split, model.dims.S, n * T)
    block_mse = np.empty((len(windows), n))
    block_mae = np.empty((len(windows), n))
    step_mae = np.zeros(n * T)
    for i, w in enumerate(windows):
        (context,), (future,) = w.contexts, w.futures
        blocks, state = rollout_predict(model, context, cfg)
        pred = np.vstack([block.values for block in blocks])
        if raw_scale:
            pred = invert_norm(pred, state)
            truth = future
        else:
            truth = apply_norm(future, state)
        err = pred - truth
        for k in range(n):
            block = err[k * T:(k + 1) * T]
            block_mse[i, k] = np.mean(block * block)
            block_mae[i, k] = np.mean(np.abs(block))
        step_mae += np.mean(np.abs(err), axis=1)
    return block_mse, block_mae, step_mae / len(windows)


def _clear_of_ties(curve):
    """No adjacent pair so close that an ulp could flip its order."""
    curve = np.asarray(curve)
    return bool(np.all(np.abs(np.diff(curve)) > 1e-9 * np.abs(curve[1:])))


@st.composite
def _eval_draws(draw):
    kind, hidden = draw(st.sampled_from([("linear", 0), ("mlp", 3), ("inverted_attention", 3)]))
    S = draw(st.integers(2, 8))
    geometry = (S, draw(st.integers(1, 4)), draw(st.integers(0, S - 1)))  # S, T, L < S
    cfg = RolloutConfig(n=draw(st.integers(1, 4)))
    V = draw(st.integers(1, 4))
    windows = draw(st.integers(1, 9))
    chunk_columns = draw(st.integers(1, 12))  # below V still takes one window per rollout
    return (kind, hidden, geometry, cfg, V, windows, chunk_columns, draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(_eval_draws())
@example(("inverted_attention", 3, (5, 2, 1), RolloutConfig(n=3), 3, 7, 6, True, 0))
@example(("mlp", 3, (4, 3, 2), RolloutConfig(n=2), 1, 9, 4, False, 1))
def test_chunked_evaluate_matches_per_window_scoring(draw):
    kind, hidden, (S, T, L), cfg, V, n_windows, chunk_columns, raw_scale, seed = draw
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, Dims(S=S, T=T, L=L, V=V, hidden=hidden), seed=seed)
    scale = rng.uniform(0.1, 10.0)
    values = (rng.normal(size=(S + cfg.n * T + n_windows - 1, V))
              + rng.uniform(-5.0, 5.0)) * scale
    ds = SeriesDataset.from_values("drawn", values, ratios=(0.0, 0.0, 1.0))

    curves = []

    def recording_rate(curve):
        curves.append(np.array(curve))
        return violation_rate(curve)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_CHUNK_COLUMNS", chunk_columns)
        mp.setattr(evaluation, "violation_rate", recording_rate)
        report = evaluate(model, ds, "test", cfg, raw_scale=raw_scale)
    block_mse, block_mae, step_mae = _per_window_reference(model, ds, "test", cfg, raw_scale)

    assert report.window_count == n_windows
    want = np.column_stack([block_mse.mean(axis=0), block_mae.mean(axis=0)])
    np.testing.assert_allclose(report.per_block, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.cumulative, (block_mse.mean(), block_mae.mean()),
                               rtol=1e-12, atol=0)
    mse_curve, step_curve = curves
    np.testing.assert_allclose(mse_curve, want[:, 0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(step_curve, step_mae, rtol=1e-12, atol=0)
    if _clear_of_ties(want[:, 0]):
        assert report.block_violation_rate == violation_rate(want[:, 0])
        assert report.per_block_violation_rate == [0.0] + [
            float(want[k, 0] < want[k - 1, 0]) for k in range(1, cfg.n)]
    if _clear_of_ties(step_mae):
        assert report.step_violation_rate == violation_rate(step_mae)


def test_evaluate_rolls_out_once_per_chunk(monkeypatch):
    ds = gen_sinusoid(400, V=3, noise_std=0.2, seed=4)
    model = init_forecaster("inverted_attention", Dims(S=8, T=4, V=3, hidden=4), seed=2)
    cfg = RolloutConfig(n=2)
    calls = []

    def counting_rollout(model, context, cfg):
        calls.append(context.shape[1])
        return rollout_predict(model, context, cfg)

    monkeypatch.setattr(evaluation, "rollout_predict", counting_rollout)
    whole = evaluate(model, ds, "test", cfg)
    assert calls == [3 * whole.window_count]
    monkeypatch.setattr(evaluation, "_CHUNK_COLUMNS", 3 * 16)
    calls.clear()
    chunked = evaluate(model, ds, "test", cfg)
    windows = whole.window_count
    assert len(calls) == math.ceil(windows / 16)
    assert sum(calls) == 3 * windows and max(calls) == 3 * 16
    np.testing.assert_allclose(chunked.per_block, whole.per_block, rtol=1e-12, atol=0)


def _report(cum_mse, per_block=None, T=12):
    per_block = per_block if per_block is not None else [(cum_mse, cum_mse / 2)]
    return EvalReport(
        per_block=[(m, a) for m, a in per_block],
        cumulative=(cum_mse, cum_mse / 2),
        block_violation_rate=0.1,
        step_violation_rate=0.2,
        window_count=10,
        block_length=T,
        per_block_violation_rate=[0.0] * len(per_block),
    )


def test_compare_report_with_itself():
    rep = _report(0.5)
    rows = compare([("a", rep), ("b", rep)])
    for row in rows:
        assert row["mse_delta"]["b"] == 0.0
        assert row["mse_rel_reduction"]["b"] == 0.0


def test_compare_relative_reduction_value():
    rows = compare([("baseline", _report(0.190)), ("tuned", _report(0.131))])
    reduction = rows[-1]["mse_rel_reduction"]["tuned"]
    assert round(100 * reduction) == 31


def test_compare_errors():
    with pytest.raises(ValueError):
        compare([])
    a = _report(0.5, per_block=[(0.5, 0.2), (0.6, 0.3)])
    b = _report(0.5, per_block=[(0.5, 0.2)])
    with pytest.raises(ValueError, match="horizon"):
        compare([("a", a), ("b", b)])
    assert format_comparison(compare([("a", a)]))  # renders without error


def test_export_curve_rows_and_header(tmp_path):
    per_block = [(0.1, 0.05), (0.2, 0.1), (0.3, 0.15), (1.0 / 3.0, 0.2)]
    rep = _report(0.25, per_block=per_block, T=12)
    path = tmp_path / "curve.csv"
    export_curve(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "prediction_length,mse,mae,block_violation_rate"
    assert len(lines) == 5
    lengths = [int(line.split(",")[0]) for line in lines[1:]]
    assert lengths == [12, 24, 36, 48]
    # 17 significant digits survive a parse round-trip
    assert float(lines[4].split(",")[1]) == 1.0 / 3.0


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1 / 3, 2e-320, 1e16, 1e-5, float("nan"), float("inf"), -float("inf")])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FLOATS, _FLOATS), max_size=6), st.lists(_FLOATS, max_size=6),
       st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS), st.integers(0, 10 ** 6),
       st.integers(1, 10 ** 4), st.sampled_from(["normalized", "raw"]))
@example([(0.1, 1 / 3), (2e-320, float("nan"))], [0.0, 0.0], (float("inf"), 0.5, 0.1, 0.2),
         10, 12, "normalized")
def test_report_json_bytes_match_the_json_module(per_block, rates, floats, windows, T, scale):
    rep = EvalReport(per_block=per_block, cumulative=floats[:2], block_violation_rate=floats[2],
                     step_violation_rate=floats[3], window_count=windows, block_length=T,
                     per_block_violation_rate=rates, scale=scale)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "report.json")
        write_report_json(rep, path)
        assert path.read_text() == json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"


def test_report_json_round_trip(tmp_path):
    import json

    rep = _report(0.25, per_block=[(0.1, 0.05), (0.4, 0.2)])
    path = tmp_path / "report.json"
    write_report_json(rep, path)
    loaded = json.loads(path.read_text())
    assert loaded == report_to_dict(rep)
    assert loaded["cumulative"]["mse"] == 0.25
    assert loaded["window_count"] == 10
