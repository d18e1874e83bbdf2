"""Rollout recurrence, block errors, the discounted objective, and its gradient policy."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arforecast.autodiff as autodiff
from arforecast.autodiff import Tape, Tensor, rollout_objective
from arforecast.cli import main
from arforecast.data import SeriesDataset, Windows, gen_sinusoid, window_iter
from arforecast.evaluation import evaluate
from arforecast.models import Dims, NormState, apply_norm, forecast, init_forecaster
from arforecast.rollout import (
    RolloutConfig,
    ar_loss,
    check_gradients,
    loss_magnitude_factor,
    mse_loss,
    rollout_predict,
)
from arforecast.training import Checkpoint, save_checkpoint
import composite_ops
import numpy_oracle
from composite_ops import (
    abs_kink_gap,
    absolute,
    add,
    block_error,
    discounted_loss,
    matmul,
    mean_all,
    mul,
    scale,
    stop_gradient,
    sub,
)


def test_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        RolloutConfig(gamma=1.5)
    with pytest.raises(ValueError, match="beta"):
        RolloutConfig(beta=0.5)
    assert RolloutConfig(beta=0.0).beta == 0.0  # no penalty: the plain discounted sum
    with pytest.raises(ValueError, match="beta"):
        RolloutConfig(beta=-0.1)
    with pytest.raises(ValueError, match="n"):
        RolloutConfig(n=0)
    with pytest.raises(ValueError, match="L"):
        Dims(S=8, T=2, L=8)


def _one_window(context, future):
    return Windows(np.asarray(context)[None], np.asarray(future)[None], np.arange(1))


def _block_record(blocks, k, V, cfg):
    """Block k's objective alone, as check_gradients takes it: a one-block rollout_objective
    record of ``blocks.blocks[k]`` against its rows of ``blocks.truth``; e_k for one window."""
    T = blocks.blocks[k].shape[0]
    return rollout_objective([blocks.blocks[k]], blocks.truth[k * T:(k + 1) * T], V, cfg.gamma,
                             cfg.beta)[0]


@st.composite
def _oracle_draws(draw):
    """(kind, Dims, RolloutConfig, B, model seed, data seed); T may reach or pass S."""
    kind = draw(st.sampled_from(["linear", "mlp", "inverted_attention"]))
    S, hidden = draw(st.integers(1, 8)), 0 if kind == "linear" else draw(st.integers(2, 4))
    dims = Dims(S=S, T=draw(st.integers(1, 12)), L=draw(st.integers(0, S - 1)),
                V=draw(st.integers(1, 3)), hidden=hidden)
    cfg = RolloutConfig(n=draw(st.integers(1, 5)), gamma=draw(st.sampled_from([0.3, 0.5, 0.9])),
                        beta=draw(st.sampled_from([0.05, 0.1, 0.3])))
    return kind, dims, cfg, draw(st.integers(1, 4)), draw(st.integers(0, 999)), \
        draw(st.integers(0, 2 ** 32 - 1))


def _assert_matches_oracle(kind, dims, cfg, B, model_seed, seed):
    """rollout_predict's state and blocks, taped, and ar_loss over B windows are the oracle's;
    each block is the oracle's forecast from its step's input, so rounding does not compound."""
    S, T, V = dims.S, dims.T, dims.V
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, dims, seed=model_seed)
    windows = Windows(rng.normal(size=(B, S, V)), rng.normal(size=(B, cfg.n * T, V)),
                      np.arange(B))
    with Tape():
        got, state = rollout_predict(model, windows.columns()[0], cfg)
    assert [block.shape for block in got] == [(T, B * V)] * cfg.n
    blocks, p, errors = ar_loss(model, windows, cfg), numpy_oracle.arrays(model), []
    for b, (context, future) in enumerate(zip(windows.contexts, windows.futures)):
        columns = slice(b * V, (b + 1) * V)
        mean, std = numpy_oracle.zscore(context)
        np.testing.assert_allclose(state.mean[columns], mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(state.std[columns], std, rtol=1e-12)
        seq = np.vstack([(context - mean) / std] + [block.values[:, columns] for block in got])
        want = numpy_oracle.step_forecasts(kind, p, seq, S, dims.L, T)
        np.testing.assert_allclose(seq[S:], want, rtol=1e-12, atol=1e-14)
        if kind == "linear":  # well conditioned, so the oracle's own rollout holds the bound too
            free = numpy_oracle.rollout(kind, p, context, dims.L, cfg.n)[0]
            np.testing.assert_allclose(seq[S:], free[S:], rtol=1e-12, atol=1e-14)
        # the errors of the forecasts the engine scored, which the line above checks: an error
        # that cancels to far below its forecasts' size magnifies their last-bit differences
        errors.append(numpy_oracle.block_mse(seq[S:], (future - mean) / std, cfg.n))
    np.testing.assert_allclose(blocks.errors.T, errors, rtol=1e-12, atol=0)
    want = np.mean([numpy_oracle.objective(e, cfg.gamma, cfg.beta) for e in errors])
    assert abs(blocks.loss.item() - want) <= 1e-12 * abs(want)


# fixed cases: T > S (every input after block 1 is predicted); 2T == S (a step input is whole
# blocks); a block error of 7.1e-9 from forecasts of order 1, which cancellation leaves with a
# relative rounding of 2.6e-12 against the oracle's errors over the oracle's own forecasts
@settings(max_examples=100, deadline=None)
@given(_oracle_draws())
@example(("linear", Dims(S=3, T=5, L=1, V=2), RolloutConfig(n=4), 1, 0, 0))
@example(("linear", Dims(S=4, T=2, L=0, V=1), RolloutConfig(n=5), 1, 1, 1))
@example(("inverted_attention", Dims(S=5, T=1, L=0, V=1, hidden=4),
          RolloutConfig(n=4, gamma=0.3, beta=0.05), 3, 3, 3))
def test_rollout_matches_numpy_oracle_over_geometries(draw):
    _assert_matches_oracle(*draw)


@pytest.mark.parametrize("L", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_rollout_matches_numpy_oracle(L, n):
    _assert_matches_oracle("linear", Dims(S=6, T=3, L=L, V=2), RolloutConfig(n=n), 1, 13, 5)


@settings(max_examples=40, deadline=None)
@given(_oracle_draws())
@example(("linear", Dims(S=8, T=4, L=2), RolloutConfig(n=2), 3, 5, 0))
@example(("mlp", Dims(S=7, T=3, L=2, V=2, hidden=4), RolloutConfig(n=4), 3, 4, 6))
@example(("inverted_attention", Dims(S=5, T=2, L=3, V=3, hidden=3), RolloutConfig(n=4), 2, 3, 7))
def test_evaluate_and_predict_match_numpy_oracle(draw):
    """evaluate's per-block and cumulative MSE over the B windows of a series, and the
    predictions.csv that the CLI's predict writes from a saved checkpoint, are the oracle's."""
    kind, dims, cfg, B, model_seed, seed = draw
    S, T, V, n = dims.S, dims.T, dims.V, cfg.n
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, dims, seed=model_seed)
    values = (rng.normal(size=(S + n * T + B - 1, V)) + rng.uniform(-5.0, 5.0)) \
        * rng.uniform(0.1, 10.0)
    dataset = SeriesDataset.from_values("drawn", values, ratios=(0.0, 0.0, 1.0))
    report = evaluate(model, dataset, "test", cfg)
    # the B windows are one chunk of evaluate's, so this is the rollout it scored
    got = rollout_predict(model, window_iter(dataset, "test", S, n * T).columns()[0], cfg)[0]
    p, errors = numpy_oracle.arrays(model), []
    for origin in range(B):
        context, future = values[origin:origin + S], values[origin + S:origin + S + n * T]
        mean, std = numpy_oracle.zscore(context)
        seq = np.vstack([(context - mean) / std]
                        + [block.values[:, origin * V:(origin + 1) * V] for block in got])
        want = numpy_oracle.step_forecasts(kind, p, seq, S, dims.L, T)
        np.testing.assert_allclose(seq[S:], want, rtol=1e-12, atol=1e-14)
        # the errors of the forecasts evaluate scored, as in _assert_matches_oracle
        errors.append(numpy_oracle.block_mse(seq[S:], (future - mean) / std, n))
    assert report.window_count == B
    np.testing.assert_allclose([mse for mse, _ in report.per_block], np.mean(errors, axis=0),
                               rtol=1e-12, atol=0)
    assert abs(report.cumulative[0] - np.mean(errors)) <= 1e-12 * np.mean(errors)

    with tempfile.TemporaryDirectory() as home:
        home = Path(home)
        save_checkpoint(Checkpoint.from_forecaster(model, cfg, 0, 0.1, 0), home / "model.arpt")
        (home / "input.csv").write_text(",".join(f"x{v}" for v in range(V)) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in values.tolist()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["predict", str(home / "input.csv"), "--checkpoint",
                         str(home / "model.arpt"), "--horizon", str(n * T),
                         "--out", str(home / "pred")]) == 0
        lines = (home / "pred" / "predictions.csv").read_text().splitlines()
    assert lines[0] == ",".join(f"x{v}" for v in range(V)) and len(lines) == 1 + n * T
    got = np.array([line.split(",") for line in lines[1:]], dtype=float)
    mean, std = numpy_oracle.zscore(values[-S:])
    seq = np.vstack([values[-S:], got])
    want = numpy_oracle.step_forecasts(kind, p, (seq - mean) / std, S, dims.L, T) * std + mean
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(values).max())


def test_third_step_input_is_fully_predicted(monkeypatch):
    # S=4, T=2, k=2: the step input covers rows 4..7, all beyond the context
    cfg = RolloutConfig(n=3)
    model = init_forecaster("linear", Dims(S=4, T=2), seed=3)
    ctx = np.random.default_rng(7).normal(size=(4, 1))
    inputs = []
    monkeypatch.setattr("arforecast.rollout.forecast",
                        lambda m, x: inputs.append(x.values.copy()) or forecast(m, x))
    got, _ = rollout_predict(model, ctx, cfg)
    np.testing.assert_array_equal(inputs[2], np.vstack([block.values for block in got[:2]]))
    seq, _, _ = numpy_oracle.rollout("linear", numpy_oracle.arrays(model), ctx, 0, cfg.n)
    np.testing.assert_allclose(np.vstack([inputs[0]] + [block.values for block in got]), seq,
                               rtol=1e-12, atol=1e-14)


def test_n1_rollout_equals_forecast():
    cfg = RolloutConfig(n=1)
    model = init_forecaster("mlp", Dims(S=6, T=3, L=2, hidden=4), seed=2)
    ctx = np.random.default_rng(1).normal(size=(6, 1))
    (got,), state = rollout_predict(model, ctx, cfg)
    direct = forecast(model, Tensor(apply_norm(ctx, state)))
    np.testing.assert_array_equal(got.values, direct.values[2:])


def test_copy_last_model_is_a_fixed_point():
    # weights copy the final context row into every output slot
    dims = Dims(S=5, T=2, L=1)
    model = init_forecaster("linear", dims, seed=0)
    model.params["w"].values[...] = 0.0
    model.params["w"].values[:, -1] = 1.0
    model.params["b"].values[...] = 0.0
    ctx = np.arange(5.0)[:, None]  # ends in 4.0, which z-scores to sqrt(2)
    last = apply_norm(ctx, NormState.from_context(ctx))[-1, 0]
    for n in (1, 2, 5):
        cfg = RolloutConfig(n=n)
        got, _ = rollout_predict(model, ctx, cfg)
        np.testing.assert_array_equal(np.vstack([b.values for b in got]), np.full((2 * n, 1), last))


def test_rollout_shape_errors():
    cfg = RolloutConfig()
    model = init_forecaster("linear", Dims(S=6, T=2), seed=0)
    with pytest.raises(ValueError):
        rollout_predict(model, np.zeros((5, 1)), cfg)


def test_rollout_never_reads_the_future():
    ds = gen_sinusoid(120, noise_std=0.1, seed=4)
    cfg = RolloutConfig(n=3)
    model = init_forecaster("linear", Dims(S=8, T=4), seed=5)
    w = window_iter(ds, "train", 8, 12)[0]
    zeroed = Windows(w.contexts, np.zeros_like(w.futures), w.origins)
    a, b = ([block.values.tobytes() for block in rollout_predict(model, x.contexts[0], cfg)[0]]
            for x in (w, zeroed))
    assert a == b


@st.composite
def _stitch_draws(draw):
    """(kind, Dims, RolloutConfig, windows, seed) over small S, T (S % T != 0 included), L < S."""
    kind, hidden = draw(st.sampled_from([("linear", 0), ("mlp", 3), ("inverted_attention", 3)]))
    S, T = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    dims = Dims(S=S, T=T, L=draw(st.integers(0, S - 1)), V=draw(st.integers(1, 3)), hidden=hidden)
    return kind, dims, RolloutConfig(n=draw(st.integers(1, 6))), draw(st.integers(1, 4)), \
        draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(_stitch_draws())
@example(("linear", Dims(S=5, T=2, L=1), RolloutConfig(n=6), 2, 0))  # windows cut a block
@example(("mlp", Dims(S=4, T=2, hidden=3), RolloutConfig(n=5), 1, 1))  # whole blocks only
@example(("inverted_attention", Dims(S=2, T=5, V=2, hidden=3), RolloutConfig(n=3), 3, 2))
@example(("linear", Dims(S=3, T=3, V=2), RolloutConfig(n=4), 2, 3))  # each window one block
def test_rollout_predict_matches_the_piecewise_stitch(draw):
    """The one-buffer rollout gives the blocks, state and gradients of the _tail + concat one."""
    kind, dims, cfg, B, seed = draw
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, dims, seed=seed % 1000)
    context = rng.normal(size=(dims.S, B * dims.V)) * rng.uniform(0.5, 3.0) + rng.normal()
    future = rng.normal(size=(cfg.n * dims.T, B * dims.V))
    params = list(model.params.values())

    def run(rollout):
        blocks, state = rollout(model, context, cfg)
        with Tape() as tape:
            taped, _ = rollout(model, context, cfg)
            T = dims.T
            errors = [block_error(block, future[k * T:(k + 1) * T], dims.V)
                      for k, block in enumerate(taped)]
            total = errors[0]
            for e in errors[1:]:
                total = add(total, e)
            grads = tape.gradient(mean_all(total), params)
            records = [(rule.__name__, ctx) for _, _, rule, ctx in tape.records]
        return ([b.values.tobytes() for b in blocks], state.mean.tobytes(), state.std.tobytes(),
                [b.values.tobytes() for b in taped], [g.tobytes() for g in grads]), records

    (got, records), (want, want_records) = (run(rollout_predict),
                                            run(composite_ops.rollout_predict))
    assert got == want
    # one stitch record where a window took a concat, a cut block's slice, or both
    rules, cut = [], False
    for name, ctx in want_records:
        if name == "_concat_rule" and cut:
            cut = False
            continue
        cut = name == "_slice_rule" and ctx[0][0] == dims.T  # L-slices cut L + T rows
        rules.append("_stitch_rule" if cut or name == "_concat_rule" else name)
    assert [name for name, _ in records] == rules


def _same_saved(a, b) -> bool:
    """Two records' saved contexts hold equal values of the same types, arrays compared whole."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_saved, a, b))
    return type(a) is type(b) and a == b


@settings(max_examples=100, deadline=None)
@given(_stitch_draws())
@example(("linear", Dims(S=5, T=2, L=1), RolloutConfig(n=6), 2, 0))  # windows cut a block
@example(("mlp", Dims(S=7, T=3, L=2, hidden=3), RolloutConfig(n=5), 1, 1))
@example(("inverted_attention", Dims(S=5, T=2, L=3, V=2, hidden=3), RolloutConfig(n=4), 2, 2))
def test_rollout_predict_records_what_the_checked_stitch_records(draw):
    """Taking each step's window through stitch's unchecked core, and at L = 0 each forecast as
    its block, leaves the tape as the checked per-step stitch writes it, record for record."""
    kind, dims, cfg, B, seed = draw
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, dims, seed=seed % 1000)
    context = rng.normal(size=(dims.S, B * dims.V))
    tapes = []
    for rollout in (rollout_predict, composite_ops.checked_rollout_predict):
        with Tape() as tape:
            blocks, _ = rollout(model, context, cfg)
        tapes.append((tape.records, [(b.node_id, b.values.tobytes()) for b in blocks]))
    (got, got_blocks), (want, want_blocks) = tapes
    assert got_blocks == want_blocks
    assert len(got) == len(want)
    for (out, ids, rule, ctx), (want_out, want_ids, want_rule, want_ctx) in zip(got, want):
        assert (out, ids, rule) == (want_out, want_ids, want_rule)
        assert _same_saved(ctx, want_ctx), rule.__name__


def test_block_error_zero_and_hand_value():
    pred = Tensor([[1.0], [2.0]])
    assert block_error(pred, pred).item() == 0.0
    truth = Tensor([[0.8], [1.8]])
    assert block_error(pred, truth).item() == pytest.approx(0.04, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_block_error_quadratic_homogeneity(seed):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(3, 2))
    resid = rng.normal(size=(3, 2))
    e1 = block_error(Tensor(truth + resid), Tensor(truth)).item()
    e3 = block_error(Tensor(truth + 3.0 * resid), Tensor(truth)).item()
    assert e3 == pytest.approx(9.0 * e1, rel=1e-12)


def test_block_error_shape_mismatch():
    with pytest.raises(ValueError):
        block_error(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))


def test_discounted_loss_hand_values():
    e1 = Tensor(0.04, requires_grad=True)
    e2 = Tensor(0.09, requires_grad=True)
    with Tape():
        assert discounted_loss([e1, e2], 0.5, 0.1).item() == pytest.approx(0.083, abs=1e-15)
    with Tape() as tape:
        loss = discounted_loss([e2, e1], 0.5, 0.1)  # violated ordering
        assert loss.item() == pytest.approx(0.1105, abs=1e-15)
        (g,) = tape.gradient(loss, [e1])
        assert float(g) == pytest.approx(0.4, abs=1e-12)


def test_gradient_coefficient_three_cases():
    # d(term)/d(e2) for gamma=0.5, beta=0.1: above 0.5, equal 0.45, below 0.4
    cases = [(0.04, 0.09, 0.5), (0.07, 0.07, 0.45), (0.09, 0.04, 0.4)]
    for prev_val, cur_val, want in cases:
        with Tape() as tape:
            prev = Tensor(prev_val, requires_grad=True)
            cur = Tensor(cur_val, requires_grad=True)
            term = scale(
                add(scale(cur, 0.9), scale(absolute(sub(cur, stop_gradient(prev))), 0.1)), 0.5
            )
            (g,) = tape.gradient(term, [cur])
            assert float(g) == pytest.approx(want, abs=1e-12)


def test_penalty_gradient_norm_ratio_through_model():
    # same predictions, block-1 targets relabeled to flip the comparison;
    # the penalized term's gradient shrinks by exactly (1 - 2*beta)
    beta, gamma = 0.1, 0.5
    cfg = RolloutConfig(n=2, gamma=gamma, beta=beta)
    model = init_forecaster("linear", Dims(S=6, T=2), seed=17)
    ctx = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])[:, None]  # mean 0, pop std 1

    b1, b2 = (block.values for block in rollout_predict(model, ctx, cfg)[0])

    def grad_norm_of_penalized_term(future):
        window = _one_window(ctx, future)
        with Tape() as tape:
            blocks = ar_loss(model, window, cfg)
            e1, e2 = (_block_record(blocks, k, 1, cfg) for k in range(2))
            term = scale(
                add(scale(e2, 1 - beta), scale(absolute(sub(e2, stop_gradient(e1))), beta)),
                gamma,
            )
            grads = tape.gradient(term, list(model.params.values()))
        return float(np.linalg.norm(np.concatenate([g.ravel() for g in grads])))

    fut_monotone = np.vstack([b1 + 0.1, b2 + 1.0])   # e1 = 0.01 < e2 = 1.0
    fut_violated = np.vstack([b1 + 2.0, b2 + 1.0])   # e1 = 4.0 > e2 = 1.0
    ratio = grad_norm_of_penalized_term(fut_violated) / grad_norm_of_penalized_term(fut_monotone)
    assert ratio == pytest.approx(1.0 - 2.0 * beta, abs=1e-6)


def test_ar_loss_n1_is_exactly_block_mse():
    ds = gen_sinusoid(150, noise_std=0.3, seed=9)
    cfg = RolloutConfig(n=1)
    model = init_forecaster("mlp", Dims(S=8, T=4, hidden=5), seed=11)
    w = window_iter(ds, "train", 8, 4)[0]

    with Tape() as tape:
        blocks = ar_loss(model, w, cfg)
        g_ar = np.concatenate(
            [g.ravel() for g in tape.gradient(blocks.loss, list(model.params.values()))]
        )
        # the one-block objective is the block's error itself, in value and gradient, bitwise
        e1 = block_error(blocks.blocks[0], blocks.truth)
        g_e = np.concatenate(
            [g.ravel() for g in tape.gradient(e1, list(model.params.values()))]
        )
        assert blocks.loss.values.tobytes() == e1.values.tobytes() == blocks.errors.tobytes()
        assert g_ar.tobytes() == g_e.tobytes()
    with Tape() as tape:
        plain = mse_loss(model, w)
        g_mse = np.concatenate(
            [g.ravel() for g in tape.gradient(plain, list(model.params.values()))]
        )
    assert abs(blocks.loss.item() - plain.item()) <= 1e-12
    assert np.max(np.abs(g_ar - g_mse)) <= 1e-12


def test_ar_loss_violation_count():
    cfg = RolloutConfig(n=3)
    model = init_forecaster("linear", Dims(S=6, T=2), seed=17)
    ctx = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])[:, None]
    preview, _ = rollout_predict(model, ctx, cfg)
    offsets = [1.0, 2.0, 0.5]  # e: 1.0, 4.0, 0.25 -> one increase, one violation
    future = np.vstack([b.values + o for b, o in zip(preview, offsets)])
    blocks = ar_loss(model, _one_window(ctx, future), cfg)
    assert blocks.violations == 1
    np.testing.assert_allclose(blocks.errors[:, 0], [1.0, 4.0, 0.25])


def test_ar_loss_window_shape_errors():
    cfg = RolloutConfig(n=2)
    model = init_forecaster("linear", Dims(S=6, T=2), seed=0)
    good_ctx = np.zeros((6, 1))
    with pytest.raises(ValueError):
        ar_loss(model, _one_window(np.zeros((5, 1)), np.zeros((4, 1))), cfg)
    with pytest.raises(ValueError):
        ar_loss(model, _one_window(good_ctx, np.zeros((3, 1))), cfg)



def test_loss_magnitude_factor_values():
    assert loss_magnitude_factor(RolloutConfig(n=1)) == 1.0
    assert loss_magnitude_factor(RolloutConfig(n=4)) == pytest.approx(1.875)
    assert loss_magnitude_factor(RolloutConfig(n=40)) == pytest.approx(2.0, abs=1e-10)


def test_discount_telescoping_with_zero_beta():
    for n in (2, 3, 6):
        errors = [Tensor(0.37, requires_grad=True) for _ in range(n)]
        with Tape():
            value = discounted_loss(errors, 0.5, 0.0).item()
        factor = loss_magnitude_factor(RolloutConfig(n=n))
        assert abs(value - factor * 0.37) <= 1e-12


def test_gradient_norm_bound_over_random_draws():
    rng = np.random.default_rng(123)
    ds = gen_sinusoid(300, V=2, periods=[24, 17], noise_std=0.3, seed=1)
    kinds = [("linear", 0), ("mlp", 4), ("inverted_attention", 3)]
    for trial in range(30):
        kind, hidden = kinds[trial % 3]
        n = int(rng.integers(2, 5))
        gamma = float(rng.choice([0.3, 0.5, 0.9]))
        beta = float(rng.choice([0.05, 0.1, 0.3]))
        cfg = RolloutConfig(n=n, gamma=gamma, beta=beta)
        model = init_forecaster(kind, Dims(S=8, T=3, V=2, hidden=hidden),
                                seed=int(rng.integers(0, 10000)))
        windows = window_iter(ds, "train", 8, cfg.n * 3)
        w = windows[int(rng.integers(0, len(windows)))]
        with Tape() as tape:
            blocks = ar_loss(model, w, cfg)
            params = list(model.params.values())
            norm_l = np.linalg.norm(
                np.concatenate([g.ravel() for g in tape.gradient(blocks.loss, params)])
            )
            norms_e = [
                np.linalg.norm(np.concatenate([g.ravel() for g in tape.gradient(e, params)]))
                for e in (_block_record(blocks, k, 2, cfg) for k in range(n))
            ]
        triangle = sum(gamma ** k * norms_e[k] for k in range(n))
        assert norm_l <= triangle
        assert norm_l < max(norms_e) / (1.0 - gamma) + 1e-9


def test_check_gradients_report_consistency():
    ds = gen_sinusoid(200, noise_std=0.2, seed=3)
    cfg = RolloutConfig(n=3)
    model = init_forecaster("mlp", Dims(S=8, T=2, hidden=4), seed=7)
    w = window_iter(ds, "train", 8, 6)[0]
    report = check_gradients(model, w, cfg)
    assert report.max_rel_error == max(err for _, err in report.per_param_errors)
    assert report.max_rel_error < 1e-5
    assert report.norm_bound_ok
    assert report.step_size == 1e-4
    assert [name for name, _ in report.per_param_errors] == list(model.params.keys())


def test_check_gradients_n1_bound_degenerates():
    ds = gen_sinusoid(200, noise_std=0.2, seed=3)
    cfg = RolloutConfig(n=1)
    model = init_forecaster("linear", Dims(S=8, T=4), seed=7)
    w = window_iter(ds, "train", 8, 4)[0]
    with Tape() as tape:
        blocks = ar_loss(model, w, cfg)
        params = list(model.params.values())
        norm_l = np.linalg.norm(
            np.concatenate([g.ravel() for g in tape.gradient(blocks.loss, params)])
        )
        norm_e1 = np.linalg.norm(
            np.concatenate([g.ravel() for g in tape.gradient(_block_record(blocks, 0, 1, cfg),
                                                             params)])
        )
    assert abs(norm_l - norm_e1) <= 1e-12


@st.composite
def _batch_draws(draw):
    kind, hidden = draw(st.sampled_from([("linear", 0), ("mlp", 3), ("inverted_attention", 3)]))
    S = draw(st.integers(2, 7))
    geometry = (S, draw(st.integers(1, 4)), draw(st.integers(0, S - 1)))  # S, T, L < S
    cfg = RolloutConfig(n=draw(st.integers(1, 4)), gamma=draw(st.sampled_from([0.3, 0.5, 0.9])),
                        beta=draw(st.sampled_from([0.05, 0.1, 0.3])))
    V = draw(st.integers(1, 3))
    windows = draw(st.integers(1, 7))
    batch_size = draw(st.integers(1, windows))  # the last batch is ragged unless it divides
    return kind, hidden, geometry, cfg, V, windows, batch_size, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(_batch_draws())
@example(("inverted_attention", 3, (5, 2, 1), RolloutConfig(n=3), 3, 7, 3, 0))
@example(("linear", 0, (4, 2, 0), RolloutConfig(n=2), 1, 5, 5, 1))
def test_batched_ar_loss_is_mean_of_per_window(draw):
    kind, hidden, (S, T, L), cfg, V, n_windows, batch_size, seed = draw
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, Dims(S=S, T=T, L=L, V=V, hidden=hidden), seed=seed)
    params = list(model.params.values())
    drawn = [(rng.normal(size=(S, V)) * rng.uniform(0.5, 3.0),
              rng.normal(size=(cfg.n * T, V))) for _ in range(n_windows)]
    windows = Windows(np.array([c for c, _ in drawn]), np.array([f for _, f in drawn]),
                      np.arange(n_windows))

    def loss_and_grad(batch):
        with Tape() as tape:
            blocks = ar_loss(model, batch, cfg)
            grad = np.concatenate([g.ravel() for g in tape.gradient(blocks.loss, params)])
        return blocks, grad

    for start in range(0, n_windows, batch_size):
        batch = windows[start:start + batch_size]
        blocks, grad = loss_and_grad(batch)
        singles = [loss_and_grad(w) for w in batch]
        want_loss = np.mean([b.loss.item() for b, _ in singles])
        want_grad = np.mean([g for _, g in singles], axis=0)
        assert abs(blocks.loss.item() - want_loss) <= 1e-12 * max(abs(want_loss), 1.0)
        # relative to the largest coordinate: attention's k gradient is
        # analytically zero, so per-coordinate errors would compare noise
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        per_window = np.array([b.errors[:, 0] for b, _ in singles])  # (B, n)
        np.testing.assert_allclose(blocks.errors.T, per_window, rtol=1e-12, atol=1e-15)
        assert blocks.violations == sum(b.violations for b, _ in singles)
        assert blocks.errors.shape == (cfg.n, len(batch))


def test_mse_loss_takes_a_batch():
    ds = gen_sinusoid(150, noise_std=0.3, seed=9)
    model = init_forecaster("mlp", Dims(S=8, T=4, hidden=5), seed=11)
    windows = window_iter(ds, "train", 8, 8)[:5]  # futures longer than T are cut to T
    singles = [mse_loss(model, w).item() for w in windows]
    assert mse_loss(model, windows).item() == pytest.approx(np.mean(singles), rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        ar_loss(model, windows[:0], RolloutConfig())


@pytest.mark.parametrize("kind,V", [("mlp", 1), ("inverted_attention", 3)])
def test_min_kink_gap_is_smallest_relu_or_abs_input(kind, V):
    cfg = RolloutConfig(n=3)
    ds = gen_sinusoid(200, V=V, periods=[24.0, 17.0, 9.0][:V], noise_std=0.2, seed=4)
    window = window_iter(ds, "train", 12, cfg.n * 3)[5]
    model = init_forecaster(kind, Dims(S=12, T=3, L=1, V=V, hidden=6), seed=2)
    with Tape() as tape:
        ar_loss(model, window, cfg)
        gap = tape.min_kink_gap
    inputs, (context,), (future,) = [], window.contexts, window.futures  # relu's, then abs'
    seq, mean, std = numpy_oracle.rollout(kind, numpy_oracle.arrays(model), context, 1, 3, inputs)
    inputs += list(np.diff(numpy_oracle.block_mse(seq[12:], (future - mean) / std, 3)))
    assert len(inputs) == 2 * cfg.n - 1
    assert gap == pytest.approx(min(np.min(np.abs(x)) for x in inputs), rel=1e-9)
    assert Tape().min_kink_gap == float("inf")


def _composite_block_error(pred_block, truth_block, V):
    """block_error as sub, mul and constant-matrix matmul records: the fused op's reference."""
    rows, width = pred_block.shape
    diff = sub(pred_block, Tensor(truth_block))
    per_column = matmul(Tensor(np.full((1, rows), 1.0 / (rows * V))), mul(diff, diff))
    if V == 1:
        return per_column
    return matmul(per_column, Tensor(np.kron(np.eye(width // V), np.ones((V, 1)))))


def _composite_discounted_loss(errors, gamma, beta):
    """discounted_loss as scale, abs and stop_gradient records: the reference for the fused op."""
    loss = errors[0]
    for k in range(1, len(errors)):
        term = scale(errors[k], 1.0 - beta)
        if beta > 0.0:
            term = add(term, scale(absolute(sub(errors[k], stop_gradient(errors[k - 1]))), beta))
        loss = add(loss, scale(term, gamma ** k))
    return loss


def _chained(block_error_fn, discounted_fn):
    """The objective of ``rollout_objective``'s signature as per-block error records, their
    discounted sum and a mean."""
    def objective(blocks, truth, V, gamma, beta):
        T = blocks[0].shape[0]
        errors = [block_error_fn(block, truth[k * T:(k + 1) * T], V)
                  for k, block in enumerate(blocks)]
        return mean_all(discounted_fn(errors, gamma, beta)), np.vstack([e.values for e in errors])
    return objective


def _batch_objective(model, context, future, cfg, beta, V, objective_fn):
    """(loss, e rows, parameter gradient, kink gap, rule names) of one taped batch; the kink gap
    is the smaller of min_kink_gap and the test-side records' ``abs_kink_gap``."""
    with Tape() as tape:
        loss, e = objective_fn(rollout_predict(model, context, cfg)[0], future, V, cfg.gamma, beta)
        grad = np.concatenate([g.ravel() for g in tape.gradient(loss, list(model.params.values()))])
        rules = [rule.__name__ for _, _, rule, _ in tape.records]
        gap = min(tape.min_kink_gap, abs_kink_gap(tape))
        return loss.item(), e, grad, gap, rules


@st.composite
def _objective_draws(draw):
    kind, hidden = draw(st.sampled_from([("linear", 0), ("mlp", 3), ("inverted_attention", 3)]))
    S = draw(st.integers(2, 7))
    geometry = (S, draw(st.integers(1, 4)), draw(st.integers(0, S - 1)))  # S, T, L < S
    cfg = RolloutConfig(n=draw(st.integers(1, 5)), gamma=draw(st.sampled_from([0.3, 0.5, 0.9])))
    beta = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.45]))
    return kind, hidden, geometry, cfg, beta, draw(st.integers(1, 4)), draw(st.integers(1, 6)), \
        draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(_objective_draws())
@example(("linear", 0, (6, 2, 0), RolloutConfig(n=5), 0.0, 1, 3, 0))
@example(("inverted_attention", 3, (5, 2, 1), RolloutConfig(n=4), 0.3, 4, 2, 1))
def test_fused_objective_matches_the_composite(draw):
    kind, hidden, (S, T, L), cfg, beta, V, B, seed = draw
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, Dims(S=S, T=T, L=L, V=V, hidden=hidden), seed=seed)
    context = rng.normal(size=(S, B * V))
    future = rng.normal(size=(cfg.n * T, B * V))
    args = (model, context, future, cfg, beta, V)
    engine = _batch_objective(*args, rollout_objective)
    fused = _batch_objective(*args, _chained(block_error, discounted_loss))
    want_loss, want_e, want_grad, want_gap, _ = _batch_objective(
        *args, _chained(_composite_block_error, _composite_discounted_loss))
    for loss, e, grad, gap, _ in (engine, fused):
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        np.testing.assert_allclose(e, want_e, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        assert gap == want_gap
    # the engine records one objective; the test-side ops one per block error and, past one
    # block, one for the discounted sum
    assert engine[4].count("_rollout_objective_rule") == 1
    assert fused[4].count("_block_error_rule") == cfg.n
    assert fused[4].count("_discounted_loss_rule") == (cfg.n > 1)


def test_block_error_rejects_partial_windows():
    with pytest.raises(ValueError, match="window"):
        block_error(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5))), 2)


def test_discounted_loss_saves_the_penalty_gaps():
    errors = [Tensor(row, requires_grad=True) for row in ([[0.5, 0.25]], [[0.75, 0.125]],
                                                          [[0.875, 0.5]])]
    with Tape() as tape:
        discounted_loss(errors, 0.5, 0.1)
        assert abs_kink_gap(tape) == 0.125
    with Tape() as tape:  # without the penalty there is no kink
        discounted_loss(errors, 0.5, 0.0)
        assert abs_kink_gap(tape) == float("inf")


def _composite_ar_loss(model, windows, cfg):
    """``ar_loss`` as n block_error records, one discounted_loss and, past one window, one mean:
    the reference for its one rollout_objective record; (loss, e rows, violations)."""
    T, V = model.dims.T, windows.contexts.shape[2]
    context, future = windows.columns()
    blocks, state = rollout_predict(model, context, cfg)
    future = apply_norm(future, state)
    errors = [block_error(block, future[k * T:(k + 1) * T], V) for k, block in enumerate(blocks)]
    objective = discounted_loss(errors, cfg.gamma, cfg.beta)
    e = np.vstack([error.values for error in errors])
    return objective if len(windows) == 1 else mean_all(objective), e, \
        int(np.count_nonzero(e[1:] < e[:-1]))


@st.composite
def _rollout_objective_draws(draw):
    kind, hidden = draw(st.sampled_from([("linear", 0), ("mlp", 3), ("inverted_attention", 3)]))
    S = draw(st.integers(2, 8))
    dims = Dims(S=S, T=draw(st.integers(1, 5)), L=draw(st.integers(0, S - 1)),
                V=draw(st.integers(1, 3)), hidden=hidden)
    cfg = RolloutConfig(n=draw(st.integers(1, 5)), gamma=draw(st.sampled_from([0.3, 0.5, 0.9])),
                        beta=draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.45])))
    return kind, dims, cfg, draw(st.integers(1, 6)), draw(st.integers(0, 2 ** 32 - 1))


def _drawn_model_and_windows(kind, dims, cfg, B, seed):
    rng = np.random.default_rng(seed)
    model = init_forecaster(kind, dims, seed=seed % 1000)
    return model, Windows(rng.normal(size=(B, dims.S, dims.V)) * rng.uniform(0.5, 3.0),
                          rng.normal(size=(B, cfg.n * dims.T, dims.V)), np.arange(B))


@settings(max_examples=150, deadline=None)
@given(_rollout_objective_draws())
@example(("linear", Dims(S=7, T=3, L=2), RolloutConfig(n=5, beta=0.45), 6, 0))
@example(("mlp", Dims(S=5, T=2, L=1, V=2, hidden=3), RolloutConfig(n=4, gamma=0.9), 3, 1))
@example(("inverted_attention", Dims(S=5, T=3, L=4, V=3, hidden=3), RolloutConfig(n=3), 2, 2))
@example(("linear", Dims(S=4, T=4), RolloutConfig(n=1), 1, 3))  # one block, one window
def test_rollout_objective_matches_the_composite_bit_for_bit(draw):
    """The one-record objective gives the composite's loss, e rows, violations, parameter
    gradients and min_kink_gap, bit for bit; S % T != 0 and L > 0 included."""
    kind, dims, cfg, B, seed = draw
    model, windows = _drawn_model_and_windows(*draw)
    params = list(model.params.values())
    with Tape() as tape:
        blocks = ar_loss(model, windows, cfg)
        got = [blocks.loss.values.tobytes(), *(g.tobytes() for g in
                                               tape.gradient(blocks.loss, params))]
        gap = tape.min_kink_gap
        e = blocks.errors
        assert [rule.__name__ for _, _, rule, _ in tape.records].count(
            "_rollout_objective_rule") == 1
    with Tape() as tape:
        loss, want_e, want_violations = _composite_ar_loss(model, windows, cfg)
        want = [loss.values.tobytes(), *(g.tobytes() for g in tape.gradient(loss, params))]
        assert gap == min(tape.min_kink_gap, abs_kink_gap(tape))
    assert got == want
    assert e.tobytes() == want_e.tobytes() and e.shape == (cfg.n, B)
    assert blocks.violations == want_violations


@settings(max_examples=150, deadline=None)
@given(_rollout_objective_draws())
@example(("mlp", Dims(S=5, T=2, L=1, V=2, hidden=3), RolloutConfig(n=4, beta=0.0), 3, 4))
def test_block_errors_keep_the_objective_errors_bit_for_bit(draw):
    """``BlockErrors.errors``, the (n, B) errors the objective's record computed, are the values
    of n block_error records over its ``blocks`` and ``truth``, byte for byte."""
    model, windows = _drawn_model_and_windows(*draw)
    blocks = ar_loss(model, windows, draw[2])
    T, V = model.dims.T, windows.contexts.shape[2]
    want = [block_error(block, blocks.truth[k * T:(k + 1) * T], V).values
            for k, block in enumerate(blocks.blocks)]
    assert blocks.errors.tobytes() == np.vstack(want).tobytes()
    assert blocks.errors.shape == (draw[2].n, len(windows))


@settings(max_examples=150, deadline=None)
@given(_rollout_objective_draws())
@example(("inverted_attention", Dims(S=5, T=3, L=4, V=3, hidden=3), RolloutConfig(n=3, beta=0.0),
          1, 2))
@example(("mlp", Dims(S=5, T=2, L=1, V=2, hidden=3), RolloutConfig(n=4, beta=0.45), 1, 1))
def test_one_block_record_gives_the_block_error_gradient_bit_for_bit(draw):
    """For one window, block k's one-block rollout_objective record, which check_gradients
    differentiates, has the value and parameter gradient of block k's block_error record, bit
    for bit."""
    kind, dims, cfg, _, seed = draw  # one window, whatever B was drawn
    model, window = _drawn_model_and_windows(kind, dims, cfg, 1, seed)
    params = list(model.params.values())
    with Tape() as tape:
        blocks = ar_loss(model, window, cfg)
        for k, block in enumerate(blocks.blocks):
            got = _block_record(blocks, k, dims.V, cfg)
            want = block_error(block, blocks.truth[k * dims.T:(k + 1) * dims.T], dims.V)
            assert got.values.tobytes() == want.values.tobytes()
            assert [g.tobytes() for g in tape.gradient(got, params)] == \
                [g.tobytes() for g in tape.gradient(want, params)]


def test_check_gradients_refuses_a_batch_of_windows():
    ds = gen_sinusoid(200, noise_std=0.2, seed=3)
    model = init_forecaster("linear", Dims(S=8, T=2), seed=7)
    with pytest.raises(ValueError, match="one window"):
        check_gradients(model, window_iter(ds, "train", 8, 4)[:2], RolloutConfig(n=2))


def test_gradcheck_passes_without_the_penalty():
    """beta = 0 (the plain discounted sum) is a valid objective, and its gradients match."""
    ds = gen_sinusoid(200, noise_std=0.2, seed=3)
    model = init_forecaster("mlp", Dims(S=8, T=2, hidden=4), seed=7)
    report = check_gradients(model, window_iter(ds, "train", 8, 6)[0],
                             RolloutConfig(n=3, beta=0.0))
    assert report.max_rel_error < 1e-5 and report.norm_bound_ok


def test_gradcheck_fails_without_the_penalty_sign_in_the_fused_rule(monkeypatch):
    """Negative control: the fused objective's rule with its beta sign(e_k - e_(k-1)) term
    dropped (every gap read as 0) no longer matches the finite-difference oracle."""
    cfg = RolloutConfig(n=3, beta=0.3)
    ds = gen_sinusoid(200, noise_std=0.2, seed=3)
    model = init_forecaster("mlp", Dims(S=8, T=2, hidden=4), seed=7)
    window = window_iter(ds, "train", 8, 6)[0]
    assert check_gradients(model, window, cfg).max_rel_error < 1e-5
    rule = autodiff._rollout_objective_rule

    def without_the_sign(ctx, g):
        gaps, *rest = ctx
        return rule((np.zeros_like(gaps), *rest), g)

    monkeypatch.setattr(autodiff, "_rollout_objective_rule", without_the_sign)
    assert check_gradients(model, window, cfg).max_rel_error > 1e-3


@pytest.mark.parametrize("kind,V", [("linear", 1), ("inverted_attention", 3)])
def test_ar_loss_on_windows_equals_ar_loss_on_listed_windows(kind, V):
    """A batch picked by an index array (views) scores as the same windows stacked one by one."""
    cfg = RolloutConfig(n=3)
    ds = gen_sinusoid(300, V=V, periods=[24.0, 17.0, 9.0][:V], noise_std=0.2, seed=6)
    windows = window_iter(ds, "train", 12, cfg.n * 3)
    model = init_forecaster(kind, Dims(S=12, T=3, L=1, V=V, hidden=5), seed=8)
    picks = [17, 3, 40, 9, 3]
    params = list(model.params.values())
    results = []
    listed = [windows[i] for i in picks]
    stacked = Windows(*(np.concatenate([getattr(w, name) for w in listed])
                        for name in ("contexts", "futures", "origins")))
    for batch in (windows[np.array(picks)], stacked):
        with Tape() as tape:
            blocks = ar_loss(model, batch, cfg)
            grads = tape.gradient(blocks.loss, params)
        results.append((blocks.loss.values.tobytes(), blocks.errors.tobytes(),
                        [g.tobytes() for g in grads], blocks.violations,
                        mse_loss(model, batch).values.tobytes()))
    assert results[0] == results[1]
