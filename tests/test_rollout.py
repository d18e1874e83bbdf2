"""Rollout recurrence, block errors, the discounted objective, and its gradient policy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arforecast.autodiff import Tape, Tensor, absolute, mean_all, scale, stop_gradient
from arforecast.data import Windows, gen_sinusoid, window_iter
from arforecast.models import Dims, forecast, init_forecaster
from arforecast.rollout import (
    RolloutConfig,
    ar_loss,
    block_error,
    check_gradients,
    discounted_loss,
    loss_magnitude_factor,
    mse_loss,
    rollout_predict,
)
from composite_ops import matmul, mul


def test_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        RolloutConfig(gamma=1.5)
    with pytest.raises(ValueError, match="beta"):
        RolloutConfig(beta=0.5)
    with pytest.raises(ValueError, match="beta"):
        RolloutConfig(beta=0.0)
    with pytest.raises(ValueError, match="n"):
        RolloutConfig(n=0)
    with pytest.raises(ValueError, match="L"):
        Dims(S=8, T=2, L=8)


def _one_window(context, future):
    return Windows(np.asarray(context)[None], np.asarray(future)[None], np.arange(1))


def _numpy_linear_rollout(w, b, context, dims, n):
    """Independent n-block rollout oracle for the linear model, in plain numpy.

    Returns (blocks, step_inputs); the running sequence starts as the
    context and grows by one predicted block per step.
    """
    S, T, L = dims.S, dims.T, dims.L
    padded = np.array(context, dtype=np.float64)
    blocks, inputs = [], []
    for k in range(n):
        x = padded[k * T:S + k * T]
        inputs.append(x.copy())
        block = (w @ x + b)[L:]
        blocks.append(block)
        padded = np.vstack([padded, block])
    return blocks, inputs


def _assert_blocks_match(got, want):
    assert len(got) == len(want)
    for have, block in zip(got, want):
        assert have.shape == block.shape
        np.testing.assert_allclose(have.values, block, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("L", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_rollout_matches_numpy_oracle(L, n):
    cfg = RolloutConfig(n=n)
    model = init_forecaster("linear", Dims(S=6, T=3, L=L, V=2), seed=13)
    ctx = np.random.default_rng(5).normal(size=(6, 2))
    got = rollout_predict(model, Tensor(ctx), cfg)
    w = model.params["w"].values
    b = model.params["b"].values
    blocks, _ = _numpy_linear_rollout(w, b, ctx, model.dims, n)
    _assert_blocks_match(got, blocks)


@st.composite
def _linear_geometries(draw):
    """(Dims, n) over small S, T, L < S, n, V; T may reach or pass S."""
    S = draw(st.integers(1, 8))
    T, L, n = draw(st.integers(1, 12)), draw(st.integers(0, S - 1)), draw(st.integers(1, 5))
    return Dims(S=S, T=T, L=L, V=draw(st.integers(1, 3))), n


@settings(max_examples=60, deadline=None)
@given(_linear_geometries(), st.integers(0, 2 ** 32 - 1))
@example((Dims(S=3, T=5, L=1, V=2), 4), 0)  # T > S: inputs past block 1 are all predicted
@example((Dims(S=4, T=2, L=0, V=1), 5), 1)  # 2T == S: a step input is whole blocks
def test_rollout_matches_numpy_oracle_over_geometries(geometry, seed):
    dims, n = geometry
    model = init_forecaster("linear", dims, seed=seed % 1000)
    ctx = np.random.default_rng(seed).normal(size=(dims.S, dims.V))
    with Tape():
        got = rollout_predict(model, Tensor(ctx), RolloutConfig(n=n))
    blocks, _ = _numpy_linear_rollout(
        model.params["w"].values, model.params["b"].values, ctx, dims, n)
    _assert_blocks_match(got, blocks)


def test_third_step_input_is_fully_predicted():
    # S=4, T=2, k=2: the step input covers rows 4..7, all beyond the context
    cfg = RolloutConfig(n=3)
    model = init_forecaster("linear", Dims(S=4, T=2), seed=3)
    ctx = np.random.default_rng(7).normal(size=(4, 1))
    w, b = model.params["w"].values, model.params["b"].values
    blocks, inputs = _numpy_linear_rollout(w, b, ctx, model.dims, cfg.n)
    np.testing.assert_array_equal(inputs[2], np.vstack(blocks[:2]))
    _assert_blocks_match(rollout_predict(model, Tensor(ctx), cfg), blocks)


def test_n1_rollout_equals_forecast():
    cfg = RolloutConfig(n=1)
    model = init_forecaster("mlp", Dims(S=6, T=3, L=2, hidden=4), seed=2)
    ctx = np.random.default_rng(1).normal(size=(6, 1))
    (got,) = rollout_predict(model, Tensor(ctx), cfg)
    direct = forecast(model, Tensor(ctx))
    np.testing.assert_array_equal(got.values, direct.values[2:])


def test_copy_last_model_is_a_fixed_point():
    # weights copy the final context row into every output slot
    dims = Dims(S=5, T=2, L=1)
    model = init_forecaster("linear", dims, seed=0)
    model.params["w"].values[...] = 0.0
    model.params["w"].values[:, -1] = 1.0
    model.params["b"].values[...] = 0.0
    ctx = np.arange(5.0)[:, None]  # ends in 4.0
    for n in (1, 2, 5):
        cfg = RolloutConfig(n=n)
        got = rollout_predict(model, Tensor(ctx), cfg)
        np.testing.assert_array_equal(np.vstack([b.values for b in got]), np.full((2 * n, 1), 4.0))


def test_rollout_shape_errors():
    cfg = RolloutConfig()
    model = init_forecaster("linear", Dims(S=6, T=2), seed=0)
    with pytest.raises(ValueError):
        rollout_predict(model, Tensor(np.zeros((5, 1))), cfg)


def test_rollout_never_reads_the_future():
    ds = gen_sinusoid(120, noise_std=0.1, seed=4)
    cfg = RolloutConfig(n=3)
    model = init_forecaster("linear", Dims(S=8, T=4), seed=5)
    w = window_iter(ds, "train", 8, 12)[0]
    zeroed = Windows(w.contexts, np.zeros_like(w.futures), w.origins)
    a, b = ([block.values.tobytes() for block in rollout_predict(model, Tensor(x.contexts[0]), cfg)]
            for x in (w, zeroed))
    assert a == b


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
                scale(cur, 0.9) + scale(absolute(cur - stop_gradient(prev)), 0.1), 0.5
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

    b1, b2 = (block.values for block in rollout_predict(model, Tensor(ctx), cfg))

    def grad_norm_of_penalized_term(future):
        window = _one_window(ctx, future)
        with Tape() as tape:
            blocks = ar_loss(model, window, cfg)
            e1, e2 = blocks.e
            term = scale(
                scale(e2, 1 - beta) + scale(absolute(e2 - stop_gradient(e1)), beta), gamma
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
        assert blocks.loss is blocks.e[0]
        g_ar = np.concatenate(
            [g.ravel() for g in tape.gradient(blocks.loss, list(model.params.values()))]
        )
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
    preview = rollout_predict(model, Tensor(ctx), cfg)
    offsets = [1.0, 2.0, 0.5]  # e: 1.0, 4.0, 0.25 -> one increase, one violation
    future = np.vstack([b.values + o for b, o in zip(preview, offsets)])
    blocks = ar_loss(model, _one_window(ctx, future), cfg)
    assert blocks.violations == 1
    np.testing.assert_allclose([e.item() for e in blocks.e], [1.0, 4.0, 0.25])


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
                for e in blocks.e
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
            np.concatenate([g.ravel() for g in tape.gradient(blocks.e[0], params)])
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
        per_window = np.array([[e.item() for e in b.e] for b, _ in singles])  # (B, n)
        np.testing.assert_allclose(np.vstack([e.values for e in blocks.e]).T, per_window,
                                   rtol=1e-12, atol=1e-15)
        assert blocks.violations == sum(b.violations for b, _ in singles)
        assert blocks.e[0].shape == (1, len(batch))


def test_mse_loss_takes_a_batch():
    ds = gen_sinusoid(150, noise_std=0.3, seed=9)
    model = init_forecaster("mlp", Dims(S=8, T=4, hidden=5), seed=11)
    windows = window_iter(ds, "train", 8, 8)[:5]  # futures longer than T are cut to T
    singles = [mse_loss(model, w).item() for w in windows]
    assert mse_loss(model, windows).item() == pytest.approx(np.mean(singles), rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        ar_loss(model, windows[:0], RolloutConfig())


def _numpy_kink_inputs(model, window, cfg):
    """Every relu and abs input of ar_loss on one window, recomputed in plain numpy."""
    p = {name: t.values for name, t in model.params.items()}

    def layer_norm(x):
        centered = x - x.mean(axis=0, keepdims=True)
        return centered / np.sqrt(np.mean(centered * centered, axis=0, keepdims=True) + 1e-5)

    def forward(x, relu_inputs):
        if model.kind == "mlp":
            pre = p["w1"] @ x + p["b1"]
            relu_inputs.append(pre)
            return p["w2"] @ np.maximum(pre, 0.0) + p["b2"]
        tokens = p["embed_w"] @ x + p["embed_b"]
        q, k, v = (p[f"{n}_w"] @ tokens + p[f"{n}_b"] for n in "qkv")
        scores = q.T @ k / np.sqrt(model.dims.hidden)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        x1 = layer_norm(tokens + p["o_w"] @ (v @ (e / e.sum(axis=1, keepdims=True)).T) + p["o_b"])
        pre = p["ff1_w"] @ x1 + p["ff1_b"]
        relu_inputs.append(pre)
        x2 = layer_norm(x1 + p["ff2_w"] @ np.maximum(pre, 0.0) + p["ff2_b"])
        return p["proj_w"] @ x2 + p["proj_b"]

    S, T, L = model.dims.S, model.dims.T, model.dims.L
    (context,), (future,) = window.contexts, window.futures
    mean, std = context.mean(axis=0), np.maximum(context.std(axis=0), 1e-5)
    seq, future = (context - mean) / std, (future - mean) / std
    inputs, errors = [], []
    for k in range(cfg.n):
        block = forward(seq[-S:], inputs)[L:]
        errors.append(np.mean((block - future[k * T:(k + 1) * T]) ** 2))
        seq = np.vstack([seq, block])
    abs_inputs = [np.array(errors[k] - errors[k - 1]) for k in range(1, cfg.n)]
    return inputs + abs_inputs


@pytest.mark.parametrize("kind,V", [("mlp", 1), ("inverted_attention", 3)])
def test_min_kink_gap_is_smallest_relu_or_abs_input(kind, V):
    cfg = RolloutConfig(n=3)
    ds = gen_sinusoid(200, V=V, periods=[24.0, 17.0, 9.0][:V], noise_std=0.2, seed=4)
    window = window_iter(ds, "train", 12, cfg.n * 3)[5]
    model = init_forecaster(kind, Dims(S=12, T=3, L=1, V=V, hidden=6), seed=2)
    with Tape() as tape:
        ar_loss(model, window, cfg)
        gap = tape.min_kink_gap
    inputs = _numpy_kink_inputs(model, window, cfg)
    assert len(inputs) == 2 * cfg.n - 1
    assert gap == pytest.approx(min(np.min(np.abs(x)) for x in inputs), rel=1e-9)
    assert Tape().min_kink_gap == float("inf")


def _composite_block_error(pred_block, truth_block, V):
    """block_error as sub, mul and constant-matrix matmul records: the fused op's reference."""
    rows, width = pred_block.shape
    diff = pred_block - Tensor(truth_block)
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
            term = term + scale(absolute(errors[k] - stop_gradient(errors[k - 1])), beta)
        loss = loss + scale(term, gamma ** k)
    return loss


def _batch_objective(model, context, future, cfg, beta, V, block_error_fn, discounted_fn):
    """(loss, e rows, parameter gradient, min_kink_gap, rule names) of one taped batch."""
    T = model.dims.T
    with Tape() as tape:
        errors = [block_error_fn(block, future[k * T:(k + 1) * T], V)
                  for k, block in enumerate(rollout_predict(model, Tensor(context), cfg))]
        loss = mean_all(discounted_fn(errors, cfg.gamma, beta))
        grad = np.concatenate([g.ravel() for g in tape.gradient(loss, list(model.params.values()))])
        rules = [rule.__name__ for _, _, rule, _ in tape.records]
        return loss.item(), np.vstack([e.values for e in errors]), grad, tape.min_kink_gap, rules


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
    loss, e, grad, gap, rules = _batch_objective(*args, block_error, discounted_loss)
    want_loss, want_e, want_grad, want_gap, _ = _batch_objective(
        *args, _composite_block_error, _composite_discounted_loss)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    np.testing.assert_allclose(e, want_e, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
    assert gap == want_gap
    # one record per block error and, past one block, one for the whole objective
    assert rules.count("_block_error_rule") == cfg.n
    assert rules.count("_discounted_loss_rule") == (cfg.n > 1)


def test_block_error_rejects_partial_windows():
    with pytest.raises(ValueError, match="window"):
        block_error(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5))), 2)


def test_discounted_loss_saves_the_penalty_gaps():
    errors = [Tensor(row, requires_grad=True) for row in ([[0.5, 0.25]], [[0.75, 0.125]],
                                                          [[0.875, 0.5]])]
    with Tape() as tape:
        discounted_loss(errors, 0.5, 0.1)
        assert tape.min_kink_gap == 0.125
    with Tape() as tape:  # without the penalty there is no kink
        discounted_loss(errors, 0.5, 0.0)
        assert tape.min_kink_gap == float("inf")


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
        results.append((blocks.loss.values.tobytes(), [e.values.tobytes() for e in blocks.e],
                        [g.tobytes() for g in grads], blocks.violations,
                        mse_loss(model, batch).values.tobytes()))
    assert results[0] == results[1]
