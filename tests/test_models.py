"""Forecaster shapes, parameter counts, channel independence, normalization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arforecast.rollout as rollout
from arforecast.autodiff import (
    Tape,
    Tensor,
    affine,
    finite_diff_oracle,
    max_relative_error,
    relu,
)
from arforecast.models import (
    Dims,
    NormState,
    _param_shapes,
    apply_norm,
    build_forecaster,
    forecast,
    init_forecaster,
    invert_norm,
    param_count,
)
from composite_ops import (
    abs_kink_gap,
    add,
    block_error,
    discounted_loss,
    layer_norm,
    mean_all,
    mul,
    scale,
    softmax,
    window_mix,
    window_scores,
)
import numpy_oracle


def test_linear_param_count():
    model = init_forecaster("linear", Dims(S=4, T=2, L=0, V=1), seed=0)
    assert model.param_count == 10
    assert param_count("linear", Dims(S=4, T=2)) == 10


def test_mlp_param_count():
    assert param_count("mlp", Dims(S=4, T=2, hidden=8)) == 58


def test_param_count_independent_of_variates():
    for kind, hidden in [("linear", 0), ("mlp", 6), ("inverted_attention", 6)]:
        a = param_count(kind, Dims(S=5, T=3, V=1, hidden=hidden))
        b = param_count(kind, Dims(S=5, T=3, V=7, hidden=hidden))
        assert a == b


def test_build_forecaster_rejects_a_vector_of_the_wrong_size():
    for bad in (np.zeros(0), np.zeros(9), np.zeros(11), np.zeros((10, 1))):
        with pytest.raises(ValueError, match="vector of 10 parameters"):
            build_forecaster("linear", Dims(S=4, T=2), bad)
    model = build_forecaster("linear", Dims(S=4, T=2), np.arange(10.0))
    assert model.flat.tobytes() == np.arange(10.0).tobytes()
    assert model.params["b"].values.ravel().tolist() == [8.0, 9.0]


@pytest.mark.parametrize("kind,dims", [
    ("linear", Dims(S=4, T=2, L=1)),
    ("mlp", Dims(S=5, T=3, V=2, hidden=4)),
    ("inverted_attention", Dims(S=6, T=2, L=2, V=3, hidden=3)),
])
def test_built_parameters_are_untracked_views_of_flat(kind, dims):
    model = build_forecaster(kind, dims, np.arange(param_count(kind, dims), dtype=np.float64))
    shapes = _param_shapes(kind, dims)
    assert [name for name, _, _ in shapes] == list(model.params)
    for (_, shape, _), tensor in zip(shapes, model.params.values()):
        assert tensor.shape == shape and np.shares_memory(tensor.values, model.flat)
        assert tensor.values.dtype == np.float64 and tensor.values.flags.c_contiguous
        assert tensor.requires_grad is True
        assert tensor.tape_serial is None and tensor.node_id is None
    fresh = np.linspace(-1.0, 1.0, model.param_count)
    model.set_param_vector(fresh)
    assert np.concatenate([t.values.ravel() for t in model.params.values()]).tobytes() \
        == fresh.tobytes()


def test_param_shapes_hands_out_only_tuples():
    for kind, hidden in [("linear", 0), ("mlp", 3), ("inverted_attention", 3)]:
        shapes = _param_shapes(kind, Dims(S=5, T=2, V=1, hidden=hidden))
        assert type(shapes) is tuple
        assert all(type(entry) is tuple and type(entry[1]) is tuple for entry in shapes)
        # the same cached tuple for any V, which no caller can change for another model
        assert _param_shapes(kind, Dims(S=5, T=2, V=4, hidden=hidden)) is shapes
    with pytest.raises(ValueError, match="hidden >= 1"):
        _param_shapes("mlp", Dims(S=5, T=2))
    with pytest.raises(ValueError, match="unknown forecaster kind"):
        _param_shapes("nope", Dims(S=5, T=2))


def test_init_determinism():
    a = init_forecaster("mlp", Dims(S=6, T=2, hidden=4), seed=9)
    b = init_forecaster("mlp", Dims(S=6, T=2, hidden=4), seed=9)
    assert np.array_equal(a.param_vector(), b.param_vector())
    c = init_forecaster("mlp", Dims(S=6, T=2, hidden=4), seed=10)
    assert not np.array_equal(a.param_vector(), c.param_vector())


def test_init_bound_respects_fan_in():
    model = init_forecaster("linear", Dims(S=16, T=4), seed=3)
    assert np.max(np.abs(model.params["w"].values)) <= 1.0 / 4.0


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        Dims(S=0, T=2)
    with pytest.raises(ValueError):
        Dims(S=4, T=2, L=4)
    with pytest.raises(ValueError):
        init_forecaster("mlp", Dims(S=4, T=2, hidden=0), seed=0)
    with pytest.raises(ValueError):
        init_forecaster("transformer", Dims(S=4, T=2), seed=0)


@pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 5), ("inverted_attention", 4)])
@pytest.mark.parametrize("L", [0, 2])
@pytest.mark.parametrize("V", [1, 3])
def test_forecast_output_shape(kind, hidden, L, V):
    dims = Dims(S=6, T=3, L=L, V=V, hidden=hidden)
    model = init_forecaster(kind, dims, seed=1)
    out = forecast(model, Tensor(np.random.default_rng(0).normal(size=(6, V))))
    assert out.shape == (L + 3, V)


def test_forecast_shape_mismatch():
    model = init_forecaster("linear", Dims(S=6, T=3), seed=1)
    with pytest.raises(ValueError):
        forecast(model, Tensor(np.zeros((5, 1))))


def test_linear_row_sums_on_ones():
    model = init_forecaster("linear", Dims(S=4, T=2), seed=0)
    model.params["b"].values[...] = 0.0
    ones = Tensor(np.ones((4, 1)))
    out = forecast(model, ones)
    np.testing.assert_allclose(out.values[:, 0], model.params["w"].values.sum(axis=1))


@pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 5), ("inverted_attention", 4)])
def test_channel_independence_under_permutation(kind, hidden):
    dims = Dims(S=6, T=3, V=3, hidden=hidden)
    model = init_forecaster(kind, dims, seed=4)
    ctx = np.random.default_rng(1).normal(size=(6, 3))
    perm = [2, 0, 1]
    out = forecast(model, Tensor(ctx)).values
    out_perm = forecast(model, Tensor(ctx[:, perm])).values
    np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-14)


def test_single_token_attention_hand_trace():
    # with one variate the softmax weight is exactly 1: the forecast is the oracle's, and scaling
    # the query, which only moves the one score, leaves it as it was
    model = init_forecaster("inverted_attention", Dims(S=5, T=2, V=1, hidden=3), seed=8)
    ctx = np.random.default_rng(2).normal(size=(5, 1))
    out = forecast(model, Tensor(ctx)).values
    want = numpy_oracle.forward("inverted_attention", numpy_oracle.arrays(model), ctx)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    model.params["q_w"].values[...] *= -7.0
    model.params["q_b"].values[...] *= -7.0
    np.testing.assert_allclose(forecast(model, Tensor(ctx)).values, out, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind,hidden", [("linear", 0), ("mlp", 4), ("inverted_attention", 3)])
def test_forecast_gradients_match_oracle(kind, hidden):
    dims = Dims(S=5, T=2, V=2, hidden=hidden)
    model = init_forecaster(kind, dims, seed=5)
    ctx = np.random.default_rng(3).normal(size=(5, 2))

    def loss_of(m):
        out = forecast(m, Tensor(ctx))
        return mean_all(mul(out, out))

    with Tape() as tape:
        grads = tape.gradient(loss_of(model), list(model.params.values()))
    flat = np.concatenate([g.ravel() for g in grads])

    base = model.param_vector()

    def eval_at(vec):
        model.set_param_vector(vec)
        return loss_of(model).item()

    fd = finite_diff_oracle(eval_at, base, 1e-4)
    model.set_param_vector(base)
    assert max_relative_error(flat, fd) < 1e-5


def test_norm_zero_mean_unit_std():
    ctx = np.array([[1.0], [2.0], [3.0]])
    state = NormState.from_context(ctx)
    z = apply_norm(ctx, state)
    assert abs(z.mean()) < 1e-12
    assert abs(z.std() - 1.0) < 1e-12


def test_norm_constant_context_floored():
    ctx = np.full((3, 1), 5.0)
    state = NormState.from_context(ctx)
    assert state.std[0] == pytest.approx(1e-5)
    np.testing.assert_array_equal(apply_norm(ctx, state), np.zeros((3, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_norm_round_trip(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, rng.uniform(0.1, 10), size=(8, 3)) + rng.uniform(-5, 5)
    state = NormState.from_context(x)
    np.testing.assert_allclose(invert_norm(apply_norm(x, state), state), x, atol=1e-12)


def _composite_attention_forecast(model, context):
    """The attention forecast as 17 single-op records: the reference for the fused sublayers."""
    p, dims = model.params, model.dims
    tokens = affine(p["embed_w"], context, p["embed_b"])
    q = affine(p["q_w"], tokens, p["q_b"])
    k = affine(p["k_w"], tokens, p["k_b"])
    val = affine(p["v_w"], tokens, p["v_b"])
    scores = scale(window_scores(q, k, dims.V), 1.0 / np.sqrt(dims.hidden))
    attn = softmax(scores, axis=1)
    mixed = affine(p["o_w"], window_mix(val, attn, dims.V), p["o_b"])
    x1 = layer_norm(add(tokens, mixed), axis=0)
    ff = relu(affine(p["ff1_w"], x1, p["ff1_b"]))
    ff = affine(p["ff2_w"], ff, p["ff2_b"])
    x2 = layer_norm(add(x1, ff), axis=0)
    return affine(p["proj_w"], x2, p["proj_b"])


def _taped_rollout_objective(model, context, future, cfg):
    """(forecast bytes, loss bytes, per-parameter gradient bytes, kink gap, rule names); the kink
    gap is the smaller of min_kink_gap and the test-side discounted_loss's smallest penalty gap."""
    with Tape() as tape:
        blocks, _ = rollout.rollout_predict(model, context, cfg)
        T = model.dims.T
        errors = [block_error(block, future[k * T:(k + 1) * T], model.dims.V)
                  for k, block in enumerate(blocks)]
        loss = mean_all(discounted_loss(errors, cfg.gamma, cfg.beta))
        grads = tape.gradient(loss, list(model.params.values()))
        return ([block.values.tobytes() for block in blocks], loss.values.tobytes(),
                [g.tobytes() for g in grads], min(tape.min_kink_gap, abs_kink_gap(tape)),
                [rule.__name__ for _, _, rule, _ in tape.records])


@st.composite
def _attention_draws(draw):
    S = draw(st.integers(2, 7))
    geometry = (S, draw(st.integers(1, 4)), draw(st.integers(0, S - 1)))  # S, T, L < S
    cfg = rollout.RolloutConfig(n=draw(st.integers(1, 4)))
    return geometry, cfg, draw(st.integers(1, 4)), draw(st.integers(1, 8)), \
        draw(st.integers(1, 5)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(_attention_draws())
@example(((6, 2, 2), rollout.RolloutConfig(n=4), 4, 8, 5, 0))
@example(((3, 1, 0), rollout.RolloutConfig(n=1), 1, 1, 1, 1))
def test_fused_sublayers_match_the_composite_forecast(draw):
    (S, T, L), cfg, V, hidden, B, seed = draw
    rng = np.random.default_rng(seed)
    model = init_forecaster("inverted_attention",
                            Dims(S=S, T=T, L=L, V=V, hidden=hidden), seed=seed)
    context = rng.normal(size=(S, B * V))
    future = rng.normal(size=(cfg.n * T, B * V))
    fused = _taped_rollout_objective(model, context, future, cfg)
    with mock.patch.object(rollout, "forecast", _composite_attention_forecast):
        composite = _taped_rollout_objective(model, context, future, cfg)
    assert fused[:4] == composite[:4]  # forecast, loss, every gradient and the kink gap, bitwise
    # each forecast is embed, the two sublayers and proj: 4 records in place of 17
    rules = fused[4]
    assert len(composite[4]) - len(rules) == 13 * cfg.n
    assert rules.count("_attention_sublayer_rule") == rules.count("_ffn_sublayer_rule") == cfg.n
    assert rules.count("_affine_rule") == 2 * cfg.n
    untaped = forecast(model, Tensor(context[-S:])).values
    assert untaped.tobytes() == \
        _composite_attention_forecast(model, Tensor(context[-S:])).values.tobytes()
