"""Adam updates, the training loop, and checkpoint serialization."""

import contextlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arforecast.data import gen_sinusoid
from arforecast.models import Dims, forecast, init_forecaster
from arforecast.autodiff import Tensor
from arforecast.rollout import RolloutConfig
from arforecast.training import (
    AdamState,
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="objective"):
        TrainConfig(objective="huber")


@pytest.mark.parametrize("field,value", [
    ("lr", math.nan), ("lr", math.inf), ("adam_eps", math.nan), ("adam_eps", -0.5),
    ("adam_eps", 0.0), ("adam_beta1", 1.0), ("adam_beta1", 1.5), ("adam_beta2", -0.1),
    ("adam_beta2", math.nan), ("seed", -1),
])
def test_train_config_rejects_values_adam_cannot_use(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_adam_zero_gradient_is_a_no_op():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros_like(params)
    adam_step(params, np.zeros(3), state, t=1, cfg=TrainConfig())
    np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])
    np.testing.assert_array_equal(state.m, np.zeros(3))
    np.testing.assert_array_equal(state.v, np.zeros(3))


def test_adam_first_step_is_signed_lr():
    # bias correction makes the first update -lr * g / (|g| + eps-ish)
    cfg = TrainConfig(lr=1e-3)
    for g0 in (0.5, -3.0, 12.0):
        params = np.array([1.0])
        state = AdamState.zeros_like(params)
        adam_step(params, np.array([g0]), state, t=1, cfg=cfg)
        update = params[0] - 1.0
        assert update == pytest.approx(-cfg.lr * np.sign(g0), rel=1e-4)


def test_adam_is_deterministic():
    def run():
        params = np.array([0.3, -0.7])
        state = AdamState.zeros_like(params)
        for t in (1, 2):
            adam_step(params, np.array([0.1, -0.2]), state, t, TrainConfig())
        return params.tobytes()

    assert run() == run()


def test_adam_shape_mismatch():
    params = np.zeros(3)
    state = AdamState.zeros_like(params)
    with pytest.raises(ValueError):
        adam_step(params, np.zeros(2), state, 1, TrainConfig())
    with pytest.raises(ValueError):
        adam_step(params, np.zeros((3, 1)), state, 1, TrainConfig())


def _dict_adam_step(params, grads, state, t, cfg):
    """Adam one parameter array at a time, as the trainer stepped it before the flat vector."""
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g, m, v = grads[name], state["m"][name], state["v"][name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p[...] = p - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def test_flat_adam_is_bitwise_the_per_parameter_adam():
    rng = np.random.default_rng(11)
    shapes = {"w": (5, 7), "b": (5, 1), "w2": (3, 5), "b2": (3, 1)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    flat = np.concatenate([p.ravel() for p in params.values()])
    moments = {k: {name: np.zeros(shape) for name, shape in shapes.items()} for k in "mv"}
    state = AdamState.zeros_like(flat)
    cfg = TrainConfig(lr=3e-2)
    for t in range(1, 7):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                 for name, shape in shapes.items()}
        _dict_adam_step(params, grads, moments, t, cfg)
        adam_step(flat, np.concatenate([g.ravel() for g in grads.values()]), state, t, cfg)
        for got, want in ((flat, params), (state.m, moments["m"]), (state.v, moments["v"])):
            assert got.tobytes() == np.concatenate([a.ravel() for a in want.values()]).tobytes()


def _quick_setup(objective="ar", n=2, seed=5):
    ds = gen_sinusoid(260, noise_std=0.1, seed=2)
    roll = RolloutConfig(n=n)
    model = init_forecaster("linear", Dims(S=12, T=4), seed=seed)
    cfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=4, patience=10,
                      seed=seed, objective=objective)
    return model, ds, roll, cfg


@pytest.mark.parametrize("kind,V,hidden", [("linear", 1, 0), ("inverted_attention", 2, 3)])
def test_parameters_are_views_of_one_vector_that_train_updates_in_place(kind, V, hidden):
    dims = Dims(S=12, T=4, V=V, hidden=hidden)
    model = init_forecaster(kind, dims, seed=5)
    copy = Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.5, 5).to_forecaster()
    for m in (model, copy):
        assert m.flat.flags.c_contiguous and m.flat.size == m.param_count
        for tensor in m.params.values():
            assert tensor.values.base is m.flat
        assert np.concatenate([t.values.ravel() for t in m.params.values()]).tobytes() \
            == m.flat.tobytes()
    assert not np.shares_memory(copy.flat, model.flat)
    vector = model.param_vector()
    vector[0] += 1.0
    assert model.flat[0] != vector[0]

    arrays = {name: t.values for name, t in model.params.items()}
    before = model.param_vector()
    ds = gen_sinusoid(260, V=V, periods=[24.0, 17.0][:V], noise_std=0.1, seed=2)
    train(model, ds, RolloutConfig(n=2),
          TrainConfig(lr=1e-2, batch_size=16, max_epochs=2, seed=5))
    assert all(model.params[name].values is array for name, array in arrays.items())
    after = np.concatenate([a.ravel() for a in arrays.values()])
    assert after.tobytes() == model.flat.tobytes()
    assert not np.array_equal(after, before)


def test_train_zero_epochs_returns_initial_params():
    model, ds, roll, cfg = _quick_setup()
    before = model.param_vector().copy()
    ck, history = train(model, ds, roll, TrainConfig(max_epochs=0, seed=1))
    assert history == []
    assert ck.epoch == 0 and math.isnan(ck.val_loss)
    np.testing.assert_array_equal(ck.flat, before)


def test_train_empty_split_is_an_error():
    ds = gen_sinusoid(30, noise_std=0.1, seed=2)  # train split of 21 rows
    model = init_forecaster("linear", Dims(S=20, T=4), seed=0)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="train split"):
            train(model, ds, RolloutConfig(n=2), TrainConfig(max_epochs=1))


def test_train_determinism_bitwise():
    def run():
        model, ds, roll, cfg = _quick_setup()
        ck, history = train(model, ds, roll, cfg)
        return (ck.flat.tobytes(),
                tuple((h.epoch, h.train_loss, h.val_loss) for h in history))

    assert run() == run()


def test_divergence_stops_before_a_non_finite_update(monkeypatch):
    from arforecast import training

    model, ds, roll, cfg = _quick_setup()
    updated = []
    step = training.adam_step

    def recorded(params, *args):
        out = step(params, *args)
        updated.append(params.copy())
        return out

    monkeypatch.setattr(training, "adam_step", recorded)
    with pytest.raises(TrainingDivergedError, match="epoch 1, step") as info:
        train(model, ds, roll, TrainConfig(lr=1e300, batch_size=16, max_epochs=2, seed=5))
    # the failing batch is the step after the last update, and it left the parameters alone
    assert f"step {len(updated) + 1}:" in str(info.value)
    assert np.all(np.isfinite(updated[-1]))
    np.testing.assert_array_equal(model.param_vector(), updated[-1])


def test_non_finite_validation_loss_is_divergence():
    # one batch per epoch: its loss and gradient are finite, the parameters it leaves are not usable
    model, ds, roll, _ = _quick_setup()
    with pytest.raises(TrainingDivergedError, match="epoch 1, after step 1: non-finite validation"):
        train(model, ds, roll, TrainConfig(lr=1e300, batch_size=1000, max_epochs=1, seed=5))


def test_mse_and_ar_trajectories_identical_at_n1():
    model_a, ds, roll1, _ = _quick_setup(objective="ar", n=1, seed=3)
    cfg_a = TrainConfig(lr=1e-2, batch_size=16, max_epochs=3, seed=3, objective="ar")
    ck_a, hist_a = train(model_a, ds, roll1, cfg_a)

    model_b = init_forecaster("linear", Dims(S=12, T=4), seed=3)
    cfg_b = TrainConfig(lr=1e-2, batch_size=16, max_epochs=3, seed=3, objective="mse")
    ck_b, hist_b = train(model_b, ds, roll1, cfg_b)

    assert hist_a == hist_b
    assert ck_a.flat.tobytes() == ck_b.flat.tobytes()


def test_noiseless_sinusoid_is_learned_quickly():
    ds = gen_sinusoid(600, periods=24.0, noise_std=0.0, seed=0)
    roll = RolloutConfig(n=1)
    model = init_forecaster("linear", Dims(S=48, T=12), seed=1)
    cfg = TrainConfig(lr=1e-2, batch_size=64, max_epochs=50, patience=50,
                      seed=1, objective="mse")
    _, history = train(model, ds, roll, cfg)
    assert len(history) <= 50
    assert history[-1].train_loss < 1e-3


def test_early_stopping_returns_best_val_checkpoint():
    model, ds, roll, _ = _quick_setup()
    cfg = TrainConfig(lr=5e-2, batch_size=16, max_epochs=30, patience=3, seed=9)
    ck, history = train(model, ds, roll, cfg)
    assert ck.val_loss == min(h.val_loss for h in history)
    assert history[ck.epoch - 1].val_loss == ck.val_loss


def _small_checkpoint():
    model = init_forecaster("mlp", Dims(S=6, T=2, hidden=3), seed=4)
    return Checkpoint.from_forecaster(model, RolloutConfig(n=2),
                                      epoch=5, val_loss=0.123, seed=4)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ck = _small_checkpoint()
    path = tmp_path / "model.arpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.kind == ck.kind and loaded.dims == ck.dims
    assert loaded.rollout == ck.rollout
    assert loaded.epoch == 5 and loaded.val_loss == 0.123 and loaded.seed == 4
    assert loaded.flat.dtype == np.float64 and loaded.flat.tobytes() == ck.flat.tobytes()

    ctx = Tensor(np.random.default_rng(0).normal(size=(6, 1)))
    out_a = forecast(ck.to_forecaster(), ctx).values
    out_b = forecast(loaded.to_forecaster(), ctx).values
    assert out_a.tobytes() == out_b.tobytes()


def test_checkpoint_save_is_byte_stable(tmp_path):
    for kind, dims in [("linear", Dims(S=6, T=2)), ("mlp", Dims(S=6, T=2, hidden=3)),
                       ("inverted_attention", Dims(S=6, T=2, L=2, V=3, hidden=4))]:
        model = init_forecaster(kind, dims, seed=4)
        ck = Checkpoint.from_forecaster(model, RolloutConfig(n=3),
                                        epoch=5, val_loss=0.123, seed=4)
        p1, p2, p3 = (tmp_path / f"{kind}_{i}.arpt" for i in range(3))
        save_checkpoint(ck, p1)
        save_checkpoint(ck, p2)
        assert p1.read_bytes() == p2.read_bytes()
        save_checkpoint(load_checkpoint(p1), p3)  # a loaded checkpoint saves as the same bytes
        assert p3.read_bytes() == p1.read_bytes()


def test_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bogus.arpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_newer_version(tmp_path):
    ck = _small_checkpoint()
    path = tmp_path / "model.arpt"
    save_checkpoint(ck, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    ck = _small_checkpoint()
    path = tmp_path / "model.arpt"
    save_checkpoint(ck, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_history_csv_format(tmp_path):
    from arforecast.training import EpochStats

    history = [EpochStats(1, 0.5, 0.6), EpochStats(2, 1.0 / 3.0, 0.25)]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    cells = lines[2].split(",")
    assert int(cells[0]) == 2
    assert float(cells[1]) == 1.0 / 3.0  # 17 significant digits round-trip


def _rewrite_header(path, edit):
    """Apply ``edit`` to a saved checkpoint's JSON header, keeping its payload."""
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + size])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(encoded)) + encoded + blob[12 + size:])


def _linear_checkpoint(path):
    model = init_forecaster("linear", Dims(S=6, T=2), seed=4)
    save_checkpoint(Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.5, 4), path)
    return path


@pytest.mark.parametrize("edit", [
    lambda h: h.update(kind="mlp"),
    lambda h: h.update(kind="mlp", dims=dict(h["dims"], hidden=3)),
    lambda h: h.update(kind="transformer"),
    lambda h: h.update(params=[["w", [2, 6]], ["bias", [2, 1]]]),
    lambda h: h.update(params=[["w", [6, 2]], ["b", [2, 1]]]),
    lambda h: h["dims"].update(S=6.0),  # shapes compare equal to (2, 6), but cannot reshape
    lambda h: h["dims"].update(T=2.0),
    lambda h: h["params"].reverse(),
    lambda h: h["rollout"].update(S=40),  # the rollout's geometry is the model's
    lambda h: h["rollout"].update(T=3),
    lambda h: h["rollout"].update(L=3),
    lambda h: h["rollout"].update(S=6.0),
], ids=["kind", "kind-and-hidden", "unknown-kind", "name", "shape", "float-S", "float-T",
        "reordered", "rollout-S", "rollout-T", "rollout-L", "float-rollout-S"])
def test_checkpoint_params_must_match_kind_and_dims(tmp_path, edit):
    path = _linear_checkpoint(tmp_path / "model.arpt")
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checkpoint_non_finite_payload_rejected(tmp_path, bad):
    path = _linear_checkpoint(tmp_path / "model.arpt")
    blob = path.read_bytes()
    path.write_bytes(blob[:-8] + struct.pack("<d", bad))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h["meta"].update(epoch="x"),
    lambda h: h["meta"].update(val_loss="low"),
    lambda h: h["meta"].update(seed=None),
    lambda h: h["meta"].pop("epoch"),
    lambda h: h.pop("meta"),
    lambda h: h.pop("norm_policy"),
    lambda h: h["meta"].update(epoch=math.inf),  # what json reads for 1e400
    lambda h: h["meta"].update(seed=-math.inf),
    lambda h: h["meta"].update(epoch=2.7),
    lambda h: h["meta"].update(epoch=True),
    lambda h: h["meta"].update(epoch="3"),
    lambda h: h["meta"].update(seed=4.0),
    lambda h: h["meta"].update(seed=True),
    lambda h: h.update(norm_policy="minmax"),  # eval and predict z-score the context regardless
    lambda h: h["meta"].update(val_loss="0.25"),  # a JSON number or null, nothing float() takes
    lambda h: h["meta"].update(val_loss=True),
    lambda h: h["meta"].update(val_loss=[0.25]),
], ids=["epoch", "val-loss", "seed", "no-epoch", "no-meta", "no-norm-policy", "epoch-overflow",
        "seed-overflow", "fractional-epoch", "bool-epoch", "string-epoch", "float-seed",
        "bool-seed", "norm-policy", "string-val-loss", "bool-val-loss", "list-val-loss"])
def test_checkpoint_bad_meta_is_a_format_error(tmp_path, edit):
    path = _linear_checkpoint(tmp_path / "model.arpt")
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_epoch_0_checkpoint_writes_val_loss_null_and_loads_it_as_nan(tmp_path):
    model = init_forecaster("linear", Dims(S=6, T=2), seed=4)
    path = tmp_path / "model.arpt"
    ck = Checkpoint.from_forecaster(model, RolloutConfig(), 0, math.nan, 4)
    save_checkpoint(ck, path)
    assert b'"val_loss": null' in path.read_bytes()
    assert math.isnan(load_checkpoint(path).val_loss)


@pytest.mark.parametrize("cut", range(1, 8))
def test_checkpoint_cut_inside_a_double_is_a_format_error(tmp_path, cut):
    path = _linear_checkpoint(tmp_path / "model.arpt")
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(CheckpointFormatError, match="payload"):
        load_checkpoint(path)


def _load_allowing_checkpoint_errors(path):
    with contextlib.suppress(CheckpointError):
        load_checkpoint(path)


def test_every_truncation_of_a_checkpoint_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "model.arpt"
    save_checkpoint(_small_checkpoint(), path)
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


_AS_FLOAT, _DELETE = object(), object()  # header edits: the field as a float, the field gone
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_HEADER_FIELDS = [((), key) for key in ("kind", "dims", "rollout", "params", "meta",
                                        "norm_policy")] \
    + [(("dims",), key) for key in ("S", "T", "L", "V", "hidden")] \
    + [(("rollout",), key) for key in ("S", "T", "L", "n", "gamma", "beta")] \
    + [(("meta",), key) for key in ("epoch", "val_loss", "seed")] \
    + [(("params",), 0), (("params", 0), 0), (("params", 0), 1), (("params", 0, 1), 0)]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(_HEADER_FIELDS),
       value=st.just(_AS_FLOAT) | st.just(_DELETE) | st.sampled_from([1e400, -1e400]) | _JSON,
       cut=st.integers(0, 9),
       flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)), max_size=3))
def test_mutated_checkpoints_raise_only_checkpoint_errors(tmp_path_factory, field, value, cut,
                                                           flips):
    path = tmp_path_factory.mktemp("ck") / "model.arpt"
    save_checkpoint(_small_checkpoint(), path)

    def mutate(header):
        steps, key = field
        for step in steps:
            header = header[step]
        if value is _DELETE:
            del header[key]
        elif value is not _AS_FLOAT:
            header[key] = value
        elif isinstance(header[key], int):
            header[key] = float(header[key])

    _rewrite_header(path, mutate)
    blob = path.read_bytes()
    _load_allowing_checkpoint_errors(path)
    path.write_bytes(blob[:len(blob) - cut])
    _load_allowing_checkpoint_errors(path)
    blob = bytearray(blob)
    for where, bits in flips:
        blob[where % len(blob)] ^= bits
    path.write_bytes(bytes(blob))
    _load_allowing_checkpoint_errors(path)


def test_to_forecaster_copies_params_and_rejects_unknown_kind():
    ck = _small_checkpoint()
    model = ck.to_forecaster()
    assert list(model.params) == ["w1", "b1", "w2", "b2"]
    assert all(tensor.requires_grad for tensor in model.params.values())
    assert model.flat.tobytes() == ck.flat.tobytes()
    assert not np.shares_memory(model.flat, ck.flat)
    ck.kind = "transformer"
    with pytest.raises(ValueError, match="transformer"):
        ck.to_forecaster()


@pytest.mark.parametrize("objective,batch_size", [("ar", 16), ("ar", 7), ("mse", 1000)])
def test_epoch_builds_one_tape_per_mini_batch(monkeypatch, objective, batch_size):
    from arforecast.autodiff import Tape
    from arforecast.data import window_iter

    model, ds, roll, _ = _quick_setup(objective=objective)
    horizon = roll.n * model.dims.T if objective == "ar" else model.dims.T
    n_windows = len(window_iter(ds, "train", model.dims.S, horizon))
    calls = []
    gradient = Tape.gradient

    def counted(self, *args):
        calls.append(1)
        return gradient(self, *args)

    monkeypatch.setattr(Tape, "gradient", counted)
    train(model, ds, roll, TrainConfig(batch_size=batch_size, max_epochs=1, objective=objective))
    assert len(calls) == math.ceil(n_windows / batch_size)
