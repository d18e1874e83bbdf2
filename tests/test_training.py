"""Adam updates, the training loop, and checkpoint serialization."""

import json
import math
import struct

import numpy as np
import pytest

from arforecast.data import gen_sinusoid
from arforecast.models import Dims, forecast, init_forecaster
from arforecast.autodiff import Tensor
from arforecast.rollout import RolloutConfig
from arforecast.training import (
    AdamState,
    Checkpoint,
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


def test_adam_zero_gradient_is_a_no_op():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.zeros(3)}
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, t=1, cfg=TrainConfig())
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
    np.testing.assert_array_equal(state.m["w"], np.zeros(3))
    np.testing.assert_array_equal(state.v["w"], np.zeros(3))


def test_adam_first_step_is_signed_lr():
    # bias correction makes the first update -lr * g / (|g| + eps-ish)
    cfg = TrainConfig(lr=1e-3)
    for g0 in (0.5, -3.0, 12.0):
        params = {"w": np.array([1.0])}
        state = AdamState.zeros_like(params)
        adam_step(params, {"w": np.array([g0])}, state, t=1, cfg=cfg)
        update = params["w"][0] - 1.0
        assert update == pytest.approx(-cfg.lr * np.sign(g0), rel=1e-4)


def test_adam_is_deterministic():
    def run():
        params = {"w": np.array([0.3, -0.7])}
        state = AdamState.zeros_like(params)
        for t in (1, 2):
            adam_step(params, {"w": np.array([0.1, -0.2])}, state, t, TrainConfig())
        return params["w"].tobytes()

    assert run() == run()


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = AdamState.zeros_like(params)
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.zeros(2)}, state, 1, TrainConfig())
    with pytest.raises(ValueError):
        adam_step(params, {"v": np.zeros(3)}, state, 1, TrainConfig())


def _quick_setup(objective="ar", n=2, seed=5):
    ds = gen_sinusoid(260, noise_std=0.1, seed=2)
    roll = RolloutConfig(S=12, T=4, n=n)
    model = init_forecaster("linear", Dims(S=12, T=4), seed=seed)
    cfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=4, patience=10,
                      seed=seed, objective=objective)
    return model, ds, roll, cfg


def test_train_zero_epochs_returns_initial_params():
    model, ds, roll, cfg = _quick_setup()
    before = model.param_vector().copy()
    ck, history = train(model, ds, roll, TrainConfig(max_epochs=0, seed=1))
    assert history == []
    assert ck.epoch == 0 and math.isnan(ck.val_loss)
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in ck.params.values()]),
                                  before)


def test_train_empty_split_is_an_error():
    ds = gen_sinusoid(30, noise_std=0.1, seed=2)  # train split of 21 rows
    model = init_forecaster("linear", Dims(S=20, T=4), seed=0)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="train split"):
            train(model, ds, RolloutConfig(S=20, T=4, n=2), TrainConfig(max_epochs=1))


def test_train_determinism_bitwise():
    def run():
        model, ds, roll, cfg = _quick_setup()
        ck, history = train(model, ds, roll, cfg)
        return (np.concatenate([p.ravel() for p in ck.params.values()]).tobytes(),
                tuple((h.epoch, h.train_loss, h.val_loss) for h in history))

    assert run() == run()


def test_divergence_stops_before_a_non_finite_update(monkeypatch):
    from arforecast import training

    model, ds, roll, cfg = _quick_setup()
    updated = []
    step = training.adam_step

    def recorded(params, *args):
        out = step(params, *args)
        updated.append(np.concatenate([p.ravel() for p in params.values()]))
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
    a = np.concatenate([p.ravel() for p in ck_a.params.values()])
    b = np.concatenate([p.ravel() for p in ck_b.params.values()])
    assert a.tobytes() == b.tobytes()


def test_noiseless_sinusoid_is_learned_quickly():
    ds = gen_sinusoid(600, periods=24.0, noise_std=0.0, seed=0)
    roll = RolloutConfig(S=48, T=12, n=1)
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
    return Checkpoint.from_forecaster(model, RolloutConfig(S=6, T=2, n=2),
                                      epoch=5, val_loss=0.123, seed=4)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ck = _small_checkpoint()
    path = tmp_path / "model.arpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.kind == ck.kind and loaded.dims == ck.dims
    assert loaded.rollout == ck.rollout
    assert loaded.epoch == 5 and loaded.val_loss == 0.123 and loaded.seed == 4
    for name in ck.params:
        assert loaded.params[name].tobytes() == ck.params[name].tobytes()

    ctx = Tensor(np.random.default_rng(0).normal(size=(6, 1)))
    out_a = forecast(ck.to_forecaster(), ctx).values
    out_b = forecast(loaded.to_forecaster(), ctx).values
    assert out_a.tobytes() == out_b.tobytes()


def test_checkpoint_save_is_byte_stable(tmp_path):
    ck = _small_checkpoint()
    p1, p2 = tmp_path / "a.arpt", tmp_path / "b.arpt"
    save_checkpoint(ck, p1)
    save_checkpoint(ck, p2)
    assert p1.read_bytes() == p2.read_bytes()


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
    save_checkpoint(Checkpoint.from_forecaster(model, RolloutConfig(S=6, T=2), 0, 0.5, 4), path)
    return path


@pytest.mark.parametrize("edit", [
    lambda h: h.update(kind="mlp"),
    lambda h: h.update(kind="mlp", dims=dict(h["dims"], hidden=3)),
    lambda h: h.update(kind="transformer"),
    lambda h: h.update(params=[["w", [2, 6]], ["bias", [2, 1]]]),
    lambda h: h.update(params=[["w", [6, 2]], ["b", [2, 1]]]),
], ids=["kind", "kind-and-hidden", "unknown-kind", "name", "shape"])
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
], ids=["epoch", "val-loss", "seed", "no-epoch", "no-meta", "no-norm-policy"])
def test_checkpoint_bad_meta_is_a_format_error(tmp_path, edit):
    path = _linear_checkpoint(tmp_path / "model.arpt")
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_to_forecaster_copies_params_and_rejects_unknown_kind():
    ck = _small_checkpoint()
    model = ck.to_forecaster()
    assert list(model.params) == list(ck.params)
    for name, tensor in model.params.items():
        assert tensor.requires_grad
        assert tensor.values.tobytes() == ck.params[name].tobytes()
        assert tensor.values is not ck.params[name]
    ck.kind = "transformer"
    with pytest.raises(ValueError, match="transformer"):
        ck.to_forecaster()


@pytest.mark.parametrize("objective,batch_size", [("ar", 16), ("ar", 7), ("mse", 1000)])
def test_epoch_builds_one_tape_per_mini_batch(monkeypatch, objective, batch_size):
    from arforecast.autodiff import Tape
    from arforecast.data import window_iter

    model, ds, roll, _ = _quick_setup(objective=objective)
    horizon = roll.horizon if objective == "ar" else roll.T
    n_windows = len(window_iter(ds, "train", roll.S, horizon))
    calls = []
    gradient = Tape.gradient

    def counted(self, *args):
        calls.append(1)
        return gradient(self, *args)

    monkeypatch.setattr(Tape, "gradient", counted)
    train(model, ds, roll, TrainConfig(batch_size=batch_size, max_epochs=1, objective=objective))
    assert len(calls) == math.ceil(n_windows / batch_size)
