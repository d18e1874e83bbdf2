"""Command-line workflows: exit codes, output files, config echo."""

import configparser
import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import arforecast.autodiff as autodiff
from arforecast.cli import (
    _SOURCE_SCHEMA,
    SCHEMA,
    ConfigError,
    RunConfig,
    _float_list,
    _parse_plain,
    _read_plain_ini,
    build_parsers,
    format_rows,
    main,
)
from arforecast.data import gen_ar_process, gen_sinusoid
from arforecast.models import Dims, init_forecaster
from arforecast.rollout import RolloutConfig
from arforecast.training import Checkpoint, save_checkpoint
import numpy_oracle

BASE = {
    "dataset": {"source": "sinusoid", "length": "400", "variates": "1",
                "periods": "24", "noise_std": "0.1", "seed": "0"},
    "model": {"kind": "linear"},
    "rollout": {"s": "12", "t": "4", "n": "2"},
    "train": {"lr": "0.01", "batch_size": "16", "max_epochs": "2",
              "patience": "5", "seed": "1", "objective": "ar"},
}

# a child interpreter finds the package in src/ first, as pytest's own ``pythonpath`` does
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))}


def write_config(path, out_dir, overrides=None):
    """BASE with ``overrides`` applied; BASE's [dataset] keys that an overriding source does not
    read are left out, since the CLI refuses them."""
    sections = {k: dict(v) for k, v in BASE.items()}
    sections["output"] = {"dir": str(out_dir)}
    for section, kv in (overrides or {}).items():
        sections.setdefault(section, {}).update(kv)
    dataset = sections["dataset"]
    for key in BASE["dataset"].keys() - (overrides or {}).get("dataset", {}).keys():
        if ("dataset", key) not in _SOURCE_SCHEMA[dataset["source"]]:
            del dataset[key]
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def test_train_happy_path(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "checkpoint.arpt").exists()
    assert (tmp_path / "out" / "history.csv").exists()
    assert (tmp_path / "out" / "config_resolved.ini").exists()


def test_train_divergence_exits_1_without_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {"train": {"lr": "1e300"}})
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "diverged at epoch 1, step" in err
    assert not (tmp_path / "out" / "checkpoint.arpt").exists()
    assert not (tmp_path / "out" / "history.csv").exists()


def test_train_invalid_gamma_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"rollout": {"gamma": "1.5"}})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "gamma" in err


def test_train_missing_csv_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"source": "csv", "path": str(tmp_path / "nope.csv")}})
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: [dataset] no such file: {tmp_path / 'nope.csv'}\n"


def test_csv_holding_only_its_time_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "dates.csv"
    csv.write_text("date\n" + "".join(f"{i}\n" for i in range(200)))
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {"dataset": {
        "source": "csv", "path": str(csv), "time_column": "date"}})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: [dataset] series values must be (N, V) with N, V >= 1, got (200, 0)\n"
    assert not (tmp_path / "out").exists()


def test_split_within_np_isclose_of_1_trains(tmp_path):
    # from_values takes a split whose sum np.isclose calls 1; 1 + 1e-6 is inside it
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"split": "0.7,0.1,0.200001"}})
    assert main(["train", "--config", str(cfg)]) == 0
    assert "split = 0.7,0.1,0.200001\n" in (tmp_path / "out" / "config_resolved.ini").read_text()


def test_train_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"rollout": {"gama": "0.5"}})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "gama" in capsys.readouterr().err


@pytest.mark.parametrize("dataset,key", [
    ({"source": "ar", "coeffs": "0.5", "periods": "5"}, "periods"),
    ({"source": "ar", "coeffs": "0.5", "amplitude": "abc"}, "amplitude"),
    ({"coeffs": "0.5"}, "coeffs"),
    ({"path": "data.csv"}, "path"),
    ({"source": "csv", "path": "data.csv", "length": "400"}, "length"),
    ({"source": "csv", "path": "data.csv", "noise_std": "0.1"}, "noise_std"),
])
@pytest.mark.parametrize("command", ["train", "gradcheck", "eval"])
def test_a_key_of_another_source_exits_2_with_one_line_naming_it(tmp_path, capsys, dataset, key,
                                                                 command):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {"dataset": dataset})
    extra = ["--checkpoint", str(tmp_path / "absent.arpt"), "--horizon", "8"] \
        if command == "eval" else []
    assert main([command, "--config", str(cfg), *extra]) == 2
    source = dataset.get("source", "sinusoid")
    assert capsys.readouterr().err == \
        f"error: [dataset] key {key!r} does not apply to source {source!r}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_an_ar_config_without_noise_std_draws_the_library_noise(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"source": "ar", "coeffs": "0.5"}})
    cfg.write_text(cfg.read_text().replace("noise_std = 0.1\n", ""))
    run = RunConfig(cfg)
    run.write_resolved()
    assert "noise_std = 1\n" in (tmp_path / "out" / "config_resolved.ini").read_text()
    want = gen_ar_process(400, coeffs=(0.5,), seed=0).values
    assert run.build_dataset(12).values.tobytes() == want.tobytes() and want.std() > 0.5


def test_eval_takes_no_seed(tmp_path, capsys, trained):
    cfg, ck = trained
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8",
              "--seed", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_resolved_config_echoes_defaults_and_overrides(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    assert main(["train", "--config", str(cfg), "--seed", "77"]) == 0
    resolved = (tmp_path / "out" / "config_resolved.ini").read_text()
    assert "gamma = 0.5" in resolved and "beta = 0.1" in resolved
    assert "seed = 77" in resolved
    assert "patience = 5" in resolved


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A checkpoint trained once on BASE, shared by the tests that only read it."""
    home = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", str(write_config(home / "run.ini", home / "out"))]) == 0
    return home / "out" / "checkpoint.arpt"


@pytest.fixture
def trained(tmp_path, trained_checkpoint):
    """BASE's config, with its outputs under this test's tmp_path, and the shared checkpoint."""
    return write_config(tmp_path / "run.ini", tmp_path / "out"), trained_checkpoint


def test_eval_horizon_multiple(tmp_path, trained):
    cfg, ck = trained
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--horizon", "16", "--out", str(out)]) == 0
    curve = (out / "curve.csv").read_text().splitlines()
    assert len(curve) == 5  # header + 4 blocks of T=4
    assert (out / "report.json").exists()
    assert (out / "config_resolved.ini").exists()


def test_eval_horizon_not_multiple(tmp_path, capsys, trained):
    cfg, ck = trained
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--horizon", "10", "--out", str(tmp_path / "eval")]) == 2
    assert "multiple" in capsys.readouterr().err


def test_eval_suggests_next_block_multiple(tmp_path, capsys):
    # a 96-step model cannot produce 720 = 7.5 blocks; 768 is the valid choice above
    model = init_forecaster("linear", Dims(S=96, T=96), seed=0)
    ck = Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.1, 0)
    ck_path = tmp_path / "big.arpt"
    save_checkpoint(ck, ck_path)
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck_path),
                 "--horizon", "720", "--out", str(tmp_path / "eval")]) == 2
    assert "768" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,geometry", [
    ("s", "24", "s = 24, t = 4, l = 0"),
    ("t", "2", "s = 12, t = 2, l = 0"),
    ("l", "1", "s = 12, t = 4, l = 1"),
])
def test_eval_with_another_rollout_geometry_exits_2(tmp_path, capsys, key, value, geometry,
                                                    trained):
    _, ck = trained
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval", {"rollout": {key: value}})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: [rollout] {geometry} do not match the checkpoint's "
                   f"s = 12, t = 4, l = 0\n")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("model,shown", [
    ({"kind": "mlp", "hidden": "7"}, "kind = mlp, hidden = 7"),
    ({"hidden": "3"}, "kind = linear, hidden = 3"),
])
def test_eval_with_another_model_exits_2(tmp_path, capsys, model, shown, trained):
    _, ck = trained
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval", {"model": model})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 2
    assert capsys.readouterr().err == (f"error: [model] {shown} do not match the checkpoint's "
                                       f"kind = linear, hidden = 0\n")
    assert not (tmp_path / "eval").exists()


def test_eval_ignores_the_config_objective_weights_and_block_count(tmp_path, trained):
    _, ck = trained
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval",
                       {"rollout": {"n": "5", "gamma": "0.9", "beta": "0.3"}})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 0
    assert (tmp_path / "eval" / "report.json").exists()


@pytest.mark.parametrize("section,key,value", [
    ("train", "lr", "-1"), ("train", "objective", "nope"), ("train", "max_epochs", "many"),
    ("train", "seed", "-3"), ("rollout", "gamma", "7"), ("rollout", "beta", "0"),
    ("rollout", "n", "x"),
])
def test_eval_reads_no_training_key(tmp_path, capsys, trained, section, key, value):
    _, ck = trained
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval", {section: {key: value}})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 0
    assert capsys.readouterr().err == ""
    resolved = _read_plain_ini((tmp_path / "eval" / "config_resolved.ini").read_text())
    assert list(resolved) == ["dataset", "model", "rollout", "output"]
    assert list(resolved["rollout"]) == ["s", "t", "l"]


@pytest.mark.parametrize("section", ["train", "rollout"])
def test_eval_refuses_an_unknown_key_of_a_section_it_does_not_read(tmp_path, capsys, trained,
                                                                   section):
    _, ck = trained
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval", {section: {"bogus": "1"}})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 2
    assert capsys.readouterr().err == f"error: [{section}] unknown key 'bogus'\n"
    assert not (tmp_path / "eval").exists()


def test_eval_rejects_bad_checkpoint(tmp_path, capsys):
    bogus = tmp_path / "bogus.arpt"
    bogus.write_bytes(b"JUNKJUNKJUNKJUNK")
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bogus),
                 "--horizon", "16", "--out", str(tmp_path / "eval")]) == 2
    assert "magic" in capsys.readouterr().err


def _predict_checkpoint(tmp_path, S=48, T=12):
    model = init_forecaster("linear", Dims(S=S, T=T), seed=3)
    ck = Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.1, 3)
    path = tmp_path / "predict.arpt"
    save_checkpoint(ck, path)
    return path


def _write_rows(path, n, header=True):
    rng = np.random.default_rng(1)
    lines = (["load"] if header else []) + [f"{x:.6f}" for x in rng.normal(size=n)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("horizon,rows", [(12, 12), (24, 24)])
def test_predict_row_counts(tmp_path, horizon, rows):
    ck = _predict_checkpoint(tmp_path)
    inp = _write_rows(tmp_path / "input.csv", 48)
    out = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", str(horizon), "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "load"
    assert len(lines) == 1 + rows
    assert np.isfinite([float(line) for line in lines[1:]]).all()


@settings(max_examples=100, deadline=None)
@given(values=st.sampled_from([1, 4]).flatmap(lambda V: arrays(
    np.float64, st.tuples(st.integers(1, 200), st.just(V)),
    elements=st.floats(allow_nan=False, allow_infinity=False))))
def test_format_rows_writes_the_bytes_of_predicts_inline_format(values):
    """predict's forecast text, from the function it calls, is the one format string over
    every value that cmd_predict built inline before; and each value reads back exactly."""
    row_format = ",".join(["%.17g"] * values.shape[1]) + "\n"
    text = format_rows(values)
    assert text == row_format * values.shape[0] % tuple(values.ravel().tolist())
    got = np.array([line.split(",") for line in text.splitlines()], dtype=np.float64)
    assert got.tobytes() == values.tobytes()


def test_predict_with_an_overlap_writes_horizon_rows(tmp_path):
    # the first L rows of a forecast reconstruct its input; they are not forecast rows
    S, T, L = 8, 4, 2
    model = init_forecaster("linear", Dims(S=S, T=T, L=L), seed=5)
    ck = tmp_path / "overlap.arpt"
    save_checkpoint(Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.1, 5), ck)
    inp = _write_rows(tmp_path / "input.csv", 20)
    out = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "8", "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "load" and len(lines) == 1 + 8
    context = np.loadtxt(inp, skiprows=1)[-S:, None]
    seq, mean, std = numpy_oracle.rollout("linear", numpy_oracle.arrays(model), context, L, 2)
    np.testing.assert_allclose([float(x) for x in lines[1:]], seq[S:, 0] * std + mean,
                               rtol=1e-12, atol=1e-12)


def test_predict_headerless_input(tmp_path):
    ck = _predict_checkpoint(tmp_path)
    inp = _write_rows(tmp_path / "input.csv", 50, header=False)
    out = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "12", "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "var0"


def test_predict_missing_input_exits_2(tmp_path, capsys):
    ck = _predict_checkpoint(tmp_path)
    out = tmp_path / "pred"
    assert main(["predict", str(tmp_path / "absent.csv"), "--checkpoint", str(ck),
                 "--horizon", "12", "--out", str(out)]) == 2
    assert "no such file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ["checkpoint", "input_csv", "dataset_path"])
def test_a_directory_given_as_input_exits_2_naming_it(tmp_path, capsys, which):
    adir = tmp_path / "adir"
    adir.mkdir()
    out = tmp_path / "out"
    if which == "dataset_path":
        cfg = write_config(tmp_path / "run.ini", out,
                           {"dataset": {"source": "csv", "path": str(adir)}})
        argv = ["train", "--config", str(cfg)]
    else:
        inp, ck = _write_rows(tmp_path / "input.csv", 48), _predict_checkpoint(tmp_path)
        inp, ck = (inp, adir) if which == "checkpoint" else (adir, ck)
        argv = ["predict", str(inp), "--checkpoint", str(ck), "--horizon", "12", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and str(adir) in err
    assert not out.exists()


@pytest.mark.parametrize("which", ["directory", "not_utf8"])
def test_an_unreadable_config_exits_2_naming_it(tmp_path, capsys, which):
    # the file is read as UTF-8 text before the INI reader sees it
    config = tmp_path / "adir"
    if which == "directory":
        config.mkdir()
    else:
        write_config(config, tmp_path / "out")
        config.write_bytes(config.read_bytes().replace(b"sinusoid", b"sinus\xffoid"))
    for command in ("train", "gradcheck"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot read config file {config}: ")
    assert not (tmp_path / "out").exists()


def test_predict_refuses_non_finite_forecast(tmp_path, capsys):
    # finite input whose scale overflows once the forecast is denormalized
    ck = _predict_checkpoint(tmp_path)
    inp = tmp_path / "input.csv"
    inp.write_text("load\n" + "".join(f"{(-1) ** i * 1e308!r}\n" for i in range(48)))
    out = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "12", "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


def test_predict_too_few_rows(tmp_path, capsys):
    ck = _predict_checkpoint(tmp_path)
    inp = _write_rows(tmp_path / "input.csv", 47)
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "12", "--out", str(tmp_path / "pred")]) == 2
    assert "48" in capsys.readouterr().err


def test_gradcheck_passes_on_small_linear(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"rollout": {"s": "8", "t": "2", "n": "3"}})
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_corrupted_rule_fails(tmp_path, capsys, monkeypatch):
    # negative control: a wrong local-gradient rule must be caught
    def bad_relu_rule(ctx, g):
        (x,) = ctx
        return (g * (x > 0.0) * 2.0,)

    monkeypatch.setattr(autodiff, "_relu_rule", bad_relu_rule)
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"model": {"kind": "mlp", "hidden": "4"},
                        "rollout": {"s": "8", "t": "2", "n": "2"}})
    assert main(["gradcheck", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_oversize_model(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"model": {"kind": "mlp", "hidden": "200"},
                        "rollout": {"s": "64", "t": "8", "n": "2"},
                        "dataset": {"length": "800"}})
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    assert "5000" in capsys.readouterr().err


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path / "a.ini", tmp_path / "out_a")
    cfg_b = write_config(tmp_path / "b.ini", tmp_path / "out_b")
    assert main(["train", "--config", str(cfg_a)]) == 0
    assert main(["train", "--config", str(cfg_b)]) == 0
    ck_a = (tmp_path / "out_a" / "checkpoint.arpt").read_bytes()
    ck_b = (tmp_path / "out_b" / "checkpoint.arpt").read_bytes()
    assert ck_a == ck_b
    hist_a = (tmp_path / "out_a" / "history.csv").read_text()
    hist_b = (tmp_path / "out_b" / "history.csv").read_text()
    assert hist_a == hist_b


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"train": {"max_epochs": "1"}})
    proc = subprocess.run([sys.executable, "-m", "arforecast", "train", "--config", str(cfg)],
                          capture_output=True, text=True, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "checkpoint.arpt").exists()



def _corrupt_predict_checkpoint(tmp_path, how):
    path = _predict_checkpoint(tmp_path)
    blob = path.read_bytes()
    if how == "nan":
        path.write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        return path
    if how == "cut":  # inside the last double
        path.write_bytes(blob[:-3])
        return path
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + size])
    if how == "float-dims":
        header["dims"]["S"] = 48.0
    elif how == "epoch-overflow":
        header["meta"]["epoch"] = float("inf")  # what json reads for 1e400
    elif how == "kind":
        header["kind"] = "mlp"  # a linear payload labelled as another kind
    elif how == "rollout":
        header["rollout"]["S"] = 40  # a rollout geometry that is not the model's
    elif how == "norm-policy":
        header["norm_policy"] = "minmax"
    elif how == "params-order":
        header["params"].reverse()
    else:
        header["meta"]["epoch"] = "x"
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(encoded)) + encoded + blob[12 + size:])
    return path


@pytest.mark.parametrize("how", ["nan", "kind", "meta", "cut", "float-dims", "epoch-overflow",
                                 "rollout", "norm-policy", "params-order"])
def test_predict_rejects_invalid_checkpoint(tmp_path, capsys, how):
    ck = _corrupt_predict_checkpoint(tmp_path, how)
    inp = _write_rows(tmp_path / "input.csv", 48)
    out = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "12", "--out", str(out)]) == 2
    assert "predict.arpt" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


def test_predict_rejects_a_cell_over_the_csv_field_limit(tmp_path, capsys):
    ck = _predict_checkpoint(tmp_path)
    inp = _write_rows(tmp_path / "input.csv", 48)
    inp.write_text(inp.read_text() + "9" * 131_073 + "\n")
    out = tmp_path / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(ck),
                 "--horizon", "12", "--out", str(out)]) == 2
    assert "input.csv" in capsys.readouterr().err
    assert not out.exists()


# config_resolved.ini is how runs are compared and reproduced, so its text
# for these configs is pinned byte for byte.
RESOLVED_INPUTS = {
    "sinusoid": ("[dataset]\nsource = sinusoid\nlength = 400\nvariates = 2\nperiods = 24,12.5\n"
                 "amplitude = 2.5\n\n[model]\nkind = mlp\nhidden = 4\n\n"
                 "[rollout]\ns = 12\nt = 4\nn = 2\n\n[output]\ndir = out/sinusoid/\n"),
    "ar": ("[dataset]\nsource = ar\nlength = 300\ncoeffs = 0.5,-0.25\nnoise_std = 0.2\n"
           "seed = 3\nsplit = 0.6,0.2,0.2\n\n[model]\nkind = inverted_attention\nhidden = 3\n\n"
           "[rollout]\ns = 8\nt = 2\nl = 1\nn = 3\ngamma = 0.7\nbeta = 0.2\n\n"
           "[train]\nlr = 0.05\nbatch_size = 8\nobjective = mse\nadam_eps = 1e-10\n\n"
           "[output]\ndir = out/ar\n"),
    "csv": ("[dataset]\nsource = csv\npath = data.csv\nhas_header = yes\ntime_column = date\n\n"
            "[model]\nkind = linear\n\n[rollout]\ns = 6\nt = 2\n\n[train]\nseed = 5\n"),
}
RESOLVED_TEXTS = {
    "sinusoid": """\
[dataset]
source = sinusoid
split = 0.7,0.1,0.2
length = 400
variates = 2
noise_std = 0
seed = 0
periods = 24,12.5
amplitude = 2.5

[model]
kind = mlp
hidden = 4

[rollout]
s = 12
t = 4
l = 0
n = 2
gamma = 0.5
beta = 0.1

[train]
lr = 0.001
adam_beta1 = 0.9
adam_beta2 = 0.999
adam_eps = 1e-08
batch_size = 32
max_epochs = 100
patience = 10
seed = 0
objective = ar

[output]
dir = out/sinusoid

""",
    "ar": """\
[dataset]
source = ar
split = 0.6,0.2,0.2
length = 300
variates = 1
noise_std = 0.2
seed = 3
coeffs = 0.5,-0.25

[model]
kind = inverted_attention
hidden = 3

[rollout]
s = 8
t = 2
l = 1
n = 3
gamma = 0.7
beta = 0.2

[train]
lr = 0.05
adam_beta1 = 0.9
adam_beta2 = 0.999
adam_eps = 1e-10
batch_size = 8
max_epochs = 100
patience = 10
seed = 0
objective = mse

[output]
dir = out/ar

""",
    "csv": """\
[dataset]
source = csv
split = 0.7,0.1,0.2
path = data.csv
has_header = true
time_column = date

[model]
kind = linear
hidden = 0

[rollout]
s = 6
t = 2
l = 0
n = 1
gamma = 0.5
beta = 0.1

[train]
lr = 0.001
adam_beta1 = 0.9
adam_beta2 = 0.999
adam_eps = 1e-08
batch_size = 32
max_epochs = 100
patience = 10
seed = 9
objective = ar

[output]
dir = out/csv

""",
}


@pytest.mark.parametrize("name", sorted(RESOLVED_INPUTS))
def test_resolved_config_text_is_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("date,a\n" + "".join(f"d{i},{i % 7}\n" for i in range(40)))
    Path("run.ini").write_text(RESOLVED_INPUTS[name])
    overrides = {"out_override": "out/csv", "seed_override": 9} if name == "csv" else {}
    cfg = RunConfig("run.ini", **overrides)
    cfg.write_resolved()
    assert (cfg.out_dir / "config_resolved.ini").read_text() == RESOLVED_TEXTS[name]


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FINITE_LISTS = st.lists(_FINITE, min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(source=st.sampled_from(["sinusoid", "ar"]), split=_FINITE_LISTS, noise_std=_POSITIVE,
       periods=_FINITE_LISTS, amplitude=_FINITE, coeffs=_FINITE_LISTS,
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       beta=st.floats(0.0, 0.5, exclude_max=True), lr=_POSITIVE, adam_eps=_POSITIVE,
       adam_beta1=st.floats(0.0, 1.0, exclude_max=True),
       adam_beta2=st.floats(0.0, 1.0, exclude_max=True))
def test_resolved_config_reads_back_to_the_float_values_that_ran(tmp_path_factory, source,
                                                                  split, periods, coeffs,
                                                                  **floats):
    """Each float the resolved config writes parses back to the value the run used."""
    home = tmp_path_factory.mktemp("resolved")
    dataset = {"source": source, "split": ",".join(map(repr, split)),
               "noise_std": repr(floats["noise_std"])}
    if source == "sinusoid":
        dataset.update(periods=",".join(map(repr, periods)), amplitude=repr(floats["amplitude"]))
    else:
        dataset.update(coeffs=",".join(map(repr, coeffs)))
    cfg = RunConfig(write_config(home / "run.ini", home / "out", {
        "dataset": dataset,
        "rollout": {key: repr(floats[key]) for key in ("gamma", "beta")},
        "train": {key: repr(floats[key]) for key in ("lr", "adam_eps", "adam_beta1",
                                                       "adam_beta2")}}))
    cfg.write_resolved()
    assert RunConfig(home / "out" / "config_resolved.ini").values == cfg.values


def test_training_from_the_resolved_config_writes_the_same_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {
        "dataset": {"noise_std": "0.1234567891", "periods": "24.123456789"},
        "rollout": {"gamma": "0.123456789", "beta": "0.0123456789"},
        "train": {"lr": "0.0012345678"}})
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(tmp_path / "out" / "config_resolved.ini"),
                 "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "checkpoint.arpt").read_bytes() == \
        (tmp_path / "out" / "checkpoint.arpt").read_bytes()


def _cli(*argv):
    """Run the CLI in a fresh interpreter, so stderr shows every warning as a user sees it."""
    return subprocess.run([sys.executable, "-m", "arforecast", *map(str, argv)],
                          capture_output=True, text=True, env=_CHILD_ENV)


def test_diverging_train_prints_one_stderr_line(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {"train": {"lr": "1e300"}})
    proc = _cli("train", "--config", cfg)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("runtime error: training diverged at epoch 1, step 2: "
                                  "non-finite loss or gradient")
    assert not (tmp_path / "out" / "checkpoint.arpt").exists()


def test_overflowing_predict_prints_one_stderr_line(tmp_path):
    ck = _predict_checkpoint(tmp_path)
    inp = tmp_path / "input.csv"
    inp.write_text("load\n" + "".join(f"{(-1) ** i * 1e308!r}\n" for i in range(48)))
    out = tmp_path / "pred"
    proc = _cli("predict", inp, "--checkpoint", ck, "--horizon", "12", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: forecast holds non-finite values")
    assert not out.exists()


@pytest.mark.parametrize("raw_scale", [False, True])
def test_overflowing_eval_prints_one_stderr_line_and_writes_nothing(tmp_path, raw_scale):
    # a finite checkpoint whose rollout overflows on BASE's series
    model = init_forecaster("linear", Dims(S=12, T=4), seed=3)
    model.set_param_vector(np.full(model.param_count, 1e150))
    ck = tmp_path / "huge.arpt"
    save_checkpoint(Checkpoint.from_forecaster(model, RolloutConfig(n=2), 0, 0.1, 3), ck)
    cfg, out = write_config(tmp_path / "run.ini", tmp_path / "cfg_out"), tmp_path / "eval"
    proc = _cli("eval", "--config", cfg, "--checkpoint", ck, "--horizon", "16", "--out", out,
                *["--raw-scale"] * raw_scale)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: test errors under ")
    assert not out.exists()


def _percent_csv_config(tmp_path, path_text):
    csv = tmp_path / "d%1.csv"
    csv.write_text("a\n" + "".join(f"{np.sin(i / 4):.6f}\n" for i in range(200)))
    return write_config(tmp_path / "run.ini", tmp_path / "out",
                        {"dataset": {"source": "csv", "path": path_text}})


def test_percent_in_a_config_value_is_taken_literally(tmp_path):
    path_text = str(tmp_path / "d%1.csv")
    cfg = _percent_csv_config(tmp_path, path_text)
    assert main(["train", "--config", str(cfg)]) == 0
    resolved = (tmp_path / "out" / "config_resolved.ini").read_text()
    assert f"path = {path_text}\n" in resolved
    assert RunConfig(tmp_path / "out" / "config_resolved.ini").values["dataset"]["path"] == \
        Path(path_text)


def test_double_percent_is_not_an_escape(tmp_path, capsys):
    cfg = _percent_csv_config(tmp_path, str(tmp_path / "d%%1.csv"))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "d%%1.csv" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("train", "lr", "nan"),
    ("train", "lr", "inf"),
    ("train", "adam_beta1", "1.0"),
    ("train", "adam_beta1", "1.5"),
    ("train", "adam_eps", "nan"),
    ("train", "adam_eps", "-0.5"),
    ("train", "seed", "-1"),
    ("dataset", "noise_std", "nan"),
    ("dataset", "noise_std", "-1"),
    ("dataset", "periods", "nan"),
    ("dataset", "amplitude", "nan"),
    ("model", "hidden", "-1"),
])
def test_config_values_training_cannot_use_exit_2_naming_their_section(tmp_path, capsys,
                                                                       section, key, value):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {section: {key: value}})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: [{section}] ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("amplitude", ["inf", "-inf"])
def test_infinite_amplitude_prints_one_stderr_line(tmp_path, amplitude):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"amplitude": amplitude}})
    proc = _cli("train", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: [dataset] amplitude must be finite")
    assert not (tmp_path / "out").exists()


def test_predict_missing_checkpoint_exits_2(tmp_path, capsys):
    inp = _write_rows(tmp_path / "input.csv", 48)
    assert main(["predict", str(inp), "--checkpoint", str(tmp_path / "absent.arpt"),
                 "--horizon", "12", "--out", str(tmp_path / "pred")]) == 2
    assert f"checkpoint not found: {tmp_path / 'absent.arpt'}" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("command,objective,horizon", [
    ("train", "ar", 8), ("train", "mse", 4), ("gradcheck", "ar", 8),
])
def test_context_too_long_for_the_train_split_prints_one_stderr_line(tmp_path, command,
                                                                     objective, horizon):
    # 300 rows split 70/10/20 leave 210 train rows; S=299 fits no window
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"length": "300"}, "rollout": {"s": "299"},
                        "train": {"objective": objective}})
    proc = _cli(command, "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith(f"error: [rollout] S=299 plus horizon {horizon} needs "
                                  f"{299 + horizon} rows, but the train split has 210")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("objective,horizon", [("ar", 8), ("mse", 4)])
def test_val_split_too_short_for_train_prints_one_stderr_line(tmp_path, objective, horizon):
    # 200 rows split 70/10/20 leave 140 train rows and 20 val rows; S=17 fits no val window
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"length": "200"}, "rollout": {"s": "17"},
                        "train": {"objective": objective}})
    proc = _cli("train", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: [rollout] S=17 plus horizon {horizon} needs {17 + horizon} "
                           f"rows, but the val split has 20\n")
    assert proc.stdout == ""
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_test_split_too_short_for_eval_prints_one_stderr_line(tmp_path, trained):
    # 60 rows split 70/10/20 leave 12 test rows; S=12 plus horizon 8 needs 20
    _, ck = trained
    cfg = write_config(tmp_path / "short.ini", tmp_path / "eval", {"dataset": {"length": "60"}})
    proc = _cli("eval", "--config", cfg, "--checkpoint", ck, "--horizon", "8")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: [rollout] S=12 plus horizon 8 needs 20 rows, "
                                  "but the test split has 12")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("noise_std,message", [
    ("inf", "noise_std must be finite and >= 0, got inf"),
    ("1e308", "ar_process: series values must be finite"),
])
def test_ar_noise_that_overflows_prints_one_stderr_line(tmp_path, noise_std, message):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {"dataset": {
        "source": "ar", "coeffs": "0.5", "noise_std": noise_std}})
    proc = _cli("train", "--config", cfg)
    assert (proc.returncode, proc.stderr) == (2, f"error: [dataset] {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset", [
    {"noise_std": "0"}, {"noise_std": "0.1"}, {"source": "ar", "coeffs": "0.5"},
])
def test_a_negative_dataset_seed_exits_2_naming_the_key(tmp_path, capsys, dataset):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {**dataset, "seed": "-1"}})
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: [dataset] seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("amplitude", ["1e308", "-1e200"])
def test_amplitude_whose_z_score_overflows_prints_one_stderr_line(tmp_path, amplitude):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"amplitude": amplitude}})
    proc = _cli("train", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: [dataset] sinusoid: ")
    assert "z-score" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_csv_whose_z_score_overflows_exits_2_for_eval(tmp_path, capsys, trained):
    cfg, ck = trained
    data = tmp_path / "huge.csv"
    data.write_text("a\n" + "".join(f"{(-1) ** i * 1e200!r}\n" for i in range(400)))
    cfg = write_config(tmp_path / "huge.ini", tmp_path / "eval",
                       {"dataset": {"source": "csv", "path": str(data)}})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--horizon", "8"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: [dataset] huge: ") and "z-score" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_csv_whose_normalized_values_overflow_prints_one_stderr_line(tmp_path, command):
    # a constant context's std is floored at 1e-5, so a 1e150 spike after it z-scores to 1e155
    data = tmp_path / "spiky.csv"
    data.write_text("a\n" + "".join("1e150\n" if i % 40 == 0 else "0\n" for i in range(400)))
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"source": "csv", "path": str(data)}})
    proc = _cli(command, "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: [dataset] spiky: ") and "z-score" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_large_but_z_scorable_amplitude_still_trains(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"amplitude": "1e150"}})
    assert main(["train", "--config", str(cfg)]) == 0


def test_predict_and_eval_create_a_missing_nested_out_dir(tmp_path, trained):
    cfg, ck = trained
    out = tmp_path / "a" / "b" / "eval"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--horizon", "8", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["config_resolved.ini", "curve.csv", "report.json"]
    inp = _write_rows(tmp_path / "input.csv", 48)
    out = tmp_path / "c" / "d" / "pred"
    assert main(["predict", str(inp), "--checkpoint", str(_predict_checkpoint(tmp_path)),
                 "--horizon", "12", "--out", str(out)]) == 0
    assert len((out / "predictions.csv").read_text().splitlines()) == 13


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_out_naming_a_regular_file_exits_1_and_writes_nothing(tmp_path, capsys, command,
                                                              trained):
    cfg, ck = trained
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    if command == "eval":
        argv = ["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]
    else:
        ck = _predict_checkpoint(tmp_path)
        argv = ["predict", str(_write_rows(tmp_path / "input.csv", 48)),
                "--checkpoint", str(ck), "--horizon", "12"]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith("runtime error: ")
    assert blocker.read_text() == "keep\n"
    assert sorted(tmp_path.rglob("*")) == before


_ARGV_GROUPS = {  # each command's arguments as option-value groups, the required ones first
    "train": [["--config", "run.ini"], ["--out", "o"], ["--seed", "3"]],
    "eval": [["--config", "run.ini"], ["--checkpoint", "c.arpt"], ["--horizon", "12"],
             ["--out", "o"], ["--raw-scale"]],
    "predict": [["in.csv"], ["--checkpoint", "c.arpt"], ["--horizon", "12"], ["--out", "o"]],
    "gradcheck": [["--config", "run.ini"], ["--out", "o"], ["--seed", "2"]],
}
_ARGV_TOKENS = st.sampled_from([
    "--config", "--checkpoint", "--horizon", "--out", "--seed", "--raw-scale", "--hor", "--out=o",
    "-h", "--", "-", "-3", "12", "0", "1_000", "x", "", "a b", "in.csv", "--Seed", " 7", "1.5"])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_ARGV_GROUPS)),
       edits=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 2), _ARGV_TOKENS),
                      max_size=3))
def test_plain_parse_matches_argparse(data, command, edits):
    groups = data.draw(st.permutations(_ARGV_GROUPS[command]))
    argv = [token for group in groups for token in group]
    for where, how, token in edits:  # insert, overwrite or delete one token
        at = where % (len(argv) + 1)
        argv[at:at + (how > 0)] = [token] if how < 2 else []
    sub = build_parsers()[1][command]
    args = _parse_plain(command, argv)
    if args is not None:
        assert sub.parse_known_args(argv) == (args, [])


@pytest.mark.parametrize("argv", [
    ["train", "--config", "run.ini"],
    ["train", "--out", "o", "--seed", "3", "--config", "run.ini"],
    ["eval", "--config", "run.ini", "--checkpoint", "c.arpt", "--horizon", "168", "--raw-scale"],
    ["predict", "in.csv", "--checkpoint", "c.arpt", "--horizon", "168", "--out", "o"],
    ["predict", "--checkpoint", "c.arpt", "in.csv", "--horizon", "12", "--out", "o"],
    ["gradcheck", "--config", "run.ini", "--seed", "0"],
])
def test_plain_parse_takes_the_documented_argv_forms(argv):
    sub = build_parsers()[1][argv[0]]
    args = _parse_plain(argv[0], argv[1:])
    assert args is not None and sub.parse_known_args(argv[1:]) == (args, [])


_TINY = {"dataset": {"length": "200"}, "train": {"max_epochs": "1"}}


@pytest.fixture(scope="module")
def argv_home(tmp_path_factory):
    """A tiny trained checkpoint (s = 12, t = 4) and a 20-row predict input."""
    home = tmp_path_factory.mktemp("argv")
    cfg = write_config(home / "run.ini", home / "train", _TINY)
    assert main(["train", "--config", str(cfg)]) == 0
    _write_rows(home / "input.csv", 20)
    return home


_VALID_ARGV = {  # (name, value) pairs; a positional is named by its dest, a flag has no value
    "train": [("--config", "{cfg}"), ("--out", "{out}"), ("--seed", "1")],
    "eval": [("--config", "{cfg}"), ("--checkpoint", "{ck}"), ("--horizon", "8"),
             ("--out", "{out}"), ("--raw-scale", None)],
    "predict": [("input_csv", "{csv}"), ("--checkpoint", "{ck}"), ("--horizon", "8"),
                ("--out", "{out}")],
    "gradcheck": [("--config", "{cfg}"), ("--out", "{out}"), ("--seed", "1")],
}
_PATHS = ["input_csv", "--config", "--checkpoint", "--out"]
_ARGV_EDITS = st.one_of(  # a new value for one argument (added if the command lacks it)
    st.tuples(st.just("--horizon"),  # -2..4T+1 at the checkpoint's T = 4
              st.integers(-2, 17).map(str) | st.sampled_from(["x", "1.5"])),
    st.tuples(st.just("--seed"), st.integers(-3, 3).map(str) | st.just("1_0")),
    st.tuples(st.sampled_from(_PATHS), st.sampled_from(["{missing}", "{dir}"])),
    st.just(("--bogus", None)),
    st.tuples(st.sampled_from(["drop", "repeat"]),
              st.sampled_from([*_PATHS, "--horizon", "--seed", "--raw-scale"])),
)


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
@settings(max_examples=100, deadline=None)
@given(edit=_ARGV_EDITS)
@example(edit=("input_csv", "{dir}"))
@example(edit=("--checkpoint", "{dir}"))
def test_one_argv_edit_exits_0_or_2_writing_nothing_on_2(argv_home, command, edit):
    home = Path(tempfile.mkdtemp(dir=argv_home))
    (home / "adir").mkdir()
    write_config(home / "run.ini", home / "cfg_out", _TINY)
    pairs = list(_VALID_ARGV[command])
    name, value = edit
    if name == "drop":
        pairs = [pair for pair in pairs if pair[0] != value]
    elif name == "repeat":
        pairs += [pair for pair in pairs if pair[0] == value]
    else:
        pairs = [pair for pair in pairs if pair[0] != name] + [edit]
    places = {"{cfg}": home / "run.ini", "{ck}": argv_home / "train" / "checkpoint.arpt",
              "{csv}": argv_home / "input.csv", "{out}": home / "out",
              "{missing}": home / "missing", "{dir}": home / "adir"}
    argv = [command] + [str(places.get(token, token)) for name, value in pairs
                        for token in ([value] if name == "input_csv" else [name, value])
                        if token is not None]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv
    assert code == 0 or pairs != _VALID_ARGV[command], argv  # an edit that changes nothing
    if code == 2:  # nothing written: only the config and the empty directory remain
        assert sorted(home.rglob("*")) == [home / "adir", home / "run.ini"], argv


_INI_OPTIONS = st.sampled_from(["source = sinusoid", "Length=400", "K = 2", "k = v ; note",
                                "path = d%1.csv", "k =", "x = a = b", "a:b = c", "# c", "; c", "",
                                "   "])
_INI_ODD_LINES = st.sampled_from([
    "[DEFAULT]", "[ a ]", "[]", "[a]b]", "[[a]]", "[a] x", " [model]", "kind : linear",
    "a:b = c", "= x", "x", "\tcontinued", "  indented = 1", "  # indented comment", "\x0c",
    "\ufeff[dataset]", "k\u3000= v", "\u3000k = v", "[dataset]", "k = 1"])


@settings(max_examples=300, deadline=None)
@given(sections=st.lists(st.tuples(st.sampled_from(["dataset", "model", "train"]),
                                   st.lists(_INI_OPTIONS, max_size=4)), max_size=3),
       edits=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 2), _INI_ODD_LINES),
                      max_size=2),
       end=st.sampled_from(["", "\n"]))
def test_plain_ini_matches_configparser(sections, edits, end):
    lines = [line for name, options in sections for line in [f"[{name}]", *options]]
    for where, how, odd in edits:  # insert, overwrite or delete one line
        at = where % (len(lines) + 1)
        lines[at:at + (how > 0)] = [odd] if how < 2 else []
    text = "\n".join(lines) + end
    with contextlib.suppress(ConfigError):  # a refused text exits 2 with one line, tested below
        plain = _read_plain_ini(text)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        assert [(name, list(items.items())) for name, items in plain.items()] == \
            [(name, parser.items(name)) for name in parser.sections()]


@pytest.mark.parametrize("anchor,how,odd", [
    ("kind = linear", "replace", "kind: linear"),
    ("kind = linear", "replace", "kind linear"),
    ("kind = linear", "after", "\tmlp"),
    ("kind = linear", "replace", "  kind = linear"),
    ("[model]", "replace", " [model]"),
    ("[dataset]", "before", "[DEFAULT]"),
    ("[model]", "replace", "[model] x"),
    ("[rollout]", "before", "[model]"),
    ("kind = linear", "after", "kind = mlp"),
    ("[dataset]", "before", "kind = linear"),
], ids=["key-colon-value", "no-equals", "continuation", "indented-key", "indented-header",
        "default", "text-after-bracket", "repeated-section", "repeated-key", "before-section"])
def test_refused_ini_line_exits_2_with_one_line_naming_it(tmp_path, capsys, anchor, how, odd):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    lines = cfg.read_text().split("\n")
    at = lines.index(anchor) + (how == "after")
    lines[at:at + (how == "replace")] = [odd]
    cfg.write_text("\n".join(lines))
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {cfg}, line {at + 1}: {odd.strip()!r} ")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_a_config_with_a_byte_order_mark_trains(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "checkpoint.arpt").exists()


@pytest.mark.parametrize("partial", [b"\xef", b"\xef\xbb"])
def test_a_config_of_a_partial_byte_order_mark_exits_2_naming_it(tmp_path, capsys, partial):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(partial)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: cannot read config file {cfg}: ")
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_crlf_and_cr_configs_read_as_lf(tmp_path, bom, newline):
    lf = write_config(tmp_path / "lf.ini", tmp_path / "out")
    other = tmp_path / "other.ini"
    other.write_bytes(bom + lf.read_bytes().replace(b"\n", newline))
    assert RunConfig(other).values == RunConfig(lf).values


@pytest.mark.parametrize("source,dataset,resolved", [
    ("sinusoid", "length = 400\n",
     "length = 400\nvariates = 1\nnoise_std = 0\nseed = 0\nperiods = 24\namplitude = 1\n"),
    ("ar", "length = 300\ncoeffs = 0.5\n",
     "length = 300\nvariates = 1\nnoise_std = 1\nseed = 0\ncoeffs = 0.5\n"),
])
def test_generator_keys_default_as_the_generators_do(tmp_path, source, dataset, resolved):
    run = tmp_path / "run.ini"
    run.write_text(f"[dataset]\nsource = {source}\n{dataset}\n[model]\nkind = linear\n\n"
                   f"[rollout]\ns = 6\nt = 2\n\n[output]\ndir = {tmp_path / 'out'}\n")
    cfg = RunConfig(run)
    cfg.write_resolved()
    text = (tmp_path / "out" / "config_resolved.ini").read_text()
    assert text.startswith(f"[dataset]\nsource = {source}\nsplit = 0.7,0.1,0.2\n{resolved}\n")
    # and the series is the generator's own at its defaults
    series = gen_sinusoid(400) if source == "sinusoid" else gen_ar_process(300, coeffs=(0.5,))
    assert cfg.build_dataset(6).values.tobytes() == series.values.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r"])
def test_an_output_dir_with_a_line_break_exits_2_writing_nothing(tmp_path, capsys, newline):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    out = tmp_path / f"o{newline}x"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith("error: [output] dir ")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_importing_the_cli_does_not_import_configparser():
    proc = subprocess.run([sys.executable, "-c", "import sys, arforecast.cli; "
                           "print('configparser' in sys.modules)"], capture_output=True, text=True,
                          env=_CHILD_ENV)
    assert proc.stdout == "False\n", proc.stderr


def test_plain_ini_reads_the_configs_the_cli_writes(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"dataset": {"source": "csv", "path": "d%1.csv"}})
    assert _read_plain_ini(cfg.read_text()) is not None
    RunConfig(cfg).write_resolved()
    assert _read_plain_ini((tmp_path / "out" / "config_resolved.ini").read_text()) is not None


_DEMO_SOURCES = {"sinusoid": {}, "ar": {"coeffs": "0.6,0.3"},
                 "csv": {"path": "series.csv", "has_header": "true", "time_column": "time"}}


def _demo_config(source="sinusoid"):
    """The README's demo config as {section: {key: value}}, cut to 1,000 rows (100 val rows, a
    window being S + nT = 96) and one epoch; an ``ar`` source draws an AR(0.6, 0.3) series, and
    a ``csv`` source reads the demo series, beside a time column, from ``series.csv``. The keys
    of the demo's sinusoid that the source does not read are left out."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"^```ini\n(.*?)^```", readme.read_text(), re.M | re.S)
    sections = _read_plain_ini(block)
    sections["dataset"].update(length="1000", source=source, **_DEMO_SOURCES[source])
    sections["dataset"] = {key: value for key, value in sections["dataset"].items()
                           if ("dataset", key) in _SOURCE_SCHEMA[source]}
    sections["train"]["max_epochs"] = "1"
    return sections


def _write_demo_series(path):
    """The demo's 1,000-row series as a CSV with a header and a leading time column."""
    values = gen_sinusoid(1000, periods=144.0, noise_std=0.1, seed=0).values[:, 0].tolist()
    path.write_text("time,load\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(values)))


# each size key's largest fuzzed value, which bounds what a mutation can allocate; lengths
# fall on both sides of the 960 rows whose val split first holds a demo window
_SIZE_BOUNDS = {"length": 2000, "variates": 4, "hidden": 8, "s": 64, "t": 64, "l": 64, "n": 8,
                "batch_size": 64, "max_epochs": 2, "patience": 2}
_FUZZ_VALUES = (None, "", "abc", "-1", "0", "nan", "inf", "-inf")  # None deletes the key
_FLOAT_VALUES = ("1e308", "5e-324")  # besides _FUZZ_VALUES, for float and float-list keys
# (source, section, key, value) for every key a sinusoid config reads, an ar config's coeffs, a
# csv config's path, has_header and time_column, and, for each source, each [dataset] key of
# another source set to 1
_FUZZ_MUTATIONS = tuple(
    ("sinusoid", section, key, value)
    for section, key, parse, _, sources in SCHEMA if "sinusoid" in sources
    for value in _FUZZ_VALUES + (_FLOAT_VALUES if parse in (float, _float_list) else ())
) + tuple(("ar", "dataset", "coeffs", value) for value in _FUZZ_VALUES + _FLOAT_VALUES) + tuple(
    ("csv", "dataset", key, value) for key in _DEMO_SOURCES["csv"] for value in _FUZZ_VALUES
) + tuple((source, "dataset", key, "1") for source in _DEMO_SOURCES
          for key in dict.fromkeys(row[1] for row in SCHEMA if row[0] == "dataset")
          if ("dataset", key) not in _SOURCE_SCHEMA[source])
_SIZE_MUTATIONS = st.sampled_from([(section, key) for section, key, *_ in SCHEMA
                                   if key in _SIZE_BOUNDS]).flatmap(
    lambda sk: st.integers(1, _SIZE_BOUNDS[sk[1]]).map(lambda v: ("sinusoid", *sk, str(v))))


def _main_quietly(argv):
    """(exit code, stderr lines, messages of the warnings recorded) of ``main(argv)``."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines(), [str(w.message) for w in caught]


def _run_mutated(root, source="sinusoid", section=None, key=None, value=None):
    """Run ``train`` in a fresh directory under ``root`` on the ``source`` demo config with one
    key set to ``value`` (None deletes it; no section leaves the config as it is). Gives the exit
    code, the stderr lines, the messages of the warnings recorded, and the files the run left
    in its directory."""
    sections = _demo_config(source)
    if section is None:
        pass
    elif value is None:
        sections.get(section, {}).pop(key, None)
    else:
        sections.setdefault(section, {})[key] = value
    run = Path(tempfile.mkdtemp(dir=root))
    if source == "csv":
        _write_demo_series(run / "series.csv")
    (run / "run.ini").write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()))
    home = os.getcwd()
    os.chdir(run)  # a relative [output] dir lands in the run's directory
    try:
        code, lines, warned = _main_quietly(["train", "--config", "run.ini"])
    finally:
        os.chdir(home)
    written = sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file())
    return code, lines, warned, written


@pytest.mark.parametrize("source", sorted(_DEMO_SOURCES))
def test_the_fuzz_base_configs_train_with_validation_and_no_warning(tmp_path, source):
    code, lines, warned, written = _run_mutated(tmp_path, source)
    assert (code, lines, warned) == (0, [], [])
    assert written == ["run.ini", "runs/demo/checkpoint.arpt", "runs/demo/config_resolved.ini",
                       "runs/demo/history.csv"] + ["series.csv"] * (source == "csv")
    (run,) = tmp_path.iterdir()
    (row,) = (run / "runs" / "demo" / "history.csv").read_text().splitlines()[1:]
    _, train_loss, val_loss = map(float, row.split(","))
    assert val_loss != train_loss


@settings(max_examples=100, deadline=None)
@given(mutation=_SIZE_MUTATIONS)
def test_one_key_config_fuzz_exits_0_or_2_with_one_line_and_nothing_written(mutation):
    with tempfile.TemporaryDirectory() as root:
        code, lines, warned, written = _run_mutated(root, *mutation)
    if code == 1:  # a diverging lr: the documented runtime failure, no checkpoint or history
        assert lines[0].startswith("runtime error: training diverged at epoch "), lines
        assert len(lines) == 1 and not {"checkpoint.arpt", "history.csv"} & \
            {Path(name).name for name in written}
    elif code != 0:  # each recorded warning would be one more stderr line
        inputs = ["run.ini", "series.csv"] if mutation[0] == "csv" else ["run.ini"]
        assert (code, len(lines + warned), written) == (2, 1, inputs), lines + warned
    else:  # a run that trains has a val split holding a window, so nothing warns
        assert not lines + warned, lines + warned


for _mutation in _FUZZ_MUTATIONS:  # every fixed mutation runs, besides the drawn sizes
    test_one_key_config_fuzz_exits_0_or_2_with_one_line_and_nothing_written = example(
        mutation=_mutation)(test_one_key_config_fuzz_exits_0_or_2_with_one_line_and_nothing_written)


# 270 rows at split 0.1,0.1,0.8 leave 216 test rows: a window of S = 8 and 100 blocks of T = 2
_MAGNITUDE_SERIES = gen_sinusoid(270, V=2, periods=[24.0, 17.0], noise_std=0.1, seed=0).values


def _assert_finite_output(path):
    """A JSON report parses strictly (no Infinity or NaN); a CSV's cells under its header are
    finite floats."""
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=lambda token: pytest.fail(f"{path.name} holds {token}"))
    else:
        cells = [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
        assert np.isfinite(cells).all(), path.name


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["linear", "mlp", "inverted_attention"]),
       param_exp=st.integers(-300, 300), data_exp=st.integers(-300, 300),
       blocks=st.integers(1, 100))
@example(kind="linear", param_exp=150, data_exp=0, blocks=4)  # eval used to write Infinity
@example(kind="mlp", param_exp=300, data_exp=300, blocks=100)
@example(kind="inverted_attention", param_exp=-300, data_exp=-300, blocks=100)
@example(kind="inverted_attention", param_exp=2, data_exp=0, blocks=100)
def test_eval_and_predict_at_any_magnitude_exit_0_finite_or_2_writing_nothing(
        kind, param_exp, data_exp, blocks):
    """Each run exits 0 with finite outputs and no warning, or 2 with one stderr line, no
    warning and no file written."""
    dims = Dims(S=8, T=2, L=1, V=2, hidden=0 if kind == "linear" else 3)
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        model = init_forecaster(kind, dims, seed=1)
        model.set_param_vector(model.param_vector() * 10.0 ** param_exp)
        ck, series, cfg = root / "ck.arpt", root / "series.csv", root / "run.ini"
        save_checkpoint(Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.1, 1), ck)
        series.write_text("a,b\n" + "".join(
            f"{x!r},{y!r}\n" for x, y in (_MAGNITUDE_SERIES * 10.0 ** data_exp).tolist()))
        cfg.write_text(f"[dataset]\nsource = csv\npath = {series}\nsplit = 0.1,0.1,0.8\n"
                       f"[model]\nkind = {kind}\nhidden = {dims.hidden}\n[rollout]\ns = {dims.S}\n"
                       f"t = {dims.T}\nl = {dims.L}\n[output]\ndir = {root / 'unused'}\n")
        horizon = ["--checkpoint", str(ck), "--horizon", str(blocks * dims.T)]
        for argv, outputs in ((["eval", "--config", str(cfg)], ["config_resolved.ini",
                                                                 "curve.csv", "report.json"]),
                              (["predict", str(series)], ["predictions.csv"])):
            out = root / argv[0]
            code, lines, warned = _main_quietly(argv + horizon + ["--out", str(out)])
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
            assert not warned, (argv[0], warned)
            if code == 0:
                assert (lines, written) == ([], outputs), argv[0]
                for name in set(outputs) - {"config_resolved.ini"}:
                    _assert_finite_output(out / name)
            else:
                assert (code, len(lines), written) == (2, 1, []), (argv[0], lines, written)
