"""Command-line workflows: exit codes, output files, config echo."""

import configparser
import contextlib
import io
import json
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arforecast.autodiff as autodiff
from arforecast.cli import RunConfig, _parse_plain, _read_plain_ini, build_parsers, main
from arforecast.models import Dims, init_forecaster
from arforecast.rollout import RolloutConfig
from arforecast.training import Checkpoint, save_checkpoint

BASE = {
    "dataset": {"source": "sinusoid", "length": "400", "variates": "1",
                "periods": "24", "noise_std": "0.1", "seed": "0"},
    "model": {"kind": "linear"},
    "rollout": {"s": "12", "t": "4", "n": "2"},
    "train": {"lr": "0.01", "batch_size": "16", "max_epochs": "2",
              "patience": "5", "seed": "1", "objective": "ar"},
}


def write_config(path, out_dir, overrides=None):
    sections = {k: dict(v) for k, v in BASE.items()}
    sections["output"] = {"dir": str(out_dir)}
    for section, kv in (overrides or {}).items():
        sections.setdefault(section, {}).update(kv)
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
    assert "path" in capsys.readouterr().err


def test_train_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out",
                       {"rollout": {"gama": "0.5"}})
    assert main(["train", "--config", str(cfg)]) == 2
    assert "gama" in capsys.readouterr().err


def test_resolved_config_echoes_defaults_and_overrides(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    assert main(["train", "--config", str(cfg), "--seed", "77"]) == 0
    resolved = (tmp_path / "out" / "config_resolved.ini").read_text()
    assert "gamma = 0.5" in resolved and "beta = 0.1" in resolved
    assert "seed = 77" in resolved
    assert "patience = 5" in resolved


def _train_checkpoint(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out")
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out" / "checkpoint.arpt"


def test_eval_horizon_multiple(tmp_path):
    cfg, ck = _train_checkpoint(tmp_path)
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--horizon", "16", "--out", str(out)]) == 0
    curve = (out / "curve.csv").read_text().splitlines()
    assert len(curve) == 5  # header + 4 blocks of T=4
    assert (out / "report.json").exists()
    assert (out / "config_resolved.ini").exists()


def test_eval_horizon_not_multiple(tmp_path, capsys):
    cfg, ck = _train_checkpoint(tmp_path)
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
def test_eval_with_another_rollout_geometry_exits_2(tmp_path, capsys, key, value, geometry):
    _, ck = _train_checkpoint(tmp_path)
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
def test_eval_with_another_model_exits_2(tmp_path, capsys, model, shown):
    _, ck = _train_checkpoint(tmp_path)
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval", {"model": model})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 2
    assert capsys.readouterr().err == (f"error: [model] {shown} do not match the checkpoint's "
                                       f"kind = linear, hidden = 0\n")
    assert not (tmp_path / "eval").exists()


def test_eval_ignores_the_config_objective_weights_and_block_count(tmp_path):
    _, ck = _train_checkpoint(tmp_path)
    cfg = write_config(tmp_path / "other.ini", tmp_path / "eval",
                       {"rollout": {"n": "5", "gamma": "0.9", "beta": "0.3"}})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck), "--horizon", "8"]) == 0
    assert (tmp_path / "eval" / "report.json").exists()


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
    mean, std = context.mean(), max(context.std(), 1e-5)
    w, b = model.params["w"].values, model.params["b"].values
    seq = (context - mean) / std
    for _ in range(2):
        seq = np.vstack([seq, (w @ seq[-S:] + b)[L:]])
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
    # a directory once reached configparser.read, which skips what it cannot open
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
    proc = subprocess.run([sys.executable, "-m", "arforecast", "train",
                           "--config", str(cfg)], capture_output=True, text=True)
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


def _cli(*argv):
    """Run the CLI in a fresh interpreter, so stderr shows every warning as a user sees it."""
    return subprocess.run([sys.executable, "-m", "arforecast", *map(str, argv)],
                          capture_output=True, text=True)


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


def test_test_split_too_short_for_eval_prints_one_stderr_line(tmp_path):
    # 60 rows split 70/10/20 leave 12 test rows; S=12 plus horizon 8 needs 20
    _, ck = _train_checkpoint(tmp_path)
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


def test_csv_whose_z_score_overflows_exits_2_for_eval(tmp_path, capsys):
    cfg, ck = _train_checkpoint(tmp_path)
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


def test_predict_and_eval_create_a_missing_nested_out_dir(tmp_path):
    cfg, ck = _train_checkpoint(tmp_path)
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
def test_out_naming_a_regular_file_exits_1_and_writes_nothing(tmp_path, capsys, command):
    cfg, ck = _train_checkpoint(tmp_path)
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
             ["--out", "o"], ["--seed", "1"], ["--raw-scale"]],
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
             ("--out", "{out}"), ("--seed", "1"), ("--raw-scale", None)],
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
    plain = _read_plain_ini(text)
    if plain is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        assert [(name, list(items.items())) for name, items in plain.items()] == \
            [(name, parser.items(name)) for name in parser.sections()]


def test_plain_ini_reads_the_configs_the_cli_writes(tmp_path):
    cfg = write_config(tmp_path / "run.ini", tmp_path / "out", {"dataset": {"path": "d%1.csv"}})
    assert _read_plain_ini(cfg.read_text()) is not None
    RunConfig(cfg).write_resolved()
    assert _read_plain_ini((tmp_path / "out" / "config_resolved.ini").read_text()) is not None
