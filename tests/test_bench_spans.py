"""The benchmark's span tracer must resolve every program function it wraps.

``bench/spans.py`` wraps functions by module and attribute name, and
counts tape records by the names of their local-gradient rules; a rename
in the program would otherwise surface only in a traced benchmark run, or
not at all.
"""

import contextlib
import importlib.util
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

import arforecast.cli as cli
import arforecast.evaluation as evaluation
from arforecast.autodiff import Tape
from arforecast.data import gen_sinusoid, window_iter
from arforecast.models import Dims, init_forecaster
from arforecast.rollout import RolloutConfig, ar_loss
from arforecast.training import Checkpoint, save_checkpoint

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_bench(name, monkeypatch=None):
    """``bench/<name>.py`` as a module; with ``monkeypatch``, listed in ``sys.modules`` for the
    test, as a module defining dataclasses must be."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", SPANS.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load_bench("spans")


def test_every_trace_target_resolves():
    tracer = _load_spans().Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()


@pytest.mark.parametrize("kind,V,extra,S,L", [
    ("linear", 1, (), 48, 0), ("mlp", 1, ("relu",), 48, 0),
    ("inverted_attention", 4, ("attention_sublayer", "ffn_sublayer"), 48, 0),
    ("inverted_attention", 3, ("attention_sublayer", "ffn_sublayer"), 30, 2),  # S % T != 0
], ids=["linear-1-extra0", "mlp-1-extra1", "inverted_attention-4-extra2",
        "inverted_attention-3-overlap"])
def test_counted_rule_names_match_the_tape(kind, V, extra, S, L):
    spans = _load_spans()
    cfg = RolloutConfig(n=4)
    ds = gen_sinusoid(400, V=V, periods=144.0, noise_std=0.1, seed=0)
    batch = window_iter(ds, "train", S, cfg.n * 12)[:4]
    model = init_forecaster(kind, Dims(S=S, T=12, L=L, V=V, hidden=8), seed=1)
    with Tape() as tape:
        ar_loss(model, batch, cfg)
    # the note spans.py takes on Tape.gradient, stripped to names as its metrics do
    names = Counter()
    for rule, count in spans._rules((tape,), None).items():
        names[rule.__name__.strip("_").removesuffix("_rule")] += count
    # layers are affine records (attention's two sublayers one record each), each step's
    # input window is one stitch record, and so is each block at L > 0 (at L = 0 a block is its
    # forecast), and the whole objective is one rollout_objective record
    assert set(names) == {"affine", "stitch", "rollout_objective", *extra}
    assert names["rollout_objective"] == 1
    assert {"concat", "softmax", "layer_norm"} <= set(spans.RULES)


@pytest.mark.parametrize("chunk_windows", [None, 7])
def test_traced_eval_records_the_spans_the_benchmark_checks(tmp_path, monkeypatch,
                                                            chunk_windows):
    V = 2
    if chunk_windows is not None:
        monkeypatch.setattr(evaluation, "_CHUNK_COLUMNS", chunk_windows * V)
    model = init_forecaster("linear", Dims(S=12, T=4, V=V), seed=0)
    ckpt = tmp_path / "model.arpt"
    save_checkpoint(Checkpoint.from_forecaster(model, RolloutConfig(), 0, 0.1, 0), ckpt)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[dataset]\nsource = sinusoid\nlength = 300\nvariates = 2\n"
                   "[model]\nkind = linear\n[rollout]\ns = 12\nt = 4\n")
    out = tmp_path / "eval"
    tracer = _load_spans().Tracer()
    with tracer.installed():
        assert cli.main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--horizon", "12", "--out", str(out)]) == 0
    names = [span[0] for span in tracer.spans]
    assert {"data.window_iter", "evaluation.evaluate", "rollout.rollout_predict",
            "models.forecast"} <= set(names)
    windows = json.loads((out / "report.json").read_text())["window_count"]
    chunks = 1 if chunk_windows is None else math.ceil(windows / chunk_windows)
    assert names.count("rollout.rollout_predict") == chunks


@pytest.mark.parametrize("objective", ["ar", "mse"])
def test_traced_train_records_the_spans_the_benchmark_checks(tmp_path, monkeypatch, objective):
    """The benchmark's own train request, traced as a --trace 1 run traces it, records every
    span that run requires, rollout.mse_loss (through training's module global) included."""
    monkeypatch.setitem(sys.modules, "refmodel", _load_bench("refmodel"))  # workloads imports it
    workloads = _load_bench("workloads", monkeypatch)
    csv = workloads.write_series(tmp_path / "series.csv", workloads.TRAIN_ROWS, 1, 0)
    request = workloads.train_request(workloads.Checker(), f"train {objective}", tmp_path, csv,
                                      "linear", objective, 1)
    assert f"rollout.{objective}_loss" in request.spans
    tracer = _load_spans().Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(request.argv) == 0
    assert tracer.missing == set()
    assert set(request.spans) <= {span[0] for span in tracer.spans}
    assert request.check() is None
