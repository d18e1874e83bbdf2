"""The benchmark's span tracer must resolve every program function it wraps.

``bench/spans.py`` wraps functions by module and attribute name, and
counts tape records by the names of their local-gradient rules; a rename
in the program would otherwise surface only in a traced benchmark run, or
not at all.
"""

import importlib.util
import json
import math
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


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    tracer = _load_spans().Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()


@pytest.mark.parametrize("kind,V,extra", [
    ("linear", 1, ()), ("mlp", 1, ("relu",)),
    ("inverted_attention", 4, ("attention_sublayer", "ffn_sublayer")),
])
def test_counted_rule_names_match_the_tape(kind, V, extra):
    spans = _load_spans()
    cfg = RolloutConfig(n=4)
    ds = gen_sinusoid(400, V=V, periods=144.0, noise_std=0.1, seed=0)
    batch = window_iter(ds, "train", 48, cfg.n * 12)[:4]
    model = init_forecaster(kind, Dims(S=48, T=12, V=V, hidden=8), seed=1)
    with Tape() as tape:
        ar_loss(model, batch, cfg)
    # the note spans.py takes on Tape.gradient, stripped to names as its metrics do
    counted = spans._rules((tape,), None)
    names = {rule.__name__.strip("_").removesuffix("_rule") for rule in counted}
    # layers are affine records (attention's two sublayers one record each), each step's
    # input window is one stitch record, each block's error is one block_error record and
    # the objective one discounted_loss; at L = 0 no block is sliced
    assert names == {"affine", "stitch", "block_error", "discounted_loss", "mean", *extra}
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
