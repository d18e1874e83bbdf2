"""The benchmark's span tracer must resolve every program function it wraps.

``bench/spans.py`` wraps functions by module and attribute name, and
counts tape records by the names of their local-gradient rules; a rename
in the program would otherwise surface only in a traced benchmark run, or
not at all.
"""

import importlib.util
from pathlib import Path

import pytest

from arforecast.autodiff import Tape
from arforecast.data import gen_sinusoid, window_iter
from arforecast.models import Dims, init_forecaster
from arforecast.rollout import RolloutConfig, ar_loss

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


@pytest.mark.parametrize("kind,V,extra", [("linear", 1, ()), ("mlp", 1, ()),
                                          ("inverted_attention", 4, ("softmax", "layer_norm"))])
def test_counted_rule_names_match_the_tape(kind, V, extra):
    spans = _load_spans()
    cfg = RolloutConfig(S=48, T=12, n=4)
    ds = gen_sinusoid(400, V=V, periods=144.0, noise_std=0.1, seed=0)
    batch = window_iter(ds, "train", cfg.S, cfg.horizon)[:4]
    model = init_forecaster(kind, Dims(S=48, T=12, V=V, hidden=8), seed=1)
    with Tape() as tape:
        ar_loss(model, batch, cfg)
    # the note spans.py takes on Tape.gradient, stripped to names as its metrics do
    counted = spans._rules((tape,), None)
    names = {rule.__name__.strip("_").removesuffix("_rule") for rule in counted}
    expected = {"matmul", "add", "scale", "slice", "concat", *extra}
    assert expected <= set(spans.RULES)
    assert expected <= names
