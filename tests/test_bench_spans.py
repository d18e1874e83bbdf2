"""The benchmark's span tracer must resolve every program function it wraps.

``bench/spans.py`` wraps functions by module and attribute name; a rename
in the program would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()
