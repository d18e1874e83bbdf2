"""Span tracing from outside the program, and the per-layer metrics built on it.

While installed, the tracer replaces the module-level functions the
program calls through (``arforecast.cli.load_csv``,
``arforecast.training.ar_loss``, ``arforecast.autodiff.Tape.gradient``,
...) with wrappers that record one span per call: name, start, end,
parent span and the request (root span) it belongs to. Spans stay in
memory; a layer's self time is its span duration minus its child spans.
Nothing under ``src/`` changes, and uninstalling restores every original,
so untraced runs pay no tracing cost at all. A target that no longer
resolves is listed in ``Tracer.missing``, for the harness to fail the run.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from collections import Counter
from operator import itemgetter
from time import perf_counter

from arforecast.autodiff import active_tape

LAYERS = ("cli", "data", "training", "rollout", "models", "autodiff", "evaluation")

# Tape rules counted on their own; the rest are summed as "other".
RULES = ("matmul", "add", "scale", "slice", "concat", "softmax", "layer_norm")

# (name, unit, better) of every metric layer_metrics returns, plus the
# overhead ratio the harness adds.
PER_LAYER = (
    ("autodiff.records_per_window", "count", "lower"),
    *((f"autodiff.records.{r}", "count", "lower") for r in RULES + ("other",)),
    ("autodiff.backward_us_per_window", "us", "lower"),
    ("autodiff.backward_calls_per_window", "count", "lower"),
    ("models.forecast_us_taped", "us", "lower"),
    ("models.forecast_us_untaped", "us", "lower"),
    ("models.forecast_calls_per_window", "count", "lower"),
    ("rollout.ar_loss_self_us_taped", "us", "lower"),
    ("rollout.ar_loss_us_untaped", "us", "lower"),
    ("rollout.rollout_predict_self_us", "us", "lower"),
    ("training.adam_step_us", "us", "lower"),
    ("training.adam_steps", "count", "lower"),
    ("training.validation_share", "ratio", "lower"),
    ("training.save_checkpoint_ms", "ms", "lower"),
    ("training.load_checkpoint_ms", "ms", "lower"),
    ("training.checkpoint_bytes", "bytes", "lower"),
    ("data.window_iter_ms", "ms", "lower"),
    ("data.windows", "count", "higher"),
    ("data.gen_ms", "ms", "lower"),
    ("data.load_csv_ms_per_krow", "ms", "lower"),
    ("evaluation.evaluate_self_us_per_window", "us", "lower"),
    ("cli.self_ms_per_request", "ms", "lower"),
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

NAME, START, END, PARENT, REQUEST, NOTE = range(6)


def _taped(args, result):
    return active_tape() is not None


def _split_windows(args, result):
    return args[1], len(result)


def _train_note(args, result):
    return args[3].objective, len(result[1])


def _rules(args, result):
    return Counter(map(itemgetter(2), args[0].records))


# (module, attribute path, span name, note taken from (args, result) after the call)
TARGETS = (
    ("arforecast.cli", "main", "cli.main", None),
    ("arforecast.data", "gen_sinusoid", "data.gen", None),
    ("arforecast.cli", "load_csv", "data.load_csv", lambda a, r: r.values.shape[0]),
    ("arforecast.training", "window_iter", "data.window_iter", _split_windows),
    ("arforecast.evaluation", "window_iter", "data.window_iter", _split_windows),
    ("arforecast.cli", "train", "training.train", _train_note),
    ("arforecast.training", "adam_step", "training.adam_step", None),
    ("arforecast.cli", "save_checkpoint", "training.save_checkpoint",
     lambda a, r: os.path.getsize(a[1])),
    ("arforecast.cli", "load_checkpoint", "training.load_checkpoint", None),
    ("arforecast.training", "ar_loss", "rollout.ar_loss", _taped),
    ("arforecast.training", "mse_loss", "rollout.mse_loss", _taped),
    ("arforecast.cli", "rollout_predict", "rollout.rollout_predict", None),
    ("arforecast.evaluation", "rollout_predict", "rollout.rollout_predict", None),
    ("arforecast.rollout", "forecast", "models.forecast", _taped),
    ("arforecast.autodiff", "Tape.gradient", "autodiff.gradient", _rules),
    ("arforecast.cli", "evaluate", "evaluation.evaluate", lambda a, r: r.window_count),
)


class Tracer:
    """Records spans as ``[name, start, end, parent, request, note]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()  # "module:path" of targets that did not resolve
        self._stack: list[int] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent, spans[parent][REQUEST] if stack else idx, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name, note in TARGETS:
                *parents, attr = path.split(".")
                try:
                    owner = importlib.import_module(module)
                except ImportError:
                    owner = None
                for parent in parents:
                    owner = getattr(owner, parent, None)
                original = getattr(owner, attr, None)
                if not callable(original):  # renamed or gone
                    self.missing.add(f"{module}:{path}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def names_by_request(spans, request_ids) -> dict[int, set[str]]:
    """Span names seen under each request (root span) in ``request_ids``."""
    names = {i: set() for i in request_ids}
    for s in spans:
        if s[REQUEST] in names:
            names[s[REQUEST]].add(s[NAME])
    return names


def self_times(spans) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(spans, request_wall: float, request_ids: set[int]) -> dict[str, float]:
    """Per-layer numbers from every recorded span.

    ``request_wall`` is the harness-timed wall of the traced requests in
    ``request_ids``; coverage and self shares are taken over those.
    Coverage is the share of that wall spent in wrapped functions below
    ``cli.main``: work the program moves out of every wrapped function
    lowers it.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def calls(name):
        return by_name.get(name, [])

    def mean(ids, value=dur):
        return _mean(sum(value(i) for i in ids), len(ids))

    def train_of(i):
        j = spans[i][PARENT]
        while j >= 0 and spans[j][NAME] != "training.train":
            j = spans[j][PARENT]
        return j

    # Windows trained per train call = train-split windows x epochs run.
    split_windows = {spans[i][PARENT]: spans[i][NOTE][1] for i in calls("data.window_iter")
                     if spans[i][NOTE][0] == "train"}
    trains = calls("training.train")
    ar_trains = {i for i in trains if spans[i][NOTE][0] == "ar"}
    ar_windows = sum(split_windows.get(i, 0) * spans[i][NOTE][1] for i in ar_trains)

    grads = [i for i in calls("autodiff.gradient") if train_of(i) in ar_trains]
    rules = Counter()
    for i in grads:
        for rule, count in spans[i][NOTE].items():
            rules[rule.__name__.strip("_").removesuffix("_rule")] += count
    records = sum(rules.values())

    forecasts = calls("models.forecast")
    fc_taped = [i for i in forecasts if spans[i][NOTE]]
    ar_taped = [i for i in calls("rollout.ar_loss") if spans[i][NOTE]]
    validation = [i for n in ("rollout.ar_loss", "rollout.mse_loss") for i in calls(n)
                  if not spans[i][NOTE] and train_of(i) >= 0]
    evals = calls("evaluation.evaluate")
    saves = calls("training.save_checkpoint")
    csv_rows = sum(spans[i][NOTE] for i in calls("data.load_csv"))

    m = {
        "autodiff.records_per_window": _mean(records, ar_windows),
        **{f"autodiff.records.{r}": _mean(rules[r], ar_windows) for r in RULES},
        "autodiff.records.other": _mean(records - sum(rules[r] for r in RULES), ar_windows),
        "autodiff.backward_us_per_window": 1e6 * _mean(sum(map(dur, grads)), ar_windows),
        "autodiff.backward_calls_per_window": _mean(len(grads), ar_windows),
        "models.forecast_us_taped": 1e6 * mean(fc_taped),
        "models.forecast_us_untaped": 1e6 * mean([i for i in forecasts if not spans[i][NOTE]]),
        "models.forecast_calls_per_window":
            _mean(sum(1 for i in fc_taped if train_of(i) in ar_trains), ar_windows),
        "rollout.ar_loss_self_us_taped": 1e6 * mean(ar_taped, own.__getitem__),
        "rollout.ar_loss_us_untaped":
            1e6 * mean([i for i in validation if spans[i][NAME] == "rollout.ar_loss"]),
        "rollout.rollout_predict_self_us":
            1e6 * mean(calls("rollout.rollout_predict"), own.__getitem__),
        "training.adam_step_us": 1e6 * mean(calls("training.adam_step")),
        "training.adam_steps": _mean(len(calls("training.adam_step")), len(trains)),
        "training.validation_share": _mean(sum(map(dur, validation)), sum(map(dur, trains))),
        "training.save_checkpoint_ms": 1e3 * mean(saves),
        "training.load_checkpoint_ms": 1e3 * mean(calls("training.load_checkpoint")),
        "training.checkpoint_bytes": mean(saves, lambda i: spans[i][NOTE]),
        "data.window_iter_ms": 1e3 * mean(calls("data.window_iter")),
        "data.windows": _mean(sum(split_windows.values()), len(split_windows)),
        "data.gen_ms": 1e3 * mean(calls("data.gen")),
        "data.load_csv_ms_per_krow":
            1e3 * _mean(sum(map(dur, calls("data.load_csv"))), csv_rows / 1000.0),
        "evaluation.evaluate_self_us_per_window":
            1e6 * _mean(sum(own[i] for i in evals), sum(spans[i][NOTE] for i in evals)),
        "cli.self_ms_per_request": 1e3 * mean(calls("cli.main"), own.__getitem__),
    }
    layer_self = Counter()
    for i, s in enumerate(spans):
        if s[REQUEST] in request_ids:
            layer_self[s[NAME].split(".")[0]] += own[i]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _mean(layer_self[layer], request_wall)
    m["trace.coverage"] = _mean(sum(layer_self.values()) - layer_self["cli"], request_wall)
    return m
