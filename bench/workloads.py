"""Workload inputs, generated from the seed, and the CLI requests each workload sends.

Every workload is a closed loop with one client: the harness sends the
requests of one round in order, each after the previous one returned,
and repeats rounds until its time is up. All inputs are written by
``setup`` into a fresh directory: series come from the program's own
seeded generator and are written as CSV, so every request reads its data
through the CLI's CSV path. Each request carries a check of its outputs
against the plain-NumPy reference in ``refmodel``; a repeat of a request
must reproduce its first outputs byte for byte.

Training follows the README demo: a 1600-row series, the CLI's default
70/10/20 split and the demo geometry, but one epoch per ``train`` request,
so that a run holds several repeats of each request; README.md says how
timings are reduced and what the single epoch changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import arforecast.data as data
import refmodel

S, T, N_BLOCKS = 48, 12, 4
HORIZON = 168  # 14 blocks of T
PERIODS = (144.0, 24.0, 48.0, 96.0)
NOISE = 0.1
TRAIN_ROWS = 1600  # the README demo series length
TRAIN_SPLIT = (0.7, 0.1, 0.2)  # the CLI's default split; not written to the config
EVAL_SPLIT = (0.0, 0.0, 1.0)  # eval files are held out whole
EVAL_ROWS = 256  # 41 windows of 48 + 168

WORKLOADS = {
    "train_linear": "CLI train of the linear model, ar then mse, on the 1600-row V=1 demo series; "
                    "49 tape records per window on 48x1 matrices, so Python dispatch dominates",
    "train_attention": "CLI train of inverted_attention (hidden 16) on a 1600-row V=4 series; 181 "
                       "tape records per window with softmax and layer norm, so models dominate",
    "infer_long": "CLI eval and predict at horizon 168, on V=4 histories of 200 to 8000 rows; "
                  "builds no tape, so it bypasses every training-side change",
}


@dataclass
class Request:
    kind: str  # "train", "eval", "predict" or "gradcheck"
    key: str  # requests with one key do identical work
    argv: list[str]
    check: Callable[[], str | None]  # error message, or None when the outputs are right
    windows: int = 0  # windows x epochs for train, windows for eval
    spans: tuple[str, ...] = ()  # span names a traced run of the request must record


@dataclass
class Session:
    setup_requests: list[Request] = field(default_factory=list)
    round: list[Request] = field(default_factory=list)


class Checker:
    """Remembers the first verified outputs of each request, for byte-identity checks."""

    def __init__(self):
        self.first: dict[str, bytes] = {}

    def same_or_verified(self, key: str, blob: bytes, verify: Callable[[], str | None]):
        if key in self.first:
            return None if blob == self.first[key] else f"{key}: output differs from first run"
        error = verify()
        if error is None:
            self.first[key] = blob
        return error


def close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def write_config(path: Path, out: Path, dataset: dict, model: dict, rollout: dict,
                 train: dict) -> Path:
    sections = {"dataset": dataset, "model": model, "rollout": rollout, "train": train,
                "output": {"dir": out}}
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def rollout_section(s=S, t=T, n=N_BLOCKS):
    return {"s": s, "t": t, "l": 0, "n": n, "gamma": 0.5, "beta": 0.1}


def train_section(epochs, seed, objective="ar"):
    return {"lr": 0.01, "batch_size": 32, "max_epochs": epochs, "patience": 5,
            "seed": seed, "objective": objective}


def _csv_section(csv: Path, split=None) -> dict:
    section = {"source": "csv", "path": csv}
    if split is not None:
        section["split"] = ",".join(str(r) for r in split)
    return section


def _model_section(kind: str) -> dict:
    return {"kind": kind, "hidden": 16 if kind == "inverted_attention" else 0}


def write_series(path: Path, rows: int, V: int, seed: int) -> Path:
    ds = data.gen_sinusoid(rows, V=V, periods=PERIODS[:V], noise_std=NOISE, seed=seed)
    header = ",".join(f"sensor_{i}" for i in range(V))
    np.savetxt(path, ds.values, fmt="%.6f", delimiter=",", header=header, comments="")
    return path


def train_request(ck: Checker, key: str, d: Path, csv: Path, kind: str, objective: str,
                  seed: int) -> Request:
    out = d / key.replace(" ", "_")
    cfg = write_config(d / f"{out.name}.ini", out, _csv_section(csv),
                       _model_section(kind), rollout_section(), train_section(1, seed, objective))
    ckpt = out / "checkpoint.arpt"

    def check():
        history = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1, ndmin=2)
        if history.shape[0] != 1 or not np.all(np.isfinite(history[:, 1:])):
            return f"history.csv: expected 1 finite row, got {history.tolist()}"

        def verify():
            got = refmodel.read_checkpoint(ckpt)[0]["meta"]["val_loss"]
            want = refmodel.val_loss(ckpt, csv, TRAIN_SPLIT, objective)
            if got is None or not close(got, want, 1e-9):
                return f"val loss {got} != reference {want}"
            return None

        return ck.same_or_verified(key, ckpt.read_bytes(), verify)

    horizon = N_BLOCKS * T if objective == "ar" else T
    windows = refmodel.window_count(TRAIN_ROWS, "train", TRAIN_SPLIT, S, horizon)
    spans = ("data.load_csv", "data.window_iter", "training.train", "training.adam_step",
             "training.save_checkpoint", f"rollout.{objective}_loss", "models.forecast",
             "autodiff.gradient")
    return Request("train", key, ["train", "--config", str(cfg)], check, windows, spans)


def eval_request(ck: Checker, key: str, d: Path, csv: Path, ckpt: Path, kind: str) -> Request:
    out = d / key.replace(" ", "_")
    cfg = write_config(d / f"{out.name}.ini", out, _csv_section(csv, EVAL_SPLIT),
                       _model_section(kind), rollout_section(), train_section(1, 0))
    expected = refmodel.window_count(EVAL_ROWS, "test", EVAL_SPLIT, S, HORIZON)

    def check():
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report["window_count"] != expected:
            return f"eval windows {report['window_count']} != {expected}"
        got = report["cumulative"]["mse"]

        def verify():
            want = refmodel.eval_cumulative_mse(ckpt, csv, EVAL_SPLIT, HORIZON)
            return None if close(got, want, 1e-9) else f"cumulative mse {got} != {want}"

        blob = (out / "report.json").read_bytes() + (out / "curve.csv").read_bytes()
        return ck.same_or_verified(key, blob, verify)

    argv = ["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--horizon", str(HORIZON), "--out", str(out)]
    spans = ("data.load_csv", "training.load_checkpoint", "evaluation.evaluate",
             "data.window_iter", "rollout.rollout_predict", "models.forecast")
    return Request("eval", key, argv, check, expected, spans)


def predict_request(ck: Checker, key: str, d: Path, csv: Path, ckpt: Path) -> Request:
    out = d / key.replace(" ", "_")

    def check():
        columns = refmodel.read_header(csv)
        got_columns, values = refmodel.read_csv(out / "predictions.csv")
        if got_columns != columns:
            return f"prediction columns {got_columns} != {columns}"
        if values.shape != (HORIZON, len(columns)) or not np.all(np.isfinite(values)):
            return f"expected {HORIZON} finite rows of {len(columns)}, got {values.shape}"

        def verify():
            want = refmodel.predict(ckpt, csv, HORIZON)
            ok = np.allclose(values, want, rtol=1e-9, atol=1e-12)
            return None if ok else "predictions differ from the reference rollout"

        return ck.same_or_verified(key, (out / "predictions.csv").read_bytes(), verify)

    argv = ["predict", str(csv), "--checkpoint", str(ckpt), "--horizon", str(HORIZON),
            "--out", str(out)]
    spans = ("data.load_csv", "training.load_checkpoint", "rollout.rollout_predict",
             "models.forecast")
    return Request("predict", key, argv, check, spans=spans)


def _train_session(ck: Checker, d: Path, seeds, kind: str, V: int, objectives) -> Session:
    csv = write_series(d / "series.csv", TRAIN_ROWS, V, seeds[0])
    eval_csv = write_series(d / "eval.csv", EVAL_ROWS, V, seeds[3])
    histories = {n: write_series(d / f"history_{n}.csv", n, V, seeds[1] + n)
                 for n in (200, 2000)}
    session = Session()
    for objective in objectives:
        session.round.append(train_request(ck, f"train {objective}", d, csv, kind, objective,
                                           seeds[2]))
    ckpt = d / "train_ar" / "checkpoint.arpt"
    evaluate = eval_request(ck, "eval", d, eval_csv, ckpt, kind)
    # Three evals, each followed by 7 predicts on the short history and 3
    # on the long one: p50 falls among the short predicts and p90 among
    # the long, each about two thirds of the way into its group.
    for _ in range(3):
        session.round.append(evaluate)
        session.round.extend(predict_request(ck, f"predict {n}", d, histories[n], ckpt)
                             for n in (200, 2000, 200, 200, 2000, 200, 200, 200, 2000, 200))
    return session


def _infer_session(ck: Checker, d: Path, seeds) -> Session:
    V = 4
    train_csv = write_series(d / "train.csv", TRAIN_ROWS, V, seeds[0])
    eval_csv = write_series(d / "eval.csv", EVAL_ROWS, V, seeds[3])
    histories = {n: write_series(d / f"history_{n}.csv", n, V, seeds[1] + n)
                 for n in (200, 2000, 8000)}
    session = Session()
    ckpts = {}
    for kind in ("linear", "inverted_attention"):
        session.setup_requests.append(train_request(ck, f"setup {kind}", d, train_csv, kind,
                                                    "ar", seeds[2]))
        ckpts[kind] = d / f"setup_{kind}" / "checkpoint.arpt"

    # Each round sends the block twice, in halves between four evals. The
    # (rows, kind) weights in a block are 1:2:1:2:1:3, lightest first, so
    # p50 falls inside the (2000, attention) group and p90 inside
    # (8000, attention), never on a boundary between two groups.
    lin, att = "linear", "inverted_attention"
    block = [(200, lin), (2000, att), (8000, att), (200, att), (2000, lin),
             (8000, att), (2000, att), (8000, lin), (200, att), (8000, att)]
    for i, kind in enumerate((lin, att, lin, att)):
        session.round.append(eval_request(ck, f"eval {kind}", d, eval_csv, ckpts[kind], kind))
        session.round.extend(predict_request(ck, f"predict {n} {k}", d, histories[n], ckpts[k])
                             for n, k in block[5 * (i % 2):5 * (i % 2) + 5])
    return session


def setup(name: str, seed: int, d: Path, ck: Checker) -> Session:
    """Write every input of workload ``name`` for ``seed`` into ``d`` and list its requests."""
    d.mkdir(parents=True)
    seeds = [int(s) for s in np.random.SeedSequence(seed % 2**32).generate_state(4)]
    if name == "train_linear":
        return _train_session(ck, d, seeds, "linear", 1, ("ar", "mse"))
    if name == "train_attention":
        return _train_session(ck, d, seeds, "inverted_attention", 4, ("ar",))
    if name == "infer_long":
        return _infer_session(ck, d, seeds)
    raise ValueError(f"unknown workload {name!r}")
