"""The benchmark's plain-NumPy reference agrees with the tests' oracle and with the CLI.

``bench/run.py`` checks the benchmark's train, eval and predict outputs against
``bench/refmodel.py``, which reads the checkpoint and CSV files itself. A drift between it and
the program would otherwise surface only as a benchmark run's ``outputs_incorrect``. It runs
linear and inverted_attention at L = 0, which is what these tests draw.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arforecast.cli import main
from arforecast.training import load_checkpoint
import numpy_oracle

REFMODEL = Path(__file__).resolve().parent.parent / "bench" / "refmodel.py"
SPLIT = (0.6, 0.2, 0.2)


def _load_refmodel():
    spec = importlib.util.spec_from_file_location("bench_refmodel", REFMODEL)
    refmodel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refmodel)
    return refmodel


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(map(str, argv))) == 0


def _oracle_windows(values, split, S, horizon):
    """Each (context, future) window of the split, cut as the CLI cuts them."""
    n_train, n_val = (int(len(values) * ratio) for ratio in SPLIT[:2])
    lo, hi = {"train": (0, n_train), "val": (n_train, n_train + n_val),
              "test": (n_train + n_val, len(values))}[split]
    return [(values[at:at + S], values[at + S:at + S + horizon])
            for at in range(lo, hi - S - horizon + 1)]


def _oracle_errors(kind, p, values, split, S, n, T):
    """The (windows, n) per-block MSE of the split's windows, on each context's scale."""
    errors = []
    for context, future in _oracle_windows(values, split, S, n * T):
        seq, mean, std = numpy_oracle.rollout(kind, p, context, 0, n)
        errors.append(numpy_oracle.block_mse(seq[S:], (future - mean) / std, n))
    return np.array(errors)


@st.composite
def _draws(draw):
    """(kind, hidden, S, T, n, V, objective, rows, seed) at L = 0, with every split holding a
    window."""
    kind = draw(st.sampled_from(["linear", "inverted_attention"]))
    hidden = 0 if kind == "linear" else draw(st.integers(2, 4))
    S, T, n = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = 5 * (S + n * T) + draw(st.integers(0, 20))
    return kind, hidden, S, T, n, draw(st.integers(1, 3)), draw(st.sampled_from(["ar", "mse"])), \
        rows, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None)
@given(_draws())
@example(("linear", 0, 8, 4, 2, 1, "ar", 80, 0))
@example(("inverted_attention", 4, 6, 3, 3, 3, "mse", 100, 1))
def test_refmodel_agrees_with_the_oracle_and_the_cli(draw):
    kind, hidden, S, T, n, V, objective, rows, seed = draw
    refmodel = _load_refmodel()
    rng = np.random.default_rng(seed)
    values = (rng.normal(size=(rows, V)) + rng.uniform(-5.0, 5.0)) * rng.uniform(0.1, 10.0)
    with tempfile.TemporaryDirectory() as home:
        home = Path(home)
        csv, ck = home / "series.csv", home / "train" / "checkpoint.arpt"
        csv.write_text(",".join(f"x{v}" for v in range(V)) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in values.tolist()))
        (home / "run.ini").write_text(
            f"[dataset]\nsource = csv\npath = {csv}\nsplit = {','.join(map(str, SPLIT))}\n"
            f"[model]\nkind = {kind}\nhidden = {hidden}\n"
            f"[rollout]\ns = {S}\nt = {T}\nn = {n}\ngamma = 0.7\nbeta = 0.2\n"
            f"[train]\nlr = 0.01\nbatch_size = 8\nmax_epochs = 1\nseed = {seed % 1000}\n"
            f"objective = {objective}\n[output]\ndir = {home / 'train'}\n")
        _run("train", "--config", home / "run.ini")
        _run("eval", "--config", home / "run.ini", "--checkpoint", ck, "--horizon", n * T,
             "--out", home / "eval")
        _run("predict", csv, "--checkpoint", ck, "--horizon", n * T, "--out", home / "pred")
        header, p = refmodel.read_checkpoint(ck)
        ref_val = refmodel.val_loss(ck, csv, SPLIT, objective)
        ref_eval = refmodel.eval_cumulative_mse(ck, csv, SPLIT, n * T)
        ref_predict = refmodel.predict(ck, csv, n * T)
        cli_eval = json.loads((home / "eval" / "report.json").read_text())["cumulative"]["mse"]
        columns, cli_predict = refmodel.read_csv(home / "pred" / "predictions.csv")
        checkpoint = load_checkpoint(ck)

    assert header["meta"]["val_loss"] == checkpoint.val_loss
    assert np.concatenate([p[name].ravel() for name, _ in header["params"]]).tobytes() == \
        checkpoint.flat.tobytes()
    blocks = n if objective == "ar" else 1
    val = np.mean([numpy_oracle.objective(e, 0.7, 0.2)
                   for e in _oracle_errors(kind, p, values, "val", S, blocks, T)])
    for got in (ref_val, checkpoint.val_loss):
        assert abs(got - val) <= 1e-12 * val
    test_mse = _oracle_errors(kind, p, values, "test", S, n, T).mean()
    for got in (ref_eval, cli_eval):
        assert abs(got - test_mse) <= 1e-12 * test_mse

    context = values[-S:]
    seq, mean, std = numpy_oracle.rollout(kind, p, context, 0, n)
    np.testing.assert_allclose(refmodel.rollout(kind, p, (context - mean) / std, n), seq[S:],
                               rtol=1e-12, atol=1e-14)
    assert columns == [f"x{v}" for v in range(V)]
    for got in (ref_predict, cli_predict):
        np.testing.assert_allclose(got, seq[S:] * std + mean, rtol=1e-12,
                                   atol=1e-12 * np.abs(values).max())
