#!/usr/bin/env python3
"""Train, evaluate, predict and gradcheck fixed configs, and print the sha256 of every artifact.

A change meant to keep the numerics bit for bit is checked by running this
script in two checkouts and comparing the outputs with ``diff``. It imports
arforecast from the checkout it lives in. Six configs, each trained for 10
epochs: the README demo for linear, mlp (hidden 32) and inverted_attention
(hidden 16, V = 4), inverted_attention with an overlap (hidden 8, V = 3,
L = 3), mlp (hidden 8, V = 2) on the demo series read from a CSV with a
header and a time column, so the CSV loader feeds train, eval and gradcheck,
and linear with S = 30 and L = 2: S is not a multiple of T = 12, so every
rollout window from the fourth on (training's last) cuts a block.
For each it hashes the checkpoint and history, ``resaved.arpt`` (the
checkpoint loaded and saved again, which must equal it byte for byte), the
``eval --horizon 168`` report and curve (normalized and ``--raw-scale``),
``predict --horizon 168`` predictions (which must hold exactly 168 rows), and
``gradcheck`` stdout. ``run.ini`` and ``config_resolved.ini`` name the output
directory, so they are not hashed.

The first line printed names the NumPy version and its BLAS, which the
float results depend on. ``scripts/artifact_hashes.txt`` holds the list for
the current numerics; ``--check`` compares against it, and only when its
first line is this machine's (another NumPy or BLAS may round differently).

Usage:
    python scripts/artifact_hashes.py OUT > hashes.txt
    python scripts/artifact_hashes.py OUT --check scripts/artifact_hashes.txt
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from arforecast import gen_sinusoid  # noqa: E402
from arforecast.cli import main as cli_main  # noqa: E402
from arforecast.training import load_checkpoint, save_checkpoint  # noqa: E402

CONFIGS = {  # name: (kind, hidden, variates, overlap L, dataset source, context S)
    "linear": ("linear", 0, 1, 0, "sinusoid", 48),
    "mlp": ("mlp", 32, 1, 0, "sinusoid", 48),
    "attention": ("inverted_attention", 16, 4, 0, "sinusoid", 48),
    "attention_overlap": ("inverted_attention", 8, 3, 3, "sinusoid", 48),
    "mlp_csv": ("mlp", 8, 2, 0, "csv", 48),
    "linear_partial": ("linear", 0, 1, 2, "sinusoid", 30),
}

DATASETS = {
    "sinusoid": """source = sinusoid
length = 1600
variates = {V}
periods = 144
noise_std = 0.1
seed = 0""",
    # the same series as the sinusoid source, written by write_series_csv
    "csv": """source = csv
path = {out}/series.csv
has_header = true
time_column = time""",
}

INI = """[dataset]
{dataset}

[model]
kind = {kind}
hidden = {hidden}

[rollout]
s = {S}
t = 12
l = {L}
n = 4
gamma = 0.5
beta = 0.1

[train]
lr = 0.01
batch_size = 32
max_epochs = 10
patience = 5
seed = 1
objective = ar

[output]
dir = {out}
"""


def run(*argv: str) -> str:
    """Run one CLI command in-process; its stdout, or exit with its code on failure."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(list(argv))
    if code != 0:
        sys.exit(f"{argv[0]} failed with exit code {code}:\n{stdout.getvalue()}")
    return stdout.getvalue()


def write_series_csv(path: Path, V: int) -> None:
    """The 1600-row sinusoid source as a CSV: a header, then an integer time column first."""
    rows = gen_sinusoid(1600, V=V, periods=144.0, noise_std=0.1, seed=0).values
    np.savetxt(path, np.column_stack([np.arange(len(rows)), rows]),
               fmt=["%d"] + ["%.17g"] * V, delimiter=",",
               header=",".join(["time", *(f"x{j}" for j in range(V))]), comments="")


def produce(root: Path, name: str, kind: str, hidden: int, V: int, L: int, source: str,
            S: int) -> None:
    out = root / name
    out.mkdir(parents=True, exist_ok=True)
    if source == "csv":
        write_series_csv(out / "series.csv", V)
    config = out / "run.ini"
    dataset = DATASETS[source].format(V=V, out=out)
    config.write_text(INI.format(dataset=dataset, kind=kind, hidden=hidden, S=S, L=L, out=out))
    history = out / "history_input.csv"
    rows = gen_sinusoid(200, V=V, periods=144.0, noise_std=0.1, seed=7).values
    np.savetxt(history, rows, fmt="%.17g", delimiter=",",
               header=",".join(f"x{j}" for j in range(V)), comments="")
    checkpoint = str(out / "checkpoint.arpt")
    run("train", "--config", str(config))
    save_checkpoint(load_checkpoint(checkpoint), out / "resaved.arpt")
    if (out / "resaved.arpt").read_bytes() != Path(checkpoint).read_bytes():
        sys.exit(f"{name}: a loaded and resaved checkpoint differs from {checkpoint}")
    run("eval", "--config", str(config), "--checkpoint", checkpoint, "--horizon", "168",
        "--out", str(out / "eval"))
    run("eval", "--config", str(config), "--checkpoint", checkpoint, "--horizon", "168",
        "--out", str(out / "eval_raw"), "--raw-scale")
    run("predict", str(history), "--checkpoint", checkpoint, "--horizon", "168",
        "--out", str(out / "predict"))
    rows = len((out / "predict" / "predictions.csv").read_text().splitlines()) - 1  # the header
    if rows != 168:
        sys.exit(f"{name}: predict wrote {rows} forecast rows for horizon 168")
    (out / "gradcheck.txt").write_text(run("gradcheck", "--config", str(config),
                                           "--out", str(out / "gradcheck")))


def machine_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, blas {blas['name']} {blas.get('version', '')}".rstrip()


def hash_lines(root: Path) -> list[str]:
    """``<sha256>  <path>`` for every file under ``root`` but those naming it, by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}"
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in ("run.ini", "config_resolved.ini")]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="directory for the artifacts (created if missing)")
    p.add_argument("--check", type=Path, help="hash list to compare with; exit 1 on a "
                   "difference, unless its first line names another NumPy or BLAS")
    args = p.parse_args()
    root = args.out.resolve()
    for name, spec in CONFIGS.items():
        produce(root, name, *spec)
    lines = [machine_line()] + hash_lines(root)
    print("\n".join(lines))
    if args.check is not None:
        expected = args.check.read_text().splitlines() or [""]
        if expected[0] != lines[0]:
            print(f"not compared: {args.check} was made with {expected[0]!r}", file=sys.stderr)
        elif expected != lines:
            sys.exit(f"hashes differ from {args.check}:\n" + "\n".join(
                difflib.unified_diff(expected, lines, str(args.check), "this run", lineterm="")))


if __name__ == "__main__":
    main()
