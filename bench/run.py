"""arforecast benchmark: drives the CLI in-process and prints end-to-end or per-layer metrics.

    python3 bench/run.py --workload train_linear --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-spec     # rewrite BENCHMARK.json from the tables below

Run from the root of a source checkout; the program is imported from
``src/``. Each run sets up its workload several times (``setup_s`` is the
median), sends rounds of CLI requests for ``--seconds``, checks every
output, then runs a golden-value check and the gradient oracle outside the
timed region. With ``--trace 0`` nothing is traced and the end-to-end
metrics are printed; with ``--trace 1`` rounds alternate untraced and
traced and the per-layer metrics are printed. The last stdout line is the
JSON result; everything the run writes goes under ``.bench_work/`` and is
removed at exit. See bench/README.md for the metric definitions.
"""

import os

# Pin BLAS to one thread before NumPy loads: the target machine has 2 cores
# and the matrices are tiny, so threads only add scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Setups per run; infer_long's setup trains two checkpoints, so it has fewer.
SETUPS = {"train_linear": 20, "train_attention": 20, "infer_long": 5}
RUN_SECONDS = 30
COVERAGE_FLOOR = 0.8

# Every timing is divided by the mean time of calibration_unit() sampled
# around and during it, and multiplied by this constant, the unit's least
# time on a 2-core x86_64 VM (Python 3.11, NumPy 2.4). A shared host there
# switched between a fast and a two-times slower state many times a second,
# in a mix that changed from second to second; the share of slow samples
# during a request tracks the share of its time spent slow.
CALIBRATION_REF_S = 1.9e-4
SAMPLE_PERIOD_S = 0.02  # timer period of the samples taken during a region
BRACKET = 4  # samples just before and just after a region

# (name, unit, better, bound); bound is the share by which a median may worsen.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_windows_per_s", "windows/s", "higher", 0.15),
    ("eval_windows_per_s", "windows/s", "higher", 0.15),
    ("predict_ms_p50", "ms", "lower", 0.15),
    ("predict_ms_p90", "ms", "lower", 0.2),  # ten-seed spread 0.062 on a 2-core VM
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Fixed-seed training runs whose best validation loss is pinned, so a change
# that moves training numerics beyond reordering noise fails the run. The
# values were recorded from the seed code; re-pin them only on purpose.
GOLDEN_RTOL = 1e-6
GOLDEN = {
    "linear_ar": 3.544866652861556,
    "linear_mse": 0.7238804250058176,
    "attention_ar": 6.702140838456522,
}


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def write_spec(workloads: dict, per_layer) -> None:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def import_program():
    src = ROOT / "src"
    if not (src / "arforecast" / "__init__.py").is_file():
        sys.exit(f"bench: no arforecast sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import arforecast.cli
    if not Path(arforecast.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported arforecast from {arforecast.cli.__file__}, not {src}")
    return arforecast


def calibration_unit() -> float:
    """Wall seconds of a fixed loop of small NumPy ops and Python dispatch.

    It runs no program code but does the same kind of work, so it slows
    down with the machine and not with a change to the program.
    """
    w, x, b = np.full((12, 48), 0.5), np.full((48, 4), 0.25), np.ones((12, 1))
    start = perf_counter()
    records = []
    for i in range(40):
        y = w @ x + b
        z = np.concatenate([y[:6], y[6:]], axis=0) * 0.5
        records.append((i, (i - 1,), z.shape, float(z[0, 0])))
    grads = {}
    for i, parents, shape, value in reversed(records):
        grads[i] = grads.get(i, 0.0) + value * len(shape)
    return perf_counter() - start


class Clock:
    """Times a call and scales its wall time by calibration samples.

    ``BRACKET`` samples run just before and just after the call, and a
    timer signal takes one every ``SAMPLE_PERIOD_S`` during it. A sample
    taken during the call is subtracted from its wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.samples.append(calibration_unit())

    def time(self, fn, *args):
        """(result, wall seconds, scaled seconds) of ``fn(*args)``."""
        self.samples = [calibration_unit() for _ in range(BRACKET)]
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start - sum(self.samples[BRACKET:])
        self.samples.extend(calibration_unit() for _ in range(BRACKET))
        return result, wall, wall * CALIBRATION_REF_S / statistics.fmean(self.samples)


class Runner:
    """Sends CLI requests in-process, times them, and counts failures."""

    def __init__(self, program):
        self.program = program
        self.clock = Clock()
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str, error: str) -> None:
        self.failures.append(f"{what}: {error}")
        print(f"bench: FAIL {what}: {error}", file=sys.stderr)

    def call(self, req) -> tuple[float, float]:
        """(wall, scaled) seconds of one request; its output check runs after the clock stops."""
        self.attempted += 1
        with contextlib.redirect_stdout(_Discard()):
            code, wall, scaled = self.clock.time(self.program.cli.main, req.argv)
        try:
            error = f"exit code {code}" if code != 0 else req.check()
        except Exception:  # noqa: BLE001 - a broken output is a failed request
            error = traceback.format_exc(limit=-3)
        if error:
            self.fail(" ".join(req.argv[:3]), error)
        return wall, scaled


def typical_times(samples) -> dict[str, float]:
    """Median scaled time per request key over (request, scaled time) pairs."""
    by_key: dict[str, list[float]] = {}
    for req, t in samples:
        by_key.setdefault(req.key, []).append(t)
    return {key: statistics.median(ts) for key, ts in by_key.items()}


def rate(requests, times) -> float:
    """Windows per second of ``requests``, each taking its typical time."""
    return sum(r.windows for r in requests) / sum(times[r.key] for r in requests)


def run_rounds(runner, session, seconds, tracer=None):
    """(request, wall, scaled, traced) for whole rounds sent until time is up.

    With a tracer, rounds alternate untraced and traced, ending traced.
    """
    sent = []
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds == 0 or perf_counter() < deadline or (tracer and rounds % 2):
        traced = tracer is not None and rounds % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            sent.extend((req, *runner.call(req), traced) for req in session.round)
        rounds += 1
    return sent, rounds


def golden_and_gradcheck(runner, wl, d: Path) -> dict:
    """Fixed-seed checks outside the timed region; returns the measured golden values."""
    from refmodel import read_checkpoint

    d.mkdir(parents=True)
    small = wl.rollout_section(s=12, t=4, n=3)
    sine = {"source": "sinusoid", "length": 600, "variates": 1, "periods": 24,
            "noise_std": 0.1, "seed": 7}
    sine2 = dict(sine, variates=2, periods="24,48")
    linear, attention = {"kind": "linear", "hidden": 0}, {"kind": "inverted_attention", "hidden": 4}
    runs = {
        "linear_ar": (sine, linear, wl.train_section(2, 1, "ar")),
        "linear_mse": (sine, linear, wl.train_section(2, 1, "mse")),
        "attention_ar": (sine2, attention, wl.train_section(2, 1, "ar")),
    }
    measured = {}
    for name, (dataset, model, train) in runs.items():
        out = d / name
        cfg = wl.write_config(d / f"{name}.ini", out, dataset, model, small, train)

        def check(ckpt=out / "checkpoint.arpt", name=name):
            measured[name] = read_checkpoint(ckpt)[0]["meta"]["val_loss"]
            if not wl.close(measured[name], GOLDEN[name], GOLDEN_RTOL):
                return f"golden val loss {measured[name]!r} != {GOLDEN[name]!r}"
            return None

        runner.call(wl.Request("train", name, ["train", "--config", str(cfg)], check))

    for name, model, dataset in (("linear", linear, sine), ("attention", attention, sine2)):
        cfg = wl.write_config(d / f"gradcheck_{name}.ini", d / f"gradcheck_{name}",
                              dataset, model, small, wl.train_section(1, 3))
        runner.call(wl.Request("gradcheck", name, ["gradcheck", "--config", str(cfg)],
                               lambda: None))
    return measured


def check_trace(runner, tracer, requests, request_ids, coverage) -> None:
    """Fail the run when the tracer could not see the program's layers.

    Every wrapper target must resolve, every traced request must record the
    spans its kind runs through, and the wrapped functions below ``cli.main``
    must hold at least ``COVERAGE_FLOOR`` of the traced wall time.
    """
    from spans import names_by_request

    runner.attempted += 3
    if tracer.missing:
        runner.fail("trace targets", f"not found: {sorted(tracer.missing)}")
    names = names_by_request(tracer.spans, request_ids)
    unseen = {f"{req.key}: {sorted(set(req.spans) - names[i])}"
              for req, i in zip(requests, request_ids, strict=True)
              if not set(req.spans) <= names[i]}
    if unseen:
        runner.fail("trace spans", f"missing under {sorted(unseen)}")
    if not coverage >= COVERAGE_FLOOR:
        runner.fail("trace coverage", f"{coverage:.4f} below {COVERAGE_FLOOR}")


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def run(args, program, work: Path) -> tuple[dict, Runner, dict]:
    import workloads
    from spans import Tracer, layer_metrics

    runner = Runner(program)
    checker = workloads.Checker()
    tracer = Tracer() if args.trace else None
    setup_times, setup_samples = [], []
    for i in range(SETUPS[args.workload]):
        with tracer.installed() if tracer else contextlib.nullcontext():
            session, _, prepared = runner.clock.time(
                workloads.setup, args.workload, args.seed, work / f"setup{i}", checker)
            calls = [(req, *runner.call(req)) for req in session.setup_requests]
        setup_times.append(prepared + sum(t for _, _, t in calls))
        setup_samples.extend((req, t) for req, _, t in calls)

    first_traced_span = len(tracer.spans) if tracer else 0
    sent, rounds = run_rounds(runner, session, args.seconds, tracer)
    golden = golden_and_gradcheck(runner, workloads, work / "golden")
    counts = {"setups": len(setup_times), "rounds": rounds}

    def of_kind(kind):
        return [r for r in session.round if r.kind == kind]

    if not args.trace:
        times = typical_times((req, t) for req, _, t, _ in sent)
        trains = of_kind("train")
        if not trains:  # infer_long trains only in setup
            trains, times = session.setup_requests, {**times, **typical_times(setup_samples)}
        predicts = [t for req, _, t, _ in sent if req.kind == "predict"]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_windows_per_s": rate(trains, times),
            "eval_windows_per_s": rate(of_kind("eval"), times),
            "predict_ms_p50": 1e3 * statistics.median(predicts),
            "predict_ms_p90": 1e3 * statistics.quantiles(predicts, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts.update(requests_per_round=len(session.round), predict_samples=len(predicts))
    else:
        plain = typical_times((req, t) for req, _, t, traced in sent if not traced)
        traced = typical_times((req, t) for req, _, t, traced in sent if traced)
        traced_wall = sum(wall for _, wall, _, traced in sent if traced)
        request_ids = [i for i, s in enumerate(tracer.spans)
                       if i >= first_traced_span and s[0] == "cli.main" and s[3] == -1]
        metrics = layer_metrics(tracer.spans, traced_wall, set(request_ids))
        metrics["trace.overhead_ratio"] = (sum(traced[r.key] for r in session.round)
                                           / sum(plain[r.key] for r in session.round))
        check_trace(runner, tracer, [req for req, *_, t in sent if t], request_ids,
                    metrics["trace.coverage"])
        counts.update(spans=len(tracer.spans), traced_requests=len(request_ids))
    return metrics, runner, {"counts": counts, "golden_val_loss": golden}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    program = import_program()
    import workloads
    from spans import PER_LAYER

    if args.write_spec:
        write_spec(workloads.WORKLOADS, PER_LAYER)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, runner, extra = run(args, program, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    print(json.dumps({"machine": machine_info(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **extra}))
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    failed = len(runner.failures)
    print(f"{'fail_ratio':44s} {failed / runner.attempted:14.6g} "
          f"({failed} failed / {runner.attempted} attempted)")
    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
