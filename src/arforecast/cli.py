"""Command-line entry point: train, eval, predict, and gradcheck workflows.

Configuration is a single INI file with [dataset], [model], [rollout],
[train], and [output] sections. Every config-driven run writes the fully
defaulted configuration it actually used back into the output directory.
Exit codes: 0 success, 1 runtime failure (including a failed gradient
check), 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DEFAULT_SPLIT,
    SeriesDataset,
    gen_ar_process,
    gen_sinusoid,
    load_csv,
    window_iter,
    write_fresh,
)
from .evaluation import evaluate, export_curve, write_report_json
from .models import KINDS, Dims, NormState, apply_norm, init_forecaster, invert_norm
from .rollout import RolloutConfig, check_gradients, loss_kink_gap, rollout_predict
from .training import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)

GRADCHECK_MAX_PARAMS = 5000
GRADCHECK_STEP = 1e-4


class ConfigError(ValueError):
    """Invalid configuration or command input; maps to exit code 2."""


SOURCES = ("sinusoid", "ar", "csv")
_SYNTHETIC = ("sinusoid", "ar")


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


_FORMATS = {
    float: "{:g}".format,
    _bool: lambda value: str(value).lower(),
    _float_list: lambda value: ",".join(f"{x:g}" for x in value),
}
_PARSERS = {"int": int, "float": float, "str": str}


def _dataclass_keys(section, cls):
    return tuple((section, f.name.lower(), _PARSERS[f.type], f.default, SOURCES)
                 for f in fields(cls))


# (section, key, parser, default, sources the key applies to), in the order
# config_resolved.ini lists them. A MISSING default marks a required key; a
# None value is left out of the resolved config.
SCHEMA = (
    ("dataset", "source", str, MISSING, SOURCES),
    ("dataset", "split", _float_list, DEFAULT_SPLIT, SOURCES),
    ("dataset", "path", Path, MISSING, ("csv",)),
    ("dataset", "has_header", _bool, True, ("csv",)),
    ("dataset", "time_column", str, None, ("csv",)),
    ("dataset", "length", int, MISSING, _SYNTHETIC),
    ("dataset", "variates", int, 1, _SYNTHETIC),
    ("dataset", "noise_std", float, 0.0, _SYNTHETIC),
    ("dataset", "seed", int, 0, _SYNTHETIC),
    ("dataset", "periods", _float_list, (24.0,), ("sinusoid",)),
    ("dataset", "amplitude", float, 1.0, ("sinusoid",)),
    ("dataset", "coeffs", _float_list, MISSING, ("ar",)),
    ("model", "kind", str, MISSING, SOURCES),
    ("model", "hidden", int, 0, SOURCES),
    *_dataclass_keys("rollout", RolloutConfig),
    *_dataclass_keys("train", TrainConfig),
    ("output", "dir", Path, None, SOURCES),
)


def _one_of(section: str, key: str, value, choices: tuple[str, ...]) -> None:
    if value not in choices:
        allowed = ", ".join(choices[:-1]) + f", or {choices[-1]}"
        raise ConfigError(f"[{section}] {key} must be {allowed}, got {value!r}")


def _parse(section, key, parser, default, raw):
    if raw is None or raw == "":
        if default is MISSING:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        return default
    try:
        return parser(raw)
    except ValueError:
        name = parser.__name__.lstrip("_").replace("_", " ")
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {name}") from None


class RunConfig:
    """Parsed, validated, fully defaulted run configuration.

    ``values[section][key]`` holds every SCHEMA key that applies to the
    dataset source; ``rollout``, ``train`` and ``out_dir`` are built from it.
    """

    def __init__(self, path, out_override=None, seed_override=None):
        parser = configparser.ConfigParser(interpolation=None)  # a '%' is taken literally
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc

        keys: dict[str, set[str]] = {}
        for section, key, *_ in SCHEMA:
            keys.setdefault(section, set()).add(key)
        raw = {name: dict(parser.items(name)) for name in parser.sections()}
        for name, items in raw.items():
            if name not in keys:
                raise ConfigError(f"unknown config section [{name}]")
            for key in items:
                if key not in keys[name]:
                    raise ConfigError(f"[{name}] unknown key {key!r}")
        for name in dict.fromkeys(row[0] for row in SCHEMA if row[3] is MISSING):
            if name not in raw:
                raise ConfigError(f"missing config section [{name}]")

        self.source = _parse("dataset", "source", str, MISSING, raw["dataset"].get("source"))
        _one_of("dataset", "source", self.source, SOURCES)
        self.values: dict[str, dict] = {}
        for section, key, parse, default, sources in SCHEMA:
            if self.source in sources:
                self.values.setdefault(section, {})[key] = \
                    _parse(section, key, parse, default, raw.get(section, {}).get(key))
        if seed_override is not None:
            self.values["train"]["seed"] = seed_override
        if out_override:
            self.values["output"]["dir"] = Path(out_override)

        ds = self.values["dataset"]
        split = ds["split"]
        if len(split) != 3 or any(r < 0 for r in split) or abs(sum(split) - 1.0) > 1e-9:
            raise ConfigError(f"[dataset] split must be 3 nonnegative ratios summing to 1, "
                              f"got {split}")
        if self.source == "csv":
            if not ds["path"].exists():
                raise ConfigError(f"[dataset] path: no such file {ds['path']}")
        else:
            for key in ("length", "variates"):
                if ds[key] < 1:
                    raise ConfigError(f"[dataset] {key} must be >= 1, got {ds[key]}")
        self.kind = self.values["model"]["kind"]
        _one_of("model", "kind", self.kind, KINDS)
        ro = self.values["rollout"]
        try:
            self.rollout = RolloutConfig(**{f.name: ro[f.name.lower()]
                                            for f in fields(RolloutConfig)})
        except ValueError as exc:
            raise ConfigError(f"[rollout] {exc}") from None
        try:
            self.train = TrainConfig(**self.values["train"])
        except ValueError as exc:
            raise ConfigError(f"[train] {exc}") from None
        self.out_dir = self.values["output"]["dir"]
        if self.out_dir is None:
            raise ConfigError("[output] missing key 'dir' (or pass --out)")

    def build_dataset(self) -> SeriesDataset:
        ds = self.values["dataset"]
        try:
            if self.source == "csv":
                return load_csv(ds["path"], has_header=ds["has_header"],
                                time_column=ds["time_column"], ratios=ds["split"])
            if self.source == "sinusoid":
                periods = ds["periods"]
                if len(periods) == 1:
                    periods = periods * ds["variates"]
                if len(periods) != ds["variates"]:
                    raise ValueError(f"{len(periods)} periods for {ds['variates']} variates")
                return gen_sinusoid(ds["length"], V=ds["variates"], periods=periods,
                                    amplitude=ds["amplitude"], noise_std=ds["noise_std"],
                                    seed=ds["seed"], ratios=ds["split"])
            return gen_ar_process(ds["length"], V=ds["variates"], coeffs=ds["coeffs"],
                                  noise_std=ds["noise_std"], seed=ds["seed"],
                                  ratios=ds["split"])
        except (ValueError, FileNotFoundError) as exc:
            raise ConfigError(f"[dataset] {exc}") from None

    def build_model(self, n_variates: int):
        try:
            dims = Dims(S=self.rollout.S, T=self.rollout.T, L=self.rollout.L,
                        V=n_variates, hidden=self.values["model"]["hidden"])
            return init_forecaster(self.kind, dims, seed=self.train.seed)
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from None

    def write_resolved(self) -> None:
        """Write the keys that apply, defaults filled in, in ``ConfigParser.write``'s layout."""
        sections: dict[str, list[str]] = {}
        for section, key, parse, _, sources in SCHEMA:
            value = self.values[section].get(key)
            if self.source in sources and value is not None:
                text = _FORMATS.get(parse, str)(value).replace("\n", "\n\t")
                sections.setdefault(section, []).append(f"{key} = {text}\n")
        if not self.out_dir.is_dir():
            self.out_dir.mkdir(parents=True, exist_ok=True)
        write_fresh(self.out_dir / "config_resolved.ini", "".join(
            f"[{section}]\n{''.join(lines)}\n" for section, lines in sections.items()))


def _load_checkpoint_or_fail(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {Path(path)}") from None
    except CheckpointError as exc:
        raise ConfigError(str(exc)) from exc


def _rollout_for(ck, horizon: int) -> RolloutConfig:
    """The checkpoint's rollout geometry, extended to ``horizon`` in whole blocks."""
    block = ck.dims.T
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if horizon % block != 0:
        k = horizon // block
        options = [k * block, (k + 1) * block] if k >= 1 else [(k + 1) * block]
        pretty = " or ".join(str(o) for o in options)
        raise ConfigError(
            f"horizon {horizon} is not a multiple of the checkpoint block length "
            f"T={block}; rollouts extend the forecast in whole blocks (k x T), "
            f"so the nearest valid horizons are {pretty}"
        )
    return replace(ck.rollout, n=horizon // block)


def cmd_train(args) -> int:
    cfg = RunConfig(args.config, out_override=args.out, seed_override=args.seed)
    dataset = cfg.build_dataset()
    model = cfg.build_model(dataset.n_variates)
    cfg.write_resolved()

    checkpoint, history = train(model, dataset, cfg.rollout, cfg.train)
    save_checkpoint(checkpoint, cfg.out_dir / "checkpoint.arpt")
    write_history_csv(history, cfg.out_dir / "history.csv")
    print(f"trained {cfg.kind} for {len(history)} epochs; "
          f"best val loss {checkpoint.val_loss:.6g} at epoch {checkpoint.epoch}")
    print(f"outputs in {cfg.out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = RunConfig(args.config, out_override=args.out, seed_override=args.seed)
    ck = _load_checkpoint_or_fail(args.checkpoint)
    roll = _rollout_for(ck, args.horizon)
    dataset = cfg.build_dataset()
    if dataset.n_variates != ck.dims.V:
        raise ConfigError(f"checkpoint was built for {ck.dims.V} variates, "
                          f"dataset has {dataset.n_variates}")
    cfg.write_resolved()

    model = ck.to_forecaster()
    report = evaluate(model, dataset, "test", roll, raw_scale=args.raw_scale)
    write_report_json(report, cfg.out_dir / "report.json")
    export_curve(report, cfg.out_dir / "curve.csv")
    print(f"evaluated {report.window_count} windows over horizon {args.horizon} "
          f"({roll.n} blocks, {report.scale} scale)")
    print(f"cumulative mse {report.cumulative[0]:.6g}, mae {report.cumulative[1]:.6g}, "
          f"block violation rate {report.block_violation_rate:.3f}")
    return 0


@np.errstate(over="raise", invalid="raise")  # an overflow or NaN raises where it happens
def cmd_predict(args) -> int:
    ck = _load_checkpoint_or_fail(args.checkpoint)
    roll = _rollout_for(ck, args.horizon)
    try:
        dataset = load_csv(args.input_csv, has_header=None, ratios=(0.0, 0.0, 1.0))
    except (ValueError, FileNotFoundError) as exc:
        raise ConfigError(str(exc)) from None
    if dataset.values.shape[0] < ck.dims.S:
        raise ConfigError(f"input provides {dataset.values.shape[0]} rows, "
                          f"model context needs at least {ck.dims.S}")
    if dataset.n_variates != ck.dims.V:
        raise ConfigError(f"checkpoint was built for {ck.dims.V} variates, "
                          f"input has {dataset.n_variates}")

    model = ck.to_forecaster()
    context = dataset.values[-ck.dims.S:]
    try:
        state = NormState.from_context(context)
        prediction = rollout_predict(model, apply_norm(context, state), roll)
        values = invert_norm(prediction.values.values, state)
        if not np.isfinite(values).all():
            raise FloatingPointError
    except FloatingPointError:
        raise ConfigError(f"forecast holds non-finite values on the scale of {args.input_csv}; "
                          f"no predictions written") from None

    out_path = Path(args.out, "predictions.csv")
    if not out_path.parent.is_dir():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    row_format = ",".join(["%.17g"] * values.shape[1]) + "\n"
    write_fresh(out_path, ",".join(dataset.columns) + "\n"
                + row_format * values.shape[0] % tuple(values.ravel().tolist()))
    print(f"wrote {values.shape[0]} forecast rows to {out_path}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = RunConfig(args.config, out_override=args.out, seed_override=args.seed)
    dataset = cfg.build_dataset()
    model = cfg.build_model(dataset.n_variates)
    if model.param_count > GRADCHECK_MAX_PARAMS:
        raise ConfigError(f"model has {model.param_count} parameters; gradcheck is "
                          f"limited to {GRADCHECK_MAX_PARAMS} to keep the "
                          f"finite-difference oracle tractable")
    windows = window_iter(dataset, "train", cfg.rollout.S, cfg.rollout.horizon)
    if not windows:
        raise ConfigError("train split supports no windows for this config")
    cfg.write_resolved()

    # prefer a window whose relu/abs inputs sit safely away from the kinks
    window = max(windows[:32], key=lambda w: loss_kink_gap(model, w, cfg.rollout))
    report = check_gradients(model, window, cfg.rollout, h=GRADCHECK_STEP)
    for line in report.lines():
        print(line)
    ok = report.max_rel_error < 1e-5 and report.norm_bound_ok
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, built once; parsing changes neither."""
    parser = argparse.ArgumentParser(
        prog="arforecast",
        description="Train, evaluate, and run rollout forecasts for small time-series models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
    p_train.add_argument("--seed", type=int, default=None, help="override [train] seed")
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--horizon", type=int, required=True,
                        help="total prediction length; must be a multiple of the block length")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--raw-scale", action="store_true",
                        help="report errors on the raw data scale instead of normalized")
    p_eval.set_defaults(handler=cmd_eval)

    p_pred = sub.add_parser("predict", help="roll out a forecast from the tail of a CSV")
    p_pred.add_argument("input_csv")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--horizon", type=int, required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(handler=cmd_predict)

    p_gc = sub.add_parser("gradcheck", help="verify rollout-loss gradients against the oracle")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--out", default=None)
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.set_defaults(handler=cmd_gradcheck)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parsers()
    if argv and argv[0] in commands:  # what the subparser walk would do, without the walk
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:  # help, usage errors and unknown commands
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
