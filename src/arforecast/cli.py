"""Command-line entry point: train, eval, predict, and gradcheck workflows.

Configuration is a single INI file with [dataset], [model], [rollout],
[train], and [output] sections. Every config-driven run writes the fully
defaulted configuration it actually used back into the output directory
(eval, the keys it reads).
Exit codes: 0 success, 1 runtime failure (including a failed gradient
check), 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
from .models import KINDS, STD_FLOOR, Dims, init_forecaster, invert_norm
from .rollout import RolloutConfig, check_gradients, loss_kink_gap, rollout_predict
from .training import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    objective_horizon,
    save_checkpoint,
    train,
    write_history_csv,
)

GRADCHECK_MAX_PARAMS = 5000


class ConfigError(ValueError):
    """Invalid configuration or command input; maps to exit code 2."""


SOURCES = ("sinusoid", "ar", "csv")
_SYNTHETIC = ("sinusoid", "ar")


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1", "yes")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


def _float_text(x: float) -> str:
    """``x`` as ``{:g}`` writes it when that reads back as ``x``, else as ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


_FORMATS = {
    float: _float_text,
    _bool: lambda value: str(value).lower(),
    _float_list: lambda value: ",".join(map(_float_text, value)),
}
_PARSERS = {"int": int, "float": float, "str": str}


def _dataclass_keys(section, cls):
    return tuple((section, f.name, _PARSERS[f.type], f.default, SOURCES) for f in fields(cls))


def _generator_keys():
    """A [dataset] row for each synthetic source whose generator takes the key's parameter,
    defaulting to the generator's default as the config's value would parse."""
    for key, parse, name in (("variates", int, "V"), ("noise_std", float, "noise_std"),
                             ("seed", int, "seed"), ("periods", _float_list, "periods"),
                             ("amplitude", float, "amplitude")):
        for source, generate in (("sinusoid", gen_sinusoid), ("ar", gen_ar_process)):
            parameters = inspect.signature(generate).parameters
            if name in parameters:  # the str of a float parses back to it
                yield "dataset", key, parse, parse(str(parameters[name].default)), (source,)


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
    *_generator_keys(),
    ("dataset", "coeffs", _float_list, MISSING, ("ar",)),
    ("model", "kind", str, MISSING, SOURCES),
    ("model", "hidden", int, 0, SOURCES),
    ("rollout", "s", int, MISSING, SOURCES),
    ("rollout", "t", int, MISSING, SOURCES),
    ("rollout", "l", int, 0, SOURCES),
    *_dataclass_keys("rollout", RolloutConfig),
    *_dataclass_keys("train", TrainConfig),
    ("output", "dir", Path, None, SOURCES),
)


_SECTION_KEYS = {section: {row[1] for row in SCHEMA if row[0] == section}
                 for section in dict.fromkeys(row[0] for row in SCHEMA)}
# each source's keys, {(section, key): (parser, default)} in SCHEMA order
_SOURCE_SCHEMA = {source: {row[:2]: row[2:4] for row in SCHEMA if source in row[4]}
                  for source in SOURCES}
_ROLLOUT_KEYS = tuple(f.name for f in fields(RolloutConfig))
# the keys only training reads: eval neither parses nor writes them back
_TRAINING_KEYS = {("rollout", key) for key in _ROLLOUT_KEYS} | \
    {("train", key) for key in _SECTION_KEYS["train"]}
_EVAL_SCHEMA = {source: {key: spec for key, spec in schema.items() if key not in _TRAINING_KEYS}
                for source, schema in _SOURCE_SCHEMA.items()}
_REQUIRED_SECTIONS = tuple(dict.fromkeys(row[0] for row in SCHEMA if row[3] is MISSING))


def _read_plain_ini(text: str, source: str = "<string>") -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` from ``text``, each of whose lines must be blank, a comment
    ('#' or ';' first), an unindented ``[section]`` header (not DEFAULT, not repeated) or an
    unindented ``key = value`` line in a section (no ':' before the '=', the key lowercased
    and not repeated). Values are kept as written, stripped. Any other line raises one
    ``ConfigError`` line naming ``source``, the line's number and what is wrong with it."""
    sections: dict[str, dict[str, str]] = {}
    items = None
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            problem = "is indented; continuation lines are not read"
        elif stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name or "[" in name or "]" in name:
                problem = "is not a '[section]' header"
            elif name in sections:
                problem = "repeats a section"
            elif name == "DEFAULT":
                problem = "is not a config section"
            else:
                items = sections[name] = {}
                continue
        elif items is None:
            problem = "comes before any '[section]' header"
        else:
            eq = stripped.find("=")
            key = stripped[:eq].rstrip().lower()
            if eq < 1 or ":" in key:
                problem = "is not a 'key = value' line"
            elif key in items:
                problem = "repeats a key of its section"
            else:
                items[key] = stripped[eq + 1:].strip()
                continue
        raise ConfigError(f"{source}, line {number}: {stripped!r} {problem}")
    return sections


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
    dataset source; ``geometry`` (the ``Dims`` of ``[rollout]`` s, t and l),
    ``rollout``, ``train`` and ``out_dir`` are built from it. Without
    ``training``, the ``[train]`` keys and ``[rollout]`` n, gamma and beta are
    neither parsed nor held (``rollout`` and ``train`` are None), though a key
    name no source reads is still refused.
    """

    def __init__(self, path, out_override=None, seed_override=None, training=True):
        path = Path(path)
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
            # a byte order mark is not text, and a part of one is not UTF-8
            text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ConfigError(f"cannot read config file {path}: {reason}") from None
        raw = _read_plain_ini(text, str(path))
        for name in raw:
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown config section [{name}]")
        for name in _REQUIRED_SECTIONS:
            if name not in raw:
                raise ConfigError(f"missing config section [{name}]")

        self.source = _parse("dataset", "source", str, MISSING, raw["dataset"].get("source"))
        _one_of("dataset", "source", self.source, SOURCES)
        for name, items in raw.items():
            for key in items:
                if (name, key) not in _SOURCE_SCHEMA[self.source]:
                    raise ConfigError(f"[{name}] key {key!r} does not apply to source "
                                      f"{self.source!r}" if key in _SECTION_KEYS[name]
                                      else f"[{name}] unknown key {key!r}")
        self._schema = (_SOURCE_SCHEMA if training else _EVAL_SCHEMA)[self.source]
        self.values: dict[str, dict] = {section: {} for section in _SECTION_KEYS}
        for (section, key), (parse, default) in self._schema.items():
            given = raw[section].get(key) if section in raw else None
            self.values[section][key] = _parse(section, key, parse, default, given) \
                if given or default is MISSING else default
        if seed_override is not None:
            self.values["train"]["seed"] = seed_override
        if out_override:
            self.values["output"]["dir"] = Path(out_override)

        self.kind = self.values["model"]["kind"]
        _one_of("model", "kind", self.kind, KINDS)
        ro = self.values["rollout"]
        try:
            self.geometry = Dims(S=ro["s"], T=ro["t"], L=ro["l"])
            self.rollout = RolloutConfig(**{key: ro[key] for key in _ROLLOUT_KEYS}) \
                if training else None
        except ValueError as exc:
            raise ConfigError(f"[rollout] {exc}") from None
        try:
            self.train = TrainConfig(**self.values["train"]) if training else None
        except ValueError as exc:
            raise ConfigError(f"[train] {exc}") from None
        self.out_dir = self.values["output"]["dir"]
        if self.out_dir is None:
            raise ConfigError("[output] missing key 'dir' (or pass --out)")
        out = str(self.out_dir)
        if "\n" in out or "\r" in out:  # config_resolved.ini holds it on one line
            raise ConfigError(f"[output] dir must be one line, got {out!r}")

    def build_dataset(self, S: int) -> SeriesDataset:
        """The configured series, refused if z-scoring its S-row contexts could overflow."""
        ds = self.values["dataset"]
        try:
            if self.source == "csv":
                dataset = load_csv(ds["path"], has_header=ds["has_header"],
                                   time_column=ds["time_column"], ratios=ds["split"])
            elif self.source == "sinusoid":
                dataset = gen_sinusoid(ds["length"], V=ds["variates"], periods=ds["periods"],
                                       amplitude=ds["amplitude"], noise_std=ds["noise_std"],
                                       seed=ds["seed"], ratios=ds["split"])
            else:
                dataset = gen_ar_process(ds["length"], V=ds["variates"], coeffs=ds["coeffs"],
                                         noise_std=ds["noise_std"], seed=ds["seed"],
                                         ratios=ds["split"])
        except (ValueError, OSError) as exc:  # OSError: a path that is a directory, unreadable
            raise ConfigError(f"[dataset] {exc}") from None
        # A window's z-score sums at most N values of size <= peak, and at most N squared
        # deviations of size <= spread**2; the values it gives are at most spread / std in
        # size, std being an S-row context's floored at STD_FLOOR, and a loss sums at most N
        # of their squares. Keeping these sums finite keeps every one finite. The smallest
        # context std is worked out only when the floor alone would let them overflow.
        values = dataset.values
        top, bottom = values.max(0).tolist(), values.min(0).tolist()
        limit = sys.float_info.max / len(values)
        peak = max(max(top), -min(bottom))
        spread = max(t - b for t, b in zip(top, bottom))  # float subtraction overflows to inf
        if peak > limit or spread > math.sqrt(limit):
            raise ConfigError(f"[dataset] {dataset.name}: values up to {peak:.3g} (spread "
                              f"{spread:.3g}) overflow a z-score over {len(values)} rows")
        if spread / STD_FLOOR > math.sqrt(limit):
            contexts = sliding_window_view(values, min(S, len(values)), 0)
            std = max(float(contexts.std(axis=2).min()), STD_FLOOR)
            if spread / std > math.sqrt(limit):
                raise ConfigError(f"[dataset] {dataset.name}: values spread {spread:.3g} apart "
                                  f"overflow the z-score of an S={S} context with std "
                                  f"{std:.3g} over {len(values)} rows")
        return dataset

    def build_model(self, n_variates: int):
        try:
            g = self.geometry
            dims = Dims(g.S, g.T, g.L, n_variates, self.values["model"]["hidden"])
            return init_forecaster(self.kind, dims, seed=self.train.seed)
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from None

    def write_resolved(self) -> None:
        """Write the keys that apply, defaults filled in, as the plain INI the reader takes."""
        sections: dict[str, list[str]] = {}
        for (section, key), (parse, _) in self._schema.items():
            value = self.values[section][key]
            if value is not None:
                text = _FORMATS.get(parse, str)(value)
                sections.setdefault(section, []).append(f"{key} = {text}\n")
        write_fresh(os.path.join(self.out_dir, "config_resolved.ini"), "".join(
            f"[{section}]\n{''.join(lines)}\n" for section, lines in sections.items()))


def check_split(dataset: SeriesDataset, split: str, S: int, horizon: int) -> None:
    """A split too short for one window of S context and ``horizon`` future rows exits 2 with
    one ``[rollout]`` line."""
    try:
        dataset.split_range(split, S, horizon)
    except ValueError as exc:
        raise ConfigError(f"[rollout] {exc}") from None


def _load_checkpoint_or_fail(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {Path(path)}") from None
    except (OSError, CheckpointError) as exc:  # e.g. a directory, or a malformed file
        raise ConfigError(str(exc)) from exc


def _rollout_for(ck, horizon: int) -> RolloutConfig:
    """A rollout of the checkpoint's model over ``horizon`` steps, in whole blocks."""
    block = ck.dims.T
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if horizon % block != 0:
        k = horizon // block
        pretty = " or ".join(str(o) for o in (k * block, (k + 1) * block) if o > 0)
        raise ConfigError(f"horizon {horizon} is not a multiple of the checkpoint block length "
                          f"T={block}; rollouts extend the forecast in whole blocks (k x T), "
                          f"so the nearest valid horizons are {pretty}")
    return RolloutConfig(n=horizon // block)


def _finite(compute, numbers, failure: str):
    """``compute()``, with an overflow or NaN raising where it happens; exits 2 with the one
    line ``failure`` if one does or ``numbers(result)`` holds a non-finite value."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            result = compute()
            if np.isfinite(numbers(result)).all():
                return result
    except FloatingPointError:
        pass
    raise ConfigError(failure)


def cmd_train(args) -> int:
    cfg = RunConfig(args.config, out_override=args.out, seed_override=args.seed)
    dataset = cfg.build_dataset(cfg.geometry.S)
    model = cfg.build_model(dataset.n_variates)
    horizon = objective_horizon(cfg.rollout, model.dims.T, cfg.train.objective)
    for split in ("train", "val"):
        check_split(dataset, split, model.dims.S, horizon)
    cfg.write_resolved()

    checkpoint, history = train(model, dataset, cfg.rollout, cfg.train)
    save_checkpoint(checkpoint, os.path.join(cfg.out_dir, "checkpoint.arpt"))
    write_history_csv(history, os.path.join(cfg.out_dir, "history.csv"))
    print(f"trained {cfg.kind} for {len(history)} epochs; "
          f"best val loss {checkpoint.val_loss:.6g} at epoch {checkpoint.epoch}")
    print(f"outputs in {cfg.out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = RunConfig(args.config, out_override=args.out, training=False)
    ck = _load_checkpoint_or_fail(args.checkpoint)
    roll = _rollout_for(ck, args.horizon)
    dims = ck.dims
    for section, theirs in (("rollout", {"s": dims.S, "t": dims.T, "l": dims.L}),
                            ("model", {"kind": ck.kind, "hidden": dims.hidden})):
        mine = {key: cfg.values[section][key] for key in theirs}
        if mine != theirs:  # n comes from --horizon; gamma and beta weigh only training
            mine, theirs = (", ".join(f"{k} = {v}" for k, v in d.items()) for d in (mine, theirs))
            raise ConfigError(f"[{section}] {mine} do not match the checkpoint's {theirs}")
    dataset = cfg.build_dataset(dims.S)
    if dataset.n_variates != dims.V:
        raise ConfigError(f"checkpoint was built for {dims.V} variates, "
                          f"dataset has {dataset.n_variates}")
    check_split(dataset, "test", dims.S, roll.n * dims.T)

    model = ck.to_forecaster()
    report = _finite(lambda: evaluate(model, dataset, "test", roll, raw_scale=args.raw_scale),
                     lambda report: [report.cumulative, *report.per_block],
                     f"test errors under {args.checkpoint} are not finite; nothing written")
    cfg.write_resolved()
    write_report_json(report, os.path.join(cfg.out_dir, "report.json"))
    export_curve(report, os.path.join(cfg.out_dir, "curve.csv"))
    print(f"evaluated {report.window_count} windows over horizon {args.horizon} "
          f"({roll.n} blocks, {report.scale} scale)")
    print(f"cumulative mse {report.cumulative[0]:.6g}, mae {report.cumulative[1]:.6g}, "
          f"block violation rate {report.block_violation_rate:.3f}")
    return 0


def format_rows(values: np.ndarray) -> str:
    """The rows of a 2-d array as CSV lines, each value ``%.17g``: all of them through one
    format string, the fastest spelling of that text."""
    row_format = ",".join(["%.17g"] * values.shape[1]) + "\n"
    return row_format * values.shape[0] % tuple(values.ravel().tolist())


def cmd_predict(args) -> int:
    ck = _load_checkpoint_or_fail(args.checkpoint)
    roll = _rollout_for(ck, args.horizon)
    try:
        dataset = load_csv(args.input_csv, has_header=None, ratios=(0.0, 0.0, 1.0))
    except (ValueError, OSError) as exc:  # OSError: missing, a directory, unreadable
        raise ConfigError(str(exc)) from None
    if dataset.values.shape[0] < ck.dims.S:
        raise ConfigError(f"input provides {dataset.values.shape[0]} rows, "
                          f"model context needs at least {ck.dims.S}")
    if dataset.n_variates != ck.dims.V:
        raise ConfigError(f"checkpoint was built for {ck.dims.V} variates, "
                          f"input has {dataset.n_variates}")

    def forecast():
        blocks, state = rollout_predict(ck.to_forecaster(), dataset.values[-ck.dims.S:], roll)
        return invert_norm(np.concatenate([block.values for block in blocks]), state)

    values = _finite(forecast, lambda values: values, f"forecast holds non-finite values on "
                     f"the scale of {args.input_csv}; no predictions written")

    out_path = os.path.join(args.out, "predictions.csv")  # as given: no pathlib parse per call
    write_fresh(out_path, ",".join(dataset.columns) + "\n" + format_rows(values))
    print(f"wrote {values.shape[0]} forecast rows to {out_path}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = RunConfig(args.config, out_override=args.out, seed_override=args.seed)
    dataset = cfg.build_dataset(cfg.geometry.S)
    model = cfg.build_model(dataset.n_variates)
    if model.param_count > GRADCHECK_MAX_PARAMS:
        raise ConfigError(f"model has {model.param_count} parameters; gradcheck is "
                          f"limited to {GRADCHECK_MAX_PARAMS} to keep the "
                          f"finite-difference oracle tractable")
    S, horizon = model.dims.S, cfg.rollout.n * model.dims.T
    check_split(dataset, "train", S, horizon)
    windows = window_iter(dataset, "train", S, horizon)
    cfg.write_resolved()

    # prefer a window whose relu inputs and penalty gaps sit safely away from the kinks
    window = max(windows[:32], key=lambda w: loss_kink_gap(model, w, cfg.rollout))
    report = check_gradients(model, window, cfg.rollout)
    for line in report.lines():
        print(line)
    ok = report.max_rel_error < 1e-5 and report.norm_bound_ok
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# Each command's help, handler and arguments, as (name, argparse keywords) in the order its
# usage lists them. build_parsers and _parse_plain both read this table; an argument's keywords
# are "required", "type", "help" and ``action="store_true"``.
COMMANDS = {
    "train": ("train a model from a config file", cmd_train, (
        ("--config", {"required": True}),
        ("--out", {"help": "output directory (overrides [output] dir)"}),
        ("--seed", {"type": int, "help": "override [train] seed"}))),
    "eval": ("evaluate a checkpoint on the test split", cmd_eval, (
        ("--config", {"required": True}),
        ("--checkpoint", {"required": True}),
        ("--horizon", {"type": int, "required": True, "help": "total prediction length; "
                       "must be a multiple of the block length"}),
        ("--out", {}),
        ("--raw-scale", {"action": "store_true", "help": "report errors on the raw data "
                         "scale instead of normalized"}))),
    "predict": ("roll out a forecast from the tail of a CSV", cmd_predict, (
        ("input_csv", {}),
        ("--checkpoint", {"required": True}),
        ("--horizon", {"type": int, "required": True}),
        ("--out", {"required": True}))),
    "gradcheck": ("verify rollout-loss gradients against the oracle", cmd_gradcheck, (
        ("--config", {"required": True}),
        ("--out", {}),
        ("--seed", {"type": int}))),
}


@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, built once; parsing changes neither."""
    parser = argparse.ArgumentParser(prog="arforecast", description="Train, evaluate, and run "
                                     "rollout forecasts for small time-series models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(handler=handler)
    return parser, sub.choices


@functools.cache
def _plain_lookups(command: str):
    """``command``'s arguments by name and its positionals in order, each as (dest, type, is a
    flag); the namespace ``parse_known_args`` starts from; and the dests it requires."""
    _, handler, arguments = COMMANDS[command]
    specs = {name: (name.lstrip("-").replace("-", "_"), keywords.get("type"), "action" in keywords)
             for name, keywords in arguments}
    start = {dest: False if flag else None for dest, _, flag in specs.values()}
    required = {specs[name][0] for name, keywords in arguments
                if keywords.get("required", not name.startswith("-"))}
    positionals = [spec for name, spec in specs.items() if not name.startswith("-")]
    return specs, positionals, {**start, "handler": handler}, required


def _parse_plain(command: str, argv: list[str]):
    """The namespace ``parse_known_args(argv)`` of ``command``'s subparser returns with no
    extras, for an ``argv`` of whole option strings (each followed by its value unless it is a
    flag) and positionals, where no value starts with '-', every value converts and every
    required argument is given.

    Any other ``argv`` gives None and is left to argparse: help, abbreviated options,
    ``--opt=value``, values that start with '-', and every usage error.
    """
    options, positionals, start, required = _plain_lookups(command)
    values, given, tokens, pending = dict(start), set(), iter(argv), iter(positionals)
    for token in tokens:
        if token.startswith("-"):
            spec = options.get(token)
            value = None if spec is None or spec[2] else next(tokens, "-")
        else:
            spec, value = next(pending, None), token
        if spec is None:
            return None
        dest, convert, flag = spec
        if flag:
            value = True
        elif value.startswith("-"):
            return None
        elif convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        values[dest] = value
        given.add(dest)
    if not required <= given:
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # Namespace(**values) sets them one by one, in Python
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:  # help, usage errors, unknown commands and the argv forms left to argparse
        args = build_parsers()[0].parse_args(argv)
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
