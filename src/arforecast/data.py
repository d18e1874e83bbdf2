"""Synthetic series generators, CSV ingestion, and sliding-window sampling.

All randomness goes through the Philox counter-based generator so a fixed
seed reproduces the same series bit-for-bit on any platform. Splits are
chronological and windows never straddle a split boundary.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_SPLIT = (0.7, 0.1, 0.2)

SPLITS = ("train", "val", "test")


class Windows:
    """N windows as (N, S, V) ``contexts``, (N, H, V) ``futures`` and N ``origins``. An integer
    index (negative as in a sequence) gives a one-window ``Windows``, as iteration does; a slice
    or an index array gives the windows it picks."""

    def __init__(self, contexts: np.ndarray, futures: np.ndarray, origins: np.ndarray):
        self.contexts, self.futures, self.origins = contexts, futures, origins

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]  # IndexError when out of range
            index = slice(i, i + 1)
        return Windows(self.contexts[index], self.futures[index], self.origins[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """C-ordered (S, N*V) contexts and (H, N*V) futures; column n*V + v is window n's v."""
        return tuple(np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1)
                     for a in (self.contexts, self.futures))


@dataclass
class SeriesDataset:
    name: str
    values: np.ndarray
    columns: list[str]
    splits: dict[str, tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def from_values(cls, name, values, columns=None, ratios=DEFAULT_SPLIT) -> "SeriesDataset":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError(f"series values must be (N, V) with N >= 1, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name}: series values must be finite")
        n, v = values.shape
        if columns is None:
            columns = [f"var{i}" for i in range(v)]
        if len(columns) != v:
            raise ValueError(f"{len(columns)} column names for {v} variates")
        if len(ratios) != 3 or any(r < 0 for r in ratios) or not np.isclose(sum(ratios), 1.0):
            raise ValueError(f"split ratios must be 3 nonnegative values summing to 1, got {ratios}")
        n_train = int(n * ratios[0])
        n_val = int(n * ratios[1])
        splits = {
            "train": (0, n_train),
            "val": (n_train, n_train + n_val),
            "test": (n_train + n_val, n),
        }
        return cls(name=name, values=values, columns=list(columns), splits=splits)

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]

    def split_range(self, split: str) -> tuple[int, int]:
        if split not in self.splits:
            raise ValueError(f"unknown split {split!r}, have {sorted(self.splits)}")
        return self.splits[split]


def gen_sinusoid(length, V=1, periods=24.0, amplitude=1.0, noise_std=0.0, seed=0,
                 ratios=DEFAULT_SPLIT) -> SeriesDataset:
    """amplitude * sin(2*pi*t / period_v) plus seeded Gaussian noise."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    periods = np.broadcast_to(np.asarray(periods, dtype=np.float64), (V,))
    if not np.all((0 < periods) & (periods < np.inf)):
        raise ValueError(f"periods must be positive and finite, got {periods.tolist()}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    t = np.arange(length, dtype=np.float64)[:, None]
    values = amplitude * np.sin(2.0 * np.pi * t / periods[None, :])
    if noise_std > 0:
        rng = np.random.Generator(np.random.Philox(seed))
        values = values + rng.normal(0.0, noise_std, size=values.shape)
    return SeriesDataset.from_values("sinusoid", values, ratios=ratios)


def _spectral_radius(coeffs: np.ndarray) -> float:
    p = coeffs.size
    companion = np.zeros((p, p))
    companion[0, :] = coeffs
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    return float(np.max(np.abs(np.linalg.eigvals(companion)))) if p else 0.0


def gen_ar_process(length, V=1, coeffs=(0.9,), noise_std=1.0, seed=0,
                   ratios=DEFAULT_SPLIT) -> SeriesDataset:
    """AR(p) process from zero initial state, first 10*p samples discarded as burn-in."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if noise_std < 0 or noise_std == np.inf:  # a NaN noise gives a NaN series, refused below
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size < 1:
        raise ValueError("coeffs must be a nonempty 1-d sequence")
    radius = _spectral_radius(coeffs)
    if radius >= 1.0:
        raise ValueError(f"nonstationary AR coefficients (spectral radius {radius:.3f} >= 1)")
    p = coeffs.size
    burn = 10 * p
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.normal(0.0, noise_std, size=(length + burn, V))
    x = np.zeros((length + burn + p, V))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(length + burn):
                lags = x[t:t + p][::-1]  # row 0 is lag 1
                x[t + p] = coeffs @ lags + eps[t]
    except FloatingPointError:  # the error from_values gives a series that overflowed to inf
        raise ValueError("ar_process: series values must be finite") from None
    return SeriesDataset.from_values("ar_process", x[p + burn:], ratios=ratios)


def write_fresh(path, content) -> None:
    """Unlink ``path``, then write ``content`` (text as UTF-8, or bytes) there as a new file."""
    data = memoryview(content.encode("utf-8") if isinstance(content, str) else content)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def load_csv(path, has_header=True, time_column=None, ratios=DEFAULT_SPLIT) -> SeriesDataset:
    """Comma-separated, '.' decimal, optional header row, optional time column to drop.

    A leading byte order mark is skipped and blank lines are ignored. Every cell goes through
    ``float`` in one pass; a ragged row, an unparsable cell or a non-finite value raises the
    error that ``_bad_cell_error`` builds by reading the file again cell by cell.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # e.g. a cell over csv's field size limit
            raise ValueError(f"{path}: {exc} at line {reader.line_num}") from None
    rows = [r for r in rows if r]  # tolerate blank lines
    if not rows:
        raise ValueError(f"{path}: empty file")
    if has_header is None:  # a first row with any non-numeric cell is a header
        try:
            [float(cell) for cell in rows[0]]
            has_header = False
        except ValueError:
            has_header = True

    if has_header:
        names = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
    else:
        if time_column is not None:
            raise ValueError("time_column requires has_header=True")
        names = [f"var{i}" for i in range(len(rows[0]))]
        data_rows = rows
    if not data_rows:
        raise ValueError(f"{path}: no data rows")

    drop = None
    if time_column is not None:
        if time_column not in names:
            raise ValueError(f"{path}: time column {time_column!r} not in header {names}")
        drop = names.index(time_column)
        names = names[:drop] + names[drop + 1:]

    width = len(rows[0])  # header row (or first data row) fixes the width
    if set(map(len, rows)) == {width}:
        if drop is not None:
            data_rows = [row[:drop] + row[drop + 1:] for row in data_rows]
        try:
            values = np.fromiter(map(float, chain.from_iterable(data_rows)), np.float64,
                                 len(data_rows) * len(names))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                values = values.reshape(len(data_rows), len(names))
                return SeriesDataset.from_values(path.stem, values, columns=names, ratios=ratios)
    raise _bad_cell_error(path, has_header, width, drop, names)


def _bad_cell_error(path: Path, has_header: bool, width: int, drop: int | None,
                    names: list[str]) -> ValueError:
    """The error naming the first ragged row, unparsable cell or non-finite value of ``path``,
    at the physical line the csv reader has reached."""
    columns = [j for j in range(width) if j != drop]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        if has_header:
            next(rows, None)
        for row in rows:
            line = reader.line_num
            if len(row) != width:
                return ValueError(f"{path}: ragged row at line {line} "
                                  f"({len(row)} cells, expected {width})")
            for j, name in zip(columns, names):
                try:
                    value = float(row[j])
                except ValueError:
                    return ValueError(f"{path}: cannot parse {row[j]!r} at line {line}, "
                                      f"column {j + 1} ({name!r})")
                if not math.isfinite(value):
                    return ValueError(f"{path}: non-finite value at line {line}, "
                                      f"column {j + 1} ({name!r})")
    return ValueError(f"{path}: changed while it was read")


def window_iter(ds: SeriesDataset, split: str, S: int, horizon: int,
                stride: int = 1) -> Windows:
    """Every (context, future) window lying fully inside the split.

    Holds floor((split_len - S - horizon) / stride) + 1 windows, as read-only
    views of the series; a split too short for even one window gives no
    windows, with a warning rather than an error.
    """
    if S < 1 or horizon < 1 or stride < 1:
        raise ValueError(f"S, horizon, stride must be >= 1, got {S}, {horizon}, {stride}")
    lo, hi = ds.split_range(split)
    if hi - lo < S + horizon:
        warnings.warn(
            f"split {split!r} of {ds.name!r} has {hi - lo} rows, "
            f"too short for S={S} + horizon={horizon}; no windows",
            stacklevel=2,
        )
        empty = np.empty((0, S + horizon, ds.n_variates))
        return Windows(empty[:, :S], empty[:, S:], np.arange(0))
    # one read-only (V, S + horizon) view per origin, turned to (S + horizon, V)
    spans = sliding_window_view(ds.values[lo:hi], S + horizon, 0)[::stride].transpose(0, 2, 1)
    return Windows(spans[:, :S], spans[:, S:], np.arange(lo, hi - S - horizon + 1, stride))
