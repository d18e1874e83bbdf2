"""Synthetic series generators, CSV ingestion, and sliding-window sampling.

All randomness goes through the Philox counter-based generator so a fixed
seed reproduces the same series bit-for-bit on any platform. Splits are
chronological and windows never straddle a split boundary.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_SPLIT = (0.7, 0.1, 0.2)


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
        if values.ndim != 2 or 0 in values.shape:
            raise ValueError(f"series values must be (N, V) with N, V >= 1, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name}: series values must be finite")
        n, v = values.shape
        if columns is None:
            columns = [f"var{i}" for i in range(v)]
        if len(columns) != v:
            raise ValueError(f"{len(columns)} column names for {v} variates")
        # np.isclose(sum, 1.0)'s test |sum - 1| <= atol + rtol * 1, without its array wrapping
        if len(ratios) != 3 or any(r < 0 for r in ratios) \
                or not abs(sum(ratios) - 1.0) <= 1e-08 + 1e-05:
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

    def split_range(self, split: str, S: int = 0, horizon: int = 0) -> tuple[int, int]:
        """The split's (lo, hi) rows, refused if they hold no window of S context and
        ``horizon`` future rows."""
        if split not in self.splits:
            raise ValueError(f"unknown split {split!r}, have {sorted(self.splits)}")
        lo, hi = self.splits[split]
        if hi - lo < S + horizon:
            raise ValueError(f"S={S} plus horizon {horizon} needs {S + horizon} rows, "
                             f"but the {split} split has {hi - lo}")
        return lo, hi


def _check_generator(length, V, seed) -> None:
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if V < 1:
        raise ValueError(f"variates must be >= 1, got {V}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def gen_sinusoid(length, V=1, periods=24.0, amplitude=1.0, noise_std=0.0, seed=0,
                 ratios=DEFAULT_SPLIT) -> SeriesDataset:
    """amplitude * sin(2*pi*t / period_v) plus seeded Gaussian noise."""
    _check_generator(length, V, seed)
    if np.size(periods) not in (1, V):
        raise ValueError(f"{np.size(periods)} periods for {V} variates")
    periods = np.broadcast_to(np.asarray(periods, dtype=np.float64), (V,))
    if not np.all((0 < periods) & (periods < np.inf)):
        raise ValueError(f"periods must be positive and finite, got {periods.tolist()}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    t = np.arange(length, dtype=np.float64)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny period's inf is refused below
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
    _check_generator(length, V, seed)
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
    """Unlink ``path``, then write ``content`` (text as UTF-8, or bytes) there as a new file,
    creating its directory if that is missing."""
    data = memoryview(content.encode("utf-8") if isinstance(content, str) else content)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


CHUNK_ROWS = 1024  # rows load_csv turns into floats at a time, which bounds its working memory


def load_csv(path, has_header=True, time_column=None, ratios=DEFAULT_SPLIT) -> SeriesDataset:
    """Comma-separated, '.' decimal, optional header row, optional time column to drop.

    A leading byte order mark is skipped and blank lines are ignored. ``csv.reader`` runs once
    over the open file, and each chunk of ``CHUNK_ROWS`` rows has its widths checked and its
    cells turned into floats by ``float``, then checked finite, so no list of every row is
    kept. A refused file is still read to its end, so invalid UTF-8 anywhere is named first, at
    its position in the file after any byte order mark, as ``bytes.decode`` words it, and a
    ``csv`` error anywhere next; otherwise the error is the first fault in file order. Only a
    refused chunk is checked row by row, for its first ragged row, unparsable cell or
    non-finite value, and a second streamed read up to that row finds its physical line. A file
    that cannot seek (a pipe) is read into memory first, and both reads are of that copy.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    fh, data = _open_text(path), None
    if not fh.seekable():
        with fh:
            data = fh.buffer.read()
        fh = _open_text(path, data)
    with fh:
        reader = csv.reader(fh)
        try:
            try:
                try:
                    names, values = _parse_chunks(path, data, filter(None, reader), has_header,
                                                  time_column)
                except UnicodeDecodeError:
                    raise
                except ValueError:
                    for _ in reader:  # a csv error later in the file is named first
                        pass
                    raise
            except csv.Error as exc:  # e.g. a cell over csv's field size limit
                fault = ValueError(f"{path}: {exc} at line {reader.line_num}")
                for _ in fh:  # invalid UTF-8 later in the file is named first
                    pass
                raise fault from None
        except UnicodeDecodeError as exc:  # exc.object holds the bytes the file read last
            at = fh.buffer.tell() - len(exc.object) + exc.start
            fh.buffer.seek(0)
            at -= 3 if fh.buffer.read(3) == codecs.BOM_UTF8 else 0
            bad = exc.object[exc.start:exc.end]
            where = f"byte 0x{bad[0]:02x} in position {at}" if len(bad) == 1 else \
                f"bytes in position {at}-{at + len(bad) - 1}"
            raise ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}") from None
    return SeriesDataset.from_values(path.stem, values, columns=names, ratios=ratios)


def _open_text(path: Path, data: bytes | None = None):
    """``path`` opened as text the way ``load_csv`` reads it; or ``data``, the bytes read from
    it, if it cannot seek."""
    if data is None:
        return open(path, newline="", encoding="utf-8-sig")
    return io.TextIOWrapper(io.BytesIO(data), newline="", encoding="utf-8-sig")


def _parse_chunks(path, data, rows, has_header, time_column) -> tuple[list[str], np.ndarray]:
    """The column names and (N, V) values of the nonblank csv ``rows`` of ``path`` (or of
    ``data``, its bytes, if not None), parsed CHUNK_ROWS at a time; a ValueError naming the
    first fault in them."""
    first = next(rows, None)
    if first is None:
        raise ValueError(f"{path}: empty file")
    if has_header is None:
        has_header = _is_header(first)
    if has_header:
        names = [c.strip() for c in first]
    elif time_column is None:
        names = [f"var{i}" for i in range(len(first))]
        rows = chain([first], rows)
    else:
        raise ValueError("time_column requires has_header=True")
    width, drop = len(first), None
    done = 1 if has_header else 0  # the nonblank rows before each chunk
    chunk = list(islice(rows, CHUNK_ROWS))
    if not chunk:
        raise ValueError(f"{path}: no data rows")
    if time_column is not None:
        if time_column not in names:
            raise ValueError(f"{path}: time column {time_column!r} not in header {names}")
        drop = names.index(time_column)
        names = names[:drop] + names[drop + 1:]
    chunks = []
    while chunk:
        try:
            if set(map(len, chunk)) != {width}:
                raise ValueError
            values = np.fromiter(map(float, chain.from_iterable(
                chunk if drop is None else [row[:drop] + row[drop + 1:] for row in chunk])),
                np.float64, len(chunk) * len(names)).reshape(len(chunk), len(names))
            if not np.isfinite(values).all():
                raise ValueError
        except ValueError:
            columns = [j for j in range(width) if j != drop]
            for i, row in enumerate(chunk):
                if fault := _row_fault(row, width, columns, names):
                    what, where = fault
                    line = _line_of(path, data, done + i)
                    raise ValueError(f"{path}: {what} at line {line}{where}") from None
        chunks.append(values)
        done += len(chunk)
        chunk = list(islice(rows, CHUNK_ROWS))
    return names, np.concatenate(chunks)


def _is_header(row: list[str]) -> bool:
    """Whether a first row is a header: whether any of its cells is not a number."""
    try:
        [float(cell) for cell in row]
    except ValueError:
        return True
    return False


def _row_fault(row, width, columns, names) -> tuple[str, str] | None:
    """A data row's first fault, as the words before and after its line number: a ragged row,
    then in column order an unparsable cell or a non-finite value; None if it has none."""
    if len(row) != width:
        return "ragged row", f" ({len(row)} cells, expected {width})"
    for j, name in zip(columns, names):
        try:
            if math.isfinite(float(row[j])):
                continue
            what = "non-finite value"
        except ValueError:
            what = f"cannot parse {row[j]!r}"
        return what, f", column {j + 1} ({name!r})"
    return None


def _line_of(path: Path, data: bytes | None, index: int) -> int:
    """The physical line on which nonblank csv row ``index`` (from 0) of ``path`` (or of
    ``data``, its bytes, if not None) ends."""
    with _open_text(path, data) as fh:
        reader = csv.reader(fh)
        next(islice(filter(None, reader), index, None))
        return reader.line_num


def window_iter(ds: SeriesDataset, split: str, S: int, horizon: int,
                stride: int = 1) -> Windows:
    """Every (context, future) window lying fully inside the split.

    Holds floor((split_len - S - horizon) / stride) + 1 windows, as read-only
    views of the series; a split too short for one window raises ``split_range``'s error.
    """
    if S < 1 or horizon < 1 or stride < 1:
        raise ValueError(f"S, horizon, stride must be >= 1, got {S}, {horizon}, {stride}")
    lo, hi = ds.split_range(split, S, horizon)
    # one read-only (V, S + horizon) view per origin, turned to (S + horizon, V)
    spans = sliding_window_view(ds.values[lo:hi], S + horizon, 0)[::stride].transpose(0, 2, 1)
    return Windows(spans[:, :S], spans[:, S:], np.arange(lo, hi - S - horizon + 1, stride))
