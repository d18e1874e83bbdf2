"""The per-cell CSV loader ``arforecast.data.load_csv`` replaced with a one-pass parse, kept
verbatim as the oracle its fast path is checked against."""

import csv
import math
from pathlib import Path

import numpy as np

from arforecast.data import DEFAULT_SPLIT, SeriesDataset


def load_csv(path, has_header=True, time_column=None, ratios=DEFAULT_SPLIT) -> SeriesDataset:
    """Comma-separated, '.' decimal, optional header row, optional time column to drop."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # e.g. a cell over csv's field size limit
            raise ValueError(f"{path}: {exc} at line {reader.line_num}") from None
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ValueError(f"{path}: empty file")
    if has_header is None:  # a first row with any non-numeric cell is a header
        try:
            [float(cell) for cell in rows[0]]
            has_header = False
        except ValueError:
            has_header = True

    line0 = 1
    if has_header:
        names = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
        line0 = 2
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
    parsed = np.empty((len(data_rows), len(names)))
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise ValueError(f"{path}: ragged row at line {line0 + i} "
                             f"({len(row)} cells, expected {width})")
        out_j = 0
        for j, cell in enumerate(row):
            if j == drop:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: cannot parse {cell!r} at line {line0 + i}, "
                                 f"column {j + 1} ({names[out_j]!r})") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite value at line {line0 + i}, "
                                 f"column {j + 1} ({names[out_j]!r})")
            parsed[i, out_j] = value
            out_j += 1
    return SeriesDataset.from_values(path.stem, parsed, columns=names, ratios=ratios)
