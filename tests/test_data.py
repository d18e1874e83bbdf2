"""Generators, CSV ingestion, splits, and sliding windows."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arforecast.data import (
    SPLITS,
    SeriesDataset,
    Windows,
    gen_ar_process,
    gen_sinusoid,
    load_csv,
    window_iter,
    write_fresh,
)
from csv_oracle import load_csv as per_cell_load_csv


def test_sinusoid_known_points():
    ds = gen_sinusoid(50, V=1, periods=24.0, amplitude=2.0, noise_std=0.0)
    assert ds.values[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert ds.values[6, 0] == pytest.approx(2.0, rel=1e-12)  # quarter period


def test_sinusoid_determinism():
    a = gen_sinusoid(200, V=2, periods=[24, 7], noise_std=0.5, seed=42)
    b = gen_sinusoid(200, V=2, periods=[24, 7], noise_std=0.5, seed=42)
    assert a.values.tobytes() == b.values.tobytes()
    c = gen_sinusoid(200, V=2, periods=[24, 7], noise_std=0.5, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_white_noise_autocorrelation_near_zero():
    ds = gen_ar_process(10000, coeffs=[0.0], noise_std=1.0, seed=7)
    x = ds.values[:, 0]
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1) < 0.05


def test_ar1_autocorrelation_matches_coefficient():
    ds = gen_ar_process(10000, coeffs=[0.9], noise_std=1.0, seed=11)
    x = ds.values[:, 0]
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r1 == pytest.approx(0.9, abs=0.05)


def test_ar2_matches_direct_recurrence():
    coeffs = [0.5, -0.3]
    ds = gen_ar_process(50, coeffs=coeffs, noise_std=1.0, seed=3)
    # re-run the recurrence by hand from the same seeded innovations
    rng = np.random.Generator(np.random.Philox(3))
    eps = rng.normal(0.0, 1.0, size=(50 + 20, 1))
    x = np.zeros(72)
    for t in range(70):
        x[t + 2] = 0.5 * x[t + 1] - 0.3 * x[t] + eps[t, 0]
    np.testing.assert_allclose(ds.values[:, 0], x[22:], atol=1e-12)


def test_nonstationary_coeffs_rejected():
    with pytest.raises(ValueError, match="nonstationary"):
        gen_ar_process(100, coeffs=[1.1])


@pytest.mark.parametrize("kwargs,match", [
    ({"noise_std": np.nan}, "noise_std"),
    ({"noise_std": -1.0}, "noise_std"),
    ({"periods": np.nan}, "periods"),
    ({"periods": np.inf}, "periods"),
    ({"amplitude": np.nan}, "finite"),
])
def test_sinusoid_rejects_parameters_that_give_no_finite_noisy_series(kwargs, match):
    with pytest.raises(ValueError, match=match):
        gen_sinusoid(100, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_values_must_be_finite(bad):
    values = np.ones((10, 2))
    values[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SeriesDataset.from_values("toy", values)


def test_ar_process_with_nan_noise_is_rejected():
    with pytest.raises(ValueError, match="ar_process: series values must be finite"):
        gen_ar_process(100, noise_std=np.nan)


@pytest.mark.parametrize("noise_std", [np.inf, -1.0])
def test_ar_process_refuses_noise_that_is_infinite_or_negative(noise_std):
    with pytest.raises(ValueError, match=f"noise_std must be finite and >= 0, got {noise_std}"):
        gen_ar_process(100, noise_std=noise_std)


def test_ar_process_that_overflows_is_a_value_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ar_process: series values must be finite"):
            gen_ar_process(100, coeffs=[0.9], noise_std=1e308)


@pytest.mark.parametrize("generate", [
    lambda seed: gen_sinusoid(50, noise_std=0.0, seed=seed),
    lambda seed: gen_sinusoid(50, noise_std=0.1, seed=seed),
    lambda seed: gen_ar_process(50, seed=seed),
], ids=["sinusoid-noiseless", "sinusoid", "ar"])
def test_generators_refuse_a_negative_seed(generate):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        generate(-1)


def test_split_bounds_disjoint_and_ordered():
    ds = gen_sinusoid(1000, noise_std=0.1)
    tr, va, te = ds.splits["train"], ds.splits["val"], ds.splits["test"]
    assert tr == (0, 700) and va == (700, 800) and te == (800, 1000)


def test_load_csv_plain(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("1.5,2.5\n3.5,4.5\n5.5,6.5\n")
    ds = load_csv(p, has_header=False)
    assert ds.values.shape == (3, 2)
    assert ds.columns == ["var0", "var1"]
    np.testing.assert_array_equal(ds.values[1], [3.5, 4.5])


def test_load_csv_time_column(tmp_path):
    p = tmp_path / "ot.csv"
    p.write_text("date,OT\n2020-01-01,1.0\n2020-01-02,2.0\n")
    ds = load_csv(p, has_header=True, time_column="date")
    assert ds.values.shape == (2, 1)
    assert ds.columns == ["OT"]


def test_load_csv_bad_cell_names_coordinates(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError) as err:
        load_csv(p, has_header=True)
    assert "line 3" in str(err.value) and "column 2" in str(err.value)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(p, has_header=False)


def test_load_csv_row_wider_than_header(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(p, has_header=True)


def test_load_csv_non_finite_rejected(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("1.0\ninf\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(p, has_header=False)


@pytest.mark.parametrize("cell", ["nan", "NaN", "-inf", "Infinity", "1e400", "-1e999"])
@pytest.mark.parametrize("text,has_header,time_column,line,column,name", [
    ("1,2\n3,{}\n", False, None, 2, 2, "var1"),
    ("a,b\n1,2\n3,{}\n", True, None, 3, 2, "b"),
    ("t,a,b\n0,1,2\n1,3,{}\n", True, "t", 3, 3, "b"),
    ("a,t,b\n1,0,2\n{},1,3\n", True, "t", 3, 1, "a"),
])
def test_load_csv_names_each_non_finite_spelling(tmp_path, cell, text, has_header,
                                                 time_column, line, column, name):
    p = tmp_path / "bad.csv"
    p.write_text(text.format(cell))
    with pytest.raises(ValueError) as err:
        load_csv(p, has_header=has_header, time_column=time_column)
    assert str(err.value) == f"{p}: non-finite value at line {line}, column {column} ({name!r})"


def test_load_csv_skips_a_byte_order_mark_before_data(tmp_path):
    p = tmp_path / "series.csv"
    p.write_bytes("\ufeff1.5,2.5\n3.5,4.5\n5.5,6.5".encode("utf-8"))
    ds = load_csv(p, has_header=None)
    assert ds.columns == ["var0", "var1"]
    np.testing.assert_array_equal(ds.values, [[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]])


def test_load_csv_skips_a_byte_order_mark_before_a_header(tmp_path):
    p = tmp_path / "ot.csv"
    p.write_bytes("\ufeffdate,a\n2020-01-01,1.0\n2020-01-02,2.0\n".encode("utf-8"))
    ds = load_csv(p, has_header=True, time_column="date")
    assert ds.columns == ["a"]
    np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0])


@pytest.mark.parametrize("text,message", [
    ("a,b\n1,2\n\n3,x", "cannot parse 'x' at line 4, column 2 ('b')"),
    ("a,b\n1,2\n\n\n3\n", "ragged row at line 5 (1 cells, expected 2)"),
    ("a,b\n\"1\n\",2\n3,inf\n", "non-finite value at line 4, column 2 ('b')"),
    ("\n1,2\n3,4\n5,nan\n", "non-finite value at line 4, column 2 ('var1')"),
])
def test_load_csv_names_the_physical_line(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        load_csv(p, has_header=None)
    assert str(err.value) == f"{p}: {message}"


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize("text,columns,first", [
    ("load,temp\n1.5,2.5\n3.5,4.5\n", ["load", "temp"], [1.5, 2.5]),
    ("1.5,2.5\n3.5,4.5\n", ["var0", "var1"], [1.5, 2.5]),
    ("\"load\", 7\n1.5,2.5\n", ["load", "7"], [1.5, 2.5]),  # one word makes a header
    (" 1.5 ,2.5\n3.5,4.5\n", ["var0", "var1"], [1.5, 2.5]),
])
def test_load_csv_detects_header(tmp_path, text, columns, first):
    p = tmp_path / "series.csv"
    p.write_text(text)
    ds = load_csv(p, has_header=None)
    assert ds.columns == columns
    np.testing.assert_array_equal(ds.values[0], first)


def test_load_csv_detected_header_drops_time_column(tmp_path):
    p = tmp_path / "ot.csv"
    p.write_text("date,OT\n2020-01-01,1.0\n2020-01-02,2.0\n")
    ds = load_csv(p, has_header=None, time_column="date")
    assert ds.columns == ["OT"]
    np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0])


def test_write_fresh_replaces_rather_than_truncates(tmp_path):
    path = tmp_path / "out.csv"
    write_fresh(path, "old\n")
    link = tmp_path / "link.csv"
    link.hardlink_to(path)
    write_fresh(path, "new \u00e9\n")
    assert path.read_bytes() == "new \u00e9\n".encode("utf-8")
    assert link.read_text() == "old\n"  # the old file lives on under its other name
    write_fresh(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"


def test_write_fresh_finishes_after_short_writes(tmp_path, monkeypatch):
    real_write, sizes = os.write, []

    def short_write(fd, data):  # at most 3 bytes per call, as a pipe or a full disk may
        sizes.append(real_write(fd, bytes(data[:3])))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    content = "epoch,train_loss\n" + "1,0.25\n" * 5
    write_fresh(tmp_path / "out.csv", content)
    monkeypatch.undo()
    assert (tmp_path / "out.csv").read_text() == content
    assert len(sizes) == -(-len(content) // 3) and set(sizes[:-1]) == {3}


def test_load_csv_unknown_time_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="time column"):
        load_csv(p, has_header=True, time_column="date")


def test_load_csv_cell_over_the_field_limit_names_file_and_line(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("load\n1.0\n" + "1" * 131_073 + "\n2.0\n")
    with pytest.raises(ValueError, match=r"long\.csv: .*field limit.* at line 3"):
        load_csv(p, has_header=None)


_CSV = b"date,load,temp\n2020-01-01,1.5,-2\n2020-01-02,3.25,4e-3\n2020-01-03,-0.5,7\n"
_CSV_BYTES = st.sampled_from([b",", b"\n", b"\r", b'"', b"\x00", b" ", b"e", b"-", b".", b"nan",
                              b"inf", b"1e999", b"\xff", b"\xc3", "\ufeff".encode("utf-8"),
                              b"x" * 131_073, b"1" * 140_000, b'"a\nb"'])


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 3), _CSV_BYTES),
                      max_size=4),
       cut=st.integers(0, len(_CSV)), has_header=st.sampled_from([None, True, False]),
       time_column=st.sampled_from([None, "date", "load"]))
def test_mutated_csv_raises_only_value_errors(tmp_path_factory, edits, cut, has_header,
                                              time_column):
    blob = bytearray(_CSV[:len(_CSV) - cut])
    for where, how, chunk in edits:
        at = where % (len(blob) + 1)
        if how == 0:  # insert
            blob[at:at] = chunk
        elif how == 1:  # overwrite
            blob[at:at + len(chunk)] = chunk
        elif how == 2:  # delete
            del blob[at:at + len(chunk)]
        elif at < len(blob):  # flip bits
            blob[at] ^= chunk[0] or 1
    path = tmp_path_factory.mktemp("csv") / "fuzz.csv"
    path.write_bytes(bytes(blob))
    try:
        ds = load_csv(path, has_header=has_header, time_column=time_column)
    except ValueError:
        return
    assert np.isfinite(ds.values).all() and ds.values.shape[1] == len(ds.columns)


# Cells float() reads, including spellings a stricter parser would refuse, and quoted cells
# (one spanning two lines); then cells it refuses and the values it reads as non-finite.
_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 1.5", "1_0", "+.5", "5.", "1e-400", "-0", "2 ", "7E+2", '"3.5"',
                     '" -4e2 "', '"6\n"']))
_BAD_CELLS = st.one_of(
    st.sampled_from(["x", "", "1.2.3", "1__0", "_1", "0x1", "1e", '"1,5"', '"a\nb"']),
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400", "-1e999"]))


@st.composite
def _csv_files(draw):
    """(text, has_header, time_column, same_lines): a CSV with a header row or none, a date
    or number time column t, a few bad cells, ragged rows and blank lines; same_lines is
    False when a blank line or a quoted line break puts rows off their physical lines."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_GOOD_CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    time_column = draw(st.sampled_from([None, None, "t", "b"]))
    if time_column == "t" and draw(st.booleans()):
        for i, row in enumerate(rows):
            row[0] = f"2020-01-{i + 1:02d}"
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(_BAD_CELLS)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # a row a cell short or a cell long
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            del row[-1:]
        else:
            row.append(draw(_GOOD_CELLS))
    lines = [",".join(row) for row in rows]
    has_header = draw(st.sampled_from([None, True, False]))
    if draw(st.booleans()):
        lines.insert(0, ",".join(["t", "a", "b", "c"][:width]))
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    same_lines = all(lines) and "\n" not in "".join(lines)
    return text, has_header, time_column, same_lines


def _load_or_message(loader, path, has_header, time_column):
    try:
        return loader(path, has_header=has_header, time_column=time_column)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(csv_file=_csv_files(), bom=st.booleans())
def test_load_csv_matches_the_per_cell_loader(tmp_path_factory, csv_file, bom):
    text, has_header, time_column, same_lines = csv_file
    path = tmp_path_factory.mktemp("csv") / "series.csv"
    path.write_text(text, encoding="utf-8")
    want = _load_or_message(per_cell_load_csv, path, has_header, time_column)
    if bom:  # the oracle reads the same file without its byte order mark
        path.write_text("\ufeff" + text, encoding="utf-8")
    got = _load_or_message(load_csv, path, has_header, time_column)
    if isinstance(want, str) or isinstance(got, str):
        assert isinstance(want, str) and isinstance(got, str), (want, got)
        if same_lines:
            assert got == want
        return
    assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.name, got.columns, got.splits) == (want.name, want.columns, want.splits)


def _toy_dataset(n):
    values = np.arange(n, dtype=np.float64)[:, None]
    return SeriesDataset.from_values("toy", values, ratios=(1.0, 0.0, 0.0))


def test_window_counts_small_cases():
    assert len(window_iter(_toy_dataset(10), "train", 4, 4)) == 3
    assert len(window_iter(_toy_dataset(8), "train", 4, 4)) == 1
    with pytest.warns(UserWarning):
        assert len(window_iter(_toy_dataset(7), "train", 4, 4)) == 0


def test_window_contiguity_and_origin():
    ds = _toy_dataset(12)
    for w in window_iter(ds, "train", 3, 4, stride=2):
        (origin,) = w.origins
        np.testing.assert_array_equal(w.contexts[0, :, 0], np.arange(origin, origin + 3))
        np.testing.assert_array_equal(w.futures[0, :, 0], np.arange(origin + 3, origin + 7))


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 400),
    S=st.integers(1, 30),
    horizon=st.integers(1, 40),
    stride=st.integers(1, 5),
)
def test_window_count_closed_form(length, S, horizon, stride):
    ds = _toy_dataset(length)
    if length < S + horizon:
        with pytest.warns(UserWarning):
            windows = window_iter(ds, "train", S, horizon, stride)
        assert len(windows) == 0
    else:
        windows = window_iter(ds, "train", S, horizon, stride)
        assert len(windows) == (length - S - horizon) // stride + 1


def test_windows_never_cross_split_boundaries():
    ds = gen_sinusoid(100, noise_std=0.0)  # splits at 70 and 80
    for split in ("train", "val", "test"):
        lo, hi = ds.split_range(split)
        for w in window_iter(ds, split, 3, 2):
            (origin,) = w.origins
            assert origin >= lo
            assert origin + 5 <= hi


def test_window_iter_validates_arguments():
    ds = _toy_dataset(20)
    with pytest.raises(ValueError):
        window_iter(ds, "train", 0, 4)
    with pytest.raises(ValueError):
        window_iter(ds, "nope", 4, 4)


def _listed_windows(ds, split, S, horizon, stride=1):
    """(context, future, origin) per origin, built in a loop: the reference for ``Windows``."""
    lo, hi = ds.split_range(split)
    return [(ds.values[o:o + S], ds.values[o + S:o + S + horizon], o)
            for o in range(lo, hi - S - horizon + 1, stride)]


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 150), V=st.integers(1, 3), S=st.integers(1, 12),
       horizon=st.integers(1, 12), stride=st.integers(1, 4), split=st.sampled_from(SPLITS))
def test_windows_match_the_listed_windows(length, V, S, horizon, stride, split):
    ds = gen_sinusoid(length, V=V, periods=[24.0, 7.0, 5.0][:V], noise_std=0.3, seed=length)
    want = _listed_windows(ds, split, S, horizon, stride)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = window_iter(ds, split, S, horizon, stride)
    lo, hi = ds.split_range(split)
    assert len(caught) == (hi - lo < S + horizon)
    assert isinstance(got, Windows) and len(got) == len(want)
    assert got.contexts.shape == (len(want), S, V)
    assert got.futures.shape == (len(want), horizon, V)
    np.testing.assert_array_equal(got.origins, [origin for _, _, origin in want])
    for i, (one, (context, future, origin)) in enumerate(zip(got, want, strict=True)):
        for w in (one, got[i], got[i - len(want)]):
            assert isinstance(w, Windows) and w.origins.tolist() == [origin]
            np.testing.assert_array_equal(w.contexts, [context])
            np.testing.assert_array_equal(w.futures, [future])
    for index in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[index]
    picks = np.arange(len(want))[::-2]
    for part, ref in ((got[1:4], want[1:4]), (got[picks], [want[i] for i in picks])):
        assert isinstance(part, Windows) and len(part) == len(ref)
        want_contexts = np.array([context for context, _, _ in ref]).reshape(-1, V)
        np.testing.assert_array_equal(part.contexts.reshape(-1, V), want_contexts)
    if want:
        with pytest.raises(ValueError, match="read-only"):
            got.contexts[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            got[0].futures[0, 0, 0] = 1.0
        assert ds.values.flags.writeable


def test_windows_columns_stack_windows_side_by_side():
    ds = gen_sinusoid(60, V=2, periods=[7.0, 5.0], noise_std=0.1, seed=1)
    windows = window_iter(ds, "train", 4, 3)[np.array([5, 0, 2])]
    context, future = windows.columns()
    assert context.flags.c_contiguous and future.flags.c_contiguous
    np.testing.assert_array_equal(context, np.stack(list(windows.contexts), axis=1).reshape(4, 6))
    np.testing.assert_array_equal(future, np.stack(list(windows.futures), axis=1).reshape(3, 6))
