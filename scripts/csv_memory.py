#!/usr/bin/env python3
"""Peak traced memory of ``load_csv`` against the float64 array it returns.

For each row count, writes a CSV of that many rows of V normal values, ``%.6f``, under a
header, to a temporary directory, loads it once to warm up, then loads it again under
``tracemalloc`` and prints the row count, the peak in MB, the peak over the array's bytes,
the same ratio for the file with a last row whose last cell does not parse and for the file
with a last row whose last cell is the byte 0xff, not UTF-8 (both of which ``load_csv``
refuses), and the best of three untraced load times. It imports arforecast from
the checkout it lives in.

Usage:
    python scripts/csv_memory.py [--variates 4] [rows ...]    (default rows: 8000 20000 200000)
"""

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from arforecast.data import load_csv  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", type=int, default=[8000, 20_000, 200_000])
    parser.add_argument("--variates", type=int, default=4)
    args = parser.parse_args(argv)
    print("rows,peak_mb,peak_over_array,refused_peak_over_array,refused_utf8_peak_over_array,"
          "load_ms")
    with tempfile.TemporaryDirectory() as home:
        for rows in args.rows:
            path = Path(home) / f"{rows}.csv"
            np.savetxt(path, np.random.default_rng(0).normal(size=(rows, args.variates)),
                       fmt="%.6f", delimiter=",", comments="",
                       header=",".join(f"x{v}" for v in range(args.variates)))
            load_csv(path)
            tracemalloc.start()
            try:
                nbytes = load_csv(path).values.nbytes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                load_csv(path)
                best = min(best, time.perf_counter() - start)
            blob, refused = path.read_bytes(), []
            for last in (b"x", b"\xff"):
                path.write_bytes(blob + b"1," * (args.variates - 1) + last + b"\n")
                tracemalloc.start()
                try:
                    load_csv(path)
                except ValueError:  # the refusal this column measures
                    refused.append(tracemalloc.get_traced_memory()[1] / nbytes)
                finally:
                    tracemalloc.stop()
            print(f"{rows},{peak / 1e6:.2f},{peak / nbytes:.2f},{refused[0]:.2f},"
                  f"{refused[1]:.2f},{best * 1e3:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
