"""Four of the fixed configs of ``scripts/artifact_hashes.py`` keep their artifact bytes.

The script is loaded by path and its ``produce`` run for the linear, linear_partial, mlp and
mlp_csv configs; their hashes must equal the matching lines of ``artifact_hashes.txt``. The
list holds for the NumPy and BLAS its first line names, so another machine skips the check.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_hashes.py"
GUARDED = ("linear", "linear_partial", "mlp", "mlp_csv")


def test_the_guarded_configs_keep_their_artifact_bytes(tmp_path):
    spec = importlib.util.spec_from_file_location("artifact_hashes", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    machine, *lines = SCRIPT.with_suffix(".txt").read_text().splitlines()
    if script.machine_line() != machine:
        pytest.skip(f"the hash list was made with {machine!r}, not {script.machine_line()!r}")
    for name in GUARDED:
        script.produce(tmp_path, name, *script.CONFIGS[name])
    assert script.hash_lines(tmp_path) == [
        line for line in lines if line.split("  ", 1)[1].split("/", 1)[0] in GUARDED]
