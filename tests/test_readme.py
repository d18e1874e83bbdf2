"""The README's INI config and library example work as written."""

import re
from pathlib import Path

from arforecast.cli import RunConfig
from arforecast.models import Dims

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language):
    (block,) = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)
    return block


def test_readme_config_loads_and_library_example_runs(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(_block("ini"))
    cfg = RunConfig(config)
    assert (cfg.source, cfg.kind, cfg.geometry, cfg.rollout.n, cfg.train.objective) == \
        ("sinusoid", "linear", Dims(S=48, T=12), 4, "ar")
    exec(compile(_block("python"), str(README), "exec"), {})
    assert "[(" in capsys.readouterr().out  # report.per_block, then the violation rate
