"""What each entry point imports, each checked in a fresh interpreter.

A command loads only the layers it runs: ``import citecode`` none,
``citecode.cli`` the read side, and a coding run the coding layers
without agreement metrics, logging or ``importlib.resources``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import citecode

SRC = str(Path(citecode.__file__).parents[1])

CODING_MODULES = [
    f"citecode.{name}"
    for name in (
        "pipeline", "semantic", "syntactic", "ingest", "citations", "network", "config",
        "refparse", "sentences", "names",
    )
]


def _run(code: str, *flags: str) -> object:
    """Run code in a fresh interpreter; the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded_by(statements: str) -> set[str]:
    """The modules that the statements import, beyond start-up's."""
    return set(_run(
        "import json, sys\nbefore = set(sys.modules)\n"
        f"{statements}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    ))


def test_import_citecode_loads_no_submodule():
    loaded = _loaded_by("import citecode")
    assert "citecode" in loaded
    assert sorted(name for name in loaded if name.startswith("citecode.")) == []


def test_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    versions = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert versions == [citecode.__version__]


def test_import_cli_loads_no_coding_layer():
    loaded = _loaded_by("import citecode.cli")
    assert "citecode.cli" in loaded
    unwanted = [*CODING_MODULES, "xml.etree.ElementTree", "logging"]
    assert sorted(loaded & set(unwanted)) == []


_CODING_SET_UP = (
    "from citecode.config import PipelineConfig\n"
    "from citecode.pipeline import load_resources\n"
    "config = PipelineConfig()\nconfig.validate()\nload_resources(config)"
)


def test_coding_set_up_loads_neither_metrics_nor_logging():
    loaded = _loaded_by(_CODING_SET_UP)
    assert "citecode.pipeline" in loaded
    assert sorted(loaded & {"citecode.metrics", "logging"}) == []


def test_coding_set_up_finds_its_data_without_importlib_resources():
    # -S: no site hook, which may import importlib.resources itself.
    loaded = _run(
        f"{_CODING_SET_UP}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", "-S"
    )
    assert "citecode.pipeline" in loaded
    assert "importlib.resources" not in loaded
