"""Every example exits 0: ``PYTHONPATH=src python -m pytest examples``
(outside tier-1, whose ``testpaths`` is ``tests``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCRIPTS = sorted(p for p in HERE.glob("*.py") if not p.name.startswith("test_"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_example_exits_zero(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")))
    assert done.returncode == 0, done.stderr[-4000:]
