# Anchors the test directory on sys.path so shared helper modules
# (oracles, reference_tables) import as plain top-level names.

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def fresh():
    """Run a script in a new interpreter with this checkout's `src/` first on
    its path, and return its last stdout line, read as JSON."""

    def run(script: str):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run
