"""The simulator runs on the standard library alone.

``numpy`` is not a dependency of the package; importing the experiment
runner (which pulls in the simulator, drive model, layouts and
controller) must not load it, or its import time would land on every
worker's start-up.
"""

import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_runner_import_does_not_load_numpy():
    code = (
        "import sys, repro.runner.execute;"
        "print('numpy' in sys.modules, end='')"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": REPO_SRC},
    )
    assert fresh.stdout == "False"
