import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# each demo's full stdout, byte for byte, in tests/demo_output/<demo>.txt
DEMOS = sorted(path.stem for path in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_to_the_end(name):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{name}.py")],
        cwd=REPO,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (REPO / "tests" / "demo_output" / f"{name}.txt").read_bytes()
