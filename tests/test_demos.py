import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# each demo with the lines of its output that must appear verbatim
DEMOS = {
    "01_normal_ordering": (),
    "02_coefficient_tables": (),
    "03_special_functions": (),
    "04_series_oracle": (
        "(z d/dz)^4 z^3 = 81 z^3",
        "(z^-1 d/dz)^3 z^6 = 48",
        "equal: True",
        "[PASS] oracle: k_max=5 checks=250 failures=0",
        "[PASS] eigenfunction: k_max=8 checks=64 failures=0",
    ),
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_to_the_end(name):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{name}.py")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    for want in DEMOS[name]:
        assert want in lines
