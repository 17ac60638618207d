"""The package surface and what each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opow

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter; the last line it prints lists the opow
# modules loaded after the statement, and dataclasses if it was loaded.
PROBE = """\
import json, sys
{statement}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("opow", "dataclasses"))))
"""


def loaded_after(statement):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(statement=statement)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_main(*argv):
    return f"from opow.cli import main\nassert main({list(argv)!r}) == 0"


def test_import_cli_loads_no_other_module():
    assert loaded_after("import opow.cli") == {"opow", "opow.cli"}


def test_expand_poly_loads_only_special_u():
    statement = run_main("expand", "--u", "poly:-3/2,2,-1,3", "--k", "3", "--format", "json")
    assert loaded_after(statement) == {"opow", "opow.cli", "opow.special_u"}


def test_expand_generic_skips_series_ctable_and_special_u():
    loaded = loaded_after(run_main("expand", "--k", "3", "--format", "json"))
    assert "opow.expansion" in loaded
    assert not loaded & {"opow.series", "opow.ctable", "opow.special_u"}


def test_ctable_skips_series_and_special_u():
    loaded = loaded_after(run_main("ctable", "--k-max", "4"))
    assert "opow.ctable" in loaded
    assert not loaded & {"opow.series", "opow.special_u"}


def test_each_public_name_is_its_home_modules_object():
    assert sorted(opow._HOMES) == opow.__all__
    for name, module in opow._HOMES.items():
        assert getattr(opow, name) is getattr(importlib.import_module(f"opow.{module}"), name)


def test_dir_lists_every_public_name():
    assert set(opow.__all__) <= set(dir(opow))
    assert "__all__" in dir(opow)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from opow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(opow.__all__)


def test_submodule_resolves_after_plain_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import opow; print(opow.series.LaurentSeries.__name__)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "LaurentSeries\n")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'opow' has no attribute 'no_such_name'"):
        opow.no_such_name
