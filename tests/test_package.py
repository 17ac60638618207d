"""The package surface and what each command loads."""

import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opow
from opow.ctable import CTable
from opow.diffpoly import DiffPolynomial
from opow.expansion import OperatorExpansion
from opow.report import Failure, VerificationReport
from opow.series import LaurentSeries
from opow.special_u import URule

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


def test_series_skips_special_u():
    loaded = loaded_after("import opow.series")
    assert "opow.series" in loaded and "opow.special_u" not in loaded


def test_ctable_skips_series_and_special_u():
    loaded = loaded_after(run_main("ctable", "--k-max", "4"))
    assert "opow.ctable" in loaded
    assert not loaded & {"opow.series", "opow.special_u"}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "all", "--k-max", "3"),
        ("expand", "--k", "3"),
        ("ctable", "--k-max", "4"),
        ("expand", "--u", "poly:-3/2,2,-1,3", "--k", "3", "--format", "json"),
    ],
)
def test_no_command_loads_dataclasses(argv):
    assert "dataclasses" not in loaded_after(run_main(*argv))


@pytest.mark.parametrize(
    "argv", [("expand", "--k", "3", "--format", "json"), ("ctable", "--k-max", "4")]
)
def test_expand_and_ctable_skip_numbers(argv):
    loaded_after(run_main(*argv) + "\nassert 'numbers' not in sys.modules, 'numbers'")


def test_source_never_uses_dataclasses():
    for path in sorted((SRC / "opow").glob("*.py")):
        assert "dataclass" not in path.read_text(), path.name


# Each record: its class, its fields in slot order, and its repr.
RECORDS = [
    (
        LaurentSeries,
        (-1, (1, Fraction(1, 2))),
        "LaurentSeries(min_exp=-1, coeffs=(1, Fraction(1, 2)))",
    ),
    (
        DiffPolynomial,
        (DiffPolynomial.monomial(2, (1, 1)).terms,),
        "DiffPolynomial(terms=(DiffMonomial(coeff=2, exps=(1, 1)),))",
    ),
    (
        OperatorExpansion,
        (1, {1: DiffPolynomial.u_power(1)}),
        "OperatorExpansion(k=1, coeffs={1: "
        "DiffPolynomial(terms=(DiffMonomial(coeff=1, exps=(1,)),))})",
    ),
    (CTable, (2, {(2, 1, 1, (1,)): 1}), "CTable(k_max=2, entries={(2, 1, 1, (1,)): 1})"),
    (
        URule,
        ((((0, 1), Fraction(-1, 3)), ((1, 0), 1)),),
        "URule(terms=(((0, 1), Fraction(-1, 3)), ((1, 0), 1)))",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, text):
    slots = cls.__slots__
    record = cls(*fields)
    assert tuple(getattr(record, name) for name in slots) == fields
    assert record == cls(*fields) and not record != cls(*fields)
    twin = type(cls.__name__, (opow._Value,), {"__slots__": slots, "__init__": cls.__init__})
    assert record != twin(*fields) and twin(*fields) != record and record != fields
    for name in slots:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in slots) == fields
    try:
        expected_hash = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    assert repr(record) == text


# Each record class and argument tuples of the wrong length for it.
WRONG_FIELD_COUNTS = [
    *((cls, ((), fields[:-1], (*fields, None))) for cls, fields, _ in RECORDS),
    (Failure, (("k=1", "1"), ("k=1", "1", "2", "3"))),
    (VerificationReport, (("oracle",), ("oracle", 3, 0, [], None))),
]


@pytest.mark.parametrize(
    "cls, wrong", WRONG_FIELD_COUNTS, ids=[c.__name__ for c, _ in WRONG_FIELD_COUNTS]
)
def test_a_wrong_field_count_is_a_type_error_naming_the_class(cls, wrong):
    for args in wrong:
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            cls(*args)


def test_only_the_record_base_sets_fields_with_object_setattr():
    for path in sorted((SRC / "opow").glob("*.py")):
        expected = 1 if path.name == "__init__.py" else 0
        assert path.read_text().count("object.__setattr__") == expected, path.name
    assert "object.__setattr__" in inspect.getsource(opow._Record.__init__)


def test_reports_are_mutable_records():
    failure = Failure("k=1", "1", "2")
    report = VerificationReport("oracle", 3)
    assert repr(failure) == "Failure(location='k=1', expected='1', actual='2')"
    assert repr(report) == "VerificationReport(suite='oracle', k_max=3, checks=0, failures=[])"
    report.expect(False, "k=1", 1, 2)
    assert report == VerificationReport("oracle", 3, 1, [failure])
    assert report != VerificationReport("oracle", 3, 1, [])
    assert pickle.loads(pickle.dumps(report)) == report
    for record in (failure, report):
        with pytest.raises(TypeError):
            hash(record)


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
