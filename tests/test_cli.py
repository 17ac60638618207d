import errno
import gc
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from opow import cli, combinat, ctable, series, special_u
from opow.cli import main
from opow.diffpoly import LATEX, TEXT
from opow.expansion import expand

REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_expand_text_generic(capsys):
    code, out = run_cli(capsys, "expand", "--k", "2", "--format", "text")
    assert code == 0
    assert out == "A^2 = (u u') D^1 + (u^2) D^2\n"


def test_expand_text_identity_z(capsys):
    code, out = run_cli(capsys, "expand", "--k", "3", "--u", "z", "--format", "text")
    assert code == 0
    assert out == "A^3 = 1 z^1 D^1 + 3 z^2 D^2 + 1 z^3 D^3\n"


def test_expand_json_inverse_z(capsys):
    code, out = run_cli(capsys, "expand", "--k", "3", "--u", "inv-z", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["u"] == "inv-z"
    assert payload["terms"] == [[3, -5, 1], [-3, -4, 2], [1, -3, 3]]


def test_expand_json_exp_factor(capsys):
    code, out = run_cli(capsys, "expand", "--k", "2", "--u", "exp", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exp_factor"] == 2
    assert payload["terms"] == [[1, 0, 1], [1, 0, 2]]


def test_expand_text_polynomial(capsys):
    code, out = run_cli(capsys, "expand", "--k", "1", "--u", "poly:1,1", "--format", "text")
    assert code == 0
    assert out == "A^1 = 1 D^1 + 1 z^1 D^1\n"


@pytest.mark.parametrize("fmt", ("text", "latex", "json"))
@pytest.mark.parametrize("u", ("z", "exp", "inv-z", "poly:1/2,0,-3/4"))
def test_expand_special_matches_specialize_route(capsys, monkeypatch, u, fmt):
    argv = ("expand", "--k", "8", "--u", u, "--format", fmt)
    code, direct = run_cli(capsys, *argv)
    assert code == 0
    calls = []

    def via_specialize(k, rule):
        calls.append(k)
        terms = special_u.specialize(expand(k), rule)
        return (tuple(t for t in terms if t.d_order == s) for s in range(1, k + 1))

    monkeypatch.setattr(special_u, "specialized_rows", via_specialize)
    code, reference = run_cli(capsys, *argv)
    assert code == 0
    assert calls == [8]
    assert direct == reference


JSON_ONE_TERM = """{{
  "k": {k},
  "u": "{u}",
  "exp_factor": {exp_factor},
  "terms": [
    [
      {coeff},
      0,
      {k}
    ]
  ]
}}
"""


@pytest.mark.parametrize(
    "u, k, fmt, expected",
    [
        # P_1 and P_2 are empty: exp_factor is read off P_3's term
        ("poly:7", 3, "json", JSON_ONE_TERM.format(k=3, u="poly:7", exp_factor=0, coeff=343)),
        ("poly:7", 3, "text", "A^3 = 343 D^3\n"),
        ("poly:7", 3, "latex", r"A^{3} = 343 \left(\frac{d}{dz}\right)^{3}" "\n"),
        ("exp", 1, "json", JSON_ONE_TERM.format(k=1, u="exp", exp_factor=1, coeff=1)),
        ("exp", 1, "text", "A^1 = 1 e^(1z) D^1\n"),
        ("exp", 1, "latex", r"A^{1} = 1 e^{1 z} \left(\frac{d}{dz}\right)^{1}" "\n"),
    ],
)
def test_expand_special_one_term_outputs(capsys, u, k, fmt, expected):
    code, out = run_cli(capsys, "expand", "--u", u, "--k", str(k), "--format", fmt)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "u, fmt, sha256",
    [
        ("inv-z", "json", "a15dfabc80be86fa82283884e04f3764afb0c694bb811c9bfbf231fe59ffa4c8"),
        ("inv-z", "text", "2d1a4e842f03a4ec860b0d33eb9a09333c124f6d921e468049f3c442754fc373"),
        ("inv-z", "latex", "9eb3cae4ed3a797758341d953d509c54266e0cc8dcd628376c33b08a007605bd"),
        ("z", "json", "9f47827412e090855074fab4d9f18584317c8ae4cf4fbe1e3936ad39e9518bdf"),
        ("z", "text", "1f112f7fbe45bc219cb48c30431678e7554090b3c34d804ebc0f7781f9e10b59"),
        ("z", "latex", "73b36a7b8a6084f3b21cc79308229206036aa72a4be8e153dd755e1291aee12f"),
        ("poly:1/2,0,-3/4", "json",
         "1056444ba3cdece53cd6ffba60db5d4a005f092e65a196fbecc7662cb21c298a"),
        ("poly:1/2,0,-3/4", "text",
         "9354201fc0b731ebb35197fd5d89b565a0a6364382196fe7043db7d748705faa"),
        ("poly:1/2,0,-3/4", "latex",
         "e12ece01ee6e6a89fc3c6e3f701f7029fcde1bc52022795cc42c2af90349f7de"),
    ],
)
def test_expand_special_k8_is_byte_for_byte_the_pinned_output(capsys, u, fmt, sha256):
    code, out = run_cli(capsys, "expand", "--u", u, "--k", "8", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_expand_latex(capsys):
    code, out = run_cli(capsys, "expand", "--k", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("A^{2} = ")
    assert r"\frac{d}{dz}" in out


K5_TEXT = (
    "A^5 = (u (u')^4 + 11 u^2 (u')^2 u'' + 4 u^3 (u'')^2 + 7 u^3 u' u''' + u^4 u^(4)) D^1"
    " + (15 u^2 (u')^3 + 30 u^3 u' u'' + 5 u^4 u''') D^2"
    " + (25 u^3 (u')^2 + 10 u^4 u'') D^3 + (10 u^4 u') D^4 + (u^5) D^5\n"
)

K5_LATEX = (
    r"A^{5} = \left(u (u')^{4} + 11 u^{2} (u')^{2} u'' + 4 u^{3} (u'')^{2}"
    r" + 7 u^{3} u' u''' + u^{4} u^{(4)}\right)\left(\frac{d}{dz}\right)^{1}"
    r" + \left(15 u^{2} (u')^{3} + 30 u^{3} u' u'' + 5 u^{4} u'''\right)\left(\frac{d}{dz}\right)^{2}"
    r" + \left(25 u^{3} (u')^{2} + 10 u^{4} u''\right)\left(\frac{d}{dz}\right)^{3}"
    r" + \left(10 u^{4} u'\right)\left(\frac{d}{dz}\right)^{4}"
    r" + \left(u^{5}\right)\left(\frac{d}{dz}\right)^{5}" "\n"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["expand", "--k", "5"], K5_TEXT),
        (["expand", "--k", "5", "--format", "latex"], K5_LATEX),
        (
            ["expand", "--k", "3", "--u", "exp"],
            "A^3 = 2 e^(3z) D^1 + 3 e^(3z) D^2 + 1 e^(3z) D^3\n",
        ),
        (
            ["expand", "--k", "3", "--u", "exp", "--format", "latex"],
            r"A^{3} = 2 e^{3 z} \left(\frac{d}{dz}\right)^{1}"
            r" + 3 e^{3 z} \left(\frac{d}{dz}\right)^{2}"
            r" + 1 e^{3 z} \left(\frac{d}{dz}\right)^{3}" "\n",
        ),
        (
            ["expand", "--k", "3", "--u", "inv-z", "--format", "latex"],
            r"A^{3} = 3 z^{-5} \left(\frac{d}{dz}\right)^{1}"
            r" - 3 z^{-4} \left(\frac{d}{dz}\right)^{2}"
            r" + 1 z^{-3} \left(\frac{d}{dz}\right)^{3}" "\n",
        ),
        (
            ["expand", "--k", "2", "--u", "poly:-1/2,0,3"],
            "A^2 = -3 z^1 D^1 + 18 z^3 D^1 + 1/4 D^2 - 3 z^2 D^2 + 9 z^4 D^2\n",
        ),
    ],
)
def test_expand_golden_renderings(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_expand_generic_json(capsys):
    code, out = run_cli(capsys, "expand", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"s": 1, "monomials": [{"coeff": 1, "exps": [1, 1]}]},
        {"s": 2, "monomials": [{"coeff": 1, "exps": [2]}]},
    ]


def test_ctable_csv(capsys):
    code, out = run_cli(capsys, "ctable", "--k-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,s,m,alpha,value"
    assert "3,1,1,1,3" in lines
    assert "3,2,1,0;1,1" in lines
    assert "3,2,2,2,1" in lines
    assert "4,2,2,2,7" in lines


@pytest.mark.parametrize("k_max", range(2, 15))
def test_ctable_prints_the_extraction_table(capsys, k_max):
    # the streamed recurrence against the other route, spelled here
    rows = sorted(ctable.c_table_from_expansions(k_max).entries.items())
    csv = "".join(f"{k},{s},{m},{';'.join(map(str, a))},{v}\n" for (k, s, m, a), v in rows)
    assert run_cli(capsys, "ctable", "--k-max", str(k_max)) == (0, "k,s,m,alpha,value\n" + csv)
    entries = [dict(k=k, s=s, m=m, alpha=list(a), value=v) for (k, s, m, a), v in rows]
    doc = json.dumps({"k_max": k_max, "entries": entries}, indent=2) + "\n"
    assert run_cli(capsys, "ctable", "--k-max", str(k_max), "--format", "json") == (0, doc)


@pytest.mark.parametrize(
    "fmt, sha256",
    [
        ("csv", "5b29e7c387af1755de9042aac9bab5c7daca30cbf45a4556339e78af7856dd25"),
        ("json", "b51dfb553992d200fbfb6ed6a943323f847ee92e83b4fa363945b2fa09f75829"),
    ],
)
def test_ctable_k_max_20_is_byte_for_byte_the_pinned_output(capsys, fmt, sha256):
    code, out = run_cli(capsys, "ctable", "--k-max", "20", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_atable_and_stirling_print_what_json_and_csv_spell(capsys):
    table = [[(k, s, special_u.a_closed_form(k, s)) for s in range(1, k + 1)] for k in range(1, 16)]
    csv = "".join(f"{k},{s},{v}\n" for row in table for k, s, v in row)
    assert run_cli(capsys, "atable", "--k-max", "15") == (0, "k,s,value\n" + csv)
    entries = [dict(k=k, s=s, value=v) for row in table for k, s, v in row]
    doc = json.dumps({"k_max": 15, "entries": entries}, indent=2) + "\n"
    assert run_cli(capsys, "atable", "--k-max", "15", "--format", "json") == (0, doc)
    for kind, value in ((1, combinat.stirling1_unsigned), (2, combinat.stirling2)):
        rows = [[value(n, m) for m in range(1, n + 1)] for n in range(1, 11)]
        numbered = ((n, m, v) for n, row in enumerate(rows, 1) for m, v in enumerate(row, 1))
        csv = "".join(f"{n},{m},{v}\n" for n, m, v in numbered)
        argv = ("stirling", "--kind", str(kind))
        assert run_cli(capsys, *argv) == (0, "n,m,value\n" + csv)
        doc = json.dumps({"kind": kind, "n_max": 10, "rows": rows}, indent=2) + "\n"
        assert run_cli(capsys, *argv, "--format", "json") == (0, doc)


class WriteRecorder:
    """An output stream that logs each write and each flush, in order."""

    def __init__(self):
        self.log = []

    def write(self, text):
        self.log.append(text)
        return len(text)

    def flush(self):
        self.log.append(None)


POLY_16 = ("expand", "--u", "poly:3/2,2,-1,3", "--k", "16")
JSON_CLOSE = "\n  ]\n}\n"
CHUNKS = [
    # one chunk per nonzero row P_s, then the close or the final newline
    ((*POLY_16, "--format", "json"), 17, '{\n  "k": 16,\n  "u": "poly:3/2,2,-1,3",', JSON_CLOSE),
    ((*POLY_16, "--format", "text"), 17, "A^16 = 3521381748454859331/64 D^1 + ", "\n"),
    ((*POLY_16, "--format", "latex"), 17, "A^{16} = 3521381748454859331/64 ", "\n"),
    # u = 7: P_1 and P_2 of A^3 = 343 D^3 are zero and write nothing
    (
        ("expand", "--u", "poly:7", "--k", "3", "--format", "json"),
        2,
        '{\n  "k": 3,\n  "u": "poly:7",\n  "exp_factor": 0,\n  "terms": [\n    [\n      343,\n'
        "      0,\n      3\n    ]",
        JSON_CLOSE,
    ),
    (("expand", "--u", "poly:7", "--k", "3"), 2, "A^3 = 343 D^3", "\n"),
    # one chunk per P_s of the generic expansion
    (("expand", "--k", "8", "--format", "json"), 9, '{\n  "k": 8,\n  "u": "generic",', JSON_CLOSE),
    (("expand", "--k", "8"), 9, "A^8 = (u (u')^7 + 120 ", "\n"),
    (("expand", "--k", "8", "--format", "latex"), 9, r"A^{8} = \left(", "\n"),
    # one chunk per table power or Stirling row; CSV has no close
    (("ctable", "--k-max", "12"), 11, "k,s,m,alpha,value\n2,1,1,1,1\n", "12,1,1,1,66\n"),
    (
        ("ctable", "--k-max", "12", "--format", "json"),
        12,
        '{\n  "k_max": 12,\n  "entries": [\n    {\n      "k": 2,',
        JSON_CLOSE,
    ),
    (("atable", "--k-max", "6"), 6, "k,s,value\n1,1,1\n", "6,1,-945\n"),
    (("atable", "--k-max", "6", "--format", "json"), 7, '{\n  "k_max": 6,', JSON_CLOSE),
    (("stirling", "--kind", "1"), 10, "n,m,value\n1,1,1\n", "10,1,362880\n"),
    (("stirling", "--kind", "1", "--format", "json"), 11, '{\n  "kind": 1,', JSON_CLOSE),
    # one chunk per suite report, then the overall line
    (
        ("verify", "--suite", "all", "--k-max", "7", "--seed", "1"),
        11,
        "[PASS] closed-form: k_max=7 checks=12 failures=0\n",
        "overall: PASS suites=10 checks=768 failures=0\n",
    ),
]
CHUNK_IDS = ["-".join(arg.lstrip("-") for arg in argv) for argv, *_ in CHUNKS]


@pytest.mark.parametrize("argv, writes, first, last", CHUNKS, ids=CHUNK_IDS)
def test_each_chunk_is_one_write_flushed_at_once(monkeypatch, argv, writes, first, last):
    out = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(argv)) == 0
    assert out.log[1::2] == [None] * writes and len(out.log) == 2 * writes
    assert out.log[0].startswith(first) and out.log[-2].startswith(last)


def test_atable_csv(capsys):
    code, out = run_cli(capsys, "atable", "--k-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,s,value"
    assert "3,1,3" in lines
    assert "3,2,-3" in lines
    assert "4,4,1" in lines


def test_stirling_csv(capsys):
    code, out = run_cli(capsys, "stirling", "--kind", "2", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,value"
    assert "4,2,7" in lines and "4,3,6" in lines and "4,4,1" in lines
    code, out = run_cli(capsys, "stirling", "--kind", "1", "--n-max", "4", "--format", "csv")
    assert "4,2,11" in out.splitlines()


def test_stirling_json(capsys):
    code, out = run_cli(capsys, "stirling", "--kind", "1", "--n-max", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["rows"] == [[1], [1, 1], [2, 3, 1], [6, 11, 6, 1]]


def test_json_round_trips(capsys):
    # every JSON output is byte for byte what json.dumps(indent=2) writes
    argvs = [
        ["ctable", "--k-max", "4", "--format", "json"],
        ["atable", "--k-max", "4", "--format", "json"],
        ["stirling", "--kind", "2", "--n-max", "5", "--format", "json"],
        ["expand", "--k", "3", "--u", "inv-z", "--format", "json"],
        ["ctable", "--k-max", "8", "--format", "json"],
        ["atable", "--k-max", "8", "--format", "json"],
        ["stirling", "--kind", "1", "--format", "json"],
        ["stirling", "--kind", "2", "--format", "json"],
        ["stirling", "--kind", "1", "--n-max", "1", "--format", "json"],
    ]
    argvs += [["expand", "--k", str(k), "--format", "json"] for k in range(1, 9)]
    for u in ("z", "exp", "inv-z", "poly:-3/2,2,-1,3"):
        argvs += [["expand", "--k", k, "--u", u, "--format", "json"] for k in ("1", "6")]
    for argv in argvs:
        _, out = run_cli(capsys, *argv)
        assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv


@pytest.mark.parametrize(
    "items, plain",
    [
        ([], []),
        ([[Fraction(-3, 2), Fraction(4), -1, []]], [["-3/2", 4, -1, []]]),
        ([{"alpha": (1, 2), "value": 5, "none": {}}], [{"alpha": [1, 2], "value": 5, "none": {}}]),
    ],
)
def test_json_writer_spells_what_json_dumps_writes(items, plain):
    # no command writes an empty list or dict, so they are checked here
    head = {"k": 2, "u": "poly:-1/2,3"}
    chunks = cli._json_chunks(head, "terms", (cli._json(item, "    ") for item in items))
    assert "".join(chunks) == json.dumps({**head, "terms": plain}, indent=2) + "\n"


@pytest.mark.parametrize("k", range(1, 7))
def test_expand_generic_text_and_latex_are_the_joined_coefficients(capsys, k):
    p = expand(k).coeffs
    text = " + ".join(f"({p[s].render(TEXT)}) D^{s}" for s in range(1, k + 1))
    d = r"\left(\frac{d}{dz}\right)"
    latex = " + ".join(rf"\left({p[s].render(LATEX)}\right){d}^{{{s}}}" for s in range(1, k + 1))
    assert run_cli(capsys, "expand", "--k", str(k)) == (0, f"A^{k} = {text}\n")
    latex_out = run_cli(capsys, "expand", "--k", str(k), "--format", "latex")
    assert latex_out == (0, f"A^{{{k}}} = {latex}\n")


class Discard:
    """An output stream with only write and flush, keeping nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def traced_peak(fn):
    """The peak of the memory that tracemalloc sees allocated while fn runs."""
    # a full collection empties the free lists, so that fn's allocations are
    # all traced whatever ran before it
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expand_json_holds_no_whole_output(monkeypatch, capsys):
    # the output of expand --k 20 --format json is 0.39 MB; a writer that
    # built it whole (or a payload tree for it) would hold it all at once
    _, out = run_cli(capsys, "expand", "--k", "20", "--format", "json")
    monkeypatch.setattr(sys, "stdout", Discard())
    engine = traced_peak(lambda: expand(20))
    command = traced_peak(lambda: main(["expand", "--k", "20", "--format", "json"]))
    assert command - engine < len(out)


def test_verify_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "closed-form", "--k-max", "10")
    assert code == 0
    assert out.splitlines()[0].startswith("[PASS] closed-form:")
    assert out.splitlines()[-1].startswith("overall: PASS")


def test_verify_oracle_check_count(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "oracle", "--k-max", "3", "--seed", "42")
    assert code == 0
    assert "checks=150" in out.splitlines()[0]


def test_verify_output_is_deterministic(capsys):
    argv = ("verify", "--suite", "oracle", "--k-max", "3", "--seed", "9")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_identity_suites_read_the_extraction_table(capsys, monkeypatch):
    real = ctable.c_table_from_expansions

    def bumped(k_max):
        table = real(k_max)
        entries = dict(table.entries)
        entries[(5, 2, 2, (2,))] += 1
        return ctable.CTable(table.k_max, entries)

    monkeypatch.setattr(ctable, "c_table_from_expansions", bumped)
    code, out = run_cli(capsys, "verify", "--suite", "stirling1-sum", "--k-max", "7")
    assert code == 1
    assert out.splitlines()[-1].startswith("overall: FAIL")


def test_verify_all_builds_each_table_once(capsys, monkeypatch):
    calls = []

    def counting(build):
        def counted(k_max):
            calls.append(build.__name__)
            return build(k_max)

        return counted

    for build in (ctable.c_table_from_expansions, ctable.c_table_by_recurrence):
        monkeypatch.setattr(ctable, build.__name__, counting(build))
    code, out = run_cli(capsys, "verify", "--suite", "all", "--k-max", "7")
    assert code == 0
    assert "checks=768" in out.splitlines()[-1]
    assert sorted(calls) == ["c_table_by_recurrence", "c_table_from_expansions"]


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["expand", "--k", "0"],
        ["expand", "--k", "2", "--format", "csv"],
        ["expand", "--k", "2", "--u", "tan"],
        ["expand", "--k", "2", "--u", "poly:1,nope"],
        ["expand", "--k", "2", "--u", "poly:1,,2"],
        ["expand", "--k", "2", "--u", "poly:,1"],
        ["expand", "--k", "2", "--u", "poly:1,2,"],
        ["expand", "--k", "2", "--u", "poly:1/0"],
        ["expand", "--k", "2", "--u", "poly:1_0"],
        ["expand", "--k", "2", "--u", "poly: 1"],
        ["expand", "--k", "2", "--u", "poly:\u0663"],
        ["expand", "--k", "2", "--u", "poly:1e3"],
        ["expand", "--k", "2", "--u", "poly:0.5"],
        ["ctable", "--k-max", "1"],
        ["stirling", "--kind", "3", "--n-max", "4"],
        ["verify", "--suite", "nonsense"],
        ["frobnicate"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("body", ("1/0", "2,0/0", "1,-3/0,2"))
def test_poly_zero_denominator_is_reported_in_words(capsys, body):
    with pytest.raises(SystemExit) as err:
        main(["expand", "--k", "2", "--u", f"poly:{body}"])
    assert err.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message == f"opow: error: bad polynomial coefficients {body!r}: a denominator is zero"


def test_poly_reads_signed_integers_and_fractions(capsys):
    assert main(["expand", "--k", "2", "--u", "poly:+3/2,-2,01"]) == 0
    assert capsys.readouterr().out == (
        "A^2 = -3 D^1 + 7 z^1 D^1 - 6 z^2 D^1 + 2 z^3 D^1"
        " + 9/4 D^2 - 6 z^1 D^2 + 7 z^2 D^2 - 4 z^3 D^2 + 1 z^4 D^2\n"
    )


def test_env_cap_enforced(monkeypatch, capsys):
    monkeypatch.setenv("OPOW_MAX_K", "5")
    with pytest.raises(SystemExit) as err:
        main(["expand", "--k", "6"])
    assert err.value.code == 2
    capsys.readouterr()
    assert main(["expand", "--k", "5"]) == 0
    capsys.readouterr()
    # a cap of any length is read as the integer it is
    monkeypatch.setenv("OPOW_MAX_K", "9" * 5000)
    assert main(["expand", "--k", "2"]) == 0
    capsys.readouterr()
    # only ASCII decimal digits: int() alone would read the next four as 40
    for bad in ("abc", "-5", "0", "4_0", " 40 ", "+40", "\u0664\u0660", "0" * 5000):
        monkeypatch.setenv("OPOW_MAX_K", bad)
        with pytest.raises(SystemExit) as err:
            main(["expand", "--k", "2"])
        assert err.value.code == 2
        assert f"OPOW_MAX_K must be an integer >= 1, got {bad!r}" in capsys.readouterr().err


def test_default_cap_allows_forty(monkeypatch, capsys):
    monkeypatch.delenv("OPOW_MAX_K", raising=False)
    assert main(["atable", "--k-max", "40", "--format", "csv"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["atable", "--k-max", "41"])
    capsys.readouterr()


def opow_executable(*argv, **env):
    """Start ``python -m opow`` on argv with stdout and stderr piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "opow", *argv],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src"), **env),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def read_one_line_and_close(*argv, timeout=120):
    """The first line opow writes, then its stderr and exit code once the
    pipe was closed after that line.  A child still running ``timeout``
    seconds after its start is killed, and its exit code reads -9."""
    proc = opow_executable(*argv)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate()
    finally:
        killer.cancel()
        proc.kill()  # a no-op once the child has been reaped
        proc.wait()
    return first, err, proc.returncode


def test_closed_pipe_exits_quietly():
    assert read_one_line_and_close("expand", "--k", "20", "--format", "json") == (b"{\n", b"", 141)
    # 86 KB, more than the pipe and both buffers hold: the pipe is closed
    # while opow is still writing entries
    ctable_json = read_one_line_and_close("ctable", "--k-max", "12", "--format", "json")
    assert ctable_json == (b"{\n", b"", 141)


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
def test_closed_pipe_ends_expand_u_after_its_first_row(fmt):
    # the pipe is closed before opow starts, so the first write fails; it
    # comes after the k row steps that build P_1, of the k (k + 1) / 2 in all
    script = f"""
import atexit, sys
from opow import cli, special_u
calls = []
next_row = special_u._next_row
special_u._next_row = lambda *rows: calls.append(1) or next_row(*rows)
atexit.register(lambda: print(len(calls), file=sys.stderr))
sys.argv = ["opow", "expand", "--u", "poly:-3/2,2,-1,3", "--k", "40", "--format", "{fmt}"]
cli.run()
"""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python_child("-c", script, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "40\n")


def test_closed_pipe_ends_a_long_table_early():
    # the whole table at k_max = 30 takes about 18 s; its header and first
    # power are written as soon as that power is built, and the closed
    # pipe then ends the run
    got = read_one_line_and_close("ctable", "--k-max", "30", timeout=10)
    assert got == (b"k,s,m,alpha,value\n", b"", 141)


def test_an_interrupt_exits_130_with_nothing_on_stderr():
    # SIGINT reaches opow while it builds the second power of a table that
    # takes about 18 s in all; a child that ignores SIGINT, as one started
    # in the background of a shell does, gets the default action back first
    proc = subprocess.Popen(
        [sys.executable, "-m", "opow", "ctable", "--k-max", "30"],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate()
    finally:
        killer.cancel()
        proc.kill()  # a no-op once the child has been reaped
        proc.wait()
    assert (first, err, proc.returncode) == (b"k,s,m,alpha,value\n", b"", 130)


def test_verify_closed_pipe_after_the_first_report_exits_quietly():
    # the first report is written before the later suites run; at k_max
    # = 12 the oracle alone then runs for about half a second, so the
    # pipe is closed while opow still has reports to write
    first, err, code = read_one_line_and_close("verify", "--suite", "all", "--k-max", "12")
    assert first.startswith(b"[PASS] closed-form: k_max=12 ")
    assert (err, code) == (b"", 141)


def python_child(*args, buffered=True, **streams):
    """``python *args`` run to its end from the checkout, with the source
    tree on PYTHONPATH and stdout and stderr block-buffered as Python
    leaves them by default (PYTHONUNBUFFERED dropped) when ``buffered``,
    else unbuffered (PYTHONUNBUFFERED=1)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, timeout=120, **streams)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--k-max", "3"),
        ("ctable", "--k-max", "4"),
        ("expand", "--k", "3", "--format", "json"),
        # argparse ends --help with SystemExit(0) while the help text is
        # still in stdout's buffer
        ("--help",),
    ],
)
def test_write_error_exits_74_with_one_line(argv):
    # 74 is EX_IOERR: a write that fails for any reason but a closed pipe
    # is neither a failed verification (1) nor a traceback
    with open("/dev/full", "wb") as full:
        proc = python_child("-m", "opow", *argv, stdout=full, stderr=subprocess.PIPE)
    err = "opow: cannot write output: [Errno 28] No space left on device\n"
    assert (proc.returncode, proc.stderr.decode()) == (74, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
def test_write_error_exits_74_when_stderr_fails_too(buffered):
    with open("/dev/full", "wb") as full:
        proc = python_child("-m", "opow", "verify", "--k-max", "3", buffered=buffered,
                            stdout=full, stderr=full)
    assert proc.returncode == 74


def test_help_to_a_closed_pipe_exits_141():
    # the read end is closed before opow starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python_child("-m", "opow", "--help", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.stderr, proc.returncode) == (b"", 141)


# argparse drops the OSError of a failed write of the help text; an
# unbuffered stdout would fail that write itself, not the flush after it
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("--help",), ("expand", "--help")])
def test_unbuffered_help_to_a_full_device_exits_74(argv):
    with open("/dev/full", "wb") as full:
        proc = python_child("-m", "opow", *argv, buffered=False, stdout=full,
                            stderr=subprocess.PIPE)
    err = "opow: cannot write output: [Errno 28] No space left on device\n"
    assert (proc.returncode, proc.stderr.decode()) == (74, err)


@pytest.mark.parametrize("argv", [("--help",), ("expand", "--help")])
def test_unbuffered_help_to_a_closed_pipe_exits_141(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python_child("-m", "opow", *argv, buffered=False, stdout=write_end,
                            stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.stderr, proc.returncode) == (b"", 141)


# Closes fd 1, then starts opow on the remaining arguments in its place,
# as a shell's ">&-" does: Python then starts with sys.stdout None.
WITHOUT_STDOUT = (
    "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
)


@pytest.mark.parametrize(
    "argv", [("verify", "--k-max", "3"), ("ctable", "--k-max", "3"), ("--help",)]
)
def test_closed_stdout_exits_74_with_one_line(argv):
    # print to a None stdout writes nothing and raises nothing, so without
    # the check verify would run every suite for nothing and exit 1
    proc = python_child("-c", WITHOUT_STDOUT, "-m", "opow", *argv, stderr=subprocess.PIPE)
    err = f"opow: cannot write output: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
    assert (proc.returncode, proc.stderr.decode()) == (74, err)


def test_help_and_a_usage_error_through_the_executable():
    help_ = python_child("-m", "opow", "--help", capture_output=True, text=True)
    assert (help_.returncode, help_.stderr) == (0, "")
    assert help_.stdout.startswith("usage: opow ")
    usage = python_child("-m", "opow", "expand", "--k", "0", capture_output=True, text=True)
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr == (
        "usage: opow [-h] {expand,ctable,atable,stirling,verify} ...\n"
        "opow: error: --k must be >= 1\n"
    )


# An atexit callback registered before opow.cli is imported runs after
# every callback opow registers, and reports the collector's state.
GC_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))
from opow import cli
sys.argv = ["opow", "expand", "--k", "3"]
"""


@pytest.mark.parametrize(
    "body, err",
    [
        # the executable: the final collection at interpreter exit has
        # nothing to walk
        ("cli.run()", "False True\n"),
        # the collector is off during the command and restored after it
        (
            "try:\n    cli.run()\nexcept SystemExit as exit_:\n"
            "    print(exit_.code, gc.isenabled(), gc.get_freeze_count(), file=sys.stderr)",
            "0 True 0\nFalse True\n",
        ),
        # importing opow.cli and calling main register nothing
        ("cli.main(sys.argv[1:])", "True False\n"),
    ],
    ids=["run", "run-exit-caught", "main"],
)
def test_executable_skips_the_final_collection_at_exit(body, err):
    proc = python_child("-c", GC_AT_EXIT + body, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, err)
    assert proc.stdout.startswith("A^3 = ")


def test_the_command_runs_without_the_collector():
    script = """
import gc, sys
from opow import cli, expansion

seen = []
step = expansion.step

def recording_step(exp):
    seen.append(gc.isenabled())
    return step(exp)

expansion.step = recording_step
sys.argv = ["opow", "expand", "--k", "3"]
try:
    cli.run()
except SystemExit as exit_:
    print(exit_.code, seen, gc.isenabled(), file=sys.stderr)
"""
    proc = python_child("-c", script, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "0 [False, False] True\n")
    assert proc.stdout.startswith("A^3 = ")


def garbage_of(fn):
    """The objects that gc.collect() frees after fn ran with the collector
    off: those that fn left in reference cycles."""
    gc.collect()
    gc.disable()
    try:
        fn()
    finally:
        left = gc.collect()
        gc.enable()
    return left


# A command, with {} for its size, and two sizes to run it at.
SIZED = [
    *[(f"expand --k {{}} --format {fmt}", 4, 12) for fmt in ("text", "latex", "json")],
    *[(f"expand --u {u} --k {{}}", 4, 16) for u in ("poly:-3/2,2,-1,3", "exp", "inv-z")],
    *[(f"ctable --k-max {{}} --format {fmt}", 8, 14) for fmt in ("csv", "json")],
    ("atable --k-max {}", 4, 15),
    *[(f"stirling --kind {kind} --n-max {{}}", 4, 10) for kind in (1, 2)],
    ("verify --suite all --k-max {}", 3, 8),
]


@pytest.mark.parametrize(
    "command, small, large", SIZED, ids=[c.format(f"{a}|{b}") for c, a, b in SIZED]
)
def test_a_commands_garbage_does_not_grow_with_its_size(monkeypatch, command, small, large):
    # without the collector, a cycle that every step or table entry made
    # would stay until exit; what is left is argparse's parser alone
    monkeypatch.setattr(sys, "stdout", Discard())
    left = [garbage_of(lambda: main(command.format(n).split())) for n in (small, large)]
    assert left[0] == left[1]


@pytest.mark.parametrize(
    "work",
    [
        lambda: combinat.compositions(12, 4),
        lambda: special_u.specialize(expand(6), special_u.INVERSE_Z),
    ],
    ids=["compositions", "specialize"],
)
def test_a_recursive_walk_leaves_no_cycle(work):
    assert garbage_of(work) == 0


def test_failed_verification_exits_1_through_the_executable():
    script = """
import sys
from opow import cli, ctable
from opow.report import Failure, VerificationReport

def verify_binomial_column(table):
    return VerificationReport("binomial", table.k_max, 1, [Failure("k+1=2 s=1", "1", "2")])

ctable.verify_binomial_column = verify_binomial_column
sys.argv = ["opow", "verify", "--suite", "binomial", "--k-max", "3"]
cli.run()
"""
    proc = python_child("-c", script, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines() == [
        "[FAIL] binomial: k_max=3 checks=1 failures=1",
        "  FAIL k+1=2 s=1: expected 1, actual 2",
        "overall: FAIL suites=1 checks=1 failures=1",
    ]


def opow_with_a_raising_stub(target, error, *argv):
    """``python -m opow *argv`` run to its end in a fresh interpreter, with
    the opow attribute ``target`` ("module.name") replaced by a stub that
    raises ``error``, a Python expression."""
    module, name = target.split(".")
    script = f"""
import runpy, sys
from opow import {module}

def stub(*args, **kwargs):
    raise {error}

{module}.{name} = stub
sys.argv = ["opow", *{list(argv)!r}]
runpy.run_module("opow", run_name="__main__")
"""
    return python_child("-c", script, capture_output=True, text=True)


GUARD = "no recurrence reaches entry (3, 1, 1, (1,))"


def test_a_guard_tripping_inside_verify_is_that_suites_failed_check(capsys, monkeypatch):
    def c_table_powers(k_max):
        raise ArithmeticError(GUARD)

    monkeypatch.setattr(ctable, "c_table_powers", c_table_powers)
    argv = ("verify", "--suite", "all", "--k-max", "4")
    in_process = run_cli(capsys, *argv)
    proc = opow_with_a_raising_stub("ctable.c_table_powers", f"ArithmeticError({GUARD!r})", *argv)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert in_process == (1, proc.stdout)
    lines = proc.stdout.splitlines()
    assert lines[1:3] == [
        "[FAIL] cross-check: k_max=4 checks=1 failures=1",
        f"  FAIL guard: expected no error, actual ArithmeticError: {GUARD}",
    ]
    # every suite reports, the ones after the tripped guard included
    summaries = [line for line in lines if line.startswith("[")]
    assert [line.split()[1] for line in summaries] == [f"{name}:" for name in cli.SUITE_ORDER]
    assert lines[-1] == "overall: FAIL suites=10 checks=323 failures=1"


def test_a_guard_tripped_building_the_table_is_kept_for_every_suite(capsys, monkeypatch):
    # the failed build is not retried: each suite that reads the table
    # reports the same guard
    def extract_C(exp):
        raise ArithmeticError(GUARD)

    builds = []
    real = ctable.c_table_from_expansions

    def c_table_from_expansions(k_max):
        builds.append(k_max)
        return real(k_max)

    monkeypatch.setattr(ctable, "extract_C", extract_C)
    monkeypatch.setattr(ctable, "c_table_from_expansions", c_table_from_expansions)
    code, out = run_cli(capsys, "verify", "--suite", "all", "--k-max", "5")
    assert (code, builds) == (1, [5])
    lines = out.splitlines()
    guard = f"  FAIL guard: expected no error, actual ArithmeticError: {GUARD}"
    assert [lines[i - 1].split()[1] for i, line in enumerate(lines) if line == guard] == [
        "cross-check:", "binomial:", "stirling2:", "stirling1-sum:", "cycle-count:", "doublefact:"
    ]
    assert lines[-1] == "overall: FAIL suites=10 checks=389 failures=6"


@pytest.mark.parametrize(
    "error, detail",
    [("TypeError('bad operand')", "TypeError: bad operand"), ("MemoryError()", "MemoryError")],
    ids=["TypeError", "MemoryError"],
)
def test_an_internal_error_exits_70_with_one_line(error, detail):
    # 70 is EX_SOFTWARE: neither a failed check (1) nor a traceback
    proc = opow_with_a_raising_stub("expansion.expand", error, "expand", "--k", "6")
    assert (proc.returncode, proc.stdout) == (70, "")
    assert proc.stderr == f"opow: internal error: {detail}\n"


class FlushRecorder(io.StringIO):
    """A text stream that remembers what it held at its last flush."""

    flushed = ""

    def flush(self):
        super().flush()
        self.flushed = self.getvalue()


def test_verify_writes_each_report_when_its_suite_ends(monkeypatch):
    out = FlushRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    seen = []
    real = series.oracle_suite

    def oracle_suite(k_max, seed):
        seen.append(out.flushed)
        return real(k_max, seed=seed)

    monkeypatch.setattr(series, "oracle_suite", oracle_suite)
    assert main(["verify", "--suite", "all", "--k-max", "7"]) == 0
    (flushed,) = seen
    lines = flushed.splitlines()
    assert len(lines) == 9
    for line, name in zip(lines, cli.SUITE_ORDER[:-1]):
        assert line.startswith(f"[PASS] {name}: k_max=7 ")
    assert out.getvalue().splitlines()[-1] == "overall: PASS suites=10 checks=768 failures=0"


def test_executable_reads_a_long_cap_as_main_does(monkeypatch, capsys):
    for cap, code in (("9" * 5000, 0), ("0" * 5000, 2)):
        monkeypatch.setenv("OPOW_MAX_K", cap)
        try:
            in_process = main(["expand", "--k", "2"])
        except SystemExit as err:
            in_process = err.code
        capsys.readouterr()
        proc = opow_executable("expand", "--k", "2", OPOW_MAX_K=cap)
        proc.communicate(timeout=60)
        assert in_process == proc.returncode == code


def test_output_is_exact_past_the_int_string_digit_limit():
    # (2k-3)!! first has more than 640 digits at k = 279
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPOW_MAX_K="300")
    cmd = [sys.executable, "-X", "int_max_str_digits=640", "-m", "opow"]
    proc = subprocess.run(
        [*cmd, "expand", "--u", "inv-z", "--k", "300", "--format", "json"],
        cwd=REPO,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["k"] == 300
