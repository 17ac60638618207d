"""Command line surface: table emission, expansion rendering, verification.

Subcommands of the ``opow`` executable:

* ``expand``    render the normal-ordered form of A^k (generic u or a
                concrete substitution) as text, LaTeX or JSON; a
                substitution is computed by the recurrence run directly
                over z (``special_u.specialized_rows``), not through
                the generic expansion, one P_s at a time
* ``ctable``    dump the coefficient table as CSV or JSON
* ``atable``    dump the signed 1/z table as CSV or JSON
* ``stirling``  dump a Stirling triangle (kind 1 or 2) as CSV or JSON
* ``verify``    run one or all verification suites, writing each
                report as soon as its suite ends

Exit codes: 0 all checks pass / output produced, 1 a verification
failed (a guard that trips inside a suite is that suite's failed check),
2 usage error, 70 an internal error (EX_SOFTWARE of sysexits.h: a bug,
or memory ran out), 74 the output could not be written (EX_IOERR: a
full disk, say), 130 the run was interrupted (SIGINT, Ctrl-C: no
traceback, nothing on stderr), 141 the reader closed the output pipe
early (the code a shell reports for a writer killed by SIGPIPE);
``--help`` follows the same rule for 74 and 141, and both hold with
stdout unbuffered (PYTHONUNBUFFERED) as without it.  A stdout closed
before the start (``opow verify >&-``) exits 74 before any work.  The
environment variable OPOW_MAX_K (default 40 when unset or empty; any
other value must be ASCII decimal digits with a value >= 1) caps every
k-like argument to guard against accidental huge jobs; note that the
number of table entries per power grows like the integer partition
function, so large k_max values get expensive quickly.

All numeric output is exact: integers or rationals rendered p/q.  The
executable lifts Python's limit on the digits of an int converted to a
string (4300 by default), so no number is too long to print.

The executable runs its command without the cyclic garbage collector,
which would walk every live monomial (about 11% of ``expand --k 28``)
and free nothing: opow's values form no reference cycles.  ``run()``
gives the caller's state back.  The executable also ends without the
interpreter's final collection: about 10 ms spent walking the objects of
every loaded module just before the process frees them all.  ``atexit``
callbacks registered before it (coverage's, a profiler's) still run;
importing this module or calling ``main`` leaves the collector alone.

Output is streamed by one rule: every command's output is a stream of
chunks, each written and flushed as soon as it is built.  A chunk is one
P_s of a generic expansion, one nonzero row P_s of a substitution, one
table power or Stirling row, or one suite report or ``verify``'s overall
line; a JSON head (spelled as ``json.dumps(indent=2)`` spells it) goes
with the first chunk, and the close or final newline is a chunk of its
own.  So memory is bounded by one coefficient or one row; ``ctable``
builds each power after the one before it is out, and ``expand --u``
writes P_1 after k of its k (k + 1) / 2 row steps: ``opow ctable --k-max
30 | head`` and ``opow expand --u poly:... --k 40 | head`` return at once.
Importing this module loads no other opow module; each subcommand imports
the modules it runs when it runs (``expand --u`` loads only
``special_u``), so start-up cost follows the command.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from types import ModuleType

    from .ctable import CTable
    from .diffpoly import Notation
    from .report import VerificationReport
    from .special_u import SpecialTerm, URule

DEFAULT_MAX_K = 40


def _module(name: str) -> ModuleType:
    """The module ``opow.<name>``, imported on first use."""
    import importlib

    return importlib.import_module(f"{__package__}.{name}")


# A suite runner takes k_max, the oracle seed and a zero-argument function
# returning the shared extraction table.  Each runner imports its module and
# looks its verifier up when called, so a wrapper installed on a module
# attribute sees the call.
_SUITES: dict[str, Callable[[int, int, Callable[[], CTable]], VerificationReport]] = {
    "closed-form": lambda k, seed, table: _module("expansion").verify_closed_forms(k),
    "cross-check": lambda k, seed, table: _module("ctable").verify_cross_check(table()),
    "binomial": lambda k, seed, table: _module("ctable").verify_binomial_column(table()),
    "stirling2": lambda k, seed, table: _module("ctable").verify_stirling2_corner(table()),
    "stirling1-sum": lambda k, seed, table: _module("ctable").verify_stirling1_total(table()),
    "cycle-count": lambda k, seed, table: _module("ctable").verify_cycle_count_total(table()),
    "doublefact": lambda k, seed, table: _module("ctable").verify_factorial_weighted_total(table()),
    "inverse-z": lambda k, seed, table: _module("special_u").verify_inverse_z_table(k),
    "special-u": lambda k, seed, table: _module("special_u").verify_specializations(k),
    "oracle": lambda k, seed, table: _module("series").oracle_suite(k, seed=seed),
}

SUITE_ORDER = tuple(_SUITES)


def _max_k(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("OPOW_MAX_K", "")
    if not raw:
        return DEFAULT_MAX_K
    # Decimal reads a digit string of any length; int() refuses one past
    # Python's int/str conversion limit (4300 digits by default)
    from decimal import Decimal

    cap = int(Decimal(raw)) if raw.isascii() and raw.isdigit() else 0
    if cap < 1:
        parser.error(f"OPOW_MAX_K must be an integer >= 1, got {raw!r}")
    return cap


def _check_cap(parser: argparse.ArgumentParser, name: str, value: int, low: int) -> None:
    cap = _max_k(parser)
    if value < low:
        parser.error(f"{name} must be >= {low}")
    if value > cap:
        parser.error(f"{name}={value} exceeds the cap OPOW_MAX_K={cap}")


def _json(v: object, pad: str) -> str:
    """``v`` as ``json.dumps(indent=2)`` spells it at indentation ``pad``: an int, a
    string needing no escape, a Fraction (``p/q`` as a string), or a list, tuple or dict."""
    inner = pad + "  "
    if isinstance(v, dict):
        body = ",\n".join(f'{inner}"{key}": {_json(x, inner)}' for key, x in v.items())
        return f"{{\n{body}\n{pad}}}" if v else "{}"
    if isinstance(v, (list, tuple)):
        body = ",\n".join(inner + _json(x, inner) for x in v)
        return f"[\n{body}\n{pad}]" if v else "[]"
    text = str(v)
    return f'"{text}"' if isinstance(v, str) or "/" in text else text


def _write(chunks: Iterable[str]) -> None:
    """Write each chunk of command output to stdout and flush it: the one writer."""
    out = sys.stdout
    for chunk in chunks:
        out.write(chunk)
        out.flush()


def _json_chunks(head: dict[str, object], key: str, items: Iterable[str]) -> Iterator[str]:
    """``{**head, key: [...]}`` as ``print(json.dumps(..., indent=2))`` writes it: one
    list item (spelled at indentation 4) per chunk, the head with the first."""
    opening = _json(head, "")[:-2] + f',\n  "{key}": ['  # head without its closing "\n}"
    sep = opening + "\n    "
    for item in items:
        yield sep + item
        sep = ",\n    "
    yield "\n  ]\n}\n" if sep == ",\n    " else opening + "]\n}\n"


# expand rendering -----------------------------------------------------


def _generic_chunks(k: int, fmt: str) -> Iterator[str]:
    """A^k for a generic u, one P_s per chunk."""
    from .expansion import expand

    exp = expand(k)
    if fmt == "json":
        # the hot path: each monomial spelled by hand as _json would (none is empty)
        mono = ('{{\n          "coeff": {},\n          "exps": [\n'
                '            {}\n          ]\n        }}')
        sep = ",\n            "  # between the exponents of one monomial
        items = (
            f'{{\n      "s": {s},\n      "monomials": [\n        '
            + ",\n        ".join(mono.format(c, sep.join(map(str, e))) for c, e in p.terms)
            + "\n      ]\n    }"
            for s, p in sorted(exp.coeffs.items())
        )
        yield from _json_chunks({"k": k, "u": "generic"}, "terms", items)
        return
    from .diffpoly import LATEX, TEXT

    notation = TEXT if fmt == "text" else LATEX
    power = notation.power.format
    for s in range(1, k + 1):
        group = notation.group.format(exp.coeffs[s].render(notation))
        yield (" + " if s > 1 else power("A", k) + " = ") + group + power(notation.d, s)
    yield "\n"


def _special_term(t: SpecialTerm, notation: Notation) -> str:
    """One specialized term with the magnitude of its coefficient."""
    power = notation.power.format
    factors = [str(abs(t.coeff))]
    if t.z_exp != 0:
        factors.append(power("z", t.z_exp))
    if t.exp_mult != 0:
        factors.append(notation.exp.format(t.exp_mult))
    factors.append(power(notation.d, t.d_order))
    return " ".join(factors)


def _special_chunks(k: int, u_label: str, rule: URule, fmt: str) -> Iterator[str]:
    """A^k under the rule, one nonzero row P_s per chunk, as the direct route builds it."""
    from .special_u import specialized_rows

    rows = (row for row in specialized_rows(k, rule) if row)
    if fmt == "json":
        first = next(rows)  # there is one, as P_k = u^k is never zero
        head = {"k": k, "u": u_label, "exp_factor": first[0].exp_mult}
        items = (
            ",\n    ".join(_json([t.coeff, t.z_exp, t.d_order], "    ") for t in row)
            for row in chain((first,), rows)
        )
        yield from _json_chunks(head, "terms", items)
        return
    from .diffpoly import LATEX, TEXT, signed_join

    notation = TEXT if fmt == "text" else LATEX
    lead = notation.power.format("A", k) + " = "
    for row in rows:
        text = signed_join((t.coeff, _special_term(t, notation)) for t in row)
        # a later row goes on with the sum, as signed_join spells it: "+ x" or "- x"
        yield lead + text if lead else (" + " + text if row[0].coeff > 0 else " - " + text[1:])
        lead = ""
    yield "\n"


def _parse_u(parser: argparse.ArgumentParser, choice: str) -> URule | None:
    if choice == "generic":
        return None
    from . import special_u

    named = {"z": special_u.IDENTITY_Z, "exp": special_u.EXP_Z, "inv-z": special_u.INVERSE_Z}
    if choice in named:
        return named[choice]
    if choice.startswith("poly:"):
        import re
        from fractions import Fraction

        body = choice[len("poly:"):]
        tokens = body.split(",")
        # Fraction alone would also read "1_0", " 1", "1e3", "0.5" and
        # non-ASCII digits, and not the same way on every Python
        for tok in tokens:
            if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", tok):
                why = f"Invalid literal for Fraction: {tok!r}"
                parser.error(f"bad polynomial coefficients {body!r}: {why}")
        try:
            return special_u.polynomial_u([Fraction(tok) for tok in tokens])
        except ZeroDivisionError:
            parser.error(f"bad polynomial coefficients {body!r}: a denominator is zero")
        except ValueError as err:
            parser.error(f"bad polynomial coefficients {body!r}: {err}")
    parser.error(f"unknown u choice {choice!r} (use generic, z, exp, inv-z or poly:c0,c1,...)")
    raise AssertionError  # unreachable; parser.error raises SystemExit


def cmd_expand(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, "--k", args.k, 1)
    rule = _parse_u(parser, args.u)
    if rule is None:
        _write(_generic_chunks(args.k, args.format))
    else:
        _write(_special_chunks(args.k, args.u, rule, args.format))
    return 0


# table dumps ----------------------------------------------------------


def _cell(v: object) -> str:
    """One CSV field: a tuple joined by ';'."""
    return ";".join(map(str, v)) if isinstance(v, tuple) else str(v)


def _table_chunks(
    fmt: str, meta: dict[str, int], fields: tuple[str, ...], groups: Iterable[list[tuple]]
) -> Iterator[str]:
    """A table, one group of rows (one power, or one Stirling row) per
    chunk.  CSV is a header line, sent with the first group, then one line
    per row with a tuple field joined by ';'.  JSON is ``meta`` plus
    "entries", one object per row, with a tuple field as a list."""
    if fmt == "json":
        join = ",\n    ".join
        items = (join(_json(dict(zip(fields, row)), "    ") for row in rows) for rows in groups)
        yield from _json_chunks(meta, "entries", items)
        return
    header = ",".join(fields) + "\n"
    for rows in groups:
        yield header + "".join(",".join(map(_cell, row)) + "\n" for row in rows)
        header = ""


def cmd_ctable(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, "--k-max", args.k_max, 2)
    from .ctable import c_table_powers

    powers = ([(*key, v) for key, v in power] for power in c_table_powers(args.k_max))
    fields = ("k", "s", "m", "alpha", "value")
    _write(_table_chunks(args.format, {"k_max": args.k_max}, fields, powers))
    return 0


def cmd_atable(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, "--k-max", args.k_max, 1)
    from .special_u import a_table_by_recurrence

    table = a_table_by_recurrence(args.k_max)
    ks = range(1, args.k_max + 1)
    powers = ([(k, s, table[k, s]) for s in range(1, k + 1)] for k in ks)
    _write(_table_chunks(args.format, {"k_max": args.k_max}, ("k", "s", "value"), powers))
    return 0


def cmd_stirling(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, "--n-max", args.n_max, 1)
    from .combinat import stirling1_row, stirling2_row

    row = stirling1_row if args.kind == 1 else stirling2_row
    ns = range(1, args.n_max + 1)
    if args.format == "csv":
        rows = ([(n, m, v) for m, v in enumerate(row(n), start=1)] for n in ns)
        _write(_table_chunks("csv", {}, ("n", "m", "value"), rows))
    else:
        head = {"kind": args.kind, "n_max": args.n_max}
        _write(_json_chunks(head, "rows", (_json(row(n), "    ") for n in ns)))
    return 0


# verification ---------------------------------------------------------


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the named suites in order, writing each report as soon as its
    suite ends; the extraction table is built at most once."""
    _check_cap(parser, "--k-max", args.k_max, 2)
    names = list(SUITE_ORDER) if args.suite == "all" else [args.suite]
    built: list[CTable | ArithmeticError] = []  # the table, or the guard its build tripped

    def table() -> CTable:
        if not built:
            try:
                built.append(_module("ctable").c_table_from_expansions(args.k_max))
            except ArithmeticError as err:
                built.append(err)
        if isinstance(built[0], ArithmeticError):
            raise built[0]
        return built[0]

    checks = failures = 0
    for name in names:
        try:
            report = _SUITES[name](args.k_max, args.seed, table)
        except ArithmeticError as err:  # a guard inside the suite tripped
            report = _module("report").VerificationReport(name, args.k_max)
            report.expect(False, "guard", "no error", f"{type(err).__name__}: {err}")
        _write(["\n".join(report.render_lines()) + "\n"])
        checks += report.checks
        failures += len(report.failures)
    status = "PASS" if failures == 0 else "FAIL"
    _write([f"overall: {status} suites={len(names)} checks={checks} failures={failures}\n"])
    return 0 if failures == 0 else 1


# entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opow",
        description="Exact normal ordering of powers of u(z) d/dz: "
        "expansions, coefficient tables, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="render the normal-ordered form of A^k")
    p.add_argument("--k", type=int, required=True, help="operator power (>= 1)")
    p.add_argument(
        "--u",
        default="generic",
        help="substitution: generic, z, exp, inv-z, or poly:c0,c1,...",
    )
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("ctable", help="dump the coefficient table")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_ctable)

    p = sub.add_parser("atable", help="dump the signed 1/z coefficient table")
    p.add_argument("--k-max", type=int, default=15)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_atable)

    p = sub.add_parser("stirling", help="dump a Stirling triangle")
    p.add_argument("--kind", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_stirling)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("all",) + SUITE_ORDER, default="all")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="seed for the oracle suite")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(parser, args)


def _skip_final_collection() -> None:
    """Leave every object to the process exit, not to a last collection."""
    gc.disable()
    gc.freeze()


def run() -> None:
    """Entry point of the ``opow`` executable and of ``python -m opow``.

    A reader that closes the pipe early (``opow ctable | head -1``) ends
    the run with exit code 141 and no traceback; any other error writing
    the output (``opow verify > /dev/full``) ends it with one stderr line,
    written if stderr can take it, and exit code 74.  ``--help`` follows
    the same rule.  Any other exception that escapes a command ends the
    run with one stderr line, ``opow: internal error: <type>[: <message>]``,
    written if stderr can take it, and exit code 70; exit code 1 stays a
    failed check, a guard that trips inside a ``verify`` suite included.
    An interrupt (SIGINT, Ctrl-C) ends it with exit code 130, the code a
    shell reports for a command killed by SIGINT, and writes nothing to
    stderr; stdout then goes to devnull, as for a closed pipe.
    Python's limit on the digits of an int rendered as a string is
    lifted, so output stays exact at every size.

    A stdout left None (fd 1 closed) is such an error, found before
    ``main`` runs.  Even when PYTHONUNBUFFERED is set, stdout holds each
    write until flushed, because argparse drops the OSError of the write
    of ``--help``; a command's output goes through one writer, which
    flushes each chunk as it writes it.

    The command runs without the cyclic garbage collector, which would
    keep walking every live monomial (about 11% of ``expand --k 28``)
    while opow's values form no reference cycles to free; the caller's
    state of the collector comes back when the command ends.
    At exit the interpreter still makes its final collection, enabled
    collector or not, walking every object of every loaded module (about
    10 ms) just before the process frees them all: an ``atexit`` callback
    registered here, and so run before any registered earlier, disables
    the collector and freezes every object.  The callbacks registered
    earlier (coverage's, a profiler's) still run, after it.  ``main``
    leaves the collector alone and registers nothing.
    """
    atexit.unregister(_skip_final_collection)  # once per process
    atexit.register(_skip_final_collection)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        # the help text then fails at the flush below, not inside argparse
        sys.stdout.reconfigure(write_through=False)
        enabled = gc.isenabled()
        gc.disable()  # opow's values form no reference cycles: a collection frees nothing
        try:
            code = main()
        except SystemExit as exit_:  # how argparse ends --help and usage errors
            code = exit_.code
        finally:
            if enabled:
                gc.enable()
        sys.stdout.flush()
    except (OSError, KeyboardInterrupt) as err:
        # As the signal module docs advise for SIGPIPE: point stdout at
        # devnull so that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        if sys.stdout is not None:
            os.dup2(devnull, sys.stdout.fileno())
        if isinstance(err, KeyboardInterrupt):
            sys.exit(130)  # 128 + SIGINT
        if isinstance(err, BrokenPipeError):
            sys.exit(141)  # 128 + SIGPIPE
        _complain(f"cannot write output: {err}")
        sys.exit(74)  # EX_IOERR of sysexits.h
    except Exception as err:  # a bug, or memory ran out: not a failed check
        detail = f"{type(err).__name__}: {err}" if str(err) else type(err).__name__
        _complain(f"internal error: {detail}")
        sys.exit(70)  # EX_SOFTWARE of sysexits.h
    sys.exit(code)


def _complain(message: str) -> None:
    """Write ``opow: <message>`` to stderr if it can take it, else point
    stderr at devnull, so that its flush at exit cannot fail."""
    try:
        print(f"opow: {message}", file=sys.stderr)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
