"""Traced in-process run of one ``opow`` command.

Usage (from the checkout root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py <opow arguments...>

The script wraps the public functions of every opow module in spans,
runs ``opow.cli.main`` on the given arguments, and writes the command's
own output to stdout followed by ``MARK`` and one JSON object of
per-layer figures (see :func:`summarize`).  It exits with the command's
exit code.

A span records its name, start, end and the index of the span that was
open when it began.  Spans stay in memory until the command has
finished; a layer's self time is the sum over its spans of duration
minus the time covered by their direct children.

Wrappers are installed on every module attribute that holds the
original function, because ``cli``, ``ctable``, ``special_u`` and
``series`` bind ``expand``, ``step``, ``oracle_suite`` and others with
``from ... import``; patching only the defining module would miss those
calls.  Operators are hooked on the classes themselves.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from collections import Counter
from types import ModuleType
from typing import Any, Callable

MARK = b"\n#opow-trace "

# Layers whose total self time is reported as "<layer>.self_s".
LAYERS = ("series", "diffpoly", "expansion", "special_u", "combinat", "ctable", "cli")


class SpanRecorder:
    """In-memory span log: one ``[name, start, end, parent]`` per call."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.names: set[str] = set()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.names.add(name)
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name, zero for names never called: calls and summed self time."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter(dict.fromkeys(self.names, 0))
        self_s = Counter(dict.fromkeys(self.names, 0.0))
        for (name, start, end, _parent), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, self_s


class Probe:
    """Installs the spans and the size counters on the opow modules."""

    def __init__(self, recorder: SpanRecorder) -> None:
        import opow
        from opow import (
            cli,
            combinat,
            ctable,
            diffpoly,
            expansion,
            report,
            series,
            special_u,
        )

        self.rec = recorder
        self.modules = [opow, cli, combinat, ctable, diffpoly, expansion, report, series, special_u]
        self.counts: Counter = Counter()
        self.largest_expansion = None
        self.largest_table = 0
        counts = self.counts

        # expansion
        def after_step(args: tuple, result: Any) -> None:
            if self.largest_expansion is None or result.k > self.largest_expansion.k:
                self.largest_expansion = result

        self.function(expansion, "step", "expansion.step", after=after_step)
        for name in ("expand", "extract_C", "extract_F", "check_closed_forms", "verify_closed_forms"):
            self.function(expansion, name, f"expansion.{name}")

        # diffpoly: normalize is where like terms merge, so count its input and output
        def before_normalize(args: tuple) -> None:
            counts["diffpoly.normalize.monomials_in"] += len(args[0])

        def after_normalize(args: tuple, result: Any) -> None:
            counts["diffpoly.normalize.terms_out"] += len(result.terms)

        self.function(diffpoly, "normalize", "diffpoly.normalize", before_normalize, after_normalize)
        self.function(diffpoly, "total_derivative", "diffpoly.total_derivative")
        self.method(diffpoly.DiffPolynomial, ("__mul__", "__rmul__"), "diffpoly.mul")
        self.method(diffpoly.DiffPolynomial, ("__add__",), "diffpoly.add")

        # combinat
        def after_compositions(args: tuple, result: Any) -> None:
            counts["combinat.compositions.tuples_out"] += len(result)

        self.function(combinat, "compositions", "combinat.compositions", after=after_compositions)
        for name in (
            "binomial",
            "double_factorial_odd",
            "stirling2_row",
            "stirling2",
            "stirling1_row",
            "stirling1_unsigned",
            "bell",
            "cycle_type_count",
            "permutations_by_cycle_count",
        ):
            self.function(combinat, name, "combinat.refs")

        # ctable
        def after_table(args: tuple, result: Any) -> None:
            self.largest_table = max(self.largest_table, len(result.entries))

        for name in ("c_table_by_recurrence", "c_table_from_expansions"):
            self.function(ctable, name, f"ctable.{name}", after=after_table)
        for name in (
            "verify_cross_check",
            "verify_binomial_column",
            "verify_stirling2_corner",
            "verify_stirling1_total",
            "verify_cycle_count_total",
            "verify_factorial_weighted_total",
        ):
            self.function(ctable, name, "ctable.verifiers")

        # special_u
        def before_specialize(args: tuple) -> None:
            counts["special_u.specialize.monomials_in"] += sum(
                len(p.terms) for p in args[0].coeffs.values()
            )

        def after_specialize(args: tuple, result: Any) -> None:
            counts["special_u.specialize.terms_out"] += len(result)

        self.function(special_u, "specialize", "special_u.specialize", before_specialize, after_specialize)
        self.function(special_u, "a_table_by_recurrence", "special_u.a_table_by_recurrence")
        for name in ("verify_inverse_z_table", "verify_specializations"):
            self.function(special_u, name, "special_u.verifiers")

        # series
        def after_oracle(args: tuple, result: Any) -> None:
            counts["series.oracle.trials"] += result.checks

        self.function(series, "oracle_suite", "series.oracle", after=after_oracle)
        for name in ("oracle_check", "apply_A_repeated", "apply_expansion", "eigenfunction_report"):
            self.function(series, name, f"series.{name}")
        self.method(series.LaurentSeries, ("__mul__", "__rmul__"), "series.mul")

        # report: counts only, so a dropped check shows without timing noise
        original_expect = report.VerificationReport.expect

        @functools.wraps(original_expect)
        def expect(rep: Any, condition: bool, *rest: Any) -> None:
            counts["report.checks"] += 1
            counts["report.failures"] += not condition
            original_expect(rep, condition, *rest)

        report.VerificationReport.expect = expect

        self.function(cli, "main", "cli")

    def function(
        self,
        home: ModuleType,
        name: str,
        span: str,
        before: Callable[[tuple], None] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Wrap ``home.name`` wherever an opow module binds that function."""
        original = getattr(home, name)
        wrapped = self.rec.wrap(span, original)
        if before is not None or after is not None:
            wrapped = _with_counters(wrapped, before, after)
        sites = 0
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    sites += 1
        if not sites:
            raise LookupError(f"{home.__name__}.{name} is bound nowhere")

    def method(self, cls: type, names: tuple[str, ...], span: str) -> None:
        for name in names:
            setattr(cls, name, self.rec.wrap(span, vars(cls)[name]))


def _with_counters(
    fn: Callable,
    before: Callable[[tuple], None] | None,
    after: Callable[[tuple, Any], None] | None,
) -> Callable:
    # The counters run outside the span, so their cost lands in the caller.
    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(args)
        result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return counted


def summarize(probe: Probe, output_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced command, keyed by metric name."""
    calls, self_s = probe.rec.self_times()
    out: dict[str, float] = {}
    for name in sorted(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.split(".")[0] == layer)
    c = probe.counts
    for name in (
        "series.oracle.trials",
        "diffpoly.normalize.monomials_in",
        "special_u.specialize.monomials_in",
        "special_u.specialize.terms_out",
        "combinat.compositions.tuples_out",
        "report.checks",
        "report.failures",
    ):
        out[name] = c[name]
    merged_in = c["diffpoly.normalize.monomials_in"]
    out["diffpoly.normalize.merge_ratio"] = (
        c["diffpoly.normalize.terms_out"] / merged_in if merged_in else 0.0
    )
    exp = probe.largest_expansion
    out["expansion.terms"] = sum(len(p.terms) for p in exp.coeffs.values()) if exp else 0
    out["expansion.max_coeff_bits"] = max(
        (abs(m.coeff).bit_length() for p in exp.coeffs.values() for m in p.terms), default=0
    ) if exp else 0
    out["ctable.entries"] = probe.largest_table
    out["cli.output_bytes"] = output_bytes
    return out


class _CountingWriter(io.TextIOBase):
    """Passes text through to ``inner`` and counts the encoded bytes."""

    def __init__(self, inner: io.TextIOBase) -> None:
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return self.inner.write(text)

    def flush(self) -> None:
        self.inner.flush()


def main(argv: list[str]) -> int:
    from opow import cli

    probe = Probe(SpanRecorder())
    real_stdout = sys.stdout
    sink = _CountingWriter(real_stdout)
    sys.stdout = sink
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 2
    finally:
        sys.stdout = real_stdout
    real_stdout.flush()
    summary = json.dumps(summarize(probe, sink.bytes))
    sys.stdout.buffer.write(MARK + summary.encode() + b"\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
