"""Benchmark of the ``opow`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program under test is ``python -m opow`` with PYTHONPATH set to the
checkout's ``src``.  One closed-loop client runs the workload's command
again and again, one at a time, until ``--seconds`` have passed; the
machine this was written for has two CPUs, so nothing runs beside it.
Every output is checked outside the timed window (see workloads.py).

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
the mean times of the run's commands, their median peak RSS, and the
median set-up time of fresh interpreters started between the commands,
with every time scaled to a reference speed of the machine (see
REFERENCE_S).
``--trace 1`` alternates an untraced command with the same command under
perfbench/tracer.py and reports the per-layer metrics: medians for
times, and counts, which must repeat exactly from one traced command to
the next.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without a ``src/opow`` beside the benchmark the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MARK
from workloads import WORKLOADS, Case, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# The least number of fresh interpreters started to time set-up.  One runs
# before each command, so that they meet the same phases of the machine.
SETUP_SPAWNS = 11
SETUP_CMD = [sys.executable, "-c", "import opow.cli"]
# On the machine this was written for, the speed of one command drifts by
# up to a half in phases that last from seconds to minutes, CPU time with
# it, so that the mean times of ten 25-second runs spread by 13-31% of
# their median.  reference.py, a fixed piece of work started before each command,
# slows down with them.  Times are reported scaled by REFERENCE_S over the
# reference's mean: what they would be on the machine when reference.py
# takes REFERENCE_S.
MEAN = ("wall_s", "cpu_s", "first_output_s")
SCALED = (*MEAN, "setup_s")
# About what reference.py took on that machine; it only sets the scale.
REFERENCE_S = 0.3
# A command still running this long after the benchmark started is killed
# and counted as failed, so that the benchmark ends within its time limit.
DEADLINE_S = 150.0


@dataclass
class Sample:
    returncode: int
    output: bytes
    wall_s: float
    cpu_s: float
    first_output_s: float
    peak_rss_mb: float


def spawn(cmd: list[str], env: dict[str, str], deadline: float) -> Sample:
    """Run one command to its end, draining stdout, and read its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    status = None
    try:
        fd = proc.stdout.fileno()
        chunks = []
        first = None
        while chunk := os.read(fd, 1 << 16):
            if first is None:
                first = time.perf_counter()
            chunks.append(chunk)
        # wait4 gives this child's rusage; RUSAGE_CHILDREN would report the
        # largest peak RSS of every child so far.
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    finally:
        killer.cancel()
        proc.stdout.close()
        if status is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        returncode=proc.returncode,
        output=b"".join(chunks),
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        first_output_s=(first if first is not None else end) - start,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


def judge(case: Case, samples: list[Sample]) -> tuple[int, int]:
    """Failed commands and the work units of a correct output.

    Equal outputs are checked once; a command fails when its exit code or
    its output is wrong.
    """
    verdicts: dict[tuple[int, bytes], int | None] = {}
    failed = 0
    units = 0
    for s in samples:
        key = (s.returncode, hashlib.sha256(s.output).digest())
        if key not in verdicts:
            try:
                verdicts[key] = case.judge(s.returncode, s.output)
            except (CheckFailed, ValueError, LookupError, TypeError, AttributeError) as err:
                print(f"check failed: {type(err).__name__}: {err}")
                verdicts[key] = None
        if verdicts[key] is None:
            failed += 1
        else:
            units = verdicts[key]
    return failed, units


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_run(case: Case, env: dict[str, str], seconds: int,
              deadline: float) -> tuple[int, int, dict[str, float]]:
    cmd = [sys.executable, "-m", "opow", *case.argv]
    reference_cmd = [sys.executable, str(REFERENCE)]
    samples: list[Sample] = []
    setup: list[Sample] = []
    reference: list[float] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setup.append(spawn(SETUP_CMD, env, deadline))
        ref = spawn(reference_cmd, env, deadline)
        if ref.returncode != 0:
            raise SystemExit("perfbench/reference.py failed")
        reference.append(float(ref.output))
        samples.append(spawn(cmd, env, deadline))
    while len(setup) < SETUP_SPAWNS:
        setup.append(spawn(SETUP_CMD, env, deadline))
    if any(s.returncode != 0 for s in setup):
        raise SystemExit("python -c 'import opow.cli' failed")
    failed, units = judge(case, samples)
    series = {
        "setup_s": [s.wall_s for s in setup],
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "first_output_s": [s.first_output_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
    }
    scale = REFERENCE_S / statistics.fmean(reference)
    print(f"commands={len(samples)} setup_spawns={len(setup)} work_units={units} "
          f"fail_frac={failed / len(samples):.3f}")
    print(f"  reference_s      mean={statistics.fmean(reference):.6g} scale={scale:.6g} "
          f"n={len(reference)}")
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<16} mean={statistics.fmean(values):.6g} median={q2:.6g} q1={q1:.6g} "
              f"q3={q3:.6g} n={len(values)}")
    values = {name: statistics.fmean(v) if name in MEAN else statistics.median(v)
              for name, v in series.items()}
    for name in SCALED:
        values[name] *= scale
    # Not a metric of its own: at a fixed input size it is wall_s upside down.
    print(f"  work_per_s       {units / values['wall_s']:.6g} (work units / scaled wall_s)")
    return len(samples), failed, values


def traced_run(case: Case, env: dict[str, str], seconds: int,
               deadline: float) -> tuple[int, int, dict[str, float]]:
    plain_cmd = [sys.executable, "-m", "opow", *case.argv]
    traced_cmd = [sys.executable, str(TRACER), *case.argv]
    plain: list[Sample] = []
    traced: list[Sample] = []
    summaries: list[dict[str, float]] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(spawn(plain_cmd, env, deadline))
        sample = spawn(traced_cmd, env, deadline)
        sample.output, mark, summary = sample.output.rpartition(MARK)
        traced.append(sample)
        if mark:
            summaries.append(json.loads(summary))
    failed, _ = judge(case, plain + traced)
    if not summaries:
        raise SystemExit("no traced command printed its summary")
    failed += len(traced) - len(summaries)
    # Counts are structural: a traced command that disagrees with the first
    # one lost or gained calls, so it counts as failed.
    counts = {k: v for k, v in summaries[0].items() if not k.endswith("_s")}
    for summary in summaries[1:]:
        if {k: v for k, v in summary.items() if not k.endswith("_s")} != counts:
            print("traced counts differ between commands")
            failed += 1
    metrics = dict(counts)
    for name in summaries[0]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(s[name] for s in summaries)
    metrics["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
    )
    print(f"traced={len(traced)} untraced={len(plain)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g}")
    return len(plain) + len(traced), failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "opow" / "cli.py").is_file():
        print(f"no opow sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    case = WORKLOADS[args.workload](args.seed)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("command: python -m opow " + " ".join(case.argv))

    # Also the warm-up: the first import compiles the byte code.
    if spawn(SETUP_CMD, env, deadline).returncode != 0:
        print("python -c 'import opow.cli' failed", file=sys.stderr)
        return 2

    if args.trace:
        attempted, failed, values = traced_run(case, env, args.seconds, deadline)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values = timed_run(case, env, args.seconds, deadline)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
