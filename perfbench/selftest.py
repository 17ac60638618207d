"""Self-tests of the benchmark: every checker can fail, every hook fires.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Each checker first accepts a real ``opow`` output at a small size and
then must reject the same output with one corruption in it.  The traced
run must report exactly the structural counts the programme had when
the benchmark was written: a count that comes out lower means a call
escaped the hooks.  A change that lowers one on purpose (say, a single
walk over the powers in ``verify``) updates the number here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

from tracer import MARK
from workloads import (
    CheckFailed,
    check_ctable,
    check_expand_generic,
    check_expand_poly,
    poly_coefficients,
    verify_case,
)

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def opow(*argv: str) -> bytes:
    done = subprocess.run([sys.executable, "-m", "opow", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, check=True)
    return done.stdout


def traced(*argv: str) -> dict[str, float]:
    done = subprocess.run([sys.executable, str(Path(__file__).parent / "tracer.py"), *argv],
                          cwd=ROOT, env=ENV, capture_output=True, check=True)
    return json.loads(done.stdout.rpartition(MARK)[2])


class CheckersReject(unittest.TestCase):
    def test_expand_generic(self) -> None:
        good = opow("expand", "--k", "9", "--format", "json")
        self.assertEqual(check_expand_generic(good, k=9), 67)
        payload = json.loads(good)
        payload["terms"][3]["monomials"][1]["coeff"] *= -1
        with self.assertRaisesRegex(CheckFailed, "s=4"):
            check_expand_generic(json.dumps(payload).encode(), k=9)

    def test_expand_generic_swapped_coefficients(self) -> None:
        good = json.loads(opow("expand", "--k", "9", "--format", "json"))
        monos = good["terms"][3]["monomials"]
        self.assertNotEqual(monos[0]["coeff"], monos[1]["coeff"])
        monos[0]["coeff"], monos[1]["coeff"] = monos[1]["coeff"], monos[0]["coeff"]
        with self.assertRaisesRegex(CheckFailed, "value at u"):
            check_expand_generic(json.dumps(good).encode(), k=9)

    def test_ctable_dropped_row(self) -> None:
        good = opow("ctable", "--k-max", "8")
        self.assertEqual(check_ctable(good, k_max=8), 112)
        lines = good.decode().splitlines(keepends=True)
        del lines[40]
        with self.assertRaises(CheckFailed):
            check_ctable("".join(lines).encode(), k_max=8)

    def test_expand_poly_wrong_term(self) -> None:
        u = poly_coefficients(5)
        label = "poly:" + ",".join(map(str, u))
        good = json.loads(opow("expand", "--u", label, "--k", "6", "--format", "json"))
        self.assertEqual(check_expand_poly(json.dumps(good).encode(), label, u, 6), len(good["terms"]))
        doubled = json.loads(json.dumps(good))
        doubled["terms"][7][0] = str(Fraction(doubled["terms"][7][0]) * 2)
        shifted = json.loads(json.dumps(good))
        shifted["terms"][7][1] += 1
        for bad in (doubled, shifted):
            with self.assertRaises(CheckFailed):
                check_expand_poly(json.dumps(bad).encode(), label, u, 6)

    def test_expand_poly_case_uses_a_non_integer(self) -> None:
        for seed in range(20):
            coeffs = poly_coefficients(seed)
            self.assertTrue(all(coeffs) and any(c.denominator > 1 for c in coeffs))

    def test_verify_nonzero_exit(self) -> None:
        case = verify_case(0)
        good = opow("verify", "--suite", "all", "--k-max", "7", "--seed", "0")
        self.assertEqual(case.judge(0, good), 768)
        with self.assertRaisesRegex(CheckFailed, "exit code 1"):
            case.judge(1, good)
        with self.assertRaises(CheckFailed):
            case.judge(0, good.replace(b"checks=768", b"checks=767"))


class HooksCatchEveryCall(unittest.TestCase):
    def test_expand_generic_counts(self) -> None:
        got = traced("expand", "--k", "28", "--format", "json")
        self.assertEqual(got["expansion.step.calls"], 27)
        self.assertEqual(got["expansion.terms"], 14742)
        self.assertEqual(got["expansion.max_coeff_bits"], 92)

    def test_verify_counts(self) -> None:
        first = traced(*verify_case(1).argv)
        self.assertEqual(first["expansion.step.calls"], 30)
        self.assertEqual(first["series.apply_A_repeated.calls"], 350)
        self.assertEqual(first["series.oracle.trials"], 350)
        self.assertEqual(first["report.checks"], 768)
        self.assertEqual(first["report.failures"], 0)
        second = traced(*verify_case(2).argv)
        counts = {k: v for k, v in first.items() if not k.endswith("_s")}
        self.assertEqual(counts, {k: v for k, v in second.items() if not k.endswith("_s")})


if __name__ == "__main__":
    unittest.main()
