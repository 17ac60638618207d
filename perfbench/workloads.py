"""The benchmark's four ``opow`` commands and their correctness checks.

Each workload turns a seed into a :class:`Case`: the command-line
arguments of one ``python -m opow`` run and a checker for its stdout.
A checker returns the run's work units (the numerator of
``work_per_s``) or raises :class:`CheckFailed`.

The checkers use only the few-line references below (partition
numbers, unsigned first-kind Stirling numbers, literal application of
``u d/dz`` to a polynomial) and import nothing from ``opow``, so a run
is never judged by the code it measures.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm
from typing import Callable


class CheckFailed(Exception):
    """The command's exit code or output is wrong."""


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    check: Callable[[bytes], int]

    def judge(self, returncode: int, output: bytes) -> int:
        """Work units of a run that exited 0 with a correct output."""
        if returncode != 0:
            raise CheckFailed(f"exit code {returncode}")
        return self.check(output)


# references -------------------------------------------------------------


def partition_numbers(n: int) -> list[int]:
    """p(0..n) by counting partitions part size by part size."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p


def stirling1_unsigned(n: int) -> list[list[int]]:
    """c(i, j) for 0 <= j <= i <= n from c(i+1, j) = i c(i, j) + c(i, j-1)."""
    c = [[1]]
    for i in range(n):
        row = c[-1] + [0]
        c.append([i * row[j] + (row[j - 1] if j else 0) for j in range(i + 2)])
    return c


def apply_literal(u: list, n: int, k: int, truncate: bool = False) -> dict[int, Fraction]:
    """(u d/dz)^k z^n, one application at a time, as {exponent: coefficient}.

    With ``truncate`` only the exponents that can still reach z^0 in the
    remaining applications are kept, which is enough for the value at 0.
    """
    f = {n: Fraction(1)}
    for i in range(k):
        keep = k - i - 1 if truncate else None
        g: dict[int, Fraction] = {}
        for e, c in f.items():
            for j, uj in enumerate(u):
                if e and (keep is None or e - 1 + j <= keep):
                    g[e - 1 + j] = g.get(e - 1 + j, 0) + e * c * uj
        f = {e: c for e, c in g.items() if c}
    return f


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# verify -------------------------------------------------------------------

VERIFY_LAST_LINE = "overall: PASS suites=10 checks=768 failures=0"


def verify_case(seed: int) -> Case:
    return Case(("verify", "--suite", "all", "--k-max", "7", "--seed", str(seed)), check_verify)


def check_verify(output: bytes) -> int:
    lines = output.decode().splitlines()
    _require(bool(lines) and lines[-1] == VERIFY_LAST_LINE, f"last line {lines[-1:]!r}")
    return 768


# expand-generic -----------------------------------------------------------

GENERIC_K = 28


def expand_generic_case(seed: int) -> Case:
    return Case(("expand", "--k", str(GENERIC_K), "--format", "json"), check_expand_generic)


def check_expand_generic(output: bytes, k: int = GENERIC_K) -> int:
    """terms[k-s] holds p(s) monomials; the coefficients of terms[s] sum to
    c(k, s); every monomial has degree k and weight k - s.

    The sums cannot see two coefficients of one terms[s] trading places, so
    the expansion is also evaluated at a polynomial u = c0 + c1 z + ...
    whose jets u^(j)(0) = j! c_j are all nonzero: applied to z^n and taken
    at z = 0 it leaves n! times terms[n] evaluated at those jets, which
    must match k literal applications of u d/dz.
    """
    payload = json.loads(output)
    _require(payload["k"] == k and payload["u"] == "generic", "header")
    terms = payload["terms"]
    _require([t["s"] for t in terms] == list(range(1, k + 1)), "derivative orders")
    p = partition_numbers(k)
    c = stirling1_unsigned(k)
    monomials = 0
    for t in terms:
        s, monos = t["s"], t["monomials"]
        _require(len(monos) == p[k - s], f"s={s}: {len(monos)} monomials, want p({k - s})")
        _require(sum(m["coeff"] for m in monos) == c[k][s], f"s={s}: coefficient sum")
        exps = [tuple(m["exps"]) for m in monos]
        _require(len(set(exps)) == len(exps), f"s={s}: repeated monomial")
        for m, e in zip(monos, exps):
            _require(m["coeff"] > 0 and (not e or e[-1] > 0), f"s={s}: monomial {m}")
            _require(sum(e) == k, f"s={s}: degree of {e}")
            _require(sum(j * x for j, x in enumerate(e)) == k - s, f"s={s}: weight of {e}")
        monomials += len(monos)
    rng = random.Random(k)
    u = [rng.randint(1, 9) for _ in range(k)]
    jets = [factorial(j) * cj for j, cj in enumerate(u)]
    for t in terms:
        n = t["s"]
        value = 0
        for m in t["monomials"]:
            term = m["coeff"]
            for j, e in enumerate(m["exps"]):
                term *= jets[j] ** e
            value += term
        want = apply_literal(u, n, k, truncate=True).get(0, 0)
        _require(value * factorial(n) == want, f"s={n}: value at u = {u}")
    return monomials


# expand-poly --------------------------------------------------------------

POLY_K = 16
# |c0|..|c3|.  The seed picks only the signs: the magnitudes set the size
# of the Fraction arithmetic, so fixing them keeps the work per seed even.
POLY_MAGNITUDES = (Fraction(3, 2), Fraction(2), Fraction(1), Fraction(3))


def poly_coefficients(seed: int) -> list[Fraction]:
    """Four nonzero coefficients c0..c3 with seeded signs; c0 is not an integer."""
    rng = random.Random(seed)
    return [m * rng.choice((1, -1)) for m in POLY_MAGNITUDES]


def expand_poly_case(seed: int) -> Case:
    coeffs = poly_coefficients(seed)
    label = "poly:" + ",".join(map(str, coeffs))

    def check(output: bytes) -> int:
        return check_expand_poly(output, label, coeffs, POLY_K)

    return Case(("expand", "--u", label, "--k", str(POLY_K), "--format", "json"), check)


def check_expand_poly(output: bytes, label: str, u: list[Fraction], k: int) -> int:
    """The emitted operator applied to z^n, n = 1..k, equals k literal
    applications of u d/dz.  Since (d/dz)^d z^n vanishes exactly for
    d > n, this pins the coefficient of every (z_exp, d_order) pair."""
    payload = json.loads(output)
    _require(payload["k"] == k and payload["u"] == label, "header")
    _require(payload["exp_factor"] == 0, "exp_factor")
    terms = [(Fraction(c), z, d) for c, z, d in payload["terms"]]
    _require(all(c and 1 <= d <= k and z >= 0 for c, z, d in terms), "term shape")
    _require(len({(z, d) for _, z, d in terms}) == len(terms), "repeated term")
    for n in range(1, k + 1):
        got: dict[int, Fraction] = {}
        for c, z, d in terms:
            if d <= n:
                got[z + n - d] = got.get(z + n - d, 0) + c * perm(n, d)
        got = {e: c for e, c in got.items() if c}
        _require(got == apply_literal(u, n, k), f"A^{k} z^{n}")
    return len(terms)


# ctable -------------------------------------------------------------------

CTABLE_K_MAX = 20


def ctable_case(seed: int) -> Case:
    return Case(("ctable", "--k-max", str(CTABLE_K_MAX), "--format", "csv"), check_ctable)


def check_ctable(output: bytes, k_max: int = CTABLE_K_MAX) -> int:
    """p(s) rows per (k, s), summing to c(k, k - s), for 1 <= s < k <= k_max."""
    rows = list(csv.reader(io.StringIO(output.decode())))
    _require(bool(rows) and rows[0] == ["k", "s", "m", "alpha", "value"], "header")
    p = partition_numbers(k_max)
    c = stirling1_unsigned(k_max)
    count: dict[tuple[int, int], int] = {}
    total: dict[tuple[int, int], int] = {}
    keys = set()
    for row in rows[1:]:
        _require(len(row) == 5, f"row {row}")
        k, s, m = int(row[0]), int(row[1]), int(row[2])
        alpha = tuple(int(a) for a in row[3].split(";"))
        value = int(row[4])
        _require(1 <= m <= s < k <= k_max and value > 0 and alpha[-1] > 0, f"row {row}")
        _require(sum(alpha) == m, f"row {row}: parts")
        _require(sum(i * a for i, a in enumerate(alpha, start=1)) == s, f"row {row}: weight")
        _require((k, s, alpha) not in keys, f"row {row}: repeated")
        keys.add((k, s, alpha))
        count[(k, s)] = count.get((k, s), 0) + 1
        total[(k, s)] = total.get((k, s), 0) + value
    want = {(k, s) for k in range(2, k_max + 1) for s in range(1, k)}
    _require(set(count) == want, "(k, s) pairs")
    for k, s in sorted(want):
        _require(count[(k, s)] == p[s], f"k={k} s={s}: row count")
        _require(total[(k, s)] == c[k][k - s], f"k={k} s={s}: value sum")
    return len(rows) - 1


WORKLOADS: dict[str, Callable[[int], Case]] = {
    "verify": verify_case,
    "expand-generic": expand_generic_case,
    "expand-poly": expand_poly_case,
    "ctable": ctable_case,
}
