"""The routes that check one another share no code.

Each route runs at a small k under ``sys.setprofile``, which records
every opow function it calls as ``(file, qualname)``; a nested function,
generator or comprehension counts as the function that defines it.  Any
two routes may share only the functions in SHARED.  Shared stdlib and C
code (``math.comb``, int arithmetic) is not seen and does not count.
"""

import itertools
import math
import sys
import types
from pathlib import Path

import opow
from opow import combinat, ctable, diffpoly, expansion, report, series, special_u

K = 6

SHARED = {
    # the recurrence builds its keys with it; the engine trims exponent tuples
    ("diffpoly.py", "trim"),
    # the generic field setter of every record, which the engine, the recurrence
    # and the oracle's literal side call to build their tables, polynomials and jets
    ("__init__.py", "_Record.__init__"),
}

MODULES = (opow, combinat, ctable, diffpoly, expansion, report, series, special_u)
FILES = {m.__file__ for m in MODULES}


def code_owners():
    """Each code object of an opow module mapped to the (file, qualname)
    of the module-level function or method that defines it."""
    owners = {}

    def claim(code, owner):
        owners[code] = owner
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                claim(const, owner)

    for module in MODULES:
        path = module.__file__
        home = Path(path).name
        namespaces = [vars(module)]
        namespaces += [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for namespace in namespaces:
            for obj in namespace.values():
                # a property's getter; a classmethod's or staticmethod's function
                fn = obj.fget if isinstance(obj, property) else getattr(obj, "__func__", obj)
                # a function imported from another module is claimed in its own
                if isinstance(fn, types.FunctionType) and fn.__code__.co_filename == path:
                    claim(fn.__code__, (home, fn.__qualname__))
    return owners


OWNERS = code_owners()


def opow_calls(route):
    """The (file, qualname) of every opow function that route() calls."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in FILES:
            seen.add(OWNERS.get(code, (Path(code.co_filename).name, code.co_name)))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route()
    finally:
        sys.setprofile(previous)
    return seen


def routes():
    exp = expansion.expand(K)
    # each power's P_s as the monomials (c, [(j, e) with e > 0]) that _evaluate takes
    polys = [
        {
            s: [(c, [(j, e) for j, e in enumerate(v) if e]) for c, v in p.terms]
            for s, p in power.coeffs.items()
        }
        for power in expansion.expansions(K)
    ]
    rule = special_u.polynomial_u([1, -2, 3])
    # Taylor coefficients of u and f at z = 0, and the values there of their derivatives
    u, f = (1, -2, 3, 0, 4, -1, 2), (2, 0, 1, 5, -3, 1, 1)
    u_values = [c * math.factorial(j) for j, c in enumerate(u)]
    f_values = [c * math.factorial(s) for s, c in enumerate(f)]
    return {
        # the engine's walk of the powers, read off into the extraction table
        "engine": lambda: ctable.c_table_from_expansions(K),
        "recurrence": lambda: ctable.c_table_by_recurrence(K),
        "direct specialization": lambda: special_u.expand_specialized(K, rule),
        "substitution": lambda: special_u.specialize(exp, rule),
        "1/z recurrence": lambda: special_u.a_table_by_recurrence(K),
        "1/z closed form": lambda: [
            special_u.a_closed_form(k, s) for k in range(1, K + 1) for s in range(1, k + 1)
        ],
        "oracle literal side": lambda: series.apply_A_repeated(series._Jet(u), series._Jet(f), K),
        "oracle expansion side": lambda: [
            series._evaluate(terms, u_values, f_values) for terms in polys
        ],
    }


def test_routes_share_only_the_allowlisted_functions():
    calls = {name: opow_calls(route) for name, route in routes().items()}
    assert ("expansion.py", "step") in calls["engine"]
    assert ("series.py", "_Jet.derivative") in calls["oracle literal side"]
    assert ("series.py", "_evaluate") in calls["oracle expansion side"]
    shared = set()
    for a, b in itertools.combinations(calls, 2):
        common = calls[a] & calls[b]
        assert common <= SHARED, f"{a} and {b} share {sorted(common - SHARED)}"
        shared |= common
    # every allowlisted function is still shared, so the list stays tight
    assert shared == SHARED
