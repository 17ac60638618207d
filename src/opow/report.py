"""Uniform pass/fail reporting for the verification suites.

Every verifier in the package returns a :class:`VerificationReport`.  A
report passes exactly when its failure list is empty; the CLI derives
its exit status from that and nothing else.
"""

from __future__ import annotations

from . import _Record


class Failure(_Record):
    """One failed check: where it happened and both sides, rendered exactly."""

    __slots__ = ("location", "expected", "actual")

    def render(self) -> str:
        return f"FAIL {self.location}: expected {self.expected}, actual {self.actual}"


class VerificationReport(_Record):
    __slots__ = ("suite", "k_max", "checks", "failures")

    def __init__(
        self, suite: str, k_max: int, checks: int = 0, failures: list[Failure] | None = None
    ) -> None:
        _Record.__init__(self, suite, k_max, checks, [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, location: str, expected: object, actual: object) -> None:
        """Count one check; record a failure when the condition is false."""
        self.checks += 1
        if not condition:
            self.failures.append(Failure(location, str(expected), str(actual)))

    def expect_equal(self, location: str, expected: object, actual: object) -> None:
        self.expect(expected == actual, location, expected, actual)

    def summary(self) -> str:
        return (
            f"[{'PASS' if self.ok else 'FAIL'}] {self.suite}: k_max={self.k_max} "
            f"checks={self.checks} failures={len(self.failures)}"
        )

    def render_lines(self) -> list[str]:
        return [self.summary()] + ["  " + f.render() for f in self.failures]
