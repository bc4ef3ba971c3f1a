"""Validation reports: ordered lists of violations, each with a witness."""

from __future__ import annotations

from .record import Frozen, setfield


class Violation(Frozen):
    _fields = ("kind", "message", "witness")

    def __init__(self, kind: str, message: str, witness: tuple = ()):
        setfield(self, "kind", kind)
        setfield(self, "message", message)
        setfield(self, "witness", witness)  # tuple of (name, value) pairs, deterministic order

    def witness_dict(self) -> dict:
        return {k: v for k, v in self.witness}

    def line(self) -> str:
        parts = "".join(f" {k}={v!r}" for k, v in self.witness)
        return f"[{self.kind}] {self.message}{parts}"


class ValidationReport(Frozen):
    _fields = ("violations",)

    def __init__(self, violations: tuple = ()):
        setfield(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> tuple:
        return tuple(v.kind for v in self.violations)

    def has(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]

    def to_json(self) -> list[dict]:
        return [
            {"kind": v.kind, "message": v.message, "witness": v.witness_dict()}
            for v in self.violations
        ]

    @staticmethod
    def merged(*reports: "ValidationReport") -> "ValidationReport":
        out = []
        for r in reports:
            out.extend(r.violations)
        return ValidationReport(tuple(out))


class ReportBuilder:
    """Mutable accumulator used while checks run."""

    def __init__(self):
        self._violations: list[Violation] = []

    def add(self, kind: str, message: str, **witness):
        self._violations.append(
            Violation(kind, message, tuple(sorted(witness.items())))
        )

    def extend(self, report: ValidationReport):
        self._violations.extend(report.violations)

    def done(self) -> ValidationReport:
        return ValidationReport(tuple(self._violations))
