"""Structured results of the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalars import I_POWERS


@dataclass
class CheckResult:
    name: str
    passed: bool
    generator: str | None = None
    residual: str | None = None
    residual_json: object = None
    note: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.generator is not None:
            out["generator"] = self.generator
        if self.residual_json is not None:
            out["residual"] = self.residual_json
        elif self.residual is not None:
            out["residual"] = self.residual
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0
    skipped: str | None = None  # reason, when the whole suite is inapplicable

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, residual, generator: str | None = None, note: str | None = None,
               phase: int = 0):
        """Record one identity check; residual is zero-testable and reprs to the
        first offending term when nonzero.  A failed residual is reported as
        i^phase times itself: phase is the power of i that turns the residual
        of an identity in X = -iM back into that of the paper's M-form."""
        passed = _is_zero(residual)
        residual_json = None
        if not passed:
            from .jsonio import residual_to_json

            if phase % 4:
                residual = residual * I_POWERS[phase % 4]
            residual_json = residual_to_json(residual)
        self.checks.append(
            CheckResult(
                name=name,
                passed=passed,
                generator=generator,
                residual=None if passed else _first_term(residual),
                residual_json=residual_json,
                note=note,
            )
        )
        return passed

    def record_bool(self, name: str, ok: bool, generator: str | None = None, note: str | None = None):
        self.checks.append(CheckResult(name=name, passed=ok, generator=generator, note=note))
        return ok

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "passed": self.all_passed,
            "seconds": round(self.seconds, 3),
            "checks": [c.to_json() for c in self.checks],
        }
        if self.skipped:
            out["skipped"] = self.skipped
        return out

    def __str__(self):
        lines = [f"suite {self.suite}: {'PASS' if self.all_passed else 'FAIL'}"
                 + (f" ({self.seconds:.2f}s)" if self.seconds else "")]
        if self.skipped:
            lines.append(f"  skipped: {self.skipped}")
        for c in self.checks:
            mark = "ok " if c.passed else "FAILED"
            gen = f" [{c.generator}]" if c.generator else ""
            lines.append(f"  {mark} {c.name}{gen}")
            if not c.passed and c.residual:
                lines.append(f"         residual: {c.residual}")
        return "\n".join(lines)


def _is_zero(residual) -> bool:
    if residual is None:
        return True
    if isinstance(residual, bool):
        return residual  # already a verdict
    if isinstance(residual, dict):
        return not residual
    return getattr(residual, "is_zero", not residual)


def _first_term(residual) -> str:
    if isinstance(residual, bool):
        return "mismatch"
    if isinstance(residual, dict):
        key = next(iter(sorted(residual, key=repr)))
        return f"{residual[key]} * {key!r}"
    text = repr(residual)
    return text if len(text) < 400 else text[:400] + " ..."
