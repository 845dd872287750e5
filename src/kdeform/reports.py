"""Structured results of the verification suites: each check is recorded
with its residual, an element of any kind (record), or with a verdict alone
(record_bool); a failure carries its residual as text and as JSON."""

from __future__ import annotations

from .scalars import I_POWERS


class CheckResult:
    __slots__ = ("name", "passed", "generator", "residual", "residual_json", "note")

    def __init__(self, name: str, passed: bool, generator: str | None = None, residual: str | None = None,
                 residual_json: dict | None = None, note: str | None = None):
        self.name, self.passed, self.generator = name, passed, generator
        self.residual, self.residual_json, self.note = residual, residual_json, note

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.generator is not None:
            out["generator"] = self.generator
        if self.residual_json is not None:
            out["residual"] = self.residual_json
        if self.note is not None:
            out["note"] = self.note
        return out


class VerificationReport:
    __slots__ = ("suite", "checks", "seconds", "skipped")

    def __init__(self, suite: str, checks: list | None = None, seconds: float = 0.0, skipped: str | None = None):
        self.suite, self.checks = suite, [] if checks is None else checks
        self.seconds, self.skipped = seconds, skipped  # skipped: why the whole suite is inapplicable

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, residual, generator: str | None = None, note: str | None = None,
               phase: int = 0):
        """Record one identity check by its residual, an element of any kind:
        it passes when the residual is zero.  A failed residual is reported,
        as text cut at 400 characters and as JSON, as i^phase times itself:
        phase is the power of i that turns the residual of an identity in
        X = -iM back into that of the paper's M-form."""
        passed = residual.is_zero
        text = residual_json = None
        if not passed:
            from .jsonio import residual_to_json

            if phase % 4:
                residual = residual * I_POWERS[phase % 4]
            residual_json = residual_to_json(residual)
            text = repr(residual)
            text = text if len(text) < 400 else text[:400] + " ..."
        self.checks.append(
            CheckResult(
                name=name,
                passed=passed,
                generator=generator,
                residual=text,
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
            "passed": None if self.skipped else self.all_passed,  # a skipped suite checked nothing
            "seconds": round(self.seconds, 3),
            "checks": [c.to_json() for c in self.checks],
        }
        if self.skipped:
            out["skipped"] = self.skipped
        return out

    def __str__(self):
        verdict = "SKIPPED" if self.skipped else "PASS" if self.all_passed else "FAIL"
        lines = [f"suite {self.suite}: {verdict}"
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
