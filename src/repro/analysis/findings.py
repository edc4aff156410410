"""Severity-tiered findings emitted by the whole-program analyzer.

Every finding carries a **stable code** (``REPxxx``) so tooling,
baselines and tests can match findings across refactors, plus the same
transform/rule/:class:`~repro.lang.diagnostics.SourceLocation` context
the compiler's :class:`~repro.lang.diagnostics.Diagnostics` machinery
uses — an analyzer finding renders exactly like a compile diagnostic,
just tagged with its code and severity.

Code blocks by pass:

* ``REP1xx`` — purity/determinism lint on rule bodies
* ``REP2xx`` — dtype-flow lint over the substrate packages
* ``REP3xx`` — pledge verification (``batchable``/``precision``)
* ``REP4xx`` — config-space analyses on the compiled program
* ``REP0xx`` — informational program metrics
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.lang.diagnostics import SourceLocation

__all__ = ["Finding", "AnalysisReport", "FINDING_CODES",
           "ERROR", "WARNING", "INFO", "SCHEMA_VERSION"]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Every code the analyzer can emit, with its default severity and a
#: one-line description (rendered in docs and ``--json`` output).
FINDING_CODES: dict[str, tuple[str, str]] = {
    "REP101": (ERROR, "rule body mutates module-global state"),
    "REP102": (ERROR, "rule body reads the wall clock"),
    "REP103": (ERROR, "rule body draws randomness not routed through "
                      "repro.rng or the trial context"),
    "REP104": (ERROR, "rule body performs file or network I/O"),
    "REP201": (WARNING, "substrate function widens floating inputs to "
                        "float64 (dtype=float coercion)"),
    "REP202": (WARNING, "substrate allocation without an explicit dtype "
                        "defaults to float64"),
    "REP203": (WARNING, "float64-typed literal arithmetic silently "
                        "widens float32 operands"),
    "REP301": (ERROR, "batchable=True transform reaches a substrate "
                      "kernel not registered as stacked-capable"),
    "REP302": (ERROR, "precision() transform reaches a substrate kernel "
                      "not registered as dtype-preserving"),
    "REP401": (WARNING, "dead tunable: no reachable rule reads it"),
    "REP402": (WARNING, "unreachable instance: no call path from the "
                        "root instance dispatches to it"),
    "REP001": (INFO, "configuration search-space size estimate"),
}

#: Version of the ``--json`` report layout (``AnalysisReport.to_json``
#: and the ``python -m repro.lang --json`` payloads).  Bump when field
#: names, nesting or ordering guarantees change.
SCHEMA_VERSION = 2

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding: code + severity + message + context."""

    code: str
    severity: str
    message: str
    transform: str | None = None
    rule: str | None = None
    location: SourceLocation | None = None

    def render(self) -> str:
        parts = [f"{self.severity} {self.code}: "]
        if self.location is not None:
            parts.append(f"{self.location}: ")
        subject = ".".join(p for p in (self.transform, self.rule) if p)
        if subject:
            parts.append(f"[{subject}] ")
        parts.append(self.message)
        return "".join(parts)

    def sort_key(self) -> tuple:
        """Deterministic report order: by file, then line, then code.

        Location-less findings (program-level metrics) sort last so
        source findings stay grouped by file.
        """
        if self.location is None:
            return ("~", 0, self.code, self.message)
        return (self.location.filename, self.location.lineno,
                self.code, self.message)

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.transform:
            payload["transform"] = self.transform
        if self.rule:
            payload["rule"] = self.rule
        if self.location is not None:
            payload["file"] = self.location.filename
            payload["line"] = self.location.lineno
        return payload


@dataclass
class AnalysisReport:
    """Ordered collection of findings from one analyzer run."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, code: str, message: str, *,
            transform: str | None = None, rule: str | None = None,
            location: SourceLocation | None = None,
            severity: str | None = None) -> Finding:
        if code not in FINDING_CODES:
            raise ValueError(f"unknown finding code {code!r}")
        finding = Finding(
            code=code,
            severity=severity or FINDING_CODES[code][0],
            message=message, transform=transform, rule=rule,
            location=location)
        self.findings.append(finding)
        return finding

    def extend(self, other: "AnalysisReport") -> None:
        self.findings.extend(other.findings)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> list[Finding]:
        return self.by_severity(ERROR)

    @property
    def warnings(self) -> list[Finding]:
        return self.by_severity(WARNING)

    def sorted(self) -> list[Finding]:
        """Findings ordered errors-first, stable within a severity."""
        return sorted(self.findings,
                      key=lambda f: _SEVERITY_ORDER.get(f.severity, 3))

    def render(self) -> str:
        if not self.findings:
            return "no findings"
        counts = {s: len(self.by_severity(s))
                  for s in (ERROR, WARNING, INFO)}
        summary = ", ".join(f"{n} {s}{'s' if n != 1 else ''}"
                            for s, n in counts.items() if n)
        lines = [summary + ":"]
        for index, finding in enumerate(self.sorted(), start=1):
            lines.append(f"  {index}. {finding.render()}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """Machine-readable report: findings in (file, line, code)
        order — deterministic across runs and Python versions."""
        return {
            "schema_version": SCHEMA_VERSION,
            "findings": [f.to_json() for f in
                         sorted(self.findings,
                                key=Finding.sort_key)],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def __repr__(self) -> str:
        return (f"<AnalysisReport: {len(self.errors)} errors, "
                f"{len(self.warnings)} warnings, "
                f"{len(self.by_severity(INFO))} info>")
