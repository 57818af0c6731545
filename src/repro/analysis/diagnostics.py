"""Structured diagnostics: what every analysis rule emits.

A :class:`Diagnostic` is one finding -- a rule id, a severity, where
the problem is, what is wrong, and (when the rule knows) how to fix
it.  Rules *emit* diagnostics instead of raising, so a single pass
over a program or configuration reports every problem at once; the
raising APIs (:func:`repro.isa.verify.verify_graph`) are thin wrappers
that surface the first error.

Severities follow the compiler convention:

* ``ERROR`` -- the program/config is unusable (would deadlock, is
  physically unrealizable); ``repro lint`` exits non-zero.
* ``WARNING`` -- legal but suspicious (dead code, likely performance
  trap); reported, exit stays zero.
* ``INFO`` -- observations (statistics, tuning notes).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one rule.

    Attributes
    ----------
    rule:
        Stable rule id (``G001`` graph rules, ``C001`` config rules,
        ``S002`` runtime sanitizer checks, ``X000`` engine internals).
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description of what is wrong.
    source:
        What was analysed -- program name, config identity, cell hash.
    location:
        Where inside the source (``i12``, ``region 0``,
        ``matching_entries``); empty for whole-source findings.
    hint:
        Optional fix suggestion.
    """

    rule: str
    severity: Severity
    message: str
    source: str = ""
    location: str = ""
    hint: str = ""

    def render(self) -> str:
        """``error[G001] gzip @ i3: message (fix: hint)``."""
        where = self.source
        if self.location:
            where = f"{where} @ {self.location}" if where else self.location
        head = f"{self.severity.value}[{self.rule}]"
        text = f"{head} {where}: {self.message}" if where else \
            f"{head}: {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "source": self.source,
            "location": self.location,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        return cls(
            rule=data["rule"],
            severity=Severity(data["severity"]),
            message=data["message"],
            source=data.get("source", ""),
            location=data.get("location", ""),
            hint=data.get("hint", ""),
        )


@dataclass
class Report:
    """An ordered collection of diagnostics from one analysis pass."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def extend(self, diags) -> None:
        self.diagnostics.extend(diags)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def dedup(self) -> int:
        """Drop diagnostics identical in (rule, source, location,
        message), keeping the first of each; returns how many were
        dropped.  Rules over repetitive structures (one finding per
        instruction instance, say) can emit the same text many times;
        one line per distinct problem is what a human acts on, and
        :meth:`counts_by_rule` still shows the totals."""
        seen: set[tuple[str, str, str, str]] = set()
        kept: list[Diagnostic] = []
        for diag in self.diagnostics:
            key = (diag.rule, diag.source, diag.location, diag.message)
            if key in seen:
                continue
            seen.add(key)
            kept.append(diag)
        dropped = len(self.diagnostics) - len(kept)
        self.diagnostics = kept
        return dropped

    def counts_by_rule(self) -> dict[str, int]:
        """Findings per rule id, sorted by rule id (for lint text
        output and report tables)."""
        counts: dict[str, int] = {}
        for diag in sorted(self.diagnostics, key=lambda d: d.rule):
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        return counts

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def sorted(self) -> list[Diagnostic]:
        """Errors first, then warnings, then infos; stable within."""
        return sorted(
            self.diagnostics, key=lambda d: (d.severity.rank, d.rule)
        )

    def render(self, show_info: bool = True) -> str:
        """Multi-line text report plus a one-line summary."""
        lines = [
            d.render() for d in self.sorted()
            if show_info or d.severity is not Severity.INFO
        ]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s), {len(self.infos)} info"
        )

    def to_json(self, **kwargs) -> str:
        return json.dumps(
            {
                "diagnostics": [d.to_dict() for d in self.sorted()],
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
            **kwargs,
        )
