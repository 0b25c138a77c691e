"""Verification certificates and their stable JSON form.

Every checking routine in the package returns a VerificationReport: a named
verdict, the scope at which it was established (exhaustive enumeration or a
degree bound), a flat details map of the quantities that were compared, and
optional subreports for compound checks.  Serialization is deterministic:
key order is the insertion order chosen by the producing code and no
timestamps or environment data are embedded, so the same inputs always give
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"

SCHEMA_VERSION = 1


@dataclass
class VerificationReport:
    name: str
    verdict: str
    scope: dict
    details: dict = field(default_factory=dict)
    subreports: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS and all(r.passed for r in self.subreports)

    def add(self, sub: "VerificationReport") -> "VerificationReport":
        self.subreports.append(sub)
        if not sub.passed and self.verdict == PASS:
            self.verdict = FAIL
        return sub

    def first_failure(self) -> str | None:
        """Name of the first failing leaf certificate, if any."""
        if self.verdict != PASS and not self.subreports:
            return self.name
        for sub in self.subreports:
            hit = sub.first_failure()
            if hit is not None:
                return hit
        if self.verdict != PASS:
            return self.name
        return None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "verdict": self.verdict,
            "scope": self.scope,
            "details": _plain(self.details),
        }
        if self.subreports:
            out["subreports"] = [r.to_dict() for r in self.subreports]
        return out

    def to_json(self) -> str:
        return json.dumps({"schema": SCHEMA_VERSION, **self.to_dict()},
                          indent=2)

    def summary_lines(self, prefix: str = "") -> list[str]:
        mark = {PASS: "ok", FAIL: "FAIL"}[self.verdict]
        lines = [f"{prefix}{self.name}: {mark} {_scope_text(self.scope)}"]
        for key, value in _plain(self.details).items():
            lines.append(f"{prefix}  {key} = {_short(value)}")
        for sub in self.subreports:
            lines.extend(sub.summary_lines(prefix + "  "))
        return lines


def report(name: str, verdict_flag: bool, scope: dict,
           details: dict | None = None) -> VerificationReport:
    return VerificationReport(name, PASS if verdict_flag else FAIL, scope,
                              details or {})


def _scope_text(scope: dict) -> str:
    if scope.get("mode") == "exhaustive":
        return "(exhaustive)"
    if scope.get("mode") == "degree":
        return f"(degrees <= {scope.get('bound')})"
    return ""


def _plain(value):
    """Reduce details to JSON-safe data: str, int, bool, list, dict."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _short(value) -> str:
    text = json.dumps(value) if not isinstance(value, str) else value
    return text if len(text) <= 100 else text[:97] + "..."
