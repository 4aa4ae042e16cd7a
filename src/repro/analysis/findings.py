"""Findings and the suppression pragma.

A :class:`Finding` is one rule violation at one source location.  Every
finding fails the gate unless a pragma suppresses it.

Suppression pragma
------------------
A finding is suppressed in source with::

    something_flagged()  # repro-lint: ok(R1): reason why this is safe

on the offending line or the line directly above it.  Multiple rules:
``ok(R1,R6)``.  The reason text after the colon is optional but
conventional — the pragma is an *argued* exemption, not a mute button.
"""

from __future__ import annotations

import re

#: ``# repro-lint: ok(R1)`` / ``ok(R1,R6): reason`` suppression pragma.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*ok\(\s*([A-Za-z0-9_,\s]+?)\s*\)(?::.*)?")


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule", "path", "line", "col", "message", "scope",
                 "status")

    def __init__(self, rule, path, line, col, message, scope="<module>"):
        self.rule = rule
        self.path = path          # repo-relative, posix separators
        self.line = int(line)
        self.col = int(col)
        self.message = message
        self.scope = scope
        self.status = "active"    # active | suppressed

    def location(self):
        return f"{self.path}:{self.line}:{self.col}"

    def __repr__(self):
        return (f"Finding({self.rule} {self.location()} "
                f"[{self.status}] {self.message!r})")


def parse_pragmas(source_lines):
    """Map 1-based line number -> set of rule ids suppressed there."""
    pragmas = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        pragmas[lineno] = rules
    return pragmas


def suppressed_by_pragma(finding, pragmas):
    """True when a pragma on the finding's line (or the line above) names
    the finding's rule."""
    for lineno in (finding.line, finding.line - 1):
        rules = pragmas.get(lineno)
        if rules and finding.rule in rules:
            return True
    return False
