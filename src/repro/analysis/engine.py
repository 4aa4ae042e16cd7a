"""The ``repro lint`` runner: scan, rule dispatch, pragmas.

:func:`run_lint` is the programmatic entry point (the CLI and the test
suite both call it).  It walks the source tree, parses every module
once, runs each rule in :data:`RULES` per module and then once over the
whole tree, and marks the findings an argued pragma covers as
``suppressed``.  Every other finding is ``active`` and fails the gate.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import parse_pragmas, suppressed_by_pragma
from repro.analysis.rules import build_parents
from repro.analysis.rules_determinism import DeterminismRule
from repro.analysis.rules_numeric import DtypeDriftRule, FloatReduceatRule
from repro.analysis.rules_registry import OracleCoverageRule, RegistryRule
from repro.analysis.rules_state import ExecutorSharedStateRule

#: Every lint rule, R1-R6.
RULES = (FloatReduceatRule, DeterminismRule, DtypeDriftRule, RegistryRule,
         OracleCoverageRule, ExecutorSharedStateRule)


def repo_root():
    """The repository root (parent of ``src/``), resolved from here."""
    return Path(__file__).resolve().parents[3]


class ScannedModule:
    """One parsed source module plus the derived lookup structures."""

    __slots__ = ("path", "rel", "name", "package", "source", "tree",
                 "parents", "pragmas")

    def __init__(self, path, rel, source):
        self.path = path
        self.rel = rel                      # repo-relative, posix
        self.name = rel.rsplit("/", 1)[-1]
        parts = rel.split("/")
        # src/repro/<package>/... -> "<package>"; src/repro/x.py -> "".
        self.package = parts[2] if len(parts) > 3 and parts[:2] == [
            "src", "repro"] else ""
        self.source = source
        self.tree = ast.parse(source, filename=rel)
        self.parents = build_parents(self.tree)
        self.pragmas = parse_pragmas(source.splitlines())

    def walk(self, node_types):
        for node in ast.walk(self.tree):
            if isinstance(node, node_types):
                yield node

    def scope_of(self, node):
        """Qualified enclosing scope: ``Class.method`` or ``<module>``."""
        names = []
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                names.append(current.name)
            current = self.parents.get(current)
        return ".".join(reversed(names)) if names else "<module>"


class LintContext:
    """What project-wide rules see: the scanned tree + reference corpus."""

    __slots__ = ("modules", "ref_modules")

    def __init__(self, modules, ref_modules):
        self.modules = modules
        self.ref_modules = ref_modules

    def module_by_suffix(self, suffix):
        for module in self.modules:
            if module.rel.endswith(suffix):
                return module
        return None


def _collect(root, paths):
    """Parse every ``.py`` under ``paths`` (repo-relative), sorted."""
    modules = []
    for base in paths:
        base_path = (root / base) if not Path(base).is_absolute() else (
            Path(base))
        if base_path.is_file():
            files = [base_path]
        else:
            files = sorted(base_path.rglob("*.py"))
        for file in files:
            if "__pycache__" in file.parts:
                continue
            try:
                rel = file.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = file.as_posix()
            modules.append(ScannedModule(
                file, rel, file.read_text(encoding="utf-8")))
    return modules


def run_lint(paths=None, ref_paths=None, root=None):
    """Lint ``paths`` and return the classified, sorted findings.

    ``paths`` defaults to ``src`` under the repo root; ``ref_paths``
    (reference corpus for coverage rules — parsed, never flagged)
    defaults to ``tests`` + ``benchmarks``.  Findings sort on
    ``(path, line, col, rule)``.
    """
    root = Path(root) if root is not None else repo_root()
    modules = _collect(root, paths if paths is not None else ["src"])
    ref_modules = _collect(
        root, ref_paths if ref_paths is not None
        else [p for p in ("tests", "benchmarks") if (root / p).is_dir()])
    context = LintContext(modules, ref_modules)
    rules = [cls() for cls in RULES]

    findings = []
    for module in modules:
        for rule in rules:
            findings.extend(rule.check(module, context))
    for rule in rules:
        findings.extend(rule.check_project(context))

    by_rel = {module.rel: module for module in modules}
    for finding in findings:
        module = by_rel.get(finding.path)
        if module is not None and suppressed_by_pragma(
                finding, module.pragmas):
            finding.status = "suppressed"
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def counts(findings):
    summary = {"active": 0, "suppressed": 0}
    for finding in findings:
        summary[finding.status] += 1
    return summary


def format_text(findings):
    """Human-readable report: every finding, suppressed ones tagged."""
    lines = []
    for finding in findings:
        tag = "" if finding.status == "active" else f" [{finding.status}]"
        lines.append(f"{finding.location()}: {finding.rule}{tag}: "
                     f"{finding.message} ({finding.scope})")
    summary = counts(findings)
    lines.append(f"repro lint: {summary['active']} active, "
                 f"{summary['suppressed']} suppressed")
    return "\n".join(lines)
