"""Registry-consistency rules: R4 (environment knobs) and R5 (oracles).

Both rules cross-check the tree against the central declarations in
:mod:`repro.knobs` — the point is that an undeclared knob or an oracle
path no test exercises becomes a lint failure instead of a silent
convention.

R4 (per module)
    * any ``os.environ`` / ``os.getenv`` read of a ``REPRO_*`` name
      outside :mod:`repro.knobs` bypasses the registry;
    * ``knobs.env("<name>")`` literals must be registered in
      :data:`repro.knobs.ENV_KNOBS`.

R5 (project-wide)
    * every string literal compared/passed to an ``ir`` / ``coherence``
      / ``swmodel`` / ``engine`` knob must belong to that knob's declared
      mode set;
    * every declared mode must be *used* somewhere in ``src`` or the
      test corpus (a declared-but-dead branch is a coverage hole);
    * every declared scalar/legacy oracle symbol must exist in ``src``
      and be exercised from ``tests/`` — by a code reference to it (a
      name, attribute or import; a string literal or comment naming it
      does not count) or through its knob's oracle mode.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import (
    Rule,
    call_name,
    str_const,
    terminal_name,
)
from repro.knobs import ENV_KNOBS, MODE_KNOBS, ORACLES

#: The module holding the sanctioned ``os.environ`` access path.
_KNOBS_MODULE = "src/repro/knobs.py"


def _environ_read_name(node):
    """The string key of an ``os.environ`` read at ``node``, else None."""
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("os.environ.get", "os.getenv") and node.args:
            return str_const(node.args[0])
    if isinstance(node, ast.Subscript):
        base = node.value
        if (isinstance(base, ast.Attribute) and base.attr == "environ"
                and isinstance(base.value, ast.Name)
                and base.value.id == "os"):
            return str_const(node.slice)
    return None


class RegistryRule(Rule):
    """R4 — environment-knob registry consistency."""

    id = "R4"

    def check(self, module, context):
        for node in module.walk((ast.Call, ast.Subscript)):
            env_name = _environ_read_name(node)
            if env_name is not None and env_name.startswith("REPRO_"):
                if module.rel != _KNOBS_MODULE:
                    yield self.finding(
                        module, node,
                        f"direct os.environ read of {env_name!r} bypasses "
                        f"the knob registry — use repro.knobs.env()")
                elif env_name not in ENV_KNOBS:
                    yield self.finding(
                        module, node,
                        f"{env_name!r} read in knobs.py but missing from "
                        f"ENV_KNOBS")
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in ("env", "knobs.env", "repro.knobs.env"):
                knob = str_const(node.args[0]) if node.args else None
                if knob is not None and knob.startswith("REPRO_") and (
                        knob not in ENV_KNOBS):
                    yield self.finding(
                        module, node,
                        f"knobs.env({knob!r}) names an unregistered knob "
                        f"— declare it in repro.knobs.ENV_KNOBS")


#: Parameter/attribute names treated as mode knobs (keys of MODE_KNOBS).
_KNOB_NAMES = tuple(MODE_KNOBS)


def _mode_literals(node):
    """String constants on the value side of a knob comparison."""
    if isinstance(node, ast.Constant):
        value = str_const(node)
        return [value] if value is not None else []
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        literals = []
        for element in node.elts:
            value = str_const(element)
            if value is not None:
                literals.append(value)
        return literals
    return []


def _knob_usages(module):
    """Yield ``(knob, literal, node)`` mode-literal usages in a module."""
    for node in module.walk(ast.Compare):
        knob = terminal_name(node.left)
        if knob in _KNOB_NAMES:
            for comparator in node.comparators:
                for literal in _mode_literals(comparator):
                    yield knob, literal, node
        else:
            # ``"scalar" == engine`` (reversed) — rare but legal.
            for comparator in node.comparators:
                rknob = terminal_name(comparator)
                if rknob in _KNOB_NAMES:
                    for literal in _mode_literals(node.left):
                        yield rknob, literal, node
    for node in module.walk(ast.Call):
        for kw in node.keywords:
            if kw.arg in _KNOB_NAMES:
                value = str_const(kw.value)
                if value is not None:
                    yield kw.arg, value, node
    for node in module.walk((ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        defaults = arguments.defaults
        for arg, default in zip(positional[len(positional)
                                           - len(defaults):], defaults):
            if arg.arg in _KNOB_NAMES:
                value = str_const(default)
                if value is not None:
                    yield arg.arg, value, node
        for arg, default in zip(arguments.kwonlyargs,
                                arguments.kw_defaults):
            if default is not None and arg.arg in _KNOB_NAMES:
                value = str_const(default)
                if value is not None:
                    yield arg.arg, value, node


def _identifiers(module):
    """Identifiers a module's code refers to: names, attribute names and
    imported names.  String literals, comments and the names of the
    module's own definitions do not count as a reference."""
    names = set()
    for node in module.walk((ast.Name, ast.Attribute, ast.alias)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        else:
            names.update(node.name.split("."))
    return names


class OracleCoverageRule(Rule):
    """R5 — mode-knob branch completeness and oracle test coverage."""

    id = "R5"

    def check(self, module, context):
        for knob, literal, node in _knob_usages(module):
            if literal not in MODE_KNOBS[knob]:
                yield self.finding(
                    module, node,
                    f"{knob}={literal!r} is not a declared mode "
                    f"(knobs.MODE_KNOBS[{knob!r}] allows "
                    f"{', '.join(MODE_KNOBS[knob])})")

    def check_project(self, context):
        used = {knob: set() for knob in _KNOB_NAMES}
        for module in list(context.modules) + list(context.ref_modules):
            for knob, literal, _node in _knob_usages(module):
                used[knob].add(literal)
        anchor = context.module_by_suffix("repro/knobs.py")
        for knob in _KNOB_NAMES:
            dead = [mode for mode in MODE_KNOBS[knob]
                    if mode not in used[knob]]
            if dead and anchor is not None:
                yield self.finding(
                    anchor, anchor.tree,
                    f"declared {knob} mode(s) never used in src or "
                    f"tests: {', '.join(dead)} — dead branch or missing "
                    f"coverage")

        definitions = {}
        for module in context.modules:
            for node in module.walk((ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                definitions.setdefault(node.name, (module, node))
        ref_names = set()
        for module in context.ref_modules:
            if "tests/" in module.rel:
                ref_names |= _identifiers(module)
        ref_usage = {(knob, literal)
                     for module in context.ref_modules
                     if "tests/" in module.rel
                     for knob, literal, _n in _knob_usages(module)}
        for oracle in ORACLES:
            symbol = oracle["symbol"]
            if symbol not in definitions:
                if anchor is not None:
                    yield self.finding(
                        anchor, anchor.tree,
                        f"declared oracle symbol {symbol!r} (pair of "
                        f"{oracle['pair']!r}) is not defined anywhere "
                        f"in src")
                continue
            module, node = definitions[symbol]
            covered = symbol in ref_names
            if not covered and oracle["knob"] is not None:
                covered = (oracle["knob"], oracle["mode"]) in ref_usage
            if not covered:
                yield self.finding(
                    module, node,
                    f"oracle {symbol!r} (bit-exact reference of "
                    f"{oracle['pair']!r}) is never exercised from "
                    f"tests/ — golden equality is unguarded")
