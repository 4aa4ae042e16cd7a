"""Executor-shared-state rule R6.

:func:`repro.engine.executor.run_frames` fans work out to worker
threads.  Any module-level mutable global written by code reachable
from it is shared mutable state those workers race on.  The rule:

1. seeds a *reachability walk* at every module that defines or calls
   the frame executor's entry point in :data:`_ENTRY_POINTS`
   (``engine/executor.py`` plus its call sites);
2. follows the static ``import repro...`` graph from those roots — an
   over-approximation of what worker callables can touch;
3. inside every reachable module, finds module-level mutable literals
   (dict/list/set and their constructor calls) and flags function-body
   writes to them (``global`` rebinding, subscript/attribute stores,
   mutating method calls) that are not under a ``with <...lock...>:``
   block.

``threading.local()`` containers are naturally exempt (not a mutable
literal); lock-guarded writes are detected syntactically; everything
else needs a fix, an argued pragma, or a baseline entry.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import (
    Rule,
    call_name,
    dotted_name,
    enclosing_function,
    under_lock,
)

#: Constructor calls whose results are shared-mutable containers.
_MUTABLE_CONSTRUCTORS = ("dict", "list", "set", "defaultdict",
                         "OrderedDict", "Counter", "deque")

#: Method names that mutate their receiver in place.
_MUTATORS = ("append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "clear", "remove", "discard",
             "appendleft", "extendleft")

#: Functions whose definitions/call sites root the reachability walk:
#: the frame executor's fan-out.
_ENTRY_POINTS = ("run_frames",)


def _is_mutable_value(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    name = call_name(node)
    return name is not None and name.split(".")[-1] in (
        _MUTABLE_CONSTRUCTORS)


def _module_name(rel):
    """``src/repro/engine/cache.py`` -> ``repro.engine.cache``."""
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports_of(module):
    """Dotted ``repro...`` module names imported by ``module``."""
    names = set()
    for node in module.walk((ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    names.add(alias.name)
        else:
            if node.level or not node.module:
                continue
            if node.module.startswith("repro"):
                names.add(node.module)
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
    return names


def _base_name(target):
    """The root ``Name`` id of a subscript/attribute store target."""
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id
    return None


class ExecutorSharedStateRule(Rule):
    """R6 — unsynchronised writes to executor-reachable module globals."""

    id = "R6"

    def _reachable(self, context):
        by_name = {}
        for module in context.modules:
            name = _module_name(module.rel)
            if name:
                by_name[name] = module
        roots = set()
        for module in context.modules:
            for node in module.walk(ast.Call):
                name = call_name(node)
                if name and name.split(".")[-1] in _ENTRY_POINTS:
                    roots.add(module)
            for node in module.walk((ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                if node.name in _ENTRY_POINTS:
                    roots.add(module)
        reachable, frontier = set(roots), list(roots)
        while frontier:
            module = frontier.pop()
            for imported in _imports_of(module):
                # ``repro.engine.executor`` resolves whole prefixes too,
                # so ``from repro.engine import executor`` lands on both
                # the package and the submodule.
                target = by_name.get(imported)
                if target is not None and target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        return reachable

    def check_project(self, context):
        for module in sorted(self._reachable(context),
                             key=lambda m: m.rel):
            yield from self._check_module(module)

    def _check_module(self, module):
        mutable = {}
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and _is_mutable_value(
                    stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mutable[target.id] = stmt
        if not mutable:
            return

        for func in module.walk((ast.FunctionDef, ast.AsyncFunctionDef)):
            declared_global = set()
            for stmt in ast.walk(func):
                if isinstance(stmt, ast.Global):
                    declared_global.update(stmt.names)
            for node in ast.walk(func):
                name = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, ast.Name):
                            if target.id in declared_global and (
                                    target.id in mutable):
                                name = target.id
                        else:
                            base = _base_name(target)
                            if base in mutable:
                                name = base
                elif isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute):
                    if node.func.attr in _MUTATORS:
                        base = dotted_name(node.func.value)
                        if base in mutable:
                            name = base
                if name is None:
                    continue
                if under_lock(node, module.parents):
                    continue
                # A write inside the same statement that *created* the
                # global is impossible here (module body only), so any
                # hit is a genuine shared-state mutation site.
                enclosing = enclosing_function(node, module.parents)
                yield self.finding(
                    module, node,
                    f"global {name!r} (module-level mutable, line "
                    f"{mutable[name].lineno}) is written in "
                    f"{enclosing.name if enclosing else '<module>'}() "
                    f"without a lock; this module is reachable from "
                    f"run_frames workers")
