"""Rule framework and shared AST machinery for ``repro lint``.

A rule subclasses :class:`Rule` and implements :meth:`Rule.check` (per
module) and/or :meth:`Rule.check_project` (once, over the whole scanned
tree — for cross-file registry/coverage invariants).  The engine's
``RULES`` tuple lists every rule class; each is instantiated once per
run.

The helpers here are the shared static-analysis vocabulary: a parent map
(``ast`` has no parent pointers), dotted-name resolution, enclosing-
scope naming, and a conservative *integer-dtype prover* used by rule R1
to separate provably-integer reductions (exact, associative) from
possibly-float ones (order-sensitive rounding).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding


class Rule:
    """Base class of one lint rule."""

    id = None

    def finding(self, module, node, message):
        """Build a :class:`Finding` anchored at ``node`` in ``module``."""
        return Finding(self.id, module.rel, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message,
                       scope=module.scope_of(node))

    def check(self, module, context):
        """Yield findings for one scanned module."""
        return ()

    def check_project(self, context):
        """Yield cross-file findings once per run (after every module)."""
        return ()


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def build_parents(tree):
    """child node -> parent node map (``ast`` carries no parent links)."""
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node):
    """The last identifier of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_name(node):
    """Dotted function name of a Call node, else ``None``."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


def keyword_arg(node, name):
    """The value of keyword ``name`` on a Call, else ``None``."""
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def str_const(node):
    """The string value of a constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def enclosing_function(node, parents):
    """The nearest enclosing function/async-function node, else ``None``."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


def has_ancestor_call(node, parents, func_names, stop=None):
    """True when some ancestor (up to ``stop``) is a call to one of
    ``func_names`` (bare names, e.g. ``{"sorted"}``)."""
    current = parents.get(node)
    while current is not None and current is not stop:
        if (isinstance(current, ast.Call)
                and isinstance(current.func, ast.Name)
                and current.func.id in func_names):
            return True
        if isinstance(current, ast.stmt):
            # Sorting wrappers bind within one expression; crossing into
            # an enclosing statement means nothing re-orders the result.
            return False
        current = parents.get(current)
    return False


def under_lock(node, parents):
    """True when an ancestor ``with`` statement's context expression
    mentions a lock (name containing ``lock``, case-insensitive)."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, ast.With):
            for item in current.items:
                name = dotted_name(item.context_expr) or call_name(
                    item.context_expr) or ""
                if "lock" in name.lower():
                    return True
        current = parents.get(current)
    return False


# ----------------------------------------------------------------------
# Integer-dtype prover (rule R1)
# ----------------------------------------------------------------------

_INT_DTYPES = {
    "bool", "bool_", "int8", "int16", "int32", "int64", "intp",
    "uint8", "uint16", "uint32", "uint64", "uintp", "int", "uint",
}

#: numpy callables whose result is integer/bool regardless of input.
_INT_PRODUCERS = {
    "np.flatnonzero", "np.argsort", "np.lexsort", "np.searchsorted",
    "np.argmin", "np.argmax", "np.count_nonzero", "np.nonzero",
    "np.unique", "np.digitize", "np.left_shift", "np.right_shift",
    "numpy.flatnonzero", "numpy.argsort", "numpy.lexsort",
}

#: numpy callables that preserve the (integer) dtype of their array
#: arguments — recurse into the listed argument positions.
_DTYPE_PRESERVING = {
    "np.repeat": (0,), "np.concatenate": (0,), "np.where": (1, 2),
    "np.maximum": (0, 1), "np.minimum": (0, 1), "np.abs": (0,),
    "np.cumsum": (0,), "np.diff": (0,), "np.sort": (0,), "np.ravel": (0,),
    "np.ascontiguousarray": (0,), "np.copy": (0,),
}


def _dtype_is_int(node):
    """True when ``node`` names an integer/bool dtype (``np.int64``,
    ``bool``, ``"int32"``...)."""
    name = terminal_name(node)
    if name in _INT_DTYPES:
        return True
    value = str_const(node)
    return value is not None and value in _INT_DTYPES


def local_assignments(func):
    """name -> last assigned value expression inside ``func`` (shallow)."""
    env = {}
    if func is None:
        return env
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = stmt.value
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            env[element.id] = None  # unknown component
    return env


def proves_integer(node, env, depth=0):
    """Conservatively prove that ``node`` evaluates to an integer/bool
    array (or scalar).  ``env`` maps local names to their assigned
    expressions.  Returns False whenever unsure — R1 then flags the site
    and the author either fixes the dtype or argues a pragma.
    """
    if depth > 8 or node is None:
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, bool))
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(proves_integer(e, env, depth + 1) for e in node.elts)
    if isinstance(node, ast.Name):
        value = env.get(node.id)
        if value is None:
            return False
        return proves_integer(value, {k: v for k, v in env.items()
                                      if k != node.id}, depth + 1)
    if isinstance(node, ast.Compare):
        return True  # -> bool
    if isinstance(node, ast.BoolOp):
        return True
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return True
        return proves_integer(node.operand, env, depth + 1)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.LShift, ast.RShift, ast.BitAnd,
                                ast.BitOr, ast.BitXor, ast.FloorDiv,
                                ast.Mod)):
            # Shifts/masks/floordiv of integers stay integers; of floats
            # they are already a different bug.  Require one side proven.
            return (proves_integer(node.left, env, depth + 1)
                    or proves_integer(node.right, env, depth + 1))
        if isinstance(node.op, ast.Div):
            return False
        return (proves_integer(node.left, env, depth + 1)
                and proves_integer(node.right, env, depth + 1))
    if isinstance(node, ast.IfExp):
        return (proves_integer(node.body, env, depth + 1)
                and proves_integer(node.orelse, env, depth + 1))
    if isinstance(node, ast.Subscript):
        # Indexing an integer array yields integers.
        return proves_integer(node.value, env, depth + 1)
    if isinstance(node, ast.Call):
        # ``<any expression>.astype(np.int32)`` proves regardless of the
        # receiver — the cast pins the dtype.
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "astype", "view"):
            if node.args and _dtype_is_int(node.args[0]):
                return True
            dtype = keyword_arg(node, "dtype")
            if dtype is not None and _dtype_is_int(dtype):
                return True
        name = call_name(node)
        if name is None:
            return False
        bare = name.split(".")[-1]
        # np.int64(x), np.uint8(x), bool(x), int(x) ...
        if bare in _INT_DTYPES or name in ("int", "bool", "len"):
            return True
        if name in _INT_PRODUCERS:
            return True
        if bare == "bincount":
            return keyword_arg(node, "weights") is None
        if bare == "arange":
            dtype = keyword_arg(node, "dtype")
            if dtype is not None:
                return _dtype_is_int(dtype)
            return all(proves_integer(a, env, depth + 1) for a in node.args)
        if bare in ("zeros", "ones", "empty", "full", "array", "asarray",
                    "fromiter", "full_like", "zeros_like", "ones_like",
                    "empty_like"):
            dtype = keyword_arg(node, "dtype")
            if dtype is not None:
                return _dtype_is_int(dtype)
            if bare == "full" and len(node.args) >= 2:
                return proves_integer(node.args[1], env, depth + 1)
            if bare in ("array", "asarray", "zeros_like", "ones_like",
                        "empty_like", "full_like") and node.args:
                return proves_integer(node.args[0], env, depth + 1)
            return False
        if bare in ("astype", "view"):
            return bool(node.args) and _dtype_is_int(node.args[0])
        if name in _DTYPE_PRESERVING:
            positions = _DTYPE_PRESERVING[name]
            args = node.args
            checked = []
            for position in positions:
                if position < len(args):
                    checked.append(args[position])
            if not checked:
                return False
            # concatenate takes a tuple/list of arrays as its first arg.
            if name == "np.concatenate" and isinstance(
                    checked[0], (ast.Tuple, ast.List)):
                checked = checked[0].elts
            return all(proves_integer(a, env, depth + 1) for a in checked)
        if bare in ("segment_boundaries", "popcount4"):
            # Library helpers with pinned integer outputs.
            return True
    return False
