"""Numeric-contract rules: R1 (float reduceat) and R3 (dtype drift).

R1 encodes the rule PR 5 learned the hard way: ``np.<ufunc>.reduceat``
and ``np.<ufunc>.reduce`` use blocked/pairwise evaluation whose grouping
is an implementation detail, so on float operands they are **not**
bit-stable across segment layouts — only integer/bool reductions (exact
arithmetic) or order-insensitive ufuncs (min/max/bitwise/logical) are
safe.  ``accumulate`` is sequential today but rides the same ufunc
machinery, so it is held to the same standard; the one deliberate float
accumulate (``hwmodel/stats.py``) carries an argued pragma.

R3 pins dtypes in the columnar modules: any array construction whose
dtype would be *inferred* (platform- and input-dependent) rather than
declared is flagged.  That includes bare python-list literals spliced
into ``np.concatenate`` — the classic ``([0], cumsum)`` idiom — whose
``[0]`` silently takes the platform default int.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import (
    Rule,
    call_name,
    dotted_name,
    enclosing_function,
    keyword_arg,
    local_assignments,
    proves_integer,
)

#: ufunc reduction methods R1 inspects.
_REDUCTION_METHODS = ("reduceat", "reduce", "accumulate")

#: Order-insensitive ufuncs — safe to reduce in any grouping, any dtype.
_ORDER_SAFE_UFUNCS = {
    "minimum", "maximum", "fmin", "fmax",
    "bitwise_and", "bitwise_or", "bitwise_xor",
    "logical_and", "logical_or", "logical_xor",
    "gcd", "lcm",
}

#: Order-sensitive ufuncs — legal only on provably integer/bool operands.
_ORDER_SENSITIVE_UFUNCS = {
    "add", "subtract", "multiply", "divide", "true_divide",
    "floor_divide", "power", "hypot", "logaddexp", "logaddexp2",
    "mod", "remainder",
}


class FloatReduceatRule(Rule):
    """R1 — float reductions through ufunc reduce/reduceat/accumulate."""

    id = "R1"

    def check(self, module, context):
        for node in module.walk(ast.Call):
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method not in _REDUCTION_METHODS:
                continue
            ufunc = dotted_name(node.func.value)
            if ufunc is None:
                continue
            parts = ufunc.split(".")
            if parts[0] not in ("np", "numpy") or len(parts) != 2:
                continue  # e.g. ``raster.accumulate`` — not a ufunc method
            name = parts[1]
            if name in _ORDER_SAFE_UFUNCS:
                continue
            if name not in _ORDER_SENSITIVE_UFUNCS:
                continue  # unknown attribute of np — not a ufunc reduction
            operand = node.args[0] if node.args else None
            env = local_assignments(
                enclosing_function(node, module.parents))
            if operand is not None and proves_integer(operand, env):
                continue
            yield self.finding(
                module, node,
                f"np.{name}.{method} on operands not provably integer/"
                f"bool: float ufunc reductions are grouping-dependent "
                f"and break bit-exactness (pin an integer dtype, use an "
                f"order-safe ufunc, or argue a pragma)")


#: Modules whose columnar layout contracts R3 enforces.
_COLUMNAR_MODULES = ("frameir.py", "fragstream.py", "flushplan.py",
                     "caches.py")

#: Constructors that must carry ``dtype=`` in columnar modules.
_DTYPE_REQUIRED = {
    "zeros", "ones", "empty", "full", "arange", "fromiter",
    "array", "asarray",
}


def _is_typed_literal(node):
    """True for elements already explicitly typed, e.g. ``np.int64(n)``."""
    name = call_name(node)
    if name is None:
        return False
    bare = name.split(".")[-1]
    return bare in ("int8", "int16", "int32", "int64", "uint8", "uint16",
                    "uint32", "uint64", "float32", "float64", "bool_")


class DtypeDriftRule(Rule):
    """R3 — inferred dtypes in the columnar modules."""

    id = "R3"

    def check(self, module, context):
        if module.name not in _COLUMNAR_MODULES:
            return
        for node in module.walk(ast.Call):
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            bare = parts[-1]
            if (len(parts) == 2 and parts[0] in ("np", "numpy")
                    and bare in _DTYPE_REQUIRED
                    and keyword_arg(node, "dtype") is None):
                # ``np.asarray(x, values.dtype)`` positional dtype is fine.
                if bare in ("array", "asarray", "full", "fromiter") and (
                        len(node.args) >= 2):
                    continue
                yield self.finding(
                    module, node,
                    f"np.{bare} without dtype= in columnar module: the "
                    f"inferred dtype depends on inputs/platform — pin it")
            if bare == "concatenate" and len(parts) == 2 and (
                    parts[0] in ("np", "numpy")) and node.args:
                seq = node.args[0]
                if not isinstance(seq, (ast.Tuple, ast.List)):
                    continue
                for element in seq.elts:
                    if isinstance(element, ast.List) and not all(
                            _is_typed_literal(e) for e in element.elts):
                        yield self.finding(
                            module, element,
                            "bare list literal spliced into "
                            "np.concatenate: its dtype is inferred "
                            "(platform default int / upcast) — wrap in "
                            "an explicitly-typed array")
