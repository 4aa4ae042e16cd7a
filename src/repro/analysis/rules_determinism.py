"""Determinism rule R2: unseeded randomness and iteration-order leaks.

Three families, all of which have bitten reproducibility projects:

* ``random`` / ``np.random`` module-level calls draw from hidden global
  state — only explicitly seeded constructors (``default_rng(seed)``,
  ``RandomState(seed)``, ``Random(seed)``) are legal;
* ``os.listdir`` / ``Path.glob`` / ``iterdir`` / ``scandir`` return
  entries in filesystem order, which differs across machines — every
  listing must pass through ``sorted(...)`` in the same expression;
* building arrays straight from ``set``s or dict ``keys()/values()``
  views bakes hash-iteration order into numeric results — restricted to
  the numeric packages (``render/``, ``hwmodel/``, ``engine/``) where
  ordering reaches golden outputs.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import (
    Rule,
    call_name,
    has_ancestor_call,
)

#: Seeded-constructor names exempt from the unseeded-randomness check
#: *when called with an explicit seed argument*.
_SEEDED_CONSTRUCTORS = ("default_rng", "RandomState", "SeedSequence",
                        "Random", "Generator", "Philox", "PCG64")

#: Directory-listing callables whose order is filesystem-dependent.
_FS_LISTING = ("listdir", "iterdir", "glob", "rglob", "scandir")

#: Packages where hash-order-dependent array construction is flagged.
_ORDERED_PACKAGES = ("render", "hwmodel", "engine")


def _is_random_namespace(name):
    parts = name.split(".")
    if parts[0] == "random" and len(parts) >= 2:
        return True
    return len(parts) >= 3 and parts[0] in ("np", "numpy") and (
        parts[1] == "random")


class DeterminismRule(Rule):
    """R2 — nondeterministic randomness / iteration order."""

    id = "R2"

    def check(self, module, context):
        in_numeric_pkg = module.package in _ORDERED_PACKAGES
        for node in module.walk(ast.Call):
            name = call_name(node)
            if name is None:
                continue
            bare = name.split(".")[-1]

            # -- unseeded randomness --------------------------------
            if _is_random_namespace(name):
                if bare in _SEEDED_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module, node,
                            f"{name}() without a seed draws OS entropy — "
                            f"pass an explicit seed")
                else:
                    yield self.finding(
                        module, node,
                        f"{name} uses the hidden global RNG state — use "
                        f"an explicitly seeded generator instance")

            # -- filesystem iteration order -------------------------
            if bare in _FS_LISTING and (
                    name.startswith("os.") or "." in name):
                if not has_ancestor_call(node, module.parents, {"sorted"}):
                    yield self.finding(
                        module, node,
                        f"{bare}() order is filesystem-dependent — wrap "
                        f"the listing in sorted(...)")

            # -- hash-order-dependent array construction ------------
            if in_numeric_pkg and bare in ("array", "asarray", "fromiter",
                                           "stack", "column_stack"):
                parts = name.split(".")
                if parts[0] not in ("np", "numpy"):
                    continue
                source = node.args[0] if node.args else None
                if source is None:
                    continue
                if self._hash_ordered(source):
                    yield self.finding(
                        module, node,
                        f"np.{bare} over a set/dict view bakes hash "
                        f"iteration order into array contents — sort "
                        f"the elements first")

    @staticmethod
    def _hash_ordered(node):
        """True when ``node`` iterates in hash order (set literal,
        ``set(...)``, or dict ``keys()/values()`` view) unsanitised."""
        if isinstance(node, ast.Set):
            return True
        name = call_name(node)
        if name is None:
            return False
        if name == "sorted":
            return False
        bare = name.split(".")[-1]
        if bare in ("set", "frozenset"):
            return name in ("set", "frozenset")
        return bare in ("keys", "values")
