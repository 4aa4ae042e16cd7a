"""Source invariants that no behavioural test can see.

Each check guards a kind of defect that was seeded on purpose into a
copy of the tree and that every other tier-1 test let through (the
mutation table is in CHANGES.md): an environment read, an unsorted
directory listing, an unseeded random generator, a misspelt path-mode
literal that silently turns an oracle branch dead, and an unlocked write
to module state shared by ``run_frames`` worker threads.  The checks
parse ``src/repro`` with the stdlib ``ast`` module.
"""

import ast
import functools
from pathlib import Path

from repro.hwmodel.pipeline import PIPELINE_ENGINES
from repro.render.coherence import COHERENCE_MODES
from repro.render.frameir import IR_MODES
from repro.swrender.warp_model import SWMODEL_MODES

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Each path knob's parameter name and its legal values.
MODES = {"ir": IR_MODES, "coherence": COHERENCE_MODES,
         "swmodel": SWMODEL_MODES, "engine": PIPELINE_ENGINES}

LISTINGS = ("glob", "rglob", "iterdir", "listdir", "scandir")
SEEDED = ("default_rng", "Generator", "SeedSequence")
CONTAINERS = ("dict", "list", "set", "OrderedDict", "defaultdict", "deque")
MUTATORS = ("append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "clear", "remove", "discard")


@functools.cache
def modules():
    """``(path, tree)`` for every module under ``src/repro``."""
    return [(path.relative_to(SRC.parent).as_posix(),
             ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.rglob("*.py"))]


def nodes(kind):
    """``("path:line", node)`` for every ``kind`` node under ``src``."""
    for rel, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, kind):
                yield f"{rel}:{node.lineno}", node


def name_of(node):
    """``c`` for a name ``c`` or an attribute ``a.b.c``, else ``None``."""
    return getattr(node, "attr", getattr(node, "id", None))


def strings(node):
    """The string constants of ``node`` or of its tuple/list/set."""
    elts = (node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set))
            else [node])
    return [e.value for e in elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def test_no_module_reads_the_environment():
    """Every path is chosen by its caller, so a result depends on the
    arguments alone: nothing under ``src`` touches ``os.environ`` or
    ``os.getenv``."""
    reads = [where for where, node in nodes((ast.Attribute, ast.alias))
             if getattr(node, "attr", getattr(node, "name", None))
             in ("environ", "getenv")]
    assert reads == []


def test_directory_listings_are_sorted():
    """Listing order differs between file systems, and the model
    fingerprint hashes the package's sources in listing order: every
    listing goes straight into ``sorted(...)``."""
    sorted_args = {id(node.args[0]) for _, node in nodes(ast.Call)
                   if name_of(node.func) == "sorted" and node.args}
    unsorted = [where for where, node in nodes(ast.Call)
                if isinstance(node.func, ast.Attribute)
                and node.func.attr in LISTINGS and id(node) not in sorted_args]
    assert unsorted == []


def test_random_generators_are_seeded():
    """Every generator gets an explicit seed, and nothing draws from the
    hidden global state of ``np.random`` or ``random``."""
    unseeded = [where for where, node in nodes(ast.Call)
                if ast.unparse(node.func).startswith(("np.random.", "random."))
                and not (name_of(node.func) in SEEDED
                         and (node.args or node.keywords))]
    assert unseeded == []


def mode_literals():
    """``(where, knob, literal)`` for each string compared with, passed
    as, or defaulted for a path knob."""
    for where, node in nodes((ast.Compare, ast.Call, ast.FunctionDef)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for knob in {name_of(o) for o in operands} & MODES.keys():
                for operand in operands:
                    for value in strings(operand):
                        yield where, knob, value
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg in MODES:
                    for value in strings(kw.value):
                        yield where, kw.arg, value
        else:
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):],
                          args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            for arg, default in pairs:
                if arg.arg in MODES and default is not None:
                    for value in strings(default):
                        yield where, arg.arg, value


def test_path_mode_literals_are_declared():
    """A misspelt mode (``engine != "scalr"``) makes an oracle branch
    dead: the fast path then runs on both sides of every fast-vs-reference
    pin, and all of them pass."""
    found = list(mode_literals())
    assert {knob for _, knob, _ in found} == set(MODES)
    assert [f for f in found if f[2] not in MODES[f[1]]] == []


def unlocked_writes(rel, tree):
    """Writes to ``tree``'s module-level containers outside a ``with``
    on a lock, and every ``global`` rebinding, inside its functions."""
    shared = {target.id for stmt in tree.body if isinstance(stmt, ast.Assign)
              and (isinstance(stmt.value, (ast.Dict, ast.List, ast.Set))
                   or isinstance(stmt.value, ast.Call)
                   and name_of(stmt.value.func) in CONTAINERS)
              for target in stmt.targets if isinstance(target, ast.Name)}

    def written(node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    while isinstance(target, (ast.Subscript, ast.Attribute)):
                        target = target.value
                    yield name_of(target)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Name)):
            yield node.func.value.id

    def visit(node, locked):
        if isinstance(node, ast.With):
            locked = locked or any(
                "lock" in ast.unparse(item.context_expr).lower()
                for item in node.items)
        if isinstance(node, ast.Global):
            yield f"{rel}:{node.lineno}: global {', '.join(node.names)}"
        if not locked:
            for name in written(node):
                if name in shared:
                    yield f"{rel}:{node.lineno}: {name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, locked)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield from visit(stmt, False)


def test_shared_module_state_is_written_under_a_lock():
    """``run_frames`` renders frames on worker threads, so module state a
    function writes is shared between them."""
    writes = [w for rel, tree in modules() for w in unlocked_writes(rel, tree)]
    assert writes == []
