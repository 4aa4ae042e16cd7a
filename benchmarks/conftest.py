"""Benchmark-suite configuration.

Each benchmark regenerates one paper table/figure through the experiment
modules, asserts on the data and prints it as the paper's rows/series with
the module's ``main(data)`` (run with ``-s`` to see them), so no figure
runs twice.  The engine memo (:mod:`repro.engine.cache`) keeps every
(scene, variant) draw but only the most recent scene's fragment stream.

``REPRO_SCENES`` (comma-separated) restricts the evaluated scenes, e.g.
``REPRO_SCENES=lego,palace pytest benchmarks/`` for a quick pass.

Figure digests
--------------
Every benchmark also passes its figure's ``run()`` output to
:func:`check_digest`, which compares it bit for bit with the digests
committed in ``digests.json``: a model change that moves any paper number
fails the figure's test and names the key that moved.  The output is
hashed as sorted-key JSON with floats by ``repr`` and arrays by the
SHA-256 of their bytes.  Per-scene rows (every sub-tree under a key that
names an evaluated scene) are keyed by scene; what is left, the
aggregates such as geomeans, is keyed by the comma-joined scene set.
Figures with fixed inputs keep one digest of their whole output.
Aggregates are recorded for the full six-scene set and for CI's
``lego,palace``; any other set fails until it is recorded.

A change that is meant to move a figure re-records its digests, for
both scene sets::

    PYTHONPATH=src python -m pytest benchmarks --record-digests
    REPRO_SCENES=lego,palace PYTHONPATH=src python -m pytest benchmarks \\
        --record-digests
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.catalog import scene_names

DIGESTS = Path(__file__).with_name("digests.json")


def pytest_addoption(parser):
    parser.addoption(
        "--record-digests", action="store_true",
        help="write the figure digests to benchmarks/digests.json "
             "instead of checking them")


def selected_scenes():
    """Scene list from $REPRO_SCENES, or all six."""
    env = os.environ.get("REPRO_SCENES", "")
    if env:
        return [s.strip() for s in env.split(",") if s.strip()]
    return scene_names()


@pytest.fixture(scope="session")
def scenes():
    return selected_scenes()


def canonical(value):
    """JSON-ready copy of ``value``: floats by ``repr``, arrays by the
    SHA-256 of their bytes, mapping keys by ``repr`` unless strings."""
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): canonical(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "sha256": hashlib.sha256(data).hexdigest()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no digest for {type(value).__name__}")


def digest(value):
    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def split_rows(data, scenes, path=(), rows=None):
    """``(rows, rest)``: ``rows[scene]`` maps the path of every key that
    names ``scene`` to the value under it; ``rest`` is ``data`` without
    those keys (the aggregates), with emptied mappings dropped."""
    rows = {} if rows is None else rows
    rest = {}
    for key, value in data.items():
        if key in scenes:
            rows.setdefault(key, {})["/".join(path)] = value
        elif isinstance(value, dict):
            sub = split_rows(value, scenes, path + (str(key),), rows)[1]
            if sub:
                rest[key] = sub
        else:
            rest[key] = value
    return rows, rest


def figure_digests(data, scenes=None):
    """``{(section, key): digest}`` of one figure's ``run()`` output."""
    if scenes is None:
        return {("output",): digest(data)}
    rows, rest = split_rows(data, scenes)
    out = {("rows", scene): digest(rows[scene]) for scene in rows}
    if rest:
        out[("aggregates", ",".join(scenes))] = digest(rest)
    return out


@pytest.fixture(scope="session")
def check_digest(pytestconfig):
    """``check(figure, data, scenes=None)``: compare ``data``, the
    figure's ``run()`` output, with its committed digests (or record
    them under ``--record-digests``).  ``scenes`` is the evaluated scene
    list, ``None`` for a figure with fixed inputs."""
    record = pytestconfig.getoption("--record-digests")

    def check(figure, data, scenes=None):
        got = figure_digests(data, scenes)
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if record:
            for path, value in got.items():
                node = recorded.setdefault(figure, {})
                for key in path[:-1]:
                    node = node.setdefault(key, {})
                node[path[-1]] = value
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                               + "\n")
            return
        problems = []
        for path, value in got.items():
            want = recorded.get(figure, {})
            for key in path:
                want = want.get(key, {}) if isinstance(want, dict) else None
            where = "/".join(path)
            if not isinstance(want, str):
                problems.append(f"{where}: no recorded digest")
            elif want != value:
                problems.append(f"{where}: moved")
        if problems:
            pytest.fail(f"{figure} digests do not match {DIGESTS.name}: "
                        + "; ".join(problems))

    return check
