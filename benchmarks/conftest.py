"""Benchmark-suite configuration.

Each benchmark regenerates one paper table/figure through the experiment
modules, asserts on the data and prints it as the paper's rows/series with
the module's ``main(data)`` (run with ``-s`` to see them), so no figure
runs twice.  The engine memo (:mod:`repro.engine.cache`) keeps every
(scene, variant) draw but only the most recent scene's fragment stream.

``REPRO_SCENES`` (comma-separated) restricts the evaluated scenes, e.g.
``REPRO_SCENES=lego,palace pytest benchmarks/`` for a quick pass.
"""

import os

import pytest


def selected_scenes(default=None):
    """Scene list from $REPRO_SCENES, or ``default`` (None = all six)."""
    env = os.environ.get("REPRO_SCENES", "")
    if env:
        return [s.strip() for s in env.split(",") if s.strip()]
    return default


@pytest.fixture(scope="session")
def scenes():
    return selected_scenes()
