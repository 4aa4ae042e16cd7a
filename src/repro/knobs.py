"""Central registry of the library's process knobs and mode sets.

Every behaviour toggle the library reads from the environment, and every
``engine=`` / ``ir=`` / ``coherence=``-style mode knob threaded through
the call graph, is declared **here** — one import-light module (stdlib
only, importable from anywhere without cycles) that three consumers
share:

* the fault-plan installer reads ``$REPRO_FAULTS`` through :func:`env`
  instead of touching ``os.environ`` directly.  The path-mode knobs
  (``ir``, ``coherence``, ``swmodel``, ``engine``) have no environment
  default: each is chosen by the caller that takes it;
* the CLI builds its ``--ir`` / ``--coherence`` / ``--swmodel`` options
  from the same declarations, so help text and accepted values cannot
  drift from the code;
* ``repro lint`` (see :mod:`repro.analysis`) statically cross-checks the
  tree against these declarations: rule R4 flags ``REPRO_*`` environment
  reads that bypass the registry or name an unregistered knob, and rule
  R5 flags mode literals outside the declared sets plus declared oracle
  paths that no test exercises.

Adding a knob therefore means adding it here first; the lint gate turns
an undeclared knob into a CI failure rather than a silent convention.
"""

from __future__ import annotations

import os

#: Valid values of the ``ir`` knob of the rasteriser: attach a FrameIR
#: (FrameIR-backed digestion) or emit a bare stream (the retained
#: sort-based oracle); see :mod:`repro.render.frameir`.
IR_MODES = ("auto", "legacy")

#: Valid values of the cross-frame ``coherence`` knob: the carrier on, or
#: off (the full-recompute oracle); see :mod:`repro.render.coherence`.
COHERENCE_MODES = ("auto", "off")

#: Valid values of the software-path ``swmodel`` knob (FrameIR-backed
#: CUDA warp/multipass models vs the retained fragment-sort oracles; see
#: :mod:`repro.swrender.warp_model` and :mod:`repro.swopt.multipass`).
SWMODEL_MODES = ("auto", "legacy")

#: Valid values of the pipeline flush ``engine`` knob (batched flush
#: plan vs the scalar per-flush oracle; see
#: :class:`repro.hwmodel.pipeline.GraphicsPipeline`).
PIPELINE_ENGINES = ("batched", "scalar")

#: Valid values of the LRU replay ``engine`` knob (vectorized exact-LRU
#: replay vs the scalar access loop; see
#: :meth:`repro.hwmodel.caches.LRUCache.access_segmented`).
LRU_ENGINES = ("auto", "vector", "scalar")


class EnvKnob:
    """One registered ``REPRO_*`` environment knob."""

    __slots__ = ("name", "default", "choices", "help", "consumed_by")

    def __init__(self, name, default, choices=None, help="",
                 consumed_by=()):
        self.name = name
        self.default = default
        self.choices = tuple(choices) if choices is not None else None
        self.help = help
        self.consumed_by = tuple(consumed_by)


#: The registered environment knobs.  ``repro lint`` rule R4 rejects any
#: ``os.environ`` read of a ``REPRO_*`` name missing from this table.
ENV_KNOBS = {
    "REPRO_FAULTS": EnvKnob(
        "REPRO_FAULTS", default="", choices=None,
        help="seeded fault-injection plan installed at import time "
             "(grammar in repro.faults.plan)",
        consumed_by=("repro.faults",)),
    "REPRO_SCENES": EnvKnob(
        "REPRO_SCENES", default="", choices=None,
        help="comma-separated scene subset evaluated by the pytest "
             "benchmark suite (CI uses lego,palace)",
        consumed_by=("benchmarks.conftest",)),
}


def env(name):
    """Read a registered knob from the environment (or its default).

    The single sanctioned ``os.environ`` access path for ``REPRO_*``
    names — lint rule R4 flags direct reads anywhere else, so defaults
    and registration cannot drift.  Raises ``KeyError`` for names not in
    :data:`ENV_KNOBS`.
    """
    knob = ENV_KNOBS[name]
    value = os.environ.get(name)
    return knob.default if value is None else value


#: Mode-knob declarations for lint rule R5: for each knob parameter
#: name, the full set of legal mode literals anywhere in the tree, and
#: the *oracle* mode — the retained bit-exact reference path that the
#: test suite must exercise for the fast paths to stay trustworthy.
MODE_KNOBS = {
    "ir": {"modes": IR_MODES, "oracle": "legacy"},
    "coherence": {"modes": COHERENCE_MODES, "oracle": "off"},
    "swmodel": {"modes": SWMODEL_MODES, "oracle": "legacy"},
    # ``engine`` names two knob families (the pipeline flush engine and
    # the LRU replay engine); the declared set is their union and both
    # oracles answer to mode "scalar".
    "engine": {"modes": tuple(sorted(set(PIPELINE_ENGINES + LRU_ENGINES))),
               "oracle": "scalar"},
}

#: Declared vector/scalar oracle pairs for lint rule R5: each oracle
#: ``symbol`` must exist in ``src`` and be exercised from ``tests/`` —
#: either referenced by name, or reached through its knob's oracle mode
#: (``knob=mode`` appearing in a test).
ORACLES = (
    {"symbol": "rasterize_splats_scalar", "pair": "rasterize_splats",
     "knob": None, "mode": None},
    {"symbol": "_draw_scalar", "pair": "_draw_batched",
     "knob": "engine", "mode": "scalar"},
    {"symbol": "_access_segmented_scalar", "pair": "replay_tag_stream",
     "knob": "engine", "mode": "scalar"},
    {"symbol": "from_stream", "pair": "from_ir",
     "knob": "ir", "mode": "legacy"},
    {"symbol": "_simulate_tile_warps_legacy", "pair": "_simulate_tile_warps_ir",
     "knob": "swmodel", "mode": "legacy"},
    {"symbol": "_multipass_workspace_legacy", "pair": "_multipass_workspace_ir",
     "knob": "swmodel", "mode": "legacy"},
)
