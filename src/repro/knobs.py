"""Central registry of the library's process knobs and mode sets.

Every ``REPRO_*`` environment variable the tree reads, and every
``engine`` / ``ir`` / ``coherence`` / ``swmodel`` mode knob threaded
through the call graph, is declared **here** — one import-light module
(stdlib only, importable from anywhere without cycles) that three
consumers share:

* the benchmark suite's scene filter (``$REPRO_SCENES``, the one
  environment knob) reads the environment through :func:`env` instead
  of touching ``os.environ`` directly.  The path-mode knobs have no
  environment default: each is chosen by the caller that takes it;
* the CLI builds its ``--ir`` / ``--coherence`` / ``--swmodel`` options
  from the same declarations, so help text and accepted values cannot
  drift from the code;
* ``repro lint`` (see :mod:`repro.analysis`) statically cross-checks the
  tree against these declarations: rule R4 flags ``REPRO_*`` environment
  reads that bypass the registry or name an unregistered knob, and rule
  R5 flags mode literals outside the declared sets plus declared oracle
  paths that no test exercises.

``engine`` is the hardware pipeline's flush engine, chosen only at
:meth:`repro.hwmodel.pipeline.GraphicsPipeline.draw`.  The LRU cache has
no engine choice: :meth:`repro.hwmodel.caches.LRUCache.access_segmented`
always takes the vectorized replay, and its reference (``access_many``)
is checked by name.  Multipass has no knob either: its workspace follows
the stream, as digestion does, so its oracle is reached through
``ir="legacy"``.
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

#: Valid values of the CUDA warp model's ``swmodel`` knob (FrameIR-backed
#: engine vs the retained fragment-sort oracle; see
#: :mod:`repro.swrender.warp_model`).
SWMODEL_MODES = ("auto", "legacy")

#: Valid values of the pipeline flush ``engine`` knob (batched flush
#: plan vs the scalar per-flush oracle; see
#: :class:`repro.hwmodel.pipeline.GraphicsPipeline`).
PIPELINE_ENGINES = ("batched", "scalar")

#: The registered ``REPRO_*`` environment knobs: ``REPRO_SCENES`` (the
#: scene subset the pytest benchmark suite evaluates).  ``repro lint``
#: rule R4 rejects any ``os.environ`` read of a ``REPRO_*`` name missing
#: from this tuple.
ENV_KNOBS = ("REPRO_SCENES",)


def env(name):
    """Read a registered knob from the environment (``""`` when unset).

    The single sanctioned ``os.environ`` access path for ``REPRO_*``
    names — lint rule R4 flags direct reads anywhere else.  Raises
    ``KeyError`` for names not in :data:`ENV_KNOBS`.
    """
    if name not in ENV_KNOBS:
        raise KeyError(name)
    return os.environ.get(name, "")


#: Mode-knob declarations for lint rule R5: for each knob parameter
#: name, the full set of legal mode literals anywhere in the tree.
MODE_KNOBS = {
    "ir": IR_MODES,
    "coherence": COHERENCE_MODES,
    "swmodel": SWMODEL_MODES,
    "engine": PIPELINE_ENGINES,
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
    {"symbol": "access_many", "pair": "replay_tag_stream",
     "knob": None, "mode": None},
    {"symbol": "from_stream", "pair": "from_ir",
     "knob": "ir", "mode": "legacy"},
    {"symbol": "_simulate_tile_warps_legacy", "pair": "_simulate_tile_warps_ir",
     "knob": "swmodel", "mode": "legacy"},
    {"symbol": "_multipass_workspace_legacy", "pair": "_multipass_workspace_ir",
     "knob": "ir", "mode": "legacy"},
)
