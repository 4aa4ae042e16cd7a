"""repro.serve: fault-tolerant request serving over the render engine.

The serving layer (PR 9) turns the single-trajectory
:class:`~repro.engine.session.RenderSession` into a single-box service:
a bounded worker pool with admission control (typed rejections:
``queue_full`` / ``deadline_unmeetable`` / ``shedding``), per-request
deadlines wired into the engine's cooperative watchdog, and a bounded
LRU of resident scenes that keeps warm cross-request state (coherence
carrier, opt-in CROP cache) without unbounded memory growth.  Frames
heal through the session's own ladder (primary → retry → reference).

Invariant: **no request is ever lost or silently wrong** — every
admitted request terminates in a bit-exact (possibly incident-annotated)
:class:`Completed` result or a typed :class:`Failed` / :class:`Rejected`
response.  ``repro bench --suite service`` and ``tests/test_serve.py``
enforce this under seeded chaos plans.
"""

from repro.serve.loadgen import LoadReport, LoadSpec, run_load
from repro.serve.request import (
    FAILURE_REASONS,
    REJECT_REASONS,
    Completed,
    Failed,
    PendingRequest,
    Rejected,
    RenderRequest,
)
from repro.serve.residency import ResidentScene, SceneResidency
from repro.serve.service import RenderService

__all__ = [
    "FAILURE_REASONS",
    "REJECT_REASONS",
    "Completed",
    "Failed",
    "LoadReport",
    "LoadSpec",
    "PendingRequest",
    "Rejected",
    "RenderRequest",
    "RenderService",
    "ResidentScene",
    "SceneResidency",
    "run_load",
]
