"""Trajectory rendering engine: backends, sessions, execution, caching.

The engine runs the paper's multi-view aggregates.  It builds each
rendering path from a spec string (:mod:`repro.engine.backends`),
simulates multi-frame trajectories through
:class:`~repro.engine.session.RenderSession`, fans independent frames
out over the threaded executor (a failing frame raises), and memoises
results in-process and on disk (:mod:`repro.engine.cache`).
"""

from repro.engine.backends import (
    FrameResult,
    available_backends,
    create_backend,
    make_device,
)
from repro.engine.cache import (
    ResultCache,
    clear_cache,
    get_cloud,
    get_draw,
    get_scenario,
)
from repro.engine.executor import run_frames
from repro.engine.session import (
    FrameRecord,
    RenderSession,
    TrajectoryResult,
    geomean,
)

__all__ = [
    "FrameRecord",
    "FrameResult",
    "RenderSession",
    "ResultCache",
    "TrajectoryResult",
    "available_backends",
    "clear_cache",
    "create_backend",
    "geomean",
    "get_cloud",
    "get_draw",
    "get_scenario",
    "make_device",
    "run_frames",
]
