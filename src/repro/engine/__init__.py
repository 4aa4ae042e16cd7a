"""Trajectory rendering engine: backends, sessions, execution, caching.

The engine is the platform layer every scaling feature plugs into.  It
unifies the library's three rendering paths behind one
:class:`~repro.engine.backends.RendererBackend` protocol, simulates
multi-frame trajectories through :class:`~repro.engine.session.RenderSession`,
fans independent frames out over the parallel executor, and memoises
results in-process and on disk (:mod:`repro.engine.cache`).
"""

from repro.engine.backends import (
    FrameResult,
    RendererBackend,
    available_backends,
    backend_spec,
    create_backend,
    make_cuda_renderer,
    make_device,
    register_backend,
    resolve_backend,
)
from repro.engine.cache import (
    ResultCache,
    clear_cache,
    get_cloud,
    get_draw,
    get_scenario,
)
from repro.engine.executor import (
    FrameExecutionError,
    FrameIncident,
    FrameLadderExhausted,
    frame_seed,
    run_frames,
)
from repro.engine.session import (
    FrameRecord,
    RenderSession,
    TrajectoryResult,
    geomean,
)

__all__ = [
    "FrameExecutionError",
    "FrameIncident",
    "FrameLadderExhausted",
    "FrameRecord",
    "FrameResult",
    "RendererBackend",
    "RenderSession",
    "ResultCache",
    "TrajectoryResult",
    "available_backends",
    "backend_spec",
    "clear_cache",
    "create_backend",
    "frame_seed",
    "geomean",
    "get_cloud",
    "get_draw",
    "get_scenario",
    "make_cuda_renderer",
    "make_device",
    "register_backend",
    "resolve_backend",
    "run_frames",
]
