"""Parallel frame execution with deterministic per-frame seeding.

Frames of a trajectory are independent once cross-frame state (warm CROP
cache) is disabled, so they fan out over a thread pool:
the simulation is numpy-heavy, and every worker shares the read-only
scene cloud with zero copies.  Results always come back in frame order,
so serial and parallel runs are bit-identical.  Each frame also carries
a deterministic seed (see :func:`frame_seed`) so backends that do draw
randomness stay reproducible across workers and reruns.

This module also owns the structured failure types of the self-healing
frame executor (see :class:`~repro.engine.session.RenderSession`):
:class:`FrameIncident` records one recovered (or fatal) fault,
:class:`FrameLadderExhausted` is raised when every degradation rung
failed, and :class:`FrameExecutionError` wraps a parallel worker's
failure with the frame's identity and the results completed so far.
"""

from __future__ import annotations

import zlib
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait


def frame_seed(scene_name, base_seed, index):
    """Deterministic, process-independent seed for one trajectory frame.

    Uses crc32 rather than ``hash()`` (which varies with PYTHONHASHSEED),
    so parallel workers, reruns, and disk-cache entries all agree.  The
    built-in backends are pure functions of (cloud, camera) and draw no
    randomness; the seed is recorded on each frame's record so stochastic
    backends (sampling, jittered viewpoints) plug in without changing the
    reproducibility story.
    """
    token = f"{scene_name}:{int(base_seed)}:{int(index)}".encode("ascii")
    return zlib.crc32(token) & 0x7FFFFFFF


class FrameIncident:
    """One fault encountered (and usually healed) while rendering a frame.

    ``rung`` is the degradation-ladder rung that was *running* when the
    fault struck; ``recovered_by`` is the rung that eventually produced
    the frame (``None`` while unresolved, or when the ladder exhausted).
    ``point`` is the named injection/failure point when the exception
    carried one.  ``wall_ms`` is the wall-clock cost of the failed
    attempt — incidents are operational telemetry, so unlike the modeled
    per-frame numbers this is measured time.
    """

    __slots__ = ("frame", "rung", "point", "error", "recovered_by",
                 "wall_ms")

    def __init__(self, frame, rung, error, point=None, recovered_by=None,
                 wall_ms=0.0):
        self.frame = int(frame)
        self.rung = rung
        self.point = point
        self.error = error
        self.recovered_by = recovered_by
        self.wall_ms = float(wall_ms)

    def to_dict(self):
        return {"frame": self.frame, "rung": self.rung, "point": self.point,
                "error": self.error, "recovered_by": self.recovered_by,
                "wall_ms": self.wall_ms}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["frame"], payload["rung"], payload["error"],
                   point=payload.get("point"),
                   recovered_by=payload.get("recovered_by"),
                   wall_ms=payload.get("wall_ms", 0.0))

    def __repr__(self):
        return (f"FrameIncident(frame={self.frame}, rung={self.rung!r}, "
                f"point={self.point!r}, recovered_by={self.recovered_by!r})")


class FrameLadderExhausted(RuntimeError):
    """Every rung of a frame's degradation ladder failed.

    Carries the frame's identity and the full incident trail so callers
    (and operators) see exactly what was tried.
    """

    def __init__(self, index, seed, incidents):
        self.index = int(index)
        self.seed = int(seed)
        self.incidents = list(incidents)
        last = self.incidents[-1].error if self.incidents else "unknown"
        super().__init__(
            f"frame {self.index} (seed {self.seed}) failed every "
            f"degradation rung ({len(self.incidents)} attempts); "
            f"last error: {last}")


class FrameExecutionError(RuntimeError):
    """A parallel frame worker failed.

    Wraps the original exception (as ``__cause__``) with the failing
    frame's index and seed, plus the results of every frame that *did*
    complete (``completed``, a dict ``{frame index: result}``) so a
    caller can salvage partial progress instead of losing the run.
    """

    def __init__(self, index, seed, completed):
        self.index = int(index)
        self.seed = int(seed)
        self.completed = dict(completed)
        super().__init__(
            f"frame {self.index} (seed {self.seed}) failed; "
            f"{len(self.completed)} other frame(s) completed")


def run_frames(fn, tasks, jobs=1, task_info=None):
    """Apply ``fn`` to every task, optionally across ``jobs`` workers.

    Returns results in task order regardless of completion order; with
    ``jobs <= 1`` the frames run serially in the calling thread (required
    when frames share mutable state such as a warm CROP cache), and
    exceptions propagate unwrapped.

    In parallel mode a worker exception cancels the not-yet-started
    frames, drains the in-flight ones, and re-raises as a
    :class:`FrameExecutionError` carrying the failing frame's index/seed
    and the completed results.  ``task_info`` optionally maps a task to
    its ``(index, seed)`` identity for that error (defaults to the task
    list position and seed 0).
    """
    tasks = list(tasks)
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    if task_info is None:
        task_info = lambda task, position: (position, 0)  # noqa: E731
    with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
        failed_at = None
        for position, future in enumerate(futures):
            if future.done() and not future.cancelled() \
                    and future.exception() is not None:
                failed_at = position
                break
        if failed_at is None:
            return [future.result() for future in futures]
        # Cancel everything not yet started, then drain what is running.
        for future in futures:
            future.cancel()
        wait(futures)
        completed = {}
        for position, future in enumerate(futures):
            if future.cancelled() or future.exception() is not None:
                continue
            index, _ = task_info(tasks[position], position)
            completed[index] = future.result()
        index, seed = task_info(tasks[failed_at], failed_at)
        raise FrameExecutionError(index, seed, completed) \
            from futures[failed_at].exception()
