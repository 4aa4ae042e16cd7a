"""Parallel frame execution and the frame executor's failure types.

Frames of a trajectory are independent once cross-frame state (warm CROP
cache) is disabled, so they fan out over a thread pool:
the simulation is numpy-heavy, and every worker shares the read-only
scene cloud with zero copies.  Results always come back in frame order,
so serial and parallel runs are bit-identical.

This module also owns the structured failure types of the self-healing
frame executor (see :class:`~repro.engine.session.RenderSession`):
:class:`FrameIncident` records one recovered (or fatal) fault, and
:class:`FrameLadderExhausted` is raised when every degradation rung
failed.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait


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

    Carries the frame's index and the full incident trail so callers
    (and operators) see exactly what was tried.
    """

    def __init__(self, index, incidents):
        self.index = int(index)
        self.incidents = list(incidents)
        last = self.incidents[-1].error if self.incidents else "unknown"
        super().__init__(
            f"frame {self.index} failed every degradation rung "
            f"({len(self.incidents)} attempts); last error: {last}")


def run_frames(fn, tasks, jobs=1):
    """Apply ``fn`` to every task, optionally across ``jobs`` workers.

    Returns results in task order regardless of completion order; with
    ``jobs <= 1`` the frames run serially in the calling thread (required
    when frames share mutable state such as a warm CROP cache).

    In parallel mode a worker exception cancels the frames that have not
    started, waits for the running ones, and propagates as it was raised
    (the first failed task in task order wins).
    """
    tasks = list(tasks)
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future.done() and future.exception() is not None:
                pool.shutdown(cancel_futures=True)
                raise future.exception()
        return [future.result() for future in futures]
