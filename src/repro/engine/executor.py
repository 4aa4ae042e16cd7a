"""Parallel frame execution.

Frames of a trajectory are independent (every draw starts on fresh
hardware state, and parallel runs bypass the session's coherence
carrier), so they fan out over a thread pool: the simulation is
numpy-heavy, and every worker shares the read-only scene cloud with
zero copies.  Results always come back in frame order,
so serial and parallel runs are bit-identical.  A failing frame raises
(see :func:`run_frames`); the model is deterministic, so a frame
exception is a bug to surface, not a fault to heal.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait


def run_frames(fn, tasks, jobs=1):
    """Apply ``fn`` to every task, optionally across ``jobs`` workers.

    Returns results in task order regardless of completion order; with
    ``jobs <= 1`` the frames run serially in the calling thread (required
    when frames share mutable state such as the session's coherence
    carrier).

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
